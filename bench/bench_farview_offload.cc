// E1 — Farview operator offloading (tutorial Use Case I, Figure 2).
//
// Reproduces the headline claim of the Farview design: pushing selection /
// aggregation into the disaggregated-memory node reduces data movement, and
// the win over the fetch-all architecture grows as selectivity drops.
// Shape to verify: offload >= 1x at selectivity 1.0, multiple-x as
// selectivity -> 0 until the memory node's DRAM scan bounds it, data
// movement ratio == selectivity. Let F be the sum(qty) offload's cycles (the
// scan floor: one row crosses the wire) and W one result chunk's wire time.
// The bench exits non-zero when a shape it checks fails: offloaded wire
// bytes equal result rows x row bytes, offload and fetch-all return the same
// row count, every query sends at most ceil(result bytes / chunk) + 1
// packets, no offload beats F, the most selective filter finishes within
// F + W, the speedup is >= 1x at selectivity 1.0, and it does not fall as
// selectivity drops except between two filters that both finish within
// F + W (at the floor only the size of the last partial chunk differs). The
// perf ctest tier runs it as the E1 guard.

#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/table_printer.h"
#include "src/farview/farview.h"
#include "src/relational/queries.h"
#include "src/relational/table.h"

#include "bench/bench_common.h"

using namespace fpgadp;

int main(int argc, char** argv) {
  fpgadp::bench::Session session(argc, argv);
  std::cout << "=== E1: Farview operator offloading vs fetch-all ===\n";
  std::cout << "table: 500k rows x 40 B, 2 DDR4 channels on the memory node,"
               " 100 Gbps fabric, seed 42\n\n";

  const farview::FarviewConfig config;
  farview::FarviewSystem system(config);
  rel::SyntheticTableSpec spec;
  spec.num_rows = 500000;
  spec.seed = 42;
  rel::Table table = rel::MakeSyntheticTable(spec);
  const uint64_t tid = system.LoadTable(table);

  bool shapes_hold = true;
  auto expect = [&](bool holds, const std::string& shape) {
    if (!holds) {
      std::cerr << "E1 shape failed: " << shape << "\n";
      shapes_hold = false;
    }
  };
  std::vector<std::pair<std::string, uint64_t>> offload_cycles;
  // Checks the shapes every query shares; false if either run failed.
  auto check_query = [&](const std::string& name,
                         const Result<farview::QueryStats>& off,
                         const Result<farview::QueryStats>& fetch) {
    if (!off.ok() || !fetch.ok()) {
      expect(false, name + " failed: " + off.status().ToString() + " / " +
                        fetch.status().ToString());
      return false;
    }
    expect(off->wire_bytes == off->result.total_bytes(),
           name + ": offloaded wire bytes != result rows x row bytes");
    expect(off->result.num_rows() == fetch->result.num_rows(),
           name + ": offload and fetch-all row counts differ");
    const uint64_t chunk = config.result_chunk_bytes;
    expect(off->result_packets <=
               (off->result.total_bytes() + chunk - 1) / chunk + 1,
           name + ": more packets than whole result chunks plus one");
    offload_cycles.emplace_back(name, off->cycles);
    return true;
  };
  struct FilterRun {
    std::string name;
    uint64_t cycles;
    double speedup;
  };
  std::vector<FilterRun> filters;  // in falling selectivity

  TablePrinter t({"query", "selectivity", "wire (offload)", "wire (fetch)",
                  "offload ms", "fetch ms", "speedup"});
  for (int64_t qty : {0, 20, 35, 45, 48, 49}) {
    rel::Program program;
    rel::FilterOp f;
    f.conjuncts.push_back(rel::Predicate{4, rel::CmpOp::kGe, qty});
    program.ops.push_back(f);
    const uint64_t pid = system.RegisterProgram(program);
    auto off = system.RunOffloaded(tid, pid);
    auto fetch = system.RunFetchAll(tid, pid);
    const std::string name = "qty >= " + std::to_string(qty);
    if (!check_query(name, off, fetch)) return session.Fail();
    const double sel = double(off->result.num_rows()) / double(table.num_rows());
    const double speedup = fetch->seconds / off->seconds;
    if (sel == 1.0) {
      expect(speedup >= 1.0, name + ": offload slower than fetch-all at 1.0");
    }
    filters.push_back({name, off->cycles, speedup});
    t.AddRow({name,
              TablePrinter::Fmt(sel, 3),
              TablePrinter::FmtCount(off->wire_bytes),
              TablePrinter::FmtCount(fetch->wire_bytes),
              TablePrinter::Fmt(off->seconds * 1e3, 3),
              TablePrinter::Fmt(fetch->seconds * 1e3, 3),
              TablePrinter::Fmt(speedup, 2) + "x"});
  }
  // Aggregation pushdown: the extreme case — one scalar crosses the wire.
  rel::Program agg;
  agg.ops.push_back(rel::AggregateOp{rel::AggKind::kSum, 4, false});
  const uint64_t apid = system.RegisterProgram(agg);
  auto aoff = system.RunOffloaded(tid, apid);
  auto afetch = system.RunFetchAll(tid, apid);
  if (!check_query("sum(qty)", aoff, afetch)) return session.Fail();
  t.AddRow({"sum(qty)", "1 row", TablePrinter::FmtCount(aoff->wire_bytes),
            TablePrinter::FmtCount(afetch->wire_bytes),
            TablePrinter::Fmt(aoff->seconds * 1e3, 3),
            TablePrinter::Fmt(afetch->seconds * 1e3, 3),
            TablePrinter::Fmt(afetch->seconds / aoff->seconds, 2) + "x"});
  t.Print(std::cout);
  const uint64_t floor = aoff->cycles;
  const uint64_t at_floor =
      floor + system.fabric().SerializationCycles(config.result_chunk_bytes);
  expect(filters.back().cycles <= at_floor,
         filters.back().name + ": most selective filter not at the scan floor");
  for (size_t i = 1; i < filters.size(); ++i) {
    const FilterRun& a = filters[i - 1];
    const FilterRun& b = filters[i];
    if (a.cycles <= at_floor && b.cycles <= at_floor) continue;
    expect(b.speedup >= a.speedup,
           b.name + ": speedup fell as selectivity dropped");
  }

  // TPC-H-flavoured shapes (recognizable pushdown candidates).
  std::cout << "\n--- canned queries ---\n";
  TablePrinter q({"query", "result rows", "wire (offload)", "offload ms",
                  "fetch ms", "speedup"});
  struct Named {
    const char* name;
    rel::Program program;
  };
  const Named named[] = {
      {"Q1-lite (groupby sum)", rel::MakeQ1Lite()},
      {"Q6-lite (3-pred filter + sum)", rel::MakeQ6Lite()},
      {"Top-10 expensive", rel::MakeTopExpensive()},
  };
  for (const Named& n : named) {
    const uint64_t pid = system.RegisterProgram(n.program);
    auto off = system.RunOffloaded(tid, pid);
    auto fetch = system.RunFetchAll(tid, pid);
    if (!check_query(n.name, off, fetch)) continue;
    q.AddRow({n.name, TablePrinter::FmtCount(off->result.num_rows()),
              TablePrinter::FmtCount(off->wire_bytes),
              TablePrinter::Fmt(off->seconds * 1e3, 3),
              TablePrinter::Fmt(fetch->seconds * 1e3, 3),
              TablePrinter::Fmt(fetch->seconds / off->seconds, 2) + "x"});
  }
  q.Print(std::cout);
  for (const auto& [name, cycles] : offload_cycles) {
    expect(cycles >= floor, name + ": offload beat the scan floor");
  }
  std::cout << "\npaper expectation: offload wins grow as selectivity drops; "
               "aggregation, group-by\nand top-N pushdown move O(1)-ish bytes "
               "instead of the table. All shapes\nreproduce above.\n";
  return shapes_hold ? 0 : session.Fail();
}
