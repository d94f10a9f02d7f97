// E8 — line-rate stream processing (tutorial §1: "line rate processing,
// enabling processing streams of data out of the network, disks, or memory
// without performance loss").
//
// Shape to verify: pipelined operators (filter, HyperLogLog, Count-Min,
// group-by) consume one tuple per lane per cycle regardless of content, so
// a two-tuple-per-cycle datapath at 200 MHz sustains ~128 Gbps; and throughput
// is *independent of selectivity*, which no CPU implementation achieves.
// The bench exits non-zero when a shape it checks fails: every pipeline run
// succeeds, every FPGA row reaches 100 Gbps, the three filter rows take the
// same cycles (and the qty >= 25 one the golden count), and the CPU stays
// below 100 Gbps and speeds up as selectivity falls. The perf ctest tier
// runs it as the E8 guard.

#include <iostream>
#include <string>

#include "src/common/table_printer.h"
#include "src/device/device.h"
#include "src/relational/cpu_executor.h"
#include "src/relational/fpga_executor.h"
#include "src/relational/sketches.h"
#include "src/relational/table.h"

#include "bench/bench_common.h"

using namespace fpgadp;
using namespace fpgadp::rel;

int main(int argc, char** argv) {
  fpgadp::bench::Session session(argc, argv);
  std::cout << "=== E8: line-rate operators on the streaming datapath ===\n";
  SyntheticTableSpec spec;
  spec.num_rows = 200000;
  spec.seed = 8;
  Table table = MakeSyntheticTable(spec);
  const double bits = double(table.total_bytes()) * 8;
  std::cout << "stream: " << table.num_rows()
            << " tuples x 40 B, 2 tuples/cycle (640-bit datapath) @ 200 MHz\n\n";

  FpgaOptions options;
  options.lanes = 2;
  options.stream_depth = 32;

  bool shapes_hold = true;
  auto expect = [&](bool holds, const std::string& shape) {
    if (!holds) {
      std::cerr << "E8 shape failed: " << shape << "\n";
      shapes_hold = false;
    }
  };

  TablePrinter t({"operator", "cycles", "tuples/cycle", "Gbps", ">= 100G?"});
  auto add_row = [&](const std::string& name, const FpgaRunStats& stats) {
    const double tuples_per_cycle =
        double(table.num_rows()) / double(stats.cycles);
    const double gbps = bits / stats.seconds / 1e9;
    expect(gbps >= 100, name + ": below 100 Gbps");
    t.AddRow({name, TablePrinter::FmtCount(stats.cycles),
              TablePrinter::Fmt(tuples_per_cycle, 2),
              TablePrinter::Fmt(gbps, 1), gbps >= 100 ? "yes" : "NO"});
  };

  // Pre-fault-model cycle count for the qty>=25 filter, captured from the
  // seed build; a drift here means some supposedly inert change perturbed
  // the cycle-level simulation.
  constexpr uint64_t kGoldenFilterCycles = 100007;

  // Filters at three selectivities: cycles must not depend on survival.
  uint64_t filter_cycles = 0;
  for (int64_t qty : {0, 25, 49}) {
    Program p;
    FilterOp f;
    f.conjuncts.push_back(Predicate{4, CmpOp::kGe, qty});
    p.ops.push_back(f);
    auto stats = ExecuteFpga(p, table, options);
    if (!stats.ok()) {
      std::cerr << "failed: " << stats.status() << "\n";
      return session.Fail();
    }
    if (qty == 25 && stats->cycles != kGoldenFilterCycles) {
      std::cerr << "FAIL: filter cycle count drifted from the golden "
                   "baseline (got "
                << stats->cycles << ", want " << kGoldenFilterCycles << ")\n";
      return session.Fail();
    }
    const double sel =
        double(stats->output.num_rows()) / double(table.num_rows());
    const std::string name = "filter (sel " + TablePrinter::Fmt(sel, 2) + ")";
    if (filter_cycles == 0) filter_cycles = stats->cycles;
    expect(stats->cycles == filter_cycles,
           name + ": cycles differ from the sel 1.00 filter's");
    add_row(name, *stats);
  }
  {
    Program p;
    p.ops.push_back(AggregateOp{AggKind::kSum, 4, false});
    auto stats = ExecuteFpga(p, table, options);
    expect(stats.ok(), "sum aggregate failed: " + stats.status().ToString());
    if (stats.ok()) add_row("sum aggregate", *stats);
  }
  {
    Program p;
    GroupByOp g;
    g.group_column = 2;
    g.agg = AggregateOp{AggKind::kCount, 0, false};
    p.ops.push_back(g);
    auto stats = ExecuteFpga(p, table, options);
    expect(stats.ok(), "group-by count failed: " + stats.status().ToString());
    if (stats.ok()) add_row("group-by count", *stats);
  }
  // Sketches: 1 update/cycle/lane by construction; model as a pass-through
  // pipeline feeding the sketch functionally.
  {
    auto hll = HyperLogLog::Create(14);
    Program p;  // identity pipeline carries the stream at line rate
    auto stats = ExecuteFpga(p, table, options);
    expect(stats.ok() && hll.ok(), "HyperLogLog pipeline failed: " +
                                       stats.status().ToString() + " / " +
                                       hll.status().ToString());
    if (stats.ok() && hll.ok()) {
      for (const Row& r : table.rows()) hll->Add(uint64_t(r.Get(1)));
      add_row("HyperLogLog sketch", *stats);
      std::cout << "  (HLL distinct-key estimate: "
                << TablePrinter::FmtCount(uint64_t(hll->Estimate()))
                << ", stream carried at line rate)\n";
    }
  }
  t.Print(std::cout);

  std::cout << "\n--- CPU contrast: filter throughput depends on "
               "selectivity ---\n";
  TablePrinter c({"selectivity", "CPU time (model, ms)", "CPU Gbps"});
  device::CpuModel cpu;
  double prev_cpu_gbps = 0;
  for (int64_t qty : {0, 25, 49}) {
    Program p;
    FilterOp f;
    f.conjuncts.push_back(Predicate{4, CmpOp::kGe, qty});
    p.ops.push_back(f);
    auto out = ExecuteCpu(p, table);
    expect(out.ok(), "CPU filter failed: " + out.status().ToString());
    if (!out.ok()) continue;
    // CPU cost: stream the input + write the surviving tuples back.
    const double seconds = cpu.StreamSeconds(table.total_bytes()) +
                           cpu.StreamSeconds(out->total_bytes()) +
                           double(table.num_rows()) * 2e-9;  // ~2 ns/tuple predicate+branch
    const double cpu_gbps = bits / seconds / 1e9;
    const std::string sel =
        TablePrinter::Fmt(double(out->num_rows()) / table.num_rows(), 2);
    expect(cpu_gbps < 100, "CPU filter at sel " + sel + " reaches 100 Gbps");
    expect(cpu_gbps > prev_cpu_gbps,
           "CPU filter at sel " + sel + " is not faster than at the higher "
           "selectivity before it");
    prev_cpu_gbps = cpu_gbps;
    c.AddRow({sel, TablePrinter::Fmt(seconds * 1e3, 2),
              TablePrinter::Fmt(cpu_gbps, 1)});
  }
  c.Print(std::cout);
  std::cout << "\npaper expectation: every streaming operator sustains "
               ">= 100 Gbps with cycles\nindependent of data content; the "
               "CPU both falls short of line rate and slows\nfurther as "
               "more tuples survive.\n";
  return shapes_hold ? 0 : session.Fail();
}
