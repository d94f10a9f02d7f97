// E9 — FPGA hash joins (tutorial §1 ref [5], "Is FPGA Useful for Hash
// Joins?", CIDR'20).
//
// Shape to verify: the pipelined FPGA probe sustains one tuple per lane
// per cycle regardless of match rate and build-side size (BRAM-resident
// table, 1-cycle access), while the CPU probe degrades as the hash table
// outgrows the caches — the crossover argument of the CIDR paper.

#include <chrono>
#include <iostream>
#include <unordered_map>

#include "src/common/table_printer.h"
#include "src/device/device.h"
#include "src/relational/cpu_executor.h"
#include "src/relational/fpga_executor.h"
#include "src/relational/table.h"

#include "bench/bench_common.h"

using namespace fpgadp;
using namespace fpgadp::rel;

namespace {

Table DimTable(size_t rows) {
  Schema schema({{"k", ColumnType::kInt64}, {"payload", ColumnType::kInt64}});
  Table t(schema);
  t.Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    Row r;
    r.Set(0, int64_t(i));
    r.Set(1, int64_t(i) * 3);
    t.Append(r);
  }
  return t;
}

/// Analytic CPU probe cost: hash+compare per probe, plus a DRAM-class miss
/// once the build table exceeds the LLC.
double CpuJoinSeconds(size_t build_rows, size_t probe_rows,
                      const device::CpuModel& cpu) {
  const double build_bytes = double(build_rows) * 48;  // bucket + row
  const double hit_ns = build_bytes <= double(cpu.llc_bytes)
                            ? 6.0   // LLC-resident probe
                            : cpu.mem_random_latency_ns;
  return (double(build_rows) * 8.0 +  // build inserts
          double(probe_rows) * hit_ns) *
         1e-9;
}

}  // namespace

int main(int argc, char** argv) {
  fpgadp::bench::Session session(argc, argv);
  std::cout << "=== E9: pipelined FPGA hash join vs CPU ===\n";
  std::cout << "PK-FK join, probe side 400k tuples, 8-lane probe pipeline\n\n";

  SyntheticTableSpec spec;
  spec.num_rows = 400000;
  spec.key_cardinality = 1 << 22;
  spec.seed = 9;
  Table fact = MakeSyntheticTable(spec);
  device::CpuModel cpu;

  FpgaOptions options;
  options.lanes = 8;
  options.stream_depth = 32;

  TablePrinter t({"build rows", "build bytes", "match rate",
                  "FPGA probe Mtuples/s", "FPGA total ms", "CPU ms (model)",
                  "speedup"});
  for (size_t build : {1u << 10, 1u << 14, 1u << 18, 1u << 21}) {
    Table dim = DimTable(build);
    // Re-key the probe side so the match rate is ~50% at every build size.
    Table probe = fact;
    for (size_t i = 0; i < probe.num_rows(); ++i) {
      probe.row(i).Set(1, int64_t(probe.row(i).Get(1) % (2 * build)));
    }
    auto fpga = HashJoinFpga(dim, probe, JoinSpec{0, 1}, options);
    if (!fpga.ok()) {
      std::cerr << "join failed: " << fpga.status() << "\n";
      return session.Fail();
    }
    const double match =
        double(fpga->output.num_rows()) / double(probe.num_rows());
    const double cpu_s = CpuJoinSeconds(build, probe.num_rows(), cpu);
    // HashJoinFpga charges the BRAM build at one tuple/cycle; subtract it
    // to expose the probe pipeline's (flat) rate.
    const uint64_t probe_cycles = fpga->cycles - build;
    const double probe_seconds = double(probe_cycles) / 200e6;
    t.AddRow({TablePrinter::FmtCount(build),
              TablePrinter::FmtCount(build * 16),
              TablePrinter::Fmt(match, 2),
              TablePrinter::Fmt(
                  double(probe.num_rows()) / probe_seconds / 1e6, 0),
              TablePrinter::Fmt(fpga->seconds * 1e3, 2),
              TablePrinter::Fmt(cpu_s * 1e3, 2),
              TablePrinter::Fmt(cpu_s / fpga->seconds, 1) + "x"});
  }
  t.Print(std::cout);
  std::cout << "\npaper expectation: FPGA probe throughput is flat across "
               "build sizes and match\nrates; the CPU is competitive while "
               "the table is cache-resident and falls\nbehind once probes "
               "miss to DRAM — the CIDR'20 crossover.\n";
  return 0;
}
