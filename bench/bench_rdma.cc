// E2 — RDMA stack characterization (tutorial Use Case I: "an open-source
// RDMA stack that brings it to a competitive level with existing commercial
// solutions").
//
// Shape to verify: single-digit-microsecond READ latency for small
// transfers; bandwidth approaching the 100 Gbps line rate for large,
// pipelined transfers; outstanding operations amortize the round trip.

#include <chrono>
#include <iostream>
#include <vector>

#include "src/common/table_printer.h"
#include "src/net/fabric.h"
#include "src/net/rdma.h"
#include "src/sim/engine.h"

#include "bench/bench_common.h"

using namespace fpgadp;
using namespace fpgadp::net;

namespace {

struct Harness {
  Fabric fabric;
  RdmaEndpoint a;
  RdmaEndpoint b;
  sim::Engine engine;

  explicit Harness(FaultInjector* injector = nullptr,
                   const Retry& rel = {})
      : fabric("fab", 2, [] {
          Fabric::Config c;
          c.clock_hz = 200e6;
          return c;
        }()),
        a("a", 0, &fabric, rel), b("b", 1, &fabric, rel) {
    fabric.set_fault_injector(injector);
    fabric.RegisterWith(engine);
    engine.AddModule(&a);
    engine.AddModule(&b);
  }

  /// Issues `count` reads of `bytes` each and runs until all complete.
  /// Returns elapsed cycles.
  uint64_t TimedReads(int count, uint64_t bytes) {
    const sim::Cycle start = engine.now();
    for (int i = 0; i < count; ++i) {
      a.PostRead(1, uint64_t(i) * bytes, bytes, i);
    }
    int done = 0;
    Completion c;
    while (done < count) {
      engine.Step();
      while (a.PollCompletion(&c)) ++done;
    }
    return engine.now() - start;
  }

  /// Mixed PostWrite/PostRead workload on a (possibly lossy) fabric; runs
  /// until every op completes or the endpoint gives up. Returns elapsed
  /// cycles, or 0 on failure.
  uint64_t TimedMixed(int count, uint64_t bytes) {
    const sim::Cycle start = engine.now();
    for (int i = 0; i < count; ++i) {
      if (i % 2 == 0) {
        a.PostWrite(1, uint64_t(i) * bytes, bytes, i);
      } else {
        a.PostRead(1, uint64_t(i) * bytes, bytes, i);
      }
    }
    int done = 0;
    Completion c;
    const uint64_t kCap = 1ull << 28;
    while (done < count && engine.now() - start < kCap) {
      engine.Step();
      while (a.PollCompletion(&c)) {
        if (c.status != StatusCode::kOk) return 0;
        ++done;
      }
      if (a.failed() || b.failed()) return 0;
    }
    return done == count ? engine.now() - start : 0;
  }
};

// Pre-fault-model cycle counts, captured from the seed build. With no
// injector attached the reliability machinery must be completely inert, so
// these runs have to stay bit-identical.
constexpr uint64_t kGolden64x4KiBCycles = 4700;
constexpr uint64_t kGolden1x1MiBCycles = 17191;

}  // namespace

int main(int argc, char** argv) {
  uint64_t fault_seed = 1;
  double drop_rate = 0;
  bench::Session session(argc, argv,
                         {bench::RangeFlag("--fault-seed=", 0, UINT64_MAX, &fault_seed),
                          bench::ProbabilityFlag("--drop-rate=", &drop_rate)});
  std::cout << "=== E2: RDMA READ latency / bandwidth on the 100 Gbps fabric "
               "===\n\n";

  TablePrinter lat({"size", "1 read latency", "64 pipelined reads",
                    "effective BW (pipelined)"});
  uint64_t cycles_64x4k = 0;
  uint64_t cycles_1x1m = 0;
  for (uint64_t bytes : {64ull, 512ull, 4096ull, 65536ull, 1048576ull}) {
    Harness h1;
    const uint64_t one_cycles = h1.TimedReads(1, bytes);
    const double one = double(one_cycles) / 200e6;
    Harness h64;
    const uint64_t many_cycles = h64.TimedReads(64, bytes);
    const double many = double(many_cycles) / 200e6;
    if (bytes == 4096) cycles_64x4k = many_cycles;
    if (bytes == 1048576) cycles_1x1m = one_cycles;
    const double bw = 64.0 * double(bytes) / many;
    std::string size = bytes >= 1048576 ? "1 MiB"
                       : bytes >= 65536 ? "64 KiB"
                       : bytes >= 4096  ? "4 KiB"
                       : bytes >= 512   ? "512 B"
                                        : "64 B";
    lat.AddRow({size, TablePrinter::Fmt(one * 1e6, 2) + " us",
                TablePrinter::Fmt(many * 1e6, 1) + " us",
                TablePrinter::Fmt(bw / 1e9, 2) + " GB/s"});
  }
  lat.Print(std::cout);

  // Zero-overhead guard: the fault-injection/reliability machinery must not
  // perturb loss-free timing by even one cycle.
  if (cycles_64x4k != kGolden64x4KiBCycles ||
      cycles_1x1m != kGolden1x1MiBCycles) {
    std::cerr << "FAIL: loss-free cycle counts drifted from the golden "
                 "baseline (64x4KiB: got "
              << cycles_64x4k << ", want " << kGolden64x4KiBCycles
              << "; 1x1MiB: got " << cycles_1x1m << ", want "
              << kGolden1x1MiBCycles << ")\n";
    return session.Fail();
  }
  std::cout << "\nzero-overhead check: loss-free cycle counts bit-identical "
               "to baseline (64x4KiB = "
            << cycles_64x4k << ", 1x1MiB = " << cycles_1x1m << ")\n";

  // E18 — goodput under loss: the same pipelined workload on a lossy fabric.
  // The reliable-connection layer (seq/ACK/retransmit) keeps every transfer
  // correct; goodput degrades smoothly with the drop rate instead of
  // collapsing.
  std::cout << "\n=== E18: goodput vs drop rate (32 x 64 KiB mixed "
               "write/read, seed "
            << fault_seed << ") ===\n\n";
  TablePrinter gp({"drop rate", "cycles", "goodput", "retransmits", "drops"});
  std::vector<double> rates = {0.0, 0.001, 0.01, 0.05};
  if (drop_rate > 0) rates.push_back(drop_rate);
  const int kOps = 32;
  const uint64_t kBytes = 65536;
  for (double rate : rates) {
    FaultInjector::Config fc;
    fc.seed = fault_seed;
    fc.drop_rate = rate;
    FaultInjector injector(fc);
    Harness h(rate > 0 ? &injector : nullptr);
    const uint64_t cycles = h.TimedMixed(kOps, kBytes);
    if (cycles == 0) {
      gp.AddRow({TablePrinter::Fmt(rate, 3), "-", "gave up", "-", "-"});
      continue;
    }
    const double secs = double(cycles) / 200e6;
    const double goodput = double(kOps) * double(kBytes) / secs;
    gp.AddRow({TablePrinter::Fmt(rate, 3), TablePrinter::FmtCount(cycles),
               TablePrinter::Fmt(goodput / 1e9, 2) + " GB/s",
               TablePrinter::FmtCount(h.a.retransmits() + h.b.retransmits()),
               TablePrinter::FmtCount(h.fabric.packets_dropped())});
  }
  gp.Print(std::cout);

  // E19 — the event-driven Run() on an idle-heavy timer workload. A very
  // lossy fabric with long retransmission timeouts makes the simulation
  // spend almost all its cycles waiting on RTO timers; Run() jumps those
  // waits in O(events), while the Step() loop ticks every cycle. Cycle
  // counts must be bit-identical between the two — only wall-clock time may
  // change.
  std::cout << "\n=== E19: Run() wall-clock speedup over the Step() loop "
               "(16 x 4 KiB writes,\ndrop rate 0.30, RTO 100k cycles, seed "
            << fault_seed << ") ===\n\n";
  auto timer_workload = [&](bool stepped, uint64_t* out_cycles,
                            uint64_t* out_retransmits) -> bool {
    FaultInjector::Config fc;
    fc.seed = fault_seed;
    fc.drop_rate = 0.30;
    FaultInjector injector(fc);
    Retry rel;
    rel.rto_cycles = 100000;  // long timers => idle-dominated simulation
    rel.max_retries = 32;     // never give up at this drop rate
    Harness h(&injector, rel);
    for (int i = 0; i < 16; ++i) {
      h.a.PostWrite(1, uint64_t(i) * 4096, 4096, i);
    }
    auto run = stepped ? sim::StepUntilQuiesced(h.engine, 1ull << 32)
                       : h.engine.Run(1ull << 32);
    if (!run.ok() || h.a.failed() || h.b.failed()) return false;
    *out_cycles = *run;
    *out_retransmits = h.a.retransmits() + h.b.retransmits();
    return true;
  };
  uint64_t cyc_slow = 0, cyc_fast = 0, rtx_slow = 0, rtx_fast = 0;
  const auto t0 = std::chrono::steady_clock::now();
  const bool ok_slow = timer_workload(true, &cyc_slow, &rtx_slow);
  const auto t1 = std::chrono::steady_clock::now();
  const bool ok_fast = timer_workload(false, &cyc_fast, &rtx_fast);
  const auto t2 = std::chrono::steady_clock::now();
  if (!ok_slow || !ok_fast) {
    std::cerr << "FAIL: timer workload did not complete\n";
    return session.Fail();
  }
  if (cyc_slow != cyc_fast || rtx_slow != rtx_fast) {
    std::cerr << "FAIL: Run() diverged from the Step() loop (cycles "
              << cyc_fast << " vs " << cyc_slow << ", retransmits "
              << rtx_fast << " vs " << rtx_slow << ")\n";
    return session.Fail();
  }
  const double ms_slow =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const double ms_fast =
      std::chrono::duration<double, std::milli>(t2 - t1).count();
  TablePrinter ff({"driver", "sim cycles", "retransmits", "wall time"});
  ff.AddRow({"Step() loop", TablePrinter::FmtCount(cyc_slow),
             TablePrinter::FmtCount(rtx_slow),
             TablePrinter::Fmt(ms_slow, 1) + " ms"});
  ff.AddRow({"Run()", TablePrinter::FmtCount(cyc_fast),
             TablePrinter::FmtCount(rtx_fast),
             TablePrinter::Fmt(ms_fast, 1) + " ms"});
  ff.Print(std::cout);
  std::cout << "\nRun() check: results bit-identical to Step(); speedup "
            << TablePrinter::Fmt(ms_slow / std::max(ms_fast, 1e-3), 1)
            << "x\n";

  std::cout << "\npaper expectation: ~2-3 us small-read latency (one RTT), "
               "and pipelined large\nreads saturating toward the 12.5 GB/s "
               "line rate. Both reproduce above; under\ninjected loss the RC "
               "layer retransmits and goodput falls gracefully.\n";
  return 0;
}
