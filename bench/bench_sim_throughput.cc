// Simulator-throughput benchmark: how fast does the *simulator itself* run,
// in host wall-clock, across the data-plane shapes the repo's experiments
// exercise? Reports simulated cycles/sec and items/sec for eight scenarios —
// narrow pipeline (1 lane), wide-lane burst movers (16 and 64 lanes), a
// 16-lane transform, memory-bound channel traffic, a fabric incast, and two
// sparse-activation shapes (a timer-dominated RDMA retransmission soak and a
// mostly-idle 64-kernel mesh) — each driven by the event-driven Run() and
// by the Step() loop it must reproduce. Cycle counts must be identical
// between the two (the engine's performance contract); the bench fails hard
// if they diverge, and in --smoke mode it additionally
//
//  * re-runs the golden line-rate filter scenario and fails on any drift
//    from tests/golden/cycles.json;
//  * asserts Run() beats the Step() loop by at least the scenario's
//    min_speedup_vs_step bar (see the scenario table in main).
//
// Results are dumped to BENCH_sim_throughput.json (override with
// --json=<file>) so the perf trajectory is diffable across commits: one
// <scenario>.run row (best of 5) and one <scenario>.step row (one run) per
// scenario, each with a speedup_vs_step field.
//
// Flags: --smoke (small sizes + golden guard + perf assertions, for the
// `perf` ctest tier), plus the bench_common set (--json=...).

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/table_printer.h"
#include "src/memory/channel.h"
#include "src/memory/mem_types.h"
#include "src/net/fabric.h"
#include "src/net/rdma.h"
#include "src/relational/fpga_executor.h"
#include "src/relational/program.h"
#include "src/relational/table.h"
#include "src/sim/engine.h"
#include "src/sim/kernels.h"

#ifndef FPGADP_GOLDEN_DIR
#error "FPGADP_GOLDEN_DIR must be defined by the build (bench/CMakeLists.txt)"
#endif

namespace fpgadp {
namespace {

/// How a scenario's engine is driven: the event-driven Run(), or the
/// Step() loop it must reproduce.
struct Mode {
  std::string name;
  bool stepped = false;
};

struct RunResult {
  uint64_t cycles = 0;
  uint64_t items = 0;
  double wall_sec = 0;
};

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Runs `engine` to quiescence under `mode`, timing the run only (scenario
/// construction is excluded — we measure the stepping hot path).
uint64_t TimedRun(sim::Engine& engine, const Mode& mode, double* wall_sec) {
  constexpr uint64_t kMaxCycles = 1ull << 32;
  const double t0 = Now();
  auto cycles = mode.stepped ? sim::StepUntilQuiesced(engine, kMaxCycles)
                             : engine.Run(kMaxCycles);
  *wall_sec = Now() - t0;
  if (!cycles.ok()) {
    std::cerr << "FAIL: engine did not quiesce: " << cycles.status() << "\n";
    std::exit(1);
  }
  return cycles.value();
}

/// narrow: 1-lane source -> II=1 transform -> sink through depth-8 FIFOs —
/// the 3-module pipeline every E-series experiment is built from.
RunResult RunNarrow(size_t n, const Mode& mode) {
  std::vector<int> data(n, 7);
  sim::Stream<int> a("a", 8), b("b", 8);
  sim::VectorSource<int> src("src", std::move(data), &a);
  sim::TransformKernel<int, int> k(
      "k", &a, &b, [](const int& v) { return std::optional<int>(v + 1); });
  sim::VectorSink<int> sink("sink", &b);
  // Pre-size the sink's output buffer: the bench measures the data plane,
  // not allocator growth (repeated reallocation is mostly page-fault cost
  // and would dominate the wide scenarios). Same treatment in every
  // scenario, and applied identically when baselining older library
  // versions, so comparisons isolate the stream/kernel hot path.
  sink.collected().reserve(n);
  sim::Engine e;
  e.AddModule(&src);
  e.AddModule(&k);
  e.AddModule(&sink);
  e.AddStream(&a);
  e.AddStream(&b);
  RunResult r;
  r.cycles = TimedRun(e, mode, &r.wall_sec);
  r.items = sink.collected().size();
  return r;
}

/// Wide-lane burst mover: `lanes`-wide source -> sink through one FIFO of
/// depth 4*lanes — a pure burst mover, the shape of an AXI read burst
/// feeding a drain. These are the scenarios the data-plane batching work
/// targets (>= 5x wall-clock on the widest): wide16 moves one 512-bit AXI
/// beat of ints per cycle; wide64 models a multi-port / HBM-class 2048-bit
/// datapath, where the simulator's fixed per-cycle costs (module tick
/// boundaries, engine loop) amortize over 4x the items and the span API's
/// advantage over per-item calls is largest.
RunResult RunWideLaneImpl(size_t n, const Mode& mode, uint32_t lanes) {
  std::vector<int> data(n);
  for (size_t i = 0; i < n; ++i) data[i] = int(i);
  sim::Stream<int> ch("ch", 4 * size_t(lanes));
  sim::VectorSource<int> src("src", std::move(data), &ch, lanes);
  sim::VectorSink<int> sink("sink", &ch, lanes);
  sink.collected().reserve(n);
  sim::Engine e;
  e.AddModule(&src);
  e.AddModule(&sink);
  e.AddStream(&ch);
  RunResult r;
  r.cycles = TimedRun(e, mode, &r.wall_sec);
  r.items = sink.collected().size();
  return r;
}

RunResult RunWideLane(size_t n, const Mode& mode) {
  return RunWideLaneImpl(n, mode, /*lanes=*/16);
}

RunResult RunWideLane64(size_t n, const Mode& mode) {
  return RunWideLaneImpl(n, mode, /*lanes=*/64);
}

/// wide16_xform: the wide-lane shape with a 16-lane transform kernel in the
/// middle — shows how much of the cycle cost is the per-item std::function
/// the span API cannot remove.
RunResult RunWideXform(size_t n, const Mode& mode) {
  std::vector<int> data(n, 3);
  sim::Stream<int> a("a", 64), b("b", 64);
  sim::VectorSource<int> src("src", std::move(data), &a, /*lanes=*/16);
  sim::KernelTiming timing;
  timing.lanes = 16;
  sim::TransformKernel<int, int> k(
      "k", &a, &b, [](const int& v) { return std::optional<int>(v * 2); },
      timing);
  sim::VectorSink<int> sink("sink", &b, /*lanes=*/16);
  sink.collected().reserve(n);
  sim::Engine e;
  e.AddModule(&src);
  e.AddModule(&k);
  e.AddModule(&sink);
  e.AddStream(&a);
  e.AddStream(&b);
  RunResult r;
  r.cycles = TimedRun(e, mode, &r.wall_sec);
  r.items = sink.collected().size();
  return r;
}

/// membound: one DDR-class channel served at 1 request/cycle, responses
/// drained by a sink — the latency+bus timing model under load.
RunResult RunMemBound(size_t n, const Mode& mode) {
  std::vector<mem::MemRequest> reqs(n);
  for (size_t i = 0; i < n; ++i) {
    reqs[i] = mem::MemRequest{/*id=*/i, /*addr=*/i * 64, /*bytes=*/64,
                              /*is_write=*/false};
  }
  sim::Stream<mem::MemRequest> req("req", 16);
  sim::Stream<mem::MemResponse> resp("resp", 16);
  sim::VectorSource<mem::MemRequest> src("src", std::move(reqs), &req,
                                         /*lanes=*/4);
  mem::MemoryChannel chan("ddr0", &req, &resp, mem::MemoryChannel::Config{});
  sim::VectorSink<mem::MemResponse> sink("sink", &resp, /*lanes=*/4);
  sink.collected().reserve(n);
  sim::Engine e;
  e.AddModule(&src);
  e.AddModule(&chan);
  e.AddModule(&sink);
  e.AddStream(&req);
  e.AddStream(&resp);
  RunResult r;
  r.cycles = TimedRun(e, mode, &r.wall_sec);
  r.items = sink.collected().size();
  return r;
}

/// incast: 3 senders stream 256 B packets at one receive port of a 4-node
/// 100 Gbps fabric — the per-port serialization loops under congestion.
RunResult RunIncast(size_t pkts_per_sender, const Mode& mode) {
  net::Fabric fabric("fab", 4, net::Fabric::Config{});
  std::vector<std::unique_ptr<sim::VectorSource<net::Packet>>> senders;
  for (uint32_t s = 1; s < 4; ++s) {
    std::vector<net::Packet> pkts(pkts_per_sender);
    for (size_t i = 0; i < pkts.size(); ++i) {
      net::Packet p;
      p.src = s;
      p.dst = 0;
      p.bytes = 256;
      p.tag = i;
      pkts[i] = p;
    }
    senders.push_back(std::make_unique<sim::VectorSource<net::Packet>>(
        "tx" + std::to_string(s), std::move(pkts), &fabric.egress(s),
        /*lanes=*/4));
  }
  sim::VectorSink<net::Packet> sink("rx0", &fabric.ingress(0), /*lanes=*/4);
  sink.collected().reserve(3 * pkts_per_sender);
  sim::Engine e;
  fabric.RegisterWith(e);
  for (auto& s : senders) e.AddModule(s.get());
  e.AddModule(&sink);
  RunResult r;
  r.cycles = TimedRun(e, mode, &r.wall_sec);
  r.items = sink.collected().size();
  return r;
}

/// rdma_retrans: 16 RDMA endpoint pairs on a 32-node fabric losing 30% of
/// its packets, each pair shipping `msgs_per_pair` pre-posted 256 B writes
/// through the link-level reliability layer. After the short serialization
/// burst up front the run is pure protocol: almost every simulated cycle,
/// nothing happens anywhere except one endpoint's retransmission timer
/// firing — the timer-dominated shape where Step() pays 65 module ticks
/// per cycle and the event-driven scheduler pays one or two.
RunResult RunRdmaRetrans(size_t msgs_per_pair, const Mode& mode) {
  constexpr uint32_t kPairs = 32;
  net::FaultInjector::Config fc;
  fc.seed = 0xF00DF00D;
  fc.drop_rate = 0.3;
  net::FaultInjector injector(fc);
  net::Fabric fabric("fab", 2 * kPairs, net::Fabric::Config{});
  fabric.set_fault_injector(&injector);
  // A bounded retry budget keeps the backoff tail finite and deterministic;
  // ~1% of ops exhaust it at this drop rate, which is part of the scenario
  // (abandonment completions are completions too).
  net::Retry rel;
  rel.rto_cycles = 2000;
  rel.max_retries = 6;
  std::vector<std::unique_ptr<net::RdmaEndpoint>> eps;
  for (uint32_t node = 0; node < 2 * kPairs; ++node) {
    eps.push_back(std::make_unique<net::RdmaEndpoint>(
        "ep" + std::to_string(node), node, &fabric, rel));
  }
  // Pre-post everything so the run needs no driver module: the whole
  // scenario is event-safe and both engines can sleep between timers.
  for (uint32_t p = 0; p < kPairs; ++p) {
    for (size_t i = 0; i < msgs_per_pair; ++i) {
      eps[2 * p]->PostWrite(2 * p + 1, i * 64, /*bytes=*/256, /*tag=*/i);
    }
  }
  sim::Engine e;
  fabric.RegisterWith(e);
  for (auto& ep : eps) e.AddModule(ep.get());
  RunResult r;
  r.cycles = TimedRun(e, mode, &r.wall_sec);
  net::Completion c;
  for (uint32_t p = 0; p < kPairs; ++p) {
    while (eps[2 * p]->PollCompletion(&c)) ++r.items;
  }
  return r;
}

/// mesh64: 8 independent chains of 8 high-latency (thousands of cycles)
/// single-lane transform kernels — 64 kernels plus their sources and sinks.
/// Each kernel swallows its whole input into the latency shadow within the
/// first few hundred cycles; after that the mesh is almost entirely idle,
/// with brief per-stage retirement bursts staggered across chains so that
/// at any visited cycle only ~one chain has any work. Step() bills all 80
/// modules every cycle; per-module activation bills ~3.
RunResult RunMesh64(size_t items_per_chain, const Mode& mode) {
  constexpr uint32_t kChains = 8, kStages = 8;
  std::vector<std::unique_ptr<sim::Stream<int>>> streams;
  std::vector<std::unique_ptr<sim::VectorSource<int>>> sources;
  std::vector<std::unique_ptr<sim::TransformKernel<int, int>>> kernels;
  std::vector<std::unique_ptr<sim::VectorSink<int>>> sinks;
  sim::Engine e;
  for (uint32_t c = 0; c < kChains; ++c) {
    const std::string chain = "c" + std::to_string(c);
    std::vector<sim::Stream<int>*> ch;
    for (uint32_t s = 0; s <= kStages; ++s) {
      streams.push_back(std::make_unique<sim::Stream<int>>(
          chain + ".s" + std::to_string(s), 8));
      ch.push_back(streams.back().get());
    }
    std::vector<int> data(items_per_chain, int(c));
    sources.push_back(std::make_unique<sim::VectorSource<int>>(
        chain + ".src", std::move(data), ch.front()));
    e.AddModule(sources.back().get());
    for (uint32_t s = 0; s < kStages; ++s) {
      sim::KernelTiming timing;
      // Latencies staggered per chain and stage so retirement bursts of
      // different chains almost never coincide: a whole-system idle gap
      // rarely opens, but per-module activation still
      // sleeps everyone outside the one active chain.
      timing.latency = 6000 + 1223 * c + 211 * s;
      kernels.push_back(std::make_unique<sim::TransformKernel<int, int>>(
          chain + ".k" + std::to_string(s), ch[s], ch[s + 1],
          [](const int& v) { return std::optional<int>(v + 1); }, timing));
      e.AddModule(kernels.back().get());
    }
    sinks.push_back(std::make_unique<sim::VectorSink<int>>(
        chain + ".sink", ch.back()));
    sinks.back()->collected().reserve(items_per_chain);
    e.AddModule(sinks.back().get());
    for (sim::Stream<int>* s : ch) e.AddStream(s);
  }
  RunResult r;
  r.cycles = TimedRun(e, mode, &r.wall_sec);
  for (auto& s : sinks) r.items += s->collected().size();
  return r;
}

/// Golden guard (--smoke): the fixed line-rate filter configuration from
/// tests/golden/cycles.json must reproduce its recorded cycle count — the
/// proof that data-plane batching changed wall-clock only.
bool CheckGoldenFilter() {
  const std::string path = std::string(FPGADP_GOLDEN_DIR) + "/cycles.json";
  std::ifstream in(path);
  if (!in.good()) {
    std::cerr << "FAIL: missing golden baseline " << path << "\n";
    return false;
  }
  uint64_t want = 0;
  std::string line;
  while (std::getline(in, line)) {
    const size_t at = line.find("\"line_rate_filter\"");
    if (at == std::string::npos) continue;
    const size_t colon = line.find(':', at);
    if (colon != std::string::npos) {
      want = std::strtoull(line.c_str() + colon + 1, nullptr, 10);
    }
  }
  if (want == 0) {
    std::cerr << "FAIL: line_rate_filter missing from " << path << "\n";
    return false;
  }
  rel::SyntheticTableSpec spec;
  spec.num_rows = 200000;
  spec.seed = 8;
  rel::Table table = rel::MakeSyntheticTable(spec);
  rel::FpgaOptions options;
  options.lanes = 2;
  options.stream_depth = 32;
  rel::Program p;
  rel::FilterOp f;
  f.conjuncts.push_back(rel::Predicate{4, rel::CmpOp::kGe, 25});
  p.ops.push_back(f);
  auto stats = rel::ExecuteFpga(p, table, options);
  if (!stats.ok()) {
    std::cerr << "FAIL: golden filter run failed: " << stats.status() << "\n";
    return false;
  }
  if (stats->cycles != want) {
    std::cerr << "FAIL: line_rate_filter drifted from the golden baseline "
              << "(got " << stats->cycles << ", want " << want << ")\n";
    return false;
  }
  std::cout << "[golden] line_rate_filter reproduced at " << want
            << " cycles\n";
  return true;
}

}  // namespace
}  // namespace fpgadp

int main(int argc, char** argv) {
  using namespace fpgadp;
  bool smoke = false;
  bench::Session session(argc, argv, {bench::BoolFlag("--smoke", &smoke)});
  session.SetDefaultJsonPath("BENCH_sim_throughput.json");
  std::cout << "=== simulator data-plane throughput"
            << (smoke ? " (smoke)" : "") << " ===\n";

  struct Scenario {
    std::string name;
    size_t n;        ///< Full-size run.
    size_t smoke_n;  ///< --smoke run (kept large enough to time reliably).
    /// --smoke floor on step_wall / run_wall. Each bar is the earlier
    /// floor on event-driven Run() against the fast-forwarding level tick
    /// (at most 1.25x slower on dense shapes, at least 3x faster on sparse
    /// ones), multiplied by the smallest ratio of the unskipped level tick
    /// (what the Step() loop is) to the fast-forwarding one measured over
    /// five smoke runs, rounded down.
    double min_speedup_vs_step;
    RunResult (*run)(size_t, const Mode&);
  };
  const std::vector<Scenario> scenarios = {
      {"narrow", 500000, 31250, 0.77, RunNarrow},
      {"wide16", 4000000, 250000, 0.84, RunWideLane},
      {"wide64", 8000000, 500000, 0.96, RunWideLane64},
      {"wide16_xform", 1000000, 62500, 0.74, RunWideXform},
      {"membound", 100000, 6250, 0.80, RunMemBound},
      {"incast", 5000, 312, 1.19, RunIncast},
      {"rdma_retrans", 512, 64, 29.7, RunRdmaRetrans},
      {"mesh64", 512, 256, 22.9, RunMesh64},
  };
  const Mode run_mode{"run", false};
  const Mode step_mode{"step", true};
  // The Run()/Step() ratio is asserted in --smoke and committed (as
  // speedup_vs_step rows) from full runs, and host noise can swing a single
  // run tens of percent. Run() therefore takes the best of several runs, so
  // noise cannot make the scheduler look slower than it is. The Step() loop
  // is the slow reference and runs once: repeating it would only stretch
  // the bench, and the bars were derived from one-run references too.
  // Cycle counts are asserted equal on every run.
  const int kTimedReps = 5;

  TablePrinter t({"scenario", "mode", "sim cycles", "items", "wall ms",
                  "Mcycles/s", "Mitems/s", "vs step"});
  bool ok = true;
  for (const Scenario& sc : scenarios) {
    const size_t n = smoke ? sc.smoke_n : sc.n;
    const RunResult step = sc.run(n, step_mode);
    RunResult run = sc.run(n, run_mode);
    for (int rep = 1; rep < kTimedReps; ++rep) {
      const RunResult again = sc.run(n, run_mode);
      if (again.cycles != run.cycles) {
        std::cerr << "FAIL: scenario " << sc.name
                  << " is nondeterministic across repeat runs\n";
        ok = false;
      }
      run.wall_sec = std::min(run.wall_sec, again.wall_sec);
    }
    if (run.cycles != step.cycles || run.items != step.items) {
      std::cerr << "FAIL: scenario " << sc.name << " Run() took " << run.cycles
                << " cycles vs the Step() loop's " << step.cycles
                << " — the scheduler must reproduce Step() exactly\n";
      ok = false;
    }
    for (const auto& [mode, r] :
         {std::pair{&run_mode, run}, std::pair{&step_mode, step}}) {
      const double mcps = double(r.cycles) / r.wall_sec / 1e6;
      const double mips = double(r.items) / r.wall_sec / 1e6;
      const double speedup = step.wall_sec / r.wall_sec;
      t.AddRow({sc.name, mode->name, TablePrinter::FmtCount(r.cycles),
                TablePrinter::FmtCount(r.items),
                TablePrinter::Fmt(r.wall_sec * 1e3, 2),
                TablePrinter::Fmt(mcps, 2), TablePrinter::Fmt(mips, 2),
                TablePrinter::Fmt(speedup, 2) + "x"});
      session.AddResult(sc.name + "." + mode->name,
                        {{"cycles", double(r.cycles)},
                         {"items", double(r.items)},
                         {"wall_sec", r.wall_sec},
                         {"sim_cycles_per_sec", double(r.cycles) / r.wall_sec},
                         {"items_per_sec", double(r.items) / r.wall_sec},
                         {"speedup_vs_step", speedup}});
    }
    const double speedup = step.wall_sec / run.wall_sec;
    if (smoke && speedup < sc.min_speedup_vs_step) {
      std::cerr << "FAIL: scenario " << sc.name << " Run() is only "
                << speedup << "x the Step() loop (bar "
                << sc.min_speedup_vs_step << "x)\n";
      ok = false;
    }
  }
  t.Print(std::cout);
  std::cout << "\n(cycle counts asserted identical between Run() and the "
               "Step() loop)\n";

  if (smoke && !CheckGoldenFilter()) ok = false;
  return ok ? 0 : session.Fail();
}
