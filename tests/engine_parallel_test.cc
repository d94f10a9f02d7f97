// Determinism lockdown for the engine's scheduler: over real pipelines,
// the event-driven Run() must reproduce the Step() loop bit-for-bit —
// cycle counts, per-module stall attribution, stream traffic, completion
// timestamps, and fault outcomes. Every test here runs the same workload
// under both drivers and diffs everything observable. The library drivers
// (Farview, ACCL, KVS, MicroRec) run over a lossy fabric where they have
// one, so retransmission timers and the injector's seeded draws are part
// of what must match.
//
// The file keeps its name from when it also covered the parallel tick and
// its thread pool; both were removed, leaving Run() the only scheduler that
// can diverge from the one-cycle Step() reference. The arming-rule unit
// tests and the 100-seed sharded differentials live in engine_event_test.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/accl/collectives.h"
#include "src/common/random.h"
#include "src/device/device.h"
#include "src/farview/farview.h"
#include "src/kvs/smart_kvs.h"
#include "src/microrec/cartesian.h"
#include "src/microrec/engine.h"
#include "src/microrec/model.h"
#include "src/net/fabric.h"
#include "src/net/rdma.h"
#include "src/obs/metrics.h"
#include "src/relational/fpga_executor.h"
#include "src/relational/program.h"
#include "src/relational/queries.h"
#include "src/relational/table.h"
#include "src/sim/engine.h"
#include "src/sim/kernels.h"
#include "src/sim/module.h"
#include "src/sim/stream.h"
#include "src/sim/tap.h"
#include "src/sim/var_stage.h"

namespace fpgadp {
namespace {

using sim::Cycle;
using sim::Engine;
using sim::Module;
using sim::Stream;

/// How a test drives an engine: the event-driven Run(), or the Step() loop
/// it must reproduce.
enum class Driver { kRun, kStep };

Result<Cycle> Drive(Engine& e, Driver d, uint64_t max_cycles) {
  return d == Driver::kRun ? e.Run(max_cycles)
                           : sim::StepUntilQuiesced(e, max_cycles);
}

/// Per-module stall-bucket snapshot for bit-identity assertions.
struct Buckets {
  uint64_t busy = 0, starved = 0, blocked = 0, idle = 0, attributed = 0;
};

Buckets BucketsOf(const Module& m) {
  return {m.busy_cycles(), m.starved_cycles(), m.blocked_cycles(),
          m.idle_cycles(), m.attributed_cycles()};
}

void ExpectSameBuckets(const Buckets& ref, const Buckets& got,
                       const std::string& label) {
  EXPECT_EQ(got.busy, ref.busy) << label << " busy";
  EXPECT_EQ(got.starved, ref.starved) << label << " starved";
  EXPECT_EQ(got.blocked, ref.blocked) << label << " blocked";
  EXPECT_EQ(got.idle, ref.idle) << label << " idle";
  EXPECT_EQ(got.attributed, ref.attributed) << label << " attributed";
}

// ---------------------------------------------------------------------------
// Determinism over real pipelines: everything observable — cycle counts,
// per-module stall attribution, stream traffic, completion timestamps, and
// fault outcomes — must match between Run() and the Step() loop.

struct PipelineResult {
  Cycle cycles = 0;
  std::vector<int64_t> collected;
  std::vector<Buckets> buckets;
  std::vector<std::pair<uint64_t, uint64_t>> stream_traffic;
};

void ExpectSamePipeline(const PipelineResult& ref, const PipelineResult& got,
                        const std::string& label) {
  EXPECT_EQ(got.cycles, ref.cycles) << label;
  EXPECT_EQ(got.collected, ref.collected) << label;
  ASSERT_EQ(got.buckets.size(), ref.buckets.size()) << label;
  for (size_t i = 0; i < ref.buckets.size(); ++i) {
    ExpectSameBuckets(ref.buckets[i], got.buckets[i],
                      label + " module " + std::to_string(i));
  }
  EXPECT_EQ(got.stream_traffic, ref.stream_traffic) << label;
}

/// Runs a registered pipeline under `d` and snapshots everything observable.
PipelineResult RunPipeline(Driver d, Engine& e,
                           const std::vector<const Module*>& modules,
                           const std::vector<const sim::StreamBase*>& streams,
                           const sim::VectorSink<int64_t>& sink) {
  auto run = Drive(e, d, 1 << 22);
  EXPECT_TRUE(run.ok()) << run.status();
  PipelineResult r;
  r.cycles = run.ok() ? *run : 0;
  r.collected = sink.collected();
  for (const Module* m : modules) r.buckets.push_back(BucketsOf(*m));
  for (const sim::StreamBase* s : streams) {
    r.stream_traffic.push_back({s->TotalPushed(), s->TotalPopped()});
  }
  return r;
}

PipelineResult RunKernelPipeline(Driver d,
                                 sim::KernelTiming timing = {1, 2, 12}) {
  std::vector<int64_t> data(5000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = int64_t(i) * 3 - 1000;
  Stream<int64_t> s0("s0", 8), s1("s1", 8), s2("s2", 8);
  sim::VectorSource<int64_t> src("src", data, &s0, /*lanes=*/2);
  sim::TransformKernel<int64_t, int64_t> map(
      "map", &s0, &s1,
      [](const int64_t& v) -> std::optional<int64_t> {
        if (v % 7 == 0) return std::nullopt;  // line-rate filter
        return v * 2;
      },
      timing);
  sim::DelayLine<int64_t> wire("wire", &s1, &s2, /*latency=*/25, /*lanes=*/2);
  sim::VectorSink<int64_t> sink("sink", &s2, /*lanes=*/2);
  Engine e;
  e.AddModule(&src);
  e.AddModule(&map);
  e.AddModule(&wire);
  e.AddModule(&sink);
  e.AddStream(&s0);
  e.AddStream(&s1);
  e.AddStream(&s2);
  return RunPipeline(d, e, {&src, &map, &wire, &sink}, {&s0, &s1, &s2}, sink);
}

TEST(EngineDeterminismTest, KernelPipelineMatchesStep) {
  const PipelineResult ref = RunKernelPipeline(Driver::kStep);
  EXPECT_FALSE(ref.collected.empty());
  ExpectSamePipeline(ref, RunKernelPipeline(Driver::kRun), "kernel-pipeline");
}

// An II of 3 under a 10-cycle latency: the map kernel leaves readable input
// unread while items are in flight, so Run() must wake it when its issue
// gate opens, not when its oldest item retires.
TEST(EngineDeterminismTest, GatedKernelPipelineMatchesStep) {
  const sim::KernelTiming gated{3, 1, 10};
  const PipelineResult ref = RunKernelPipeline(Driver::kStep, gated);
  EXPECT_FALSE(ref.collected.empty());
  ExpectSamePipeline(ref, RunKernelPipeline(Driver::kRun, gated),
                     "gated-kernel-pipeline");
}

// A reduction with an II of 4 gives no hint mid-fold: the input it leaves
// unread behind its closed issue gate must re-arm it every cycle.
PipelineResult RunGatedReduce(Driver d) {
  std::vector<int64_t> data(600);
  for (size_t i = 0; i < data.size(); ++i) data[i] = int64_t(i) % 13;
  Stream<int64_t> s0("s0", 8), s1("s1", 2);
  sim::VectorSource<int64_t> src("src", data, &s0, /*lanes=*/2);
  sim::ReduceKernel<int64_t, int64_t> sum(
      "sum", &s0, &s1, 0, [](int64_t& acc, const int64_t& v) { acc += v; },
      data.size(), sim::KernelTiming{4, 1, 1});
  sim::VectorSink<int64_t> sink("sink", &s1);
  Engine e;
  e.AddModule(&src);
  e.AddModule(&sum);
  e.AddModule(&sink);
  e.AddStream(&s0);
  e.AddStream(&s1);
  return RunPipeline(d, e, {&src, &sum, &sink}, {&s0, &s1}, sink);
}

TEST(EngineDeterminismTest, GatedReduceMatchesStep) {
  const PipelineResult ref = RunGatedReduce(Driver::kStep);
  ASSERT_EQ(ref.collected.size(), 1u);
  ExpectSamePipeline(ref, RunGatedReduce(Driver::kRun), "gated-reduce");
}

// 50 seeded chains of 1-5 random stages (map/filter kernels with random II,
// lanes and latency, delay lines, variable-cost stages, taps) over random
// FIFO depths: the shapes where a stage leaves input unread behind its own
// timing (an II gate, a full delay window, a held item, a blocked output).
PipelineResult RunRandomChain(Driver d, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> data(200 + rng.NextBounded(600));
  for (size_t i = 0; i < data.size(); ++i) data[i] = int64_t(rng.Next() % 1000);
  const size_t stages = 1 + rng.NextBounded(5);
  std::vector<std::unique_ptr<Stream<int64_t>>> streams;
  for (size_t i = 0; i <= stages; ++i) {
    streams.push_back(std::make_unique<Stream<int64_t>>(
        "s" + std::to_string(i), 1 + rng.NextBounded(8)));
  }
  std::vector<std::unique_ptr<Module>> owned;
  sim::VectorSource<int64_t> src("src", data, streams[0].get(),
                                 1 + uint32_t(rng.NextBounded(3)));
  for (size_t i = 0; i < stages; ++i) {
    Stream<int64_t>* in = streams[i].get();
    Stream<int64_t>* out = streams[i + 1].get();
    const std::string name = "st" + std::to_string(i);
    switch (rng.NextBounded(4)) {
      case 0: {
        const sim::KernelTiming t{1 + uint32_t(rng.NextBounded(4)),
                                  1 + uint32_t(rng.NextBounded(3)),
                                  1 + uint32_t(rng.NextBounded(12))};
        owned.push_back(std::make_unique<sim::TransformKernel<int64_t, int64_t>>(
            name, in, out,
            [](const int64_t& v) -> std::optional<int64_t> {
              if (v % 5 == 0) return std::nullopt;
              return v * 3 + 1;
            },
            t));
        break;
      }
      case 1:
        owned.push_back(std::make_unique<sim::DelayLine<int64_t>>(
            name, in, out, uint32_t(rng.NextBounded(20)),
            1 + uint32_t(rng.NextBounded(3))));
        break;
      case 2:
        owned.push_back(std::make_unique<sim::VarStage<int64_t, int64_t>>(
            name, in, out, [](const int64_t& v) { return v + 1; },
            [](const int64_t& v) { return uint64_t(v % 6); }));
        break;
      default:
        owned.push_back(
            std::make_unique<sim::StreamTap<int64_t>>(name, in, out));
        break;
    }
  }
  sim::VectorSink<int64_t> sink("sink", streams.back().get(),
                                1 + uint32_t(rng.NextBounded(3)));
  Engine e;
  e.AddModule(&src);
  std::vector<const Module*> modules = {&src};
  for (auto& m : owned) {
    e.AddModule(m.get());
    modules.push_back(m.get());
  }
  e.AddModule(&sink);
  modules.push_back(&sink);
  std::vector<const sim::StreamBase*> stream_ptrs;
  for (auto& st : streams) {
    e.AddStream(st.get());
    stream_ptrs.push_back(st.get());
  }
  return RunPipeline(d, e, modules, stream_ptrs, sink);
}

TEST(EngineDeterminismTest, RandomKernelChains50SeedsMatchStep) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const PipelineResult ref = RunRandomChain(Driver::kStep, seed);
    EXPECT_FALSE(ref.collected.empty()) << "seed " << seed;
    ExpectSamePipeline(ref, RunRandomChain(Driver::kRun, seed),
                       "random-chain seed " + std::to_string(seed));
  }
}

// ExecuteFpga builds its engine internally; a metrics registry attached to
// it turns its Run() into the Step() loop, so the observed run is the
// reference for the plain one.
TEST(EngineDeterminismTest, ExecuteFpgaCyclesMatchObservedRun) {
  rel::SyntheticTableSpec spec;
  spec.num_rows = 20000;
  spec.seed = 21;
  const rel::Table table = rel::MakeSyntheticTable(spec);
  rel::Program p;
  rel::FilterOp f;
  f.conjuncts.push_back(rel::Predicate{4, rel::CmpOp::kGe, 20});
  p.ops.push_back(f);
  rel::GroupByOp g;
  g.group_column = 2;
  g.agg = rel::AggregateOp{rel::AggKind::kSum, 4, false};
  p.ops.emplace_back(g);
  rel::FpgaOptions options;
  options.lanes = 2;
  options.stream_depth = 16;

  obs::MetricsRegistry registry;
  obs::SetGlobalMetrics(&registry);
  auto observed = rel::ExecuteFpga(p, table, options);
  obs::SetGlobalMetrics(nullptr);
  auto plain = rel::ExecuteFpga(p, table, options);
  ASSERT_TRUE(observed.ok()) << observed.status();
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_EQ(plain->cycles, observed->cycles);
  const obs::Counter* cycles = registry.FindCounter("engine.cycles");
  ASSERT_NE(cycles, nullptr);
  EXPECT_EQ(cycles->value(), observed->cycles);
}

// Lossy RDMA: retransmission timers plus injected faults are the
// adversarial case for Run() — it jumps between timer deadlines and must
// consume the injector's seeded draws in exactly Step()'s order. Completion
// tags, completion cycles, protocol counters, and final cycle counts must
// all match.
struct LossyRdmaResult {
  std::vector<std::pair<uint64_t, Cycle>> completions;
  uint64_t retransmits_a = 0, retransmits_b = 0, dropped = 0;
  Cycle cycles = 0;
  bool failed = false;
  bool operator==(const LossyRdmaResult& o) const {
    return completions == o.completions && retransmits_a == o.retransmits_a &&
           retransmits_b == o.retransmits_b && dropped == o.dropped &&
           cycles == o.cycles && failed == o.failed;
  }
};

LossyRdmaResult RunLossyRdma(Driver d, double drop_rate,
                             uint32_t max_retries) {
  net::FaultInjector::Config fc;
  fc.seed = 7;
  fc.drop_rate = drop_rate;
  fc.corrupt_rate = 0.02;
  fc.duplicate_rate = 0.02;
  net::FaultInjector injector(fc);
  net::Fabric::Config cfg;
  cfg.clock_hz = 200e6;
  net::Fabric fab("fab", 2, cfg);
  fab.set_fault_injector(&injector);
  net::Retry rel;
  rel.max_retries = max_retries;
  net::RdmaEndpoint a("a", 0, &fab, rel);
  net::RdmaEndpoint b("b", 1, &fab, rel);
  Engine engine;
  fab.RegisterWith(engine);
  engine.AddModule(&a);
  engine.AddModule(&b);
  for (int i = 0; i < 40; ++i) {
    if (i % 2 == 0) {
      a.PostWrite(1, uint64_t(i) * 256, 1 + uint64_t(i) * 97 % 8192,
                  uint64_t(i));
    } else {
      a.PostRead(1, uint64_t(i) * 256, 1 + uint64_t(i) * 131 % 8192,
                 uint64_t(i));
    }
  }
  auto run = Drive(engine, d, 1 << 24);
  EXPECT_TRUE(run.ok()) << run.status();
  LossyRdmaResult r;
  r.cycles = run.ok() ? *run : 0;
  net::Completion c;
  while (a.PollCompletion(&c)) {
    const uint64_t failed_bit = c.status == StatusCode::kOk ? 0 : 1;
    r.completions.push_back({c.tag | failed_bit << 32, c.at});
  }
  r.retransmits_a = a.retransmits();
  r.retransmits_b = b.retransmits();
  r.dropped = fab.packets_dropped();
  r.failed = a.failed() || b.failed();
  return r;
}

TEST(EngineDeterminismTest, LossyRdmaMatchesStep) {
  const LossyRdmaResult ref = RunLossyRdma(Driver::kStep, 0.05, 8);
  EXPECT_EQ(ref.completions.size(), 40u);
  EXPECT_FALSE(ref.failed);
  EXPECT_GT(ref.retransmits_a + ref.retransmits_b, 0u);
  EXPECT_EQ(RunLossyRdma(Driver::kRun, 0.05, 8), ref);
}

TEST(EngineDeterminismTest, FaultOutcomeMatchesStep) {
  // A drop rate the retry cap cannot beat: the *failure* must also be
  // deterministic — same abandoned ops, same cycle counts.
  const LossyRdmaResult ref = RunLossyRdma(Driver::kStep, 0.9, 2);
  EXPECT_TRUE(ref.failed);
  EXPECT_EQ(RunLossyRdma(Driver::kRun, 0.9, 2), ref);
}

// ---------------------------------------------------------------------------
// The library drivers: FarviewSystem, Communicator and MicroRecEngine run
// their engines through Run(max_cycles, stop). An attached metrics registry
// turns each of those runs into the StepUntilQuiesced() loop with the same
// predicate — the reference the plain run must reproduce.

/// Attaches a process-global metrics registry for a Step()-driven scope, so
/// engines built inside library calls take the Step() loop too.
class ScopedDriver {
 public:
  explicit ScopedDriver(Driver d) {
    if (d == Driver::kStep) obs::SetGlobalMetrics(&registry_);
  }
  ~ScopedDriver() { obs::SetGlobalMetrics(nullptr); }

 private:
  obs::MetricsRegistry registry_;
};

/// Drops, corruption, duplicates and delay spikes at once, each at `rate`.
net::FaultInjector::Config LossyFabric(uint64_t seed, double rate) {
  net::FaultInjector::Config fc;
  fc.seed = seed;
  fc.drop_rate = rate;
  fc.corrupt_rate = rate;
  fc.duplicate_rate = rate;
  fc.delay_rate = rate;
  return fc;
}

std::vector<uint64_t> FaultCounts(const net::FaultInjector& injector) {
  std::vector<uint64_t> counts;
  for (net::FaultKind kind :
       {net::FaultKind::kDrop, net::FaultKind::kCorrupt,
        net::FaultKind::kDuplicate, net::FaultKind::kDelay,
        net::FaultKind::kLinkFlap}) {
    counts.push_back(injector.fault_count(kind));
  }
  return counts;
}

uint64_t Sum(const std::vector<uint64_t>& v) {
  uint64_t sum = 0;
  for (uint64_t x : v) sum += x;
  return sum;
}

std::vector<std::vector<int64_t>> RowsOf(const rel::Table& table) {
  std::vector<std::vector<int64_t>> rows;
  for (const rel::Row& row : table.rows()) {
    rows.emplace_back(row.slots.begin(), row.slots.end());
  }
  return rows;
}

enum class FarviewRun { kOffload, kFetchAll, kConcurrent };

struct FarviewResult {
  std::vector<uint64_t> cycles, wire_bytes, dram_bytes;
  std::vector<uint64_t> packets, first_result;  // offloads only
  std::vector<std::vector<std::vector<int64_t>>> rows;
  Cycle now = 0;
  std::vector<Buckets> buckets;  // memory node, its endpoint
  std::vector<uint64_t> retries;  // node endpoint's protocol counters
  std::vector<uint64_t> faults;
};

FarviewResult RunLossyFarview(Driver d, FarviewRun mode) {
  net::FaultInjector injector(LossyFabric(71, 0.05));
  farview::FarviewSystem sys(farview::FarviewConfig(),
                             mode == FarviewRun::kConcurrent ? 2 : 1);
  sys.set_fault_injector(&injector);
  obs::MetricsRegistry registry;
  if (d == Driver::kStep) sys.engine().EnableMetrics(&registry);
  rel::SyntheticTableSpec spec;
  spec.num_rows = 30000;
  spec.seed = 5;
  const uint64_t tid = sys.LoadTable(rel::MakeSyntheticTable(spec));
  rel::Program filter;
  rel::FilterOp f;
  f.conjuncts.push_back(rel::Predicate{4, rel::CmpOp::kGe, 30});
  filter.ops.push_back(f);
  const uint64_t pf = sys.RegisterProgram(filter);
  const uint64_t q6 = sys.RegisterProgram(rel::MakeQ6Lite());
  const uint64_t top = sys.RegisterProgram(rel::MakeTopExpensive());

  std::vector<farview::QueryStats> stats;
  if (mode == FarviewRun::kConcurrent) {
    auto batch = sys.RunOffloadedConcurrently(
        {{tid, pf}, {tid, q6}, {tid, top}}, nullptr);
    EXPECT_TRUE(batch.ok()) << batch.status();
    if (batch.ok()) stats = std::move(batch).value();
  } else {
    for (uint64_t pid : {pf, q6}) {
      auto s = mode == FarviewRun::kOffload ? sys.RunOffloaded(tid, pid)
                                            : sys.RunFetchAll(tid, pid);
      EXPECT_TRUE(s.ok()) << s.status();
      if (s.ok()) stats.push_back(std::move(s).value());
    }
  }
  FarviewResult r;
  for (const farview::QueryStats& s : stats) {
    r.cycles.push_back(s.cycles);
    r.wire_bytes.push_back(s.wire_bytes);
    r.dram_bytes.push_back(s.dram_bytes);
    r.packets.push_back(s.result_packets);
    r.first_result.push_back(s.first_result_cycles);
    r.rows.push_back(RowsOf(s.result));
  }
  r.now = sys.engine().now();
  const net::RdmaEndpoint& ep = sys.memory_node().endpoint();
  r.buckets = {BucketsOf(sys.memory_node()), BucketsOf(ep)};
  r.retries = {ep.retransmits(), ep.acks_sent(), ep.nacks_sent(),
               ep.duplicates_discarded()};
  r.faults = FaultCounts(injector);
  return r;
}

void ExpectSameFarview(FarviewRun mode, const std::string& label) {
  const FarviewResult ref = RunLossyFarview(Driver::kStep, mode);
  const FarviewResult got = RunLossyFarview(Driver::kRun, mode);
  ASSERT_FALSE(ref.cycles.empty()) << label;
  EXPECT_GT(Sum(ref.faults), 0u) << label << ": no fault injected";
  EXPECT_EQ(got.cycles, ref.cycles) << label;
  EXPECT_EQ(got.wire_bytes, ref.wire_bytes) << label;
  EXPECT_EQ(got.dram_bytes, ref.dram_bytes) << label;
  EXPECT_EQ(got.packets, ref.packets) << label;
  EXPECT_EQ(got.first_result, ref.first_result) << label;
  EXPECT_EQ(got.rows, ref.rows) << label;
  EXPECT_EQ(got.now, ref.now) << label;
  ExpectSameBuckets(ref.buckets[0], got.buckets[0], label + " node");
  ExpectSameBuckets(ref.buckets[1], got.buckets[1], label + " node.ep");
  EXPECT_EQ(got.retries, ref.retries) << label;
  EXPECT_EQ(got.faults, ref.faults) << label;
}

TEST(LibraryDriverTest, LossyFarviewOffloadMatchesStep) {
  ExpectSameFarview(FarviewRun::kOffload, "offload");
}

TEST(LibraryDriverTest, LossyFarviewFetchAllMatchesStep) {
  ExpectSameFarview(FarviewRun::kFetchAll, "fetch-all");
}

TEST(LibraryDriverTest, LossyFarviewConcurrentMatchesStep) {
  ExpectSameFarview(FarviewRun::kConcurrent, "concurrent");
}

struct AcclResult {
  uint64_t cycles = 0, wire_bytes = 0;
  uint32_t attempts = 0;
  std::vector<bool> rank_done;
  std::vector<std::vector<float>> buffers;
  std::vector<uint64_t> faults;
  bool operator==(const AcclResult&) const = default;
};

/// Tree broadcast of 64 KiB from rank 1 across `ranks` ranks. The
/// communicator's modules are internal, so the comparison covers what it
/// reports: cycles, wire bytes (retransmitted payload included), attempts,
/// per-rank completion, the buffers and the injector's draws.
AcclResult RunLossyBroadcast(Driver d, accl::Transport transport,
                             uint32_t ranks, uint64_t seed) {
  ScopedDriver driver(d);
  net::FaultInjector injector(LossyFabric(seed, 0.02));
  accl::Communicator comm(ranks, net::Fabric::Config{}, 200e6, transport);
  comm.set_fault_injector(&injector);
  std::vector<std::vector<float>> buffers(ranks, std::vector<float>(16384));
  for (size_t i = 0; i < buffers[1].size(); ++i) buffers[1][i] = float(i);
  auto stats = comm.Broadcast(1, buffers, accl::Algo::kTree);
  EXPECT_TRUE(stats.ok()) << stats.status();
  AcclResult r;
  if (stats.ok()) {
    r.cycles = stats->cycles;
    r.wire_bytes = stats->wire_bytes;
    r.attempts = stats->attempts;
  }
  r.rank_done = comm.last_outcome().rank_done;
  r.buffers = std::move(buffers);
  r.faults = FaultCounts(injector);
  return r;
}

TEST(LibraryDriverTest, LossyAcclBroadcastOverRdmaMatchesStep) {
  const AcclResult ref =
      RunLossyBroadcast(Driver::kStep, accl::Transport::kRdma, 8, 13);
  EXPECT_GT(Sum(ref.faults), 0u);
  EXPECT_EQ(RunLossyBroadcast(Driver::kRun, accl::Transport::kRdma, 8, 13),
            ref);
}

TEST(LibraryDriverTest, LossyAcclBroadcastOverTcpMatchesStep) {
  const AcclResult ref =
      RunLossyBroadcast(Driver::kStep, accl::Transport::kTcp, 4, 73);
  EXPECT_GT(ref.faults[0], 0u);
  EXPECT_EQ(RunLossyBroadcast(Driver::kRun, accl::Transport::kTcp, 4, 73),
            ref);
}

struct KvsResult {
  std::vector<Cycle> phase_end;
  // (tag, op, key, value, bytes) per response, per client.
  std::vector<std::vector<std::vector<uint64_t>>> responses;
  std::vector<Buckets> buckets;   // fabric, server, client 0, client 1
  std::vector<uint64_t> retries;  // per client: retries, dups, corrupt
  uint64_t server_corrupt = 0;
  std::vector<uint64_t> faults;
};

/// Client 0 PUTs 60 keys, then both clients GET 80 keys each (hits and
/// misses), each phase run until every response arrived.
KvsResult RunLossyKvs(Driver d) {
  net::FaultInjector injector(LossyFabric(79, 0.01));
  net::Fabric::Config fcfg;
  fcfg.clock_hz = 200e6;
  net::Fabric fabric("fab", 3, fcfg);
  fabric.set_fault_injector(&injector);
  kvs::SmartNicKvs server("kvs", 2, &fabric, kvs::SmartNicKvs::Config());
  kvs::KvClient c0("client0", 0, 2, &fabric);
  kvs::KvClient c1("client1", 1, 2, &fabric);
  Engine engine;
  fabric.RegisterWith(engine);
  server.RegisterWith(engine);
  engine.AddModule(&c0);
  engine.AddModule(&c1);
  KvsResult r;
  r.responses.resize(2);
  auto run_until = [&](uint64_t responses) {
    const Engine::StopFn stop = [&] {
      return c0.responses_received() + c1.responses_received() >= responses;
    };
    auto run = d == Driver::kRun
                   ? engine.Run(1 << 22, stop)
                   : sim::StepUntilQuiesced(engine, 1 << 22, stop);
    EXPECT_TRUE(run.ok()) << run.status();
    r.phase_end.push_back(engine.now());
    net::Packet p;
    for (size_t c = 0; c < 2; ++c) {
      kvs::KvClient& client = c == 0 ? c0 : c1;
      while (client.PollResponse(&p)) {
        r.responses[c].push_back({p.tag, p.user, p.addr, p.user2, p.bytes});
      }
    }
  };
  for (uint64_t k = 0; k < 60; ++k) c0.Put(k, k * 7 + 1, k);
  run_until(60);
  for (uint64_t i = 0; i < 80; ++i) {
    c0.Get(i, 100 + i);
    c1.Get(79 - i, 100 + i);
  }
  run_until(220);
  r.buckets = {BucketsOf(fabric), BucketsOf(server), BucketsOf(c0),
               BucketsOf(c1)};
  for (const kvs::KvClient* c : {&c0, &c1}) {
    r.retries.push_back(c->retries());
    r.retries.push_back(c->duplicates_discarded());
    r.retries.push_back(c->corrupt_discarded());
  }
  r.server_corrupt = server.corrupt_discarded();
  r.faults = FaultCounts(injector);
  return r;
}

TEST(LibraryDriverTest, LossyKvsGetPutMatchesStep) {
  const KvsResult ref = RunLossyKvs(Driver::kStep);
  const KvsResult got = RunLossyKvs(Driver::kRun);
  ASSERT_EQ(ref.responses[0].size() + ref.responses[1].size(), 220u);
  EXPECT_GT(ref.retries[0] + ref.retries[3], 0u);
  EXPECT_EQ(got.phase_end, ref.phase_end);
  EXPECT_EQ(got.responses, ref.responses);
  ASSERT_EQ(got.buckets.size(), ref.buckets.size());
  for (size_t i = 0; i < ref.buckets.size(); ++i) {
    ExpectSameBuckets(ref.buckets[i], got.buckets[i],
                      "kvs module " + std::to_string(i));
  }
  EXPECT_EQ(got.retries, ref.retries);
  EXPECT_EQ(got.server_corrupt, ref.server_corrupt);
  EXPECT_EQ(got.faults, ref.faults);
}

/// One MicroRec inference (plus RunBatch's single-inference latency run)
/// on 4 HBM channels. MicroRec has no fabric, so no injector: the lookup
/// dispatcher, the channels and the MLP stage are the modules under test.
TEST(LibraryDriverTest, MicroRecInferenceMatchesStep) {
  const microrec::RecModel model = microrec::MakeTypicalModel(
      /*num_tables=*/12, /*seed=*/11, 1000, 50000, 16);
  microrec::MicroRecConfig cfg;
  cfg.sram_budget_bytes = 0;
  cfg.override_hbm_channels = 4;
  auto engine = microrec::MicroRecEngine::Create(
      &model, microrec::PlanWithoutCartesian(model), device::AlveoU280(), cfg);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto run = [&](Driver d) {
    ScopedDriver driver(d);
    return engine->RunBatch(1, 5);
  };
  const auto ref = run(Driver::kStep);
  const auto got = run(Driver::kRun);
  ASSERT_TRUE(ref.ok()) << ref.status();
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->cycles, ref->cycles);
  EXPECT_EQ(got->hbm_bytes, ref->hbm_bytes);
  EXPECT_EQ(got->latency_us, ref->latency_us);
}

}  // namespace
}  // namespace fpgadp
