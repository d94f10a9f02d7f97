// Determinism lockdown for the engine's scheduler: over real pipelines,
// the event-driven Run() must reproduce the Step() loop bit-for-bit —
// cycle counts, per-module stall attribution, stream traffic, completion
// timestamps, and fault outcomes. Every test here runs the same workload
// under both drivers and diffs everything observable.
//
// The file keeps its name from when it also covered the parallel tick and
// its thread pool; both were removed, leaving Run() the only scheduler that
// can diverge from the one-cycle Step() reference. The arming-rule unit
// tests and the 100-seed sharded differentials live in engine_event_test.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/net/fabric.h"
#include "src/net/rdma.h"
#include "src/obs/metrics.h"
#include "src/relational/fpga_executor.h"
#include "src/relational/program.h"
#include "src/relational/table.h"
#include "src/sim/engine.h"
#include "src/sim/kernels.h"
#include "src/sim/module.h"
#include "src/sim/stream.h"

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

PipelineResult RunKernelPipeline(Driver d) {
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
      sim::KernelTiming{1, 2, 12});
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

/// Forwards everything readable, with no event certification: Run() must
/// tick it every visited cycle, exactly as Step() does.
class UncertifiedPassthrough : public Module {
 public:
  UncertifiedPassthrough(std::string name, Stream<int64_t>* in,
                         Stream<int64_t>* out)
      : Module(std::move(name)), in_(in), out_(out) {}
  void Tick(Cycle) override {
    bool progressed = false;
    while (in_->CanRead() && out_->CanWrite()) {
      out_->Write(in_->Read());
      progressed = true;
    }
    if (progressed) MarkBusy();
  }
  bool Idle() const override { return true; }

 private:
  Stream<int64_t>* in_;
  Stream<int64_t>* out_;
};

PipelineResult RunUncertifiedPipeline(Driver d) {
  std::vector<int64_t> data(1000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = int64_t(i);
  Stream<int64_t> s0("s0", 4), s1("s1", 4);
  sim::VectorSource<int64_t> src("src", data, &s0);
  UncertifiedPassthrough mid("mid", &s0, &s1);
  sim::VectorSink<int64_t> sink("sink", &s1);
  Engine e;
  e.AddModule(&src);
  e.AddModule(&mid);
  e.AddModule(&sink);
  e.AddStream(&s0);
  e.AddStream(&s1);
  return RunPipeline(d, e, {&src, &mid, &sink}, {&s0, &s1}, sink);
}

TEST(EngineDeterminismTest, UncertifiedModuleMatchesStep) {
  const PipelineResult ref = RunUncertifiedPipeline(Driver::kStep);
  EXPECT_EQ(ref.collected.size(), 1000u);
  ExpectSamePipeline(ref, RunUncertifiedPipeline(Driver::kRun),
                     "uncertified-pipeline");
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
  p.ops.push_back(g);
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
  net::RdmaEndpoint::Reliability rel;
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

}  // namespace
}  // namespace fpgadp
