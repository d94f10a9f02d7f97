#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/latency_histogram.h"
#include "src/serve/arrival.h"
#include "src/serve/front_door.h"
#include "src/serve/synthetic.h"
#include "src/shard/shard.h"

namespace fpgadp::serve {
namespace {

// ---------------------------------------------------------------------------
// Arrival processes

TEST(ArrivalTest, PoissonIsAscendingDeterministicAndHitsTheMean) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kPoisson;
  cfg.mean_interarrival_cycles = 500.0;
  const auto a = GenerateArrivals(cfg, 4000, 11);
  const auto b = GenerateArrivals(cfg, 4000, 11);
  ASSERT_EQ(a.size(), 4000u);
  EXPECT_EQ(a, b);  // bit-deterministic per seed
  EXPECT_NE(a, GenerateArrivals(cfg, 4000, 12));
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  // Law of large numbers: 4000 exponential gaps of mean 500 end near 2M.
  const double mean_gap = double(a.back()) / double(a.size());
  EXPECT_GT(mean_gap, 450.0);
  EXPECT_LT(mean_gap, 550.0);
}

TEST(ArrivalTest, BurstyMatchesConfiguredStatesAndStaysSorted) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kBursty;
  cfg.mean_interarrival_cycles = 1000.0;
  cfg.burst_rate_multiplier = 8.0;
  cfg.mean_burst_cycles = 4000.0;
  cfg.mean_gap_cycles = 16000.0;
  const auto a = GenerateArrivals(cfg, 2000, 17);
  ASSERT_EQ(a.size(), 2000u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_EQ(a, GenerateArrivals(cfg, 2000, 17));
  // Burstiness leaves a fat minimum-gap mode: a meaningful share of gaps
  // must be far below the base mean (drawn at 8x the base rate).
  size_t short_gaps = 0;
  for (size_t i = 1; i < a.size(); ++i) {
    if (a[i] - a[i - 1] < 250) ++short_gaps;
  }
  EXPECT_GT(short_gaps, a.size() / 10);
}

TEST(ArrivalTest, DiurnalModulatesTheRateOverThePeriod) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kDiurnal;
  cfg.mean_interarrival_cycles = 100.0;
  cfg.period_cycles = 200000.0;
  cfg.amplitude = 0.9;
  const auto a = GenerateArrivals(cfg, 3000, 23);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_EQ(a, GenerateArrivals(cfg, 3000, 23));
  // The first quarter-period (sin > 0, rate up to 1.9x base) must collect
  // visibly more arrivals than the third (sin < 0, rate down to 0.1x base).
  size_t peak = 0, trough = 0;
  for (sim::Cycle c : a) {
    const uint64_t phase = c % 200000;
    if (phase < 50000) ++peak;
    if (phase >= 100000 && phase < 150000) ++trough;
  }
  EXPECT_GT(peak, 2 * trough);
}

TEST(ArrivalTest, ClosedLoopSchedulesOnlyTheInitialWindow) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kClosedLoop;
  cfg.concurrency = 8;
  const auto a = GenerateArrivals(cfg, 100, 3);
  ASSERT_EQ(a.size(), 8u);  // the rest are response-driven
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], i);
  EXPECT_EQ(GenerateArrivals(cfg, 5, 3).size(), 5u);
}

// ---------------------------------------------------------------------------
// LatencyHistogram

TEST(LatencyHistogramTest, ExactBelowOneOctaveAndBoundedAbove) {
  obs::LatencyHistogram h(4);  // values < 16 recorded exactly
  for (uint64_t v : {0ull, 1ull, 7ull, 15ull}) {
    obs::LatencyHistogram one(4);
    one.Record(v);
    EXPECT_EQ(one.Quantile(1.0), v);
  }
  // Above one octave the bucket bound overshoots by < 2^-4 relative.
  for (uint64_t v = 16; v < 100000; v = v * 3 + 1) {
    obs::LatencyHistogram one(4);
    one.Record(v);
    const uint64_t q = one.Quantile(1.0);
    EXPECT_GE(q, v);
    EXPECT_LE(q - v, v / 16);
  }
}

TEST(LatencyHistogramTest, QuantilesOnAKnownDistribution) {
  obs::LatencyHistogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.sum(), 500500u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  // The p50 bucket holds observation #500; bounds overshoot by <= 6.25%.
  EXPECT_GE(h.p50(), 500u);
  EXPECT_LE(h.p50(), 532u);
  EXPECT_GE(h.p99(), 990u);
  EXPECT_LE(h.p99(), 1000u);  // clamped to observed max
  EXPECT_EQ(h.Quantile(1.0), 1000u);
  EXPECT_EQ(h.p999(), 1000u);
}

TEST(LatencyHistogramTest, MergeEqualsRecordingTheUnion) {
  obs::LatencyHistogram a, b, both;
  for (uint64_t v = 1; v < 500; v += 7) {
    a.Record(v * 13 % 10000);
    both.Record(v * 13 % 10000);
  }
  for (uint64_t v = 1; v < 500; v += 3) {
    b.Record(v * 977 % 100000);
    both.Record(v * 977 % 100000);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.sum(), both.sum());
  EXPECT_EQ(a.min(), both.min());
  EXPECT_EQ(a.max(), both.max());
  EXPECT_EQ(a.bucket_counts(), both.bucket_counts());
  EXPECT_EQ(a.p50(), both.p50());
  EXPECT_EQ(a.p99(), both.p99());
  EXPECT_EQ(a.p999(), both.p999());
}

TEST(LatencyHistogramTest, EmptyHistogramIsAllZeros) {
  const obs::LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.p50(), 0u);
  EXPECT_EQ(h.Quantile(1.0), 0u);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(LatencyHistogramTest, MergeWithEmptyIsIdentityBothWays) {
  obs::LatencyHistogram full, empty;
  for (uint64_t v : {3ull, 90ull, 4097ull}) full.Record(v);
  const uint64_t count = full.count(), sum = full.sum();
  // Folding an empty histogram in must not disturb the extrema (the empty
  // side's sentinel min is ~0ull and its max is 0 — neither may leak).
  full.Merge(empty);
  EXPECT_EQ(full.count(), count);
  EXPECT_EQ(full.sum(), sum);
  EXPECT_EQ(full.min(), 3u);
  EXPECT_EQ(full.max(), 4097u);
  // And an empty histogram absorbing a full one becomes its exact copy.
  empty.Merge(full);
  EXPECT_EQ(empty.count(), count);
  EXPECT_EQ(empty.sum(), sum);
  EXPECT_EQ(empty.min(), 3u);
  EXPECT_EQ(empty.max(), 4097u);
  EXPECT_EQ(empty.bucket_counts(), full.bucket_counts());
  EXPECT_EQ(empty.p99(), full.p99());
}

TEST(LatencyHistogramTest, MergeSaturatedTopBucketStaysExact) {
  // The very top of the uint64 range lands in the last sub-bucket of the
  // last octave; merging histograms saturated there must neither overflow
  // the bucket index nor lose the clamp-to-observed-max in Quantile.
  const uint64_t top = ~uint64_t{0};
  obs::LatencyHistogram a, b;
  a.Record(top);
  a.Record(top - 1);
  b.Record(top);
  b.Record(5);
  a.Merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.min(), 5u);
  EXPECT_EQ(a.max(), top);
  // The bucket's nominal upper bound would overshoot uint64; the quantile
  // must clamp to the observed max instead of wrapping.
  EXPECT_EQ(a.Quantile(1.0), top);
  EXPECT_EQ(a.p999(), top);
  const auto& counts = a.bucket_counts();
  EXPECT_EQ(counts.back(), 3u) << "both top observations share the last "
                                  "sub-bucket of the last octave";
}

TEST(LatencyHistogramTest, MergeDisjointRangesReflectsTheUnion) {
  // Mismatched recordings — one histogram all-fast, one all-slow — merged:
  // the union's quantiles must straddle the gap, not average across it.
  obs::LatencyHistogram fast, slow;
  for (uint64_t v = 1; v <= 100; ++v) fast.Record(v);
  for (uint64_t v = 100000; v < 100100; ++v) slow.Record(v);
  fast.Merge(slow);
  EXPECT_EQ(fast.count(), 200u);
  EXPECT_EQ(fast.min(), 1u);
  EXPECT_EQ(fast.max(), 100099u);
  EXPECT_LE(fast.p50(), 107u);      // median still in the fast mode
  EXPECT_GE(fast.p99(), 100000u);   // tail entirely in the slow mode
}

TEST(LatencyHistogramDeathTest, MergeRejectsMismatchedGeometry) {
  obs::LatencyHistogram four(4), five(5);
  four.Record(10);
  five.Record(10);
  // Different sub_bucket_bits means incompatible bucket layouts; merging
  // them silently would scramble every quantile.
  EXPECT_DEATH(four.Merge(five), "sub_bucket_bits");
}

// ---------------------------------------------------------------------------
// Admission at the coordinator

std::vector<shard::SubRequest> OneSlice(uint32_t shard, uint64_t est) {
  shard::SubRequest sub;
  sub.shard = shard;
  sub.request_bytes = 64;
  sub.est_service_cycles = est;
  return {sub};
}

TEST(AdmissionTest, QueueDepthPolicyShedsAtMaxPending) {
  SyntheticWorkload::Config wc;
  wc.num_shards = 2;
  SyntheticWorkload wl(wc);
  shard::ShardCluster::Config cc;
  cc.num_shards = 2;
  cc.coordinator.admission = shard::AdmissionPolicy::kQueueDepth;
  cc.coordinator.max_pending = 2;
  shard::ShardCluster cluster(&wl, cc);
  auto& coord = cluster.coordinator();
  EXPECT_TRUE(coord.TrySubmit(wl.AddRequest(100), OneSlice(0, 100), 1000));
  EXPECT_TRUE(coord.TrySubmit(wl.AddRequest(100), OneSlice(1, 100), 1000));
  EXPECT_FALSE(coord.TrySubmit(wl.AddRequest(100), OneSlice(0, 100), 1000));
  EXPECT_EQ(coord.ingress_shed(), 1u);
}

TEST(AdmissionTest, DeadlineFeasibilityShedsWhenBacklogOverrunsTheBudget) {
  SyntheticWorkload::Config wc;
  wc.num_shards = 1;
  SyntheticWorkload wl(wc);
  shard::ShardCluster::Config cc;
  cc.num_shards = 1;
  cc.coordinator.admission = shard::AdmissionPolicy::kDeadlineFeasible;
  cc.coordinator.initial_wire_estimate_cycles = 100;
  cc.coordinator.feasibility_headroom_pct = 100;
  shard::ShardCluster cluster(&wl, cc);
  auto& coord = cluster.coordinator();
  // ETA of the first request: wire 100 + backlog 0 + service 400 = 500.
  EXPECT_FALSE(coord.TrySubmit(wl.AddRequest(400), OneSlice(0, 400), 499));
  EXPECT_TRUE(coord.TrySubmit(wl.AddRequest(400), OneSlice(0, 400), 500));
  EXPECT_EQ(coord.queued_cost(0), 400u);
  // Second request sits behind the first: ETA = 100 + 400 + 400 = 900.
  EXPECT_FALSE(coord.TrySubmit(wl.AddRequest(400), OneSlice(0, 400), 899));
  EXPECT_TRUE(coord.TrySubmit(wl.AddRequest(400), OneSlice(0, 400), 900));
  EXPECT_EQ(coord.queued_cost(0), 800u);
  EXPECT_EQ(coord.ingress_shed(), 2u);
}

TEST(AdmissionTest, HeadroomTightensTheBudget) {
  SyntheticWorkload::Config wc;
  wc.num_shards = 1;
  SyntheticWorkload wl(wc);
  shard::ShardCluster::Config cc;
  cc.num_shards = 1;
  cc.coordinator.admission = shard::AdmissionPolicy::kDeadlineFeasible;
  cc.coordinator.initial_wire_estimate_cycles = 100;
  cc.coordinator.feasibility_headroom_pct = 50;
  shard::ShardCluster cluster(&wl, cc);
  auto& coord = cluster.coordinator();
  // ETA 500 now needs a deadline of 1000 (only 50% may be planned into).
  EXPECT_FALSE(coord.TrySubmit(wl.AddRequest(400), OneSlice(0, 400), 999));
  EXPECT_TRUE(coord.TrySubmit(wl.AddRequest(400), OneSlice(0, 400), 1000));
}

TEST(AdmissionTest, ServedSlicesReleaseBacklogAndTrainTheEstimator) {
  // Every gather topology must train the estimator: with no published
  // per-slice estimates, deadline-feasibility admission runs on the EWMA
  // and the wire floor alone.
  constexpr uint32_t kShards = 4;
  constexpr uint64_t kService = 500;
  constexpr int kRequests = 40;
  for (shard::GatherTopology topology :
       {shard::GatherTopology::kFlat, shard::GatherTopology::kTree,
        shard::GatherTopology::kSwitch}) {
    SCOPED_TRACE(shard::GatherTopologyName(topology));
    SyntheticWorkload::Config wc;
    wc.num_shards = kShards;
    wc.fanout = kShards;
    wc.jitter_pct = 0;
    wc.publish_estimates = false;
    SyntheticWorkload wl(wc);
    shard::ShardCluster::Config cc;
    cc.num_shards = kShards;
    cc.gather.topology = topology;
    cc.coordinator.admission = shard::AdmissionPolicy::kDeadlineFeasible;
    cc.coordinator.initial_service_estimate_cycles = 64;
    shard::ShardCluster cluster(&wl, cc);
    auto& coord = cluster.coordinator();
    for (uint32_t s = 0; s < kShards; ++s) {
      EXPECT_EQ(coord.service_estimate(s), 64u);
    }
    for (int i = 0; i < kRequests; ++i) {
      const uint64_t id = wl.AddRequest(kService);
      ASSERT_TRUE(coord.TrySubmit(id, wl.Scatter(id), 1u << 20));
    }
    ASSERT_TRUE(cluster.Run().ok());
    shard::PartialOutcome out;
    int completed = 0;
    while (cluster.PollOutcome(&out)) {
      EXPECT_TRUE(out.status.ok());
      ++completed;
    }
    EXPECT_EQ(completed, kRequests);
    // 40 EWMA steps (alpha 1/8) from the 64-cycle seed land within 10
    // cycles of the measured service; the backlog drained on resolve.
    for (uint32_t s = 0; s < kShards; ++s) {
      EXPECT_EQ(coord.queued_cost(s), 0u);
      EXPECT_GE(coord.service_estimate(s), kService - 10);
      EXPECT_LE(coord.service_estimate(s), kService);
    }
    // The responses replaced the configured wire guess with the measured
    // round-trip-minus-service.
    EXPECT_GT(coord.wire_estimate(), 0u);
    EXPECT_NE(coord.wire_estimate(),
              shard::ShardCoordinator::Config{}.initial_wire_estimate_cycles);
  }
}

// ---------------------------------------------------------------------------
// FrontDoor end to end

struct DoorRun {
  uint64_t cycles = 0;
  uint64_t completed = 0;
  uint64_t shed = 0;
  uint64_t p99 = 0;
  uint64_t count = 0;
  uint64_t sum = 0;
};

DoorRun RunDoor(shard::AdmissionPolicy policy, ArrivalKind kind, double rho,
                bool stepped = false,
                shard::GatherTopology gather = shard::GatherTopology::kFlat) {
  SyntheticWorkload::Config wc;
  wc.num_shards = 2;
  SyntheticWorkload wl(wc);
  shard::ShardCluster::Config cc;
  cc.num_shards = 2;
  cc.gather.topology = gather;
  cc.coordinator.admission = policy;
  cc.coordinator.max_pending = 64;
  cc.coordinator.feasibility_headroom_pct = 80;
  shard::ShardCluster cluster(&wl, cc);

  FrontDoor::Config fd;
  fd.arrivals.kind = kind;
  fd.arrivals.mean_interarrival_cycles = 200.0 / (2.0 * rho);
  fd.arrivals.concurrency = 4;
  fd.classes = {{"only", 4000, 1.0}};
  fd.num_requests = 300;
  fd.seed = 5;
  FrontDoor door(
      "door", &cluster.coordinator(), &wl,
      [&wl](uint32_t, size_t) { return wl.AddRequest(200); }, fd);
  cluster.engine().AddModule(&door);

  auto cycles = stepped ? sim::StepUntilQuiesced(cluster.engine(), 1ull << 32)
                        : cluster.Run();
  EXPECT_TRUE(cycles.ok());
  DoorRun r;
  r.cycles = cycles.ok() ? cycles.value() : 0;
  r.completed = door.total_completed();
  r.shed = door.total_shed();
  const ClassStats& s = door.class_stats(0);
  r.p99 = s.latency.p99();
  r.count = s.latency.count();
  r.sum = s.latency.sum();
  return r;
}

TEST(FrontDoorTest, OpenLoopServesEveryRequestUnderLightLoad) {
  const DoorRun r = RunDoor(shard::AdmissionPolicy::kDeadlineFeasible,
                            ArrivalKind::kPoisson, 0.4);
  EXPECT_EQ(r.completed, 300u);
  EXPECT_EQ(r.shed, 0u);
  EXPECT_EQ(r.count, 300u);  // one latency sample per completion
  EXPECT_GT(r.p99, 0u);
  EXPECT_LE(r.p99, 4000u);
}

TEST(FrontDoorTest, OverloadShedsUnderFeasibilityButHoldsTheSlo) {
  const DoorRun r = RunDoor(shard::AdmissionPolicy::kDeadlineFeasible,
                            ArrivalKind::kPoisson, 2.0);
  EXPECT_GT(r.shed, 0u);
  EXPECT_EQ(r.completed + r.shed, 300u);
  EXPECT_LE(r.p99, 4000u);  // served requests stay inside the budget
}

TEST(FrontDoorTest, ClosedLoopCompletesEverythingWithoutShedding) {
  const DoorRun r = RunDoor(shard::AdmissionPolicy::kDeadlineFeasible,
                            ArrivalKind::kClosedLoop, 1.0);
  EXPECT_EQ(r.completed, 300u);
  EXPECT_EQ(r.shed, 0u);
}

TEST(FrontDoorTest, RunResultsAreBitIdenticalToStep) {
  // Under every gather topology, so deadline-feasibility admission's
  // estimator path is compared against the Step() loop wherever it trains.
  for (shard::GatherTopology gather :
       {shard::GatherTopology::kFlat, shard::GatherTopology::kTree,
        shard::GatherTopology::kSwitch}) {
    for (ArrivalKind kind : {ArrivalKind::kPoisson, ArrivalKind::kBursty,
                             ArrivalKind::kClosedLoop}) {
      SCOPED_TRACE(shard::GatherTopologyName(gather));
      const DoorRun ref = RunDoor(shard::AdmissionPolicy::kDeadlineFeasible,
                                  kind, 1.5, /*stepped=*/true, gather);
      const DoorRun run = RunDoor(shard::AdmissionPolicy::kDeadlineFeasible,
                                  kind, 1.5, /*stepped=*/false, gather);
      EXPECT_EQ(run.cycles, ref.cycles);
      EXPECT_EQ(run.completed, ref.completed);
      EXPECT_EQ(run.shed, ref.shed);
      EXPECT_EQ(run.p99, ref.p99);
      EXPECT_EQ(run.count, ref.count);
      EXPECT_EQ(run.sum, ref.sum);
    }
  }
}

TEST(FrontDoorTest, MergedLatencyAggregatesAllClasses) {
  SyntheticWorkload::Config wc;
  wc.num_shards = 2;
  SyntheticWorkload wl(wc);
  shard::ShardCluster::Config cc;
  cc.num_shards = 2;
  shard::ShardCluster cluster(&wl, cc);
  FrontDoor::Config fd;
  fd.arrivals.mean_interarrival_cycles = 400.0;
  fd.classes = {{"a", 100000, 0.5}, {"b", 100000, 0.5}};
  fd.num_requests = 100;
  FrontDoor door(
      "door", &cluster.coordinator(), &wl,
      [&wl](uint32_t, size_t) { return wl.AddRequest(150); }, fd);
  cluster.engine().AddModule(&door);
  ASSERT_TRUE(cluster.Run().ok());
  const obs::LatencyHistogram merged = door.MergedLatency();
  EXPECT_EQ(merged.count(), 100u);
  EXPECT_EQ(merged.count(),
            door.class_stats(0).latency.count() +
                door.class_stats(1).latency.count());
  EXPECT_GT(door.class_stats(0).latency.count(), 0u);
  EXPECT_GT(door.class_stats(1).latency.count(), 0u);
}

}  // namespace
}  // namespace fpgadp::serve
