// Chaos tier: scheduled link-flaps under serving load.
//
// Every other test tier asks "is the result right?" — this one asks "does
// the tail come back?". A FrontDoor offers Poisson or bursty traffic at
// rho ~= 0.8 while a FaultInjector permanently severs a shard primary's
// links mid-run, twice. With replication_factor = 2 the coordinator must
// detect each death (retry-ladder exhaustion or beacon silence), promote
// the standby, and replay the in-flight slices — all while new arrivals
// keep landing. The tier hard-asserts three things:
//
//   1. Nothing is wrong or lost: every offered request completes, none
//      degraded, none shed.
//   2. The failover machinery actually fired: one promotion per flap.
//   3. p99 returns under the interactive SLO within kRecoveryBudgetCycles
//      after each flap, measured on the completion time series (run-wide
//      histograms would let a long outage hide inside a healthy average).
//
// The recovery budget is documented in EXPERIMENTS.md (E25). Derivation at
// the config used here (rto 300, 2 retries, beacons 600/1500):
//
//   detection   <= max(rto ladder 300+600+1200 = 2100,
//                      beacon timeout 1500 + interval 600 = 2100)
//   replay RTT  ~=  500   (re-tagged slices to the promoted standby)
//   queue drain ~= 1300   (arrivals during the outage, served at rho 0.8)
//   ------------------------------------------------------------------
//   kRecoveryBudgetCycles = 4000 (measured worst spike ends < F + 2000;
//   the budget leaves ~2x headroom so the tier fails on regressions, not
//   on jitter — there is no jitter, the sim is deterministic, but the
//   headroom keeps the constant stable across config tweaks).
//
// Determinism doubles as an assertion: each scenario runs under Run() and
// under the Step() loop it must reproduce, and the completion logs must
// match bit-for-bit.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/fabric.h"
#include "src/serve/front_door.h"
#include "src/serve/synthetic.h"
#include "src/shard/shard.h"

namespace fpgadp {
namespace {

using serve::ArrivalKind;
using serve::FrontDoor;
using serve::SyntheticWorkload;

constexpr uint64_t kInteractiveSloCycles = 2500;
constexpr uint64_t kRecoveryBudgetCycles = 4000;  // See header comment / E25.
constexpr uint64_t kFlapCycles[] = {30000, 60000};
constexpr uint32_t kVictimShards[] = {1, 2};

struct ChaosResult {
  std::vector<FrontDoor::CompletionRecord> log;
  uint64_t offered = 0;
  uint64_t completed = 0;
  uint64_t shed = 0;
  uint64_t failovers = 0;
  uint64_t fault_count = 0;
};

ChaosResult RunChaos(ArrivalKind kind, uint64_t seed, bool stepped = false) {
  SyntheticWorkload::Config wc;
  wc.num_shards = 4;
  SyntheticWorkload wl(wc);

  shard::ShardCluster::Config cc;
  cc.num_shards = 4;
  cc.reliability.rto_cycles = 300;
  cc.reliability.max_retries = 2;
  cc.replica.replication_factor = 2;
  cc.replica.beacon_interval_cycles = 600;
  cc.replica.beacon_timeout_cycles = 1500;
  shard::ShardCluster cluster(&wl, cc);

  // Permanently sever both link directions of each victim's primary. The
  // standby (replica 1) keeps its own links, so promotion restores service.
  net::FaultInjector::Config fc;
  fc.flap_down_cycles = 1u << 30;
  net::FaultInjector injector(fc);
  for (size_t i = 0; i < 2; ++i) {
    const uint32_t node =
        cluster.gather_plan().ReplicaNode(kVictimShards[i], 0);
    injector.Schedule({kFlapCycles[i], node, net::FaultInjector::kAnyNode,
                       net::FaultKind::kLinkFlap});
    injector.Schedule({kFlapCycles[i], net::FaultInjector::kAnyNode, node,
                       net::FaultKind::kLinkFlap});
  }
  cluster.set_fault_injector(&injector);

  FrontDoor::Config fd;
  fd.arrivals.kind = kind;
  if (kind == ArrivalKind::kPoisson) {
    // rho = service / (shards * interarrival) = 200 / (4 * 62.5) = 0.8.
    fd.arrivals.mean_interarrival_cycles = 62.5;
  } else {
    // Bursty: base rho 0.5, bursts at 2x drive the cluster to saturation
    // (rho 1.0) for ~4k-cycle windows — queueing transients without
    // steady-state overload, so SLO recovery stays attributable to flaps.
    fd.arrivals.mean_interarrival_cycles = 100.0;
    fd.arrivals.burst_rate_multiplier = 2.0;
    fd.arrivals.mean_burst_cycles = 4000.0;
    fd.arrivals.mean_gap_cycles = 8000.0;
  }
  fd.classes = {{"interactive", kInteractiveSloCycles, 1.0}};
  fd.num_requests = 1500;
  fd.seed = seed;
  FrontDoor door("door", &cluster.coordinator(), &wl,
                 [&wl](uint32_t, size_t) { return wl.AddRequest(200); }, fd);

  ChaosResult result;
  door.set_completion_log(&result.log);
  cluster.engine().AddModule(&door);

  auto cycles = stepped ? sim::StepUntilQuiesced(cluster.engine(), 5u << 20)
                        : cluster.Run(5u << 20);
  EXPECT_TRUE(cycles.ok());
  result.offered = door.total_offered();
  result.completed = door.total_completed();
  result.shed = door.total_shed();
  result.failovers = cluster.coordinator().failovers();
  result.fault_count = injector.fault_count(net::FaultKind::kLinkFlap);
  return result;
}

uint64_t P99(std::vector<uint64_t> latencies) {
  if (latencies.empty()) return 0;
  std::sort(latencies.begin(), latencies.end());
  const size_t rank =
      (latencies.size() * 99 + 99) / 100;  // ceil(0.99 * n), 1-based.
  return latencies[std::min(rank, latencies.size()) - 1];
}

/// p99 of completions landing in [lo, hi).
uint64_t WindowP99(const std::vector<FrontDoor::CompletionRecord>& log,
                   uint64_t lo, uint64_t hi) {
  std::vector<uint64_t> window;
  for (const auto& r : log) {
    if (r.completed_at >= lo && r.completed_at < hi) {
      window.push_back(r.latency_cycles);
    }
  }
  return P99(std::move(window));
}

class ChaosRecoveryTest
    : public ::testing::TestWithParam<std::pair<ArrivalKind, uint64_t>> {};

TEST_P(ChaosRecoveryTest, P99RecoversWithinBudgetAfterEachPrimaryDeath) {
  const auto [kind, seed] = GetParam();
  const ChaosResult r = RunChaos(kind, seed);

  // 1. Nothing wrong, nothing lost. Every offered request is admitted,
  //    completes, and carries all its slices (degraded = missing slices).
  ASSERT_EQ(r.offered, 1500u);
  EXPECT_EQ(r.shed, 0u);
  ASSERT_EQ(r.completed, 1500u);
  ASSERT_EQ(r.log.size(), 1500u);
  for (const auto& rec : r.log) {
    EXPECT_FALSE(rec.degraded)
        << "degraded completion at cycle " << rec.completed_at;
  }

  // 2. The faults landed and the failovers fired — exactly one promotion
  //    per dead primary (a second promotion of the same shard would mean
  //    the replay path re-detected a death it already handled).
  EXPECT_GE(r.fault_count, 2u);
  EXPECT_EQ(r.failovers, 2u);

  // 3. Tail recovery. The pre-fault window must be clean (otherwise the
  //    recovery assertion tests the load, not the failover), and after
  //    each flap's recovery budget expires the tail must be back under
  //    the SLO until the next flap (or end of run).
  const uint64_t end = r.log.back().completed_at + 1;
  EXPECT_LE(WindowP99(r.log, 0, kFlapCycles[0]), kInteractiveSloCycles);
  EXPECT_LE(WindowP99(r.log, kFlapCycles[0] + kRecoveryBudgetCycles,
                      kFlapCycles[1]),
            kInteractiveSloCycles);
  EXPECT_LE(WindowP99(r.log, kFlapCycles[1] + kRecoveryBudgetCycles, end),
            kInteractiveSloCycles);
}

TEST_P(ChaosRecoveryTest, CompletionTimelineIdenticalToStep) {
  const auto [kind, seed] = GetParam();
  const ChaosResult ref = RunChaos(kind, seed, /*stepped=*/true);
  const ChaosResult run = RunChaos(kind, seed);

  ASSERT_EQ(run.log.size(), ref.log.size());
  EXPECT_EQ(run.failovers, ref.failovers);
  for (size_t i = 0; i < ref.log.size(); ++i) {
    EXPECT_EQ(run.log[i].completed_at, ref.log[i].completed_at)
        << "completion " << i;
    EXPECT_EQ(run.log[i].latency_cycles, ref.log[i].latency_cycles)
        << "completion " << i;
    EXPECT_EQ(run.log[i].class_index, ref.log[i].class_index);
    EXPECT_EQ(run.log[i].degraded, ref.log[i].degraded);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Arrivals, ChaosRecoveryTest,
    ::testing::Values(std::make_pair(ArrivalKind::kPoisson, 9ull),
                      std::make_pair(ArrivalKind::kPoisson, 23ull),
                      std::make_pair(ArrivalKind::kBursty, 9ull),
                      std::make_pair(ArrivalKind::kBursty, 23ull)),
    [](const auto& info) {
      const std::string kind = info.param.first == ArrivalKind::kPoisson
                                   ? "Poisson"
                                   : "Bursty";
      return kind + "Seed" + std::to_string(info.param.second);
    });

}  // namespace
}  // namespace fpgadp
