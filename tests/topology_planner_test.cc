// TopologyPlanner tests.
//
// Unit tier: the cost model's ranking mechanics in isolation — tie-breaks
// toward the simpler shape, the switch-unavailable fallback, the
// compute-bound short-circuit (and its balance-scatter recommendation), and
// multicast-scatter enablement on tree picks.
//
// Property tier: the picker, fed only what a probe run can observe, must
// land within 5% of the measured-fastest static topology for every
// workload family (ANNS / KVS / join) at 2, 4 and 8 shards — the same
// contract bench_shard_scaling's --gather=auto rows assert at full size.
// The corpora are sized so that wire serialization is a real term (fat KVS
// values, a match-heavy join): the model is a per-request bottleneck model,
// and below that regime every topology measures within noise of flat.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/anns/dataset.h"
#include "src/anns/ivf.h"
#include "src/common/check.h"
#include "src/relational/cpu_executor.h"
#include "src/relational/table.h"
#include "src/shard/gather.h"
#include "src/shard/partitioner.h"
#include "src/shard/shard.h"
#include "src/shard/topology_planner.h"
#include "src/shard/workloads.h"

namespace fpgadp::shard {
namespace {

// ---------------------------------------------------------------------------
// Unit: the cost model in isolation

/// Inputs with every wire term tiny and the uplink nominally busy, so no
/// short-circuit fires and `serve` dominates every candidate equally.
PlannerInputs ServeDominatedInputs() {
  PlannerInputs in;
  in.num_shards = 8;
  in.max_ports = 4;
  in.request_bytes = 64;
  in.response_bytes = 64;
  in.shrink_pct = 100;
  in.service_estimate_cycles = 1'000'000;
  in.service_estimate_mean_cycles = 1'000'000;
  in.root_uplink_occupancy_pct = 100;
  return in;
}

TEST(TopologyPlannerTest, WireCyclesRoundsUpAndChargesHeader) {
  PlannerInputs in;  // 64 B header, 62.5 B/cycle
  EXPECT_EQ(TopologyPlanner::WireCycles(in, 0), 2u);     // 1024/1000 -> 2
  EXPECT_EQ(TopologyPlanner::WireCycles(in, 64), 3u);    // 2048/1000 -> 3
  EXPECT_EQ(TopologyPlanner::WireCycles(in, 4096), 67u); // 66560/1000 -> 67
}

TEST(TopologyPlannerTest, TieBreaksTowardSimplestShape) {
  // All candidates cost exactly `serve` except the tree (which adds its
  // forwarding depth); the earliest-pushed of the tied set — single-port
  // flat — must win.
  const TopologyDecision d = TopologyPlanner::Choose(ServeDominatedInputs());
  EXPECT_EQ(d.gather.topology, GatherTopology::kFlat);
  EXPECT_EQ(d.gather.coordinator_ports, 1u);
  EXPECT_EQ(d.gather.scatter, ScatterMode::kUnicast);
  EXPECT_EQ(d.cost_cycles, 1'000'000u);
}

TEST(TopologyPlannerTest, SwitchUnavailableFallsBackToNextBest) {
  // Wire-bound and shrink-heavy: big responses that merge 10:1. Modeled
  // costs: switch 100 < tree 123 < flat-4 134 < flat-1 536.
  PlannerInputs in;
  in.num_shards = 8;
  in.max_ports = 4;
  in.request_bytes = 64;
  in.response_bytes = 4096;
  in.shrink_pct = 10;
  in.service_estimate_cycles = 100;
  in.service_estimate_mean_cycles = 100;
  in.root_uplink_occupancy_pct = 100;

  const TopologyDecision with_switch = TopologyPlanner::Choose(in);
  EXPECT_EQ(with_switch.gather.topology, GatherTopology::kSwitch);
  EXPECT_EQ(with_switch.gather.coordinator_ports, 4u);

  in.switch_available = false;
  const TopologyDecision without = TopologyPlanner::Choose(in);
  EXPECT_EQ(without.gather.topology, GatherTopology::kTree);
  EXPECT_GT(without.cost_cycles, with_switch.cost_cycles);
}

TEST(TopologyPlannerTest, ComputeBoundShortCircuitsToFlatAndFlagsImbalance) {
  PlannerInputs in = ServeDominatedInputs();
  in.root_uplink_occupancy_pct = TopologyPlanner::kComputeBoundPct - 1;
  in.service_estimate_cycles = 150;
  in.service_estimate_mean_cycles = 100;  // slowest shard is 1.5x the mean
  TopologyDecision d = TopologyPlanner::Choose(in);
  EXPECT_EQ(d.gather.topology, GatherTopology::kFlat);
  EXPECT_EQ(d.gather.coordinator_ports, 1u);
  EXPECT_TRUE(d.balance_scatter);
  EXPECT_NE(d.rationale.find("compute-bound"), std::string::npos);

  // A balanced cluster (max == mean) gets no rebalancing recommendation.
  in.service_estimate_mean_cycles = in.service_estimate_cycles;
  d = TopologyPlanner::Choose(in);
  EXPECT_EQ(d.gather.topology, GatherTopology::kFlat);
  EXPECT_FALSE(d.balance_scatter);
}

TEST(TopologyPlannerTest, TreePickRidesSharedBytesAsMulticastScatter) {
  // Single port, no switch: 8 fat responses serialize at 536 cycles flat,
  // while the tree lands at 434 — and 1000 of every request's 1024 bytes
  // are shared, so one 21-cycle bundle beats 144 cycles of unicast egress.
  PlannerInputs in;
  in.num_shards = 8;
  in.max_ports = 1;
  in.switch_available = false;
  in.request_bytes = 1024;
  in.shared_request_bytes = 1000;
  in.response_bytes = 4096;
  in.shrink_pct = 13;
  in.service_estimate_cycles = 200;
  in.service_estimate_mean_cycles = 200;
  in.root_uplink_occupancy_pct = 100;

  const TopologyDecision d = TopologyPlanner::Choose(in);
  EXPECT_EQ(d.gather.topology, GatherTopology::kTree);
  EXPECT_EQ(d.gather.scatter, ScatterMode::kTree);
  EXPECT_NE(d.rationale.find("multicast"), std::string::npos);

  // Same shape without shared bytes: the tree still wins on the response
  // path, but there is nothing to multicast.
  in.shared_request_bytes = 0;
  const TopologyDecision unicast = TopologyPlanner::Choose(in);
  EXPECT_EQ(unicast.gather.topology, GatherTopology::kTree);
  EXPECT_EQ(unicast.gather.scatter, ScatterMode::kUnicast);
}

// ---------------------------------------------------------------------------
// Probe fixtures shared by the harvest sanity check and the property test

const anns::Dataset& PlannerDataset() {
  static const anns::Dataset* data = [] {
    anns::DatasetSpec spec;
    spec.num_base = 1600;
    spec.num_queries = 8;
    spec.dim = 12;
    spec.num_clusters = 12;
    spec.cluster_stddev = 0.3f;
    spec.seed = 321;
    return new anns::Dataset(anns::MakeDataset(spec));
  }();
  return *data;
}

const anns::IvfPqIndex& PlannerIndex() {
  static const anns::IvfPqIndex* index = [] {
    anns::IvfPqIndex::Options opts;
    opts.nlist = 24;
    opts.pq.m = 4;
    opts.pq.ksub = 16;
    opts.pq.train_iters = 4;
    auto built = anns::IvfPqIndex::Build(PlannerDataset().base,
                                         PlannerDataset().dim, opts);
    FPGADP_CHECK(built.ok());
    return new anns::IvfPqIndex(std::move(built).value());
  }();
  return *index;
}

uint64_t RunToCompletion(ShardCluster& cluster) {
  auto cycles = cluster.Run();
  EXPECT_TRUE(cycles.ok()) << cycles.status().ToString();
  return cycles.ok() ? *cycles : 0;
}

/// Harvests the drained probe cluster and picks — the bench's
/// --gather=auto flow at test size.
TopologyDecision PlanFrom(ShardCluster& cluster, Workload& wl,
                          uint32_t shards, uint64_t cycles) {
  return TopologyPlanner::Choose(
      HarvestPlannerInputs(cluster.coordinator(), wl, shards, cycles));
}

/// Each Measure* runs its family's fixed request mix under `gather` and
/// returns total cycles; when `plan` is non-null the run doubles as the
/// planning probe (callers pass flat single-port for that).
uint64_t MeasureAnns(const GatherConfig& gather, uint32_t shards,
                     bool balance, TopologyDecision* plan = nullptr) {
  AnnsTopKWorkload::Config wc;
  wc.nprobe = 12;
  wc.k = 10;
  wc.balance_scatter = balance;
  AnnsTopKWorkload wl(&PlannerIndex(), Partitioner::Hash(shards), wc);
  ShardCluster::Config cc;
  cc.num_shards = shards;
  cc.gather = gather;
  ShardCluster cluster(&wl, cc);
  for (size_t q = 0; q < 6; ++q) {
    cluster.Submit(wl.AddQuery(PlannerDataset().QueryVector(q)));
  }
  const uint64_t cycles = RunToCompletion(cluster);
  if (plan != nullptr) *plan = PlanFrom(cluster, wl, shards, cycles);
  return cycles;
}

uint64_t MeasureKvs(const GatherConfig& gather, uint32_t shards,
                    TopologyDecision* plan = nullptr) {
  KvsMultiGetWorkload::Config kc;
  kc.key_bytes = 512;        // fat request slices: egress serialization
  kc.nic.value_bytes = 512;  // fat values: the fan-in wall is real too
  KvsMultiGetWorkload wl(Partitioner::Hash(shards), kc);
  for (uint64_t key = 0; key < 400; ++key) wl.Load(key, key * 31 + 5);
  ShardCluster::Config cc;
  cc.num_shards = shards;
  cc.gather = gather;
  ShardCluster cluster(&wl, cc);
  uint64_t next_key = 1;
  for (size_t g = 0; g < 4; ++g) {
    std::vector<uint64_t> keys;
    for (size_t i = 0; i < 64; ++i) {
      keys.push_back(next_key);
      next_key = (next_key * 2862933555777941757ull + 3037000493ull) % 400;
    }
    cluster.Submit(wl.AddMultiGet(std::move(keys)));
  }
  const uint64_t cycles = RunToCompletion(cluster);
  if (plan != nullptr) *plan = PlanFrom(cluster, wl, shards, cycles);
  return cycles;
}

uint64_t MeasureJoin(const GatherConfig& gather, uint32_t shards,
                     TopologyDecision* plan = nullptr) {
  rel::Table build(rel::Schema{{{"k"}, {"payload"}}});
  for (int64_t i = 0; i < 50; ++i) {
    rel::Row r;
    r.Set(0, i);
    r.Set(1, i * 13 + 7);
    build.Append(r);
  }
  rel::SyntheticTableSpec pspec;
  pspec.num_rows = 900;  // match-heavy: responses are row sets, not counts
  pspec.key_cardinality = 70;
  pspec.seed = 11;
  const rel::Table probe = rel::MakeSyntheticTable(pspec);
  rel::JoinSpec spec;
  spec.left_key = 0;
  spec.right_key = 1;
  HashJoinWorkload::Config jc;
  HashJoinWorkload wl(&build, &probe, spec, Partitioner::Hash(shards), jc);
  ShardCluster::Config cc;
  cc.num_shards = shards;
  cc.gather = gather;
  ShardCluster cluster(&wl, cc);
  cluster.Submit(wl.request_id());
  const uint64_t cycles = RunToCompletion(cluster);
  if (plan != nullptr) *plan = PlanFrom(cluster, wl, shards, cycles);
  return cycles;
}

enum class Family { kAnns, kKvs, kJoin };

const char* FamilyName(Family f) {
  switch (f) {
    case Family::kAnns: return "anns";
    case Family::kKvs: return "kvs";
    case Family::kJoin: return "join";
  }
  return "?";
}

uint64_t MeasureFamily(Family family, const GatherConfig& gather,
                       uint32_t shards, bool balance,
                       TopologyDecision* plan = nullptr) {
  switch (family) {
    case Family::kAnns: return MeasureAnns(gather, shards, balance, plan);
    case Family::kKvs: return MeasureKvs(gather, shards, plan);
    case Family::kJoin: return MeasureJoin(gather, shards, plan);
  }
  return 0;
}

TEST(TopologyPlannerTest, HarvestFillsInputsFromProbeObservations) {
  AnnsTopKWorkload::Config wc;
  wc.nprobe = 12;
  wc.k = 10;
  AnnsTopKWorkload wl(&PlannerIndex(), Partitioner::Hash(4), wc);
  ShardCluster::Config cc;
  cc.num_shards = 4;
  ShardCluster cluster(&wl, cc);
  for (size_t q = 0; q < 4; ++q) {
    cluster.Submit(wl.AddQuery(PlannerDataset().QueryVector(q)));
  }
  const uint64_t cycles = RunToCompletion(cluster);
  ASSERT_GT(cycles, 0u);

  const PlannerInputs in =
      HarvestPlannerInputs(cluster.coordinator(), wl, 4, cycles);
  EXPECT_EQ(in.num_shards, 4u);
  EXPECT_GT(in.request_bytes, 0u);
  EXPECT_GT(in.response_bytes, 0u);
  // The shared portion of an ANNS slice is the query vector itself.
  EXPECT_EQ(in.shared_request_bytes,
            PlannerDataset().dim * sizeof(float));
  // Top-k merging shrinks: merged over concatenated must be below parity.
  EXPECT_GT(in.shrink_pct, 0u);
  EXPECT_LT(in.shrink_pct, 100u);
  EXPECT_GT(in.service_estimate_cycles, 0u);
  EXPECT_GE(in.service_estimate_cycles, in.service_estimate_mean_cycles);
  EXPECT_LE(in.root_uplink_occupancy_pct, 100u);
}

// ---------------------------------------------------------------------------
// Property: picker vs. measured-fastest, per family, at 2 / 4 / 8 shards

TEST(TopologyPlannerPropertyTest, PickerWithinFivePercentOfMeasuredFastest) {
  struct Candidate {
    const char* name;
    GatherConfig gather;
  };
  for (const Family family : {Family::kAnns, Family::kKvs, Family::kJoin}) {
    for (const uint32_t shards : {2u, 4u, 8u}) {
      const uint32_t ports = std::min(4u, shards);
      std::vector<Candidate> statics;
      statics.push_back({"flat", GatherConfig{}});
      GatherConfig flat_n;
      flat_n.coordinator_ports = ports;
      statics.push_back({"flatN", flat_n});
      GatherConfig tree;
      tree.topology = GatherTopology::kTree;
      tree.coordinator_ports = ports;
      tree.fanout = 2;
      statics.push_back({"tree", tree});
      GatherConfig sw;
      sw.topology = GatherTopology::kSwitch;
      sw.coordinator_ports = ports;
      statics.push_back({"switch", sw});
      GatherConfig scatter = tree;
      scatter.scatter = ScatterMode::kTree;
      statics.push_back({"scatter", scatter});

      uint64_t best = ~0ull;
      const char* best_name = "?";
      TopologyDecision d;
      for (const Candidate& c : statics) {
        // The flat single-port run doubles as the planning probe.
        const bool is_probe = std::string(c.name) == "flat";
        const uint64_t cycles =
            MeasureFamily(family, c.gather, shards, /*balance=*/false,
                          is_probe ? &d : nullptr);
        ASSERT_GT(cycles, 0u) << FamilyName(family) << " " << c.name;
        if (cycles < best) {
          best = cycles;
          best_name = c.name;
        }
      }

      const bool balance = family == Family::kAnns && d.balance_scatter;
      const uint64_t picked = MeasureFamily(family, d.gather, shards, balance);
      const std::string label = std::string(FamilyName(family)) + " x" +
                                std::to_string(shards) + ": picked [" +
                                d.rationale + "] " + std::to_string(picked) +
                                "cy vs best static " + best_name + " " +
                                std::to_string(best) + "cy";
      ASSERT_GT(picked, 0u) << label;
      EXPECT_LE(picked, best + best / 20) << label;
    }
  }
}

}  // namespace
}  // namespace fpgadp::shard
