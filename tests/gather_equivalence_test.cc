// Differential gather-equivalence suite: tree-structured and in-network
// (switch) aggregation must be *indistinguishable* from flat gather in every
// functional respect — result payloads bit-identical, PartialOutcome slices
// identical — across 100 seeded deployments of all three workloads, and
// per topology Run() reproduces the Step() loop's cycles. The gather
// topology is a pure wire/timing optimization; any observable difference is
// a bug this suite is designed to catch.
//
// Also home to the gather-specific fault-injection tests: a dead interior
// merge shard degrades exactly its subtree, and a dead aggregating-switch
// port degrades exactly its port's shards — neither hangs the cluster.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/anns/dataset.h"
#include "src/anns/ivf.h"
#include "src/common/check.h"
#include "src/net/agg_switch.h"
#include "src/net/fabric.h"
#include "src/relational/cpu_executor.h"
#include "src/relational/table.h"
#include "src/shard/gather.h"
#include "src/shard/partitioner.h"
#include "src/shard/shard.h"
#include "src/shard/workloads.h"

namespace fpgadp::shard {
namespace {

// ---------------------------------------------------------------------------
// Shared fixtures

/// Minimal workload with controllable costs (mirrors shard_test's
/// TestWorkload): every shard gets one 64-byte slice, serving takes a fixed
/// cycle count, and Merge records the PartialOutcome for inspection.
class TestWorkloadForGather : public Workload {
 public:
  TestWorkloadForGather(uint32_t num_shards, uint64_t serve_cycles)
      : num_shards_(num_shards), serve_cycles_(serve_cycles) {}

  std::vector<SubRequest> Scatter(uint64_t) override {
    std::vector<SubRequest> subs;
    for (uint32_t s = 0; s < num_shards_; ++s) subs.push_back({s, 64});
    return subs;
  }
  Service Serve(uint32_t, uint64_t) override { return {serve_cycles_, 64}; }
  void Merge(uint64_t request_id, const PartialOutcome& outcome) override {
    merged_[request_id] = outcome;
  }

  const std::map<uint64_t, PartialOutcome>& merged() const { return merged_; }

 private:
  uint32_t num_shards_;
  uint64_t serve_cycles_;
  std::map<uint64_t, PartialOutcome> merged_;
};

/// Drains `cluster` with Run(), or with the Step() loop Run() must
/// reproduce (the dedicated invariance tests below compare the two).
Result<sim::Cycle> Drain(ShardCluster& cluster, bool stepped) {
  return stepped ? sim::StepUntilQuiesced(cluster.engine(), 1ull << 32)
                 : cluster.Run();
}

struct GatherVariant {
  const char* name;
  GatherConfig gather;
};

// Variant 0 is the reference (the historical flat single-port layout);
// every other variant must reproduce its results exactly.
std::vector<GatherVariant> GatherVariants() {
  std::vector<GatherVariant> v;
  v.push_back({"flat-1port", GatherConfig{}});
  GatherConfig flat4;
  flat4.coordinator_ports = 4;
  v.push_back({"flat-4port", flat4});
  GatherConfig tree2;
  tree2.topology = GatherTopology::kTree;
  tree2.coordinator_ports = 2;
  tree2.fanout = 2;
  v.push_back({"tree-2port-f2", tree2});
  GatherConfig tree3;
  tree3.topology = GatherTopology::kTree;
  tree3.fanout = 3;
  tree3.merge_cycles_per_input = 9;  // off-default: timing must not leak
  v.push_back({"tree-1port-f3", tree3});
  GatherConfig sw2;
  sw2.topology = GatherTopology::kSwitch;
  sw2.coordinator_ports = 2;
  v.push_back({"switch-2port", sw2});
  GatherConfig sw4;
  sw4.topology = GatherTopology::kSwitch;
  sw4.coordinator_ports = 4;
  sw4.switch_combine_cycles = 16;
  v.push_back({"switch-4port", sw4});
  // Scatter-side multicast: request slices ride the per-port tree as
  // subtree bundles. Orthogonal to the response topology, so it is
  // exercised against flat, switch, and tree gather (the last is the full
  // tree-both-ways configuration).
  GatherConfig scatter_flat = flat4;
  scatter_flat.fanout = 2;
  scatter_flat.scatter = ScatterMode::kTree;
  v.push_back({"scatter-flat-4port", scatter_flat});
  GatherConfig scatter_sw = sw2;
  scatter_sw.fanout = 3;
  scatter_sw.scatter = ScatterMode::kTree;
  scatter_sw.scatter_forward_cycles = 7;  // off-default: timing must not leak
  v.push_back({"scatter-switch-2port", scatter_sw});
  GatherConfig scatter_tree = tree2;
  scatter_tree.scatter = ScatterMode::kTree;
  v.push_back({"scatter-tree-2port-f2", scatter_tree});
  return v;
}

uint64_t Lcg(uint64_t& state) {
  state = state * 6364136223846793005ull + 1442695040888963407ull;
  return state >> 33;
}

/// (shard, outcome) per slice, per request — the full degradation surface of
/// a run, comparable across topologies.
using OutcomeSig = std::vector<std::vector<std::pair<uint32_t, int>>>;

OutcomeSig SignatureOf(const std::vector<PartialOutcome>& outcomes) {
  OutcomeSig sig;
  sig.reserve(outcomes.size());
  for (const PartialOutcome& out : outcomes) {
    std::vector<std::pair<uint32_t, int>> slices;
    slices.reserve(out.slices.size());
    for (const PartialOutcome::Slice& s : out.slices) {
      slices.push_back({s.shard, int(s.outcome)});
    }
    sig.push_back(std::move(slices));
  }
  return sig;
}

/// Drains the cluster's outcomes in request-id order (PollOutcome order is
/// completion order, which legitimately differs across topologies).
std::vector<PartialOutcome> DrainOutcomes(ShardCluster& cluster,
                                          const std::vector<uint64_t>& ids) {
  std::map<uint64_t, PartialOutcome> by_id;
  PartialOutcome out;
  while (cluster.PollOutcome(&out)) by_id[out.request_id] = out;
  std::vector<PartialOutcome> ordered;
  for (uint64_t id : ids) {
    auto it = by_id.find(id);
    EXPECT_TRUE(it != by_id.end()) << "request " << id << " never finalized";
    if (it != by_id.end()) ordered.push_back(std::move(it->second));
  }
  return ordered;
}

const anns::Dataset& EquivDataset() {
  static const anns::Dataset* data = [] {
    anns::DatasetSpec spec;
    spec.num_base = 1600;
    spec.num_queries = 8;
    spec.dim = 12;
    spec.num_clusters = 12;
    spec.cluster_stddev = 0.3f;
    spec.seed = 123;
    return new anns::Dataset(anns::MakeDataset(spec));
  }();
  return *data;
}

const anns::IvfPqIndex& EquivIndex() {
  static const anns::IvfPqIndex* index = [] {
    anns::IvfPqIndex::Options opts;
    opts.nlist = 24;
    opts.pq.m = 4;
    opts.pq.ksub = 16;
    opts.pq.train_iters = 4;
    auto built =
        anns::IvfPqIndex::Build(EquivDataset().base, EquivDataset().dim, opts);
    FPGADP_CHECK(built.ok());
    return new anns::IvfPqIndex(std::move(built).value());
  }();
  return *index;
}

// ---------------------------------------------------------------------------
// ANNS top-k differential

struct AnnsRun {
  sim::Cycle cycles = 0;
  bool all_ok = true;
  OutcomeSig outcomes;
  std::vector<std::vector<anns::Neighbor>> results;  // per query
};

AnnsRun RunAnnsGather(const GatherConfig& gather, uint32_t num_shards,
                      size_t nprobe, size_t k,
                      const std::vector<size_t>& query_idx,
                      bool stepped = false) {
  const anns::Dataset& data = EquivDataset();
  AnnsTopKWorkload::Config wc;
  wc.nprobe = nprobe;
  wc.k = k;
  AnnsTopKWorkload wl(&EquivIndex(), Partitioner::Hash(num_shards), wc);
  ShardCluster::Config cc;
  cc.num_shards = num_shards;
  cc.gather = gather;
  ShardCluster cluster(&wl, cc);
  std::vector<uint64_t> ids;
  for (size_t q : query_idx) {
    ids.push_back(wl.AddQuery(data.QueryVector(q)));
    cluster.Submit(ids.back());
  }
  auto cycles = Drain(cluster, stepped);
  AnnsRun r;
  EXPECT_TRUE(cycles.ok()) << cycles.status().ToString();
  if (!cycles.ok()) return r;
  r.cycles = *cycles;
  const std::vector<PartialOutcome> outs = DrainOutcomes(cluster, ids);
  for (const PartialOutcome& out : outs) r.all_ok &= out.status.ok();
  r.outcomes = SignatureOf(outs);
  for (uint64_t id : ids) r.results.push_back(wl.result(id));
  return r;
}

void ExpectSameAnns(const AnnsRun& ref, const AnnsRun& run,
                    const std::string& label) {
  EXPECT_TRUE(run.all_ok) << label;
  EXPECT_EQ(run.outcomes, ref.outcomes) << label;
  ASSERT_EQ(run.results.size(), ref.results.size()) << label;
  for (size_t q = 0; q < ref.results.size(); ++q) {
    ASSERT_EQ(run.results[q].size(), ref.results[q].size())
        << label << " query " << q;
    for (size_t i = 0; i < ref.results[q].size(); ++i) {
      EXPECT_EQ(run.results[q][i].id, ref.results[q][i].id)
          << label << " query " << q << " rank " << i;
      EXPECT_EQ(run.results[q][i].distance, ref.results[q][i].distance)
          << label << " query " << q << " rank " << i;
    }
  }
}

TEST(GatherEquivalenceTest, AnnsTopKIdenticalAcrossTopologies100Seeds) {
  const std::vector<GatherVariant> variants = GatherVariants();
  const size_t nq = EquivDataset().num_queries();
  for (uint32_t seed = 0; seed < 100; ++seed) {
    const uint32_t shards = 1 + seed % 8;
    const size_t nprobe = 4 + seed % 9;
    const size_t k = 4 + seed % 8;
    const std::vector<size_t> queries = {seed % nq, (seed * 7 + 3) % nq};
    AnnsRun ref;
    for (size_t v = 0; v < variants.size(); ++v) {
      AnnsRun run =
          RunAnnsGather(variants[v].gather, shards, nprobe, k, queries);
      if (v == 0) {
        EXPECT_TRUE(run.all_ok) << "seed " << seed << " reference";
        ref = std::move(run);
        continue;
      }
      ExpectSameAnns(ref, run,
                     "seed " + std::to_string(seed) + " " + variants[v].name);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// KVS multi-get differential

struct KvsRun {
  sim::Cycle cycles = 0;
  bool all_ok = true;
  OutcomeSig outcomes;
  /// (key, served, hit, value) per key per request.
  std::vector<std::vector<std::tuple<uint64_t, bool, bool, uint64_t>>> results;
};

KvsRun RunKvsGather(const GatherConfig& gather, uint32_t num_shards,
                    uint32_t seed, size_t num_requests, size_t keys_per_req,
                    bool stepped = false) {
  KvsMultiGetWorkload::Config kc;
  KvsMultiGetWorkload wl(Partitioner::Hash(num_shards), kc);
  uint64_t st = seed * 2654435761ull + 17;
  for (int i = 0; i < 300; ++i) {
    const uint64_t key = Lcg(st) % 5000;
    wl.Load(key, key * 31 + seed);
  }
  ShardCluster::Config cc;
  cc.num_shards = num_shards;
  cc.gather = gather;
  ShardCluster cluster(&wl, cc);
  std::vector<uint64_t> ids;
  for (size_t r = 0; r < num_requests; ++r) {
    std::vector<uint64_t> keys;
    for (size_t i = 0; i < keys_per_req; ++i) keys.push_back(Lcg(st) % 5000);
    ids.push_back(wl.AddMultiGet(std::move(keys)));
    cluster.Submit(ids.back());
  }
  auto cycles = Drain(cluster, stepped);
  KvsRun r;
  EXPECT_TRUE(cycles.ok()) << cycles.status().ToString();
  if (!cycles.ok()) return r;
  r.cycles = *cycles;
  const std::vector<PartialOutcome> outs = DrainOutcomes(cluster, ids);
  for (const PartialOutcome& out : outs) r.all_ok &= out.status.ok();
  r.outcomes = SignatureOf(outs);
  for (uint64_t id : ids) {
    std::vector<std::tuple<uint64_t, bool, bool, uint64_t>> per_key;
    for (const KvsMultiGetWorkload::GetResult& g : wl.result(id)) {
      per_key.push_back({g.key, g.served, g.hit, g.value});
    }
    r.results.push_back(std::move(per_key));
  }
  return r;
}

TEST(GatherEquivalenceTest, KvsMultiGetIdenticalAcrossTopologies100Seeds) {
  const std::vector<GatherVariant> variants = GatherVariants();
  for (uint32_t seed = 0; seed < 100; ++seed) {
    const uint32_t shards = 1 + seed % 8;
    KvsRun ref;
    for (size_t v = 0; v < variants.size(); ++v) {
      KvsRun run = RunKvsGather(variants[v].gather, shards, seed,
                                /*num_requests=*/2, /*keys_per_req=*/30);
      if (v == 0) {
        EXPECT_TRUE(run.all_ok) << "seed " << seed << " reference";
        ref = std::move(run);
        continue;
      }
      const std::string label =
          "seed " + std::to_string(seed) + " " + variants[v].name;
      EXPECT_TRUE(run.all_ok) << label;
      EXPECT_EQ(run.outcomes, ref.outcomes) << label;
      EXPECT_EQ(run.results, ref.results) << label;
    }
  }
}

// ---------------------------------------------------------------------------
// Partitioned hash join differential

rel::Table MakeKeyedTable(uint64_t rows, uint64_t key_mod, uint64_t seed) {
  rel::SyntheticTableSpec spec;
  spec.num_rows = rows;
  spec.key_cardinality = key_mod;
  spec.seed = seed;
  return rel::MakeSyntheticTable(spec);
}

std::multiset<std::vector<int64_t>> RowMultiset(const rel::Table& t) {
  std::multiset<std::vector<int64_t>> rows;
  const size_t cols = t.schema().num_columns();
  for (const rel::Row& r : t.rows()) {
    std::vector<int64_t> v(cols);
    for (size_t c = 0; c < cols; ++c) v[c] = r.Get(c);
    rows.insert(std::move(v));
  }
  return rows;
}

struct JoinRun {
  sim::Cycle cycles = 0;
  bool ok = true;
  OutcomeSig outcomes;
  std::multiset<std::vector<int64_t>> rows;
};

JoinRun RunJoinGather(const GatherConfig& gather, uint32_t num_shards,
                      uint32_t seed) {
  rel::Table build(rel::Schema{{{"k"}, {"payload"}}});
  const int64_t nbuild = 40 + seed % 30;
  for (int64_t i = 0; i < nbuild; ++i) {
    rel::Row r;
    r.Set(0, i);
    r.Set(1, i * 13 + seed);
    build.Append(r);
  }
  const rel::Table probe =
      MakeKeyedTable(150, uint64_t(nbuild) + 20, seed + 1);
  rel::JoinSpec spec;
  spec.left_key = 0;
  spec.right_key = 1;  // synthetic table: key column
  HashJoinWorkload::Config jc;
  HashJoinWorkload wl(&build, &probe, spec, Partitioner::Hash(num_shards), jc);
  ShardCluster::Config cc;
  cc.num_shards = num_shards;
  cc.gather = gather;
  ShardCluster cluster(&wl, cc);
  cluster.Submit(wl.request_id());
  auto cycles = cluster.Run();
  JoinRun r;
  EXPECT_TRUE(cycles.ok()) << cycles.status().ToString();
  if (!cycles.ok()) return r;
  r.cycles = *cycles;
  const std::vector<PartialOutcome> outs =
      DrainOutcomes(cluster, {wl.request_id()});
  for (const PartialOutcome& out : outs) r.ok &= out.status.ok();
  r.outcomes = SignatureOf(outs);
  r.rows = RowMultiset(wl.result());
  return r;
}

TEST(GatherEquivalenceTest, HashJoinIdenticalAcrossTopologies100Seeds) {
  const std::vector<GatherVariant> variants = GatherVariants();
  for (uint32_t seed = 0; seed < 100; ++seed) {
    const uint32_t shards = 1 + seed % 4;
    JoinRun ref;
    for (size_t v = 0; v < variants.size(); ++v) {
      JoinRun run = RunJoinGather(variants[v].gather, shards, seed);
      if (v == 0) {
        EXPECT_TRUE(run.ok) << "seed " << seed << " reference";
        EXPECT_FALSE(run.rows.empty()) << "seed " << seed;
        ref = std::move(run);
        continue;
      }
      const std::string label =
          "seed " + std::to_string(seed) + " " + variants[v].name;
      EXPECT_TRUE(run.ok) << label;
      EXPECT_EQ(run.outcomes, ref.outcomes) << label;
      EXPECT_EQ(run.rows, ref.rows) << label;
    }
  }
}

// ---------------------------------------------------------------------------
// Scheduler invariance: per topology, Run() must reproduce the Step() loop's
// cycles AND results bit-for-bit.

TEST(GatherEquivalenceTest, RunMatchesStepPerTopology) {
  for (const GatherVariant& variant : GatherVariants()) {
    for (uint32_t seed : {0u, 7u}) {
      const KvsRun ref =
          RunKvsGather(variant.gather, /*num_shards=*/8, seed,
                       /*num_requests=*/3, /*keys_per_req=*/24,
                       /*stepped=*/true);
      EXPECT_GT(ref.cycles, 0u) << variant.name;
      const KvsRun run =
          RunKvsGather(variant.gather, /*num_shards=*/8, seed,
                       /*num_requests=*/3, /*keys_per_req=*/24);
      const std::string label =
          std::string(variant.name) + " seed " + std::to_string(seed);
      EXPECT_EQ(run.cycles, ref.cycles) << label;
      EXPECT_EQ(run.outcomes, ref.outcomes) << label;
      EXPECT_EQ(run.results, ref.results) << label;
    }
  }
}

TEST(GatherEquivalenceTest, AnnsRunMatchesStep) {
  for (const GatherVariant& variant : GatherVariants()) {
    if (variant.gather.topology == GatherTopology::kFlat) continue;
    const AnnsRun ref = RunAnnsGather(variant.gather, /*num_shards=*/6,
                                      /*nprobe=*/8, /*k=*/10, {0, 3, 5},
                                      /*stepped=*/true);
    EXPECT_GT(ref.cycles, 0u) << variant.name;
    const AnnsRun run =
        RunAnnsGather(variant.gather, 6, 8, 10, {0, 3, 5});
    EXPECT_EQ(run.cycles, ref.cycles) << variant.name;
    ExpectSameAnns(ref, run, variant.name);
  }
}

// ---------------------------------------------------------------------------
// The aggregation paths must actually engage (guards against a silent
// fall-back to flat, which would pass every differential above).

TEST(GatherEquivalenceTest, TreeForwardsMergesAndSwitchCombines) {
  {
    GatherConfig tree;
    tree.topology = GatherTopology::kTree;
    tree.fanout = 2;
    KvsMultiGetWorkload::Config kc;
    KvsMultiGetWorkload wl(Partitioner::Hash(8), kc);
    for (uint64_t key = 0; key < 200; ++key) wl.Load(key, key + 1);
    ShardCluster::Config cc;
    cc.num_shards = 8;
    cc.gather = tree;
    ShardCluster cluster(&wl, cc);
    std::vector<uint64_t> keys;
    for (uint64_t key = 0; key < 64; ++key) keys.push_back(key);
    cluster.Submit(wl.AddMultiGet(keys));
    EXPECT_EQ(cluster.gather_plan().armed_requests(), 1u);
    ASSERT_TRUE(cluster.Run().ok());
    // Every participating shard emitted exactly one merged packet upstream.
    uint64_t forwarded = 0;
    for (uint32_t s = 0; s < 8; ++s) {
      forwarded += cluster.server(s).merges_forwarded();
    }
    EXPECT_EQ(forwarded, 8u);
    EXPECT_EQ(cluster.gather_plan().armed_requests(), 0u);  // released
  }
  {
    GatherConfig sw;
    sw.topology = GatherTopology::kSwitch;
    sw.coordinator_ports = 2;
    AnnsTopKWorkload::Config wc;
    wc.nprobe = 12;
    wc.k = 10;
    AnnsTopKWorkload wl(&EquivIndex(), Partitioner::Hash(8), wc);
    ShardCluster::Config cc;
    cc.num_shards = 8;
    cc.gather = sw;
    ShardCluster cluster(&wl, cc);
    cluster.Submit(wl.AddQuery(EquivDataset().QueryVector(0)));
    // Switch gather is a one-node tree per shard: no per-request route.
    EXPECT_EQ(cluster.gather_plan().armed_requests(), 0u);
    ASSERT_TRUE(cluster.Run().ok());
    for (uint32_t s = 0; s < 8; ++s) {
      EXPECT_EQ(cluster.server(s).merges_forwarded(), 0u);  // tree-only
    }
    net::AggregatingSwitch* agg = cluster.agg_switch();
    ASSERT_NE(agg, nullptr);
    EXPECT_GT(agg->combines(), 0u);
    EXPECT_GT(agg->releases(), 0u);
    EXPECT_LE(agg->releases(), 2u);  // at most one merged packet per port
    // Top-k is a shrinking merge: combining must have elided payload bytes.
    EXPECT_GT(agg->bytes_elided(), 0u);
    EXPECT_EQ(agg->held_responses(), 0u);
  }
}

TEST(GatherEquivalenceTest, ScatterTreeForwardsBundles) {
  // One port, 8 shards, fanout 2: the coordinator ships one bundle to root
  // shard 0; interiors 0 -> {1, 2}, 1 -> {3, 4}, 2 -> {5, 6}, 3 -> {7} peel
  // and forward — every non-root member arrives via exactly one bundle.
  {
    GatherConfig g;
    g.topology = GatherTopology::kTree;
    g.fanout = 2;
    g.scatter = ScatterMode::kTree;
    TestWorkloadForGather wl(8, 100);
    ShardCluster::Config cc;
    cc.num_shards = 8;
    cc.gather = g;
    ShardCluster cluster(&wl, cc);
    cluster.Submit(1);
    ASSERT_TRUE(cluster.Run().ok());
    uint64_t forwarded = 0, stale = 0;
    for (uint32_t s = 0; s < 8; ++s) {
      forwarded += cluster.server(s).bundles_forwarded();
      stale += cluster.server(s).stale_bundles_dropped();
    }
    EXPECT_EQ(forwarded, 7u);
    EXPECT_EQ(stale, 0u);
    EXPECT_EQ(cluster.gather_plan().armed_requests(), 0u);  // released
    ASSERT_EQ(wl.merged().count(1), 1u);
  }
  // Scatter trees are orthogonal to the response path: with flat gather on
  // 4 ports the groups are pairs, so each group root forwards one bundle.
  {
    GatherConfig g;
    g.coordinator_ports = 4;
    g.fanout = 2;
    g.scatter = ScatterMode::kTree;
    TestWorkloadForGather wl(8, 100);
    ShardCluster::Config cc;
    cc.num_shards = 8;
    cc.gather = g;
    ShardCluster cluster(&wl, cc);
    cluster.Submit(1);
    ASSERT_TRUE(cluster.Run().ok());
    uint64_t forwarded = 0;
    for (uint32_t s = 0; s < 8; ++s) {
      forwarded += cluster.server(s).bundles_forwarded();
    }
    EXPECT_EQ(forwarded, 4u);
  }
}

// ---------------------------------------------------------------------------
// Fault injection: a dead interior merge shard degrades exactly its subtree.

TEST(GatherFaultTest, DeadInteriorTreeShardDegradesSubtreeOnly) {
  // 8 shards, one port, fanout 2: the gather tree over shards 0..7 is the
  // array heap 0 -> {1, 2}, 1 -> {3, 4}, 2 -> {5, 6}, 3 -> {7}. Killing
  // shard 1's ingress link makes its slice kFailed (request retry cap) and
  // strands the contributions of its whole subtree {3, 4, 7} (kTimedOut),
  // while the root forwards {0, 2, 5, 6} after its merge timeout.
  TestWorkloadForGather wl(8, 100);
  ShardCluster::Config cc;
  cc.num_shards = 8;
  cc.gather.topology = GatherTopology::kTree;
  cc.gather.fanout = 2;
  cc.gather.merge_timeout_cycles = 3000;
  cc.coordinator.gather_deadline_cycles = 20000;
  cc.reliability.rto_cycles = 500;
  cc.reliability.max_retries = 2;
  ShardCluster cluster(&wl, cc);

  // Shard 1 sits at fabric node ports + 1 = 2; everything sent to it —
  // the coordinator's request AND its children's merged contributions —
  // is lost for longer than any retry budget.
  net::FaultInjector::Config fc;
  fc.flap_down_cycles = 1u << 30;
  net::FaultInjector injector(fc);
  injector.Schedule({0, net::FaultInjector::kAnyNode, /*dst=*/2,
                     net::FaultKind::kLinkFlap});
  cluster.set_fault_injector(&injector);

  cluster.Submit(1);
  ASSERT_TRUE(cluster.Run().ok());

  PartialOutcome out;
  ASSERT_TRUE(cluster.PollOutcome(&out));
  EXPECT_TRUE(out.degraded());
  // A dead shard outranks the timeouts in the status ranking.
  EXPECT_EQ(out.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(out.shards_done, 4u);
  const std::set<uint32_t> failed = {1};
  const std::set<uint32_t> timed_out = {3, 4, 7};  // shard 1's subtree
  for (const auto& slice : out.slices) {
    SubOutcome expected = SubOutcome::kDone;
    if (failed.count(slice.shard)) expected = SubOutcome::kFailed;
    if (timed_out.count(slice.shard)) expected = SubOutcome::kTimedOut;
    EXPECT_EQ(slice.outcome, expected) << "shard " << slice.shard;
  }
  // The root forwarded a partial merge instead of wedging on child 1.
  EXPECT_GE(cluster.server(0).merge_timeouts(), 1u);
  EXPECT_EQ(cluster.gather_plan().armed_requests(), 0u);
  ASSERT_EQ(wl.merged().count(1), 1u);  // Merge still ran on the partials
}

TEST(GatherFaultTest, DeadInteriorScatterShardStrandsSubtreeOnly) {
  // Same heap tree as above, but now the REQUEST path rides it too. Killing
  // shard 1's ingress loses the bundle carrying subtree {1, 3, 4, 7}: none
  // of those shards ever receives its slice, and because descendants are
  // not individually windowed there is no per-slice retry — only the gather
  // deadline resolves them, all as kTimedOut (shard 1 included: no
  // point-to-point request ever exhausted retries against it).
  TestWorkloadForGather wl(8, 100);
  ShardCluster::Config cc;
  cc.num_shards = 8;
  cc.gather.topology = GatherTopology::kTree;
  cc.gather.fanout = 2;
  cc.gather.scatter = ScatterMode::kTree;
  cc.gather.merge_timeout_cycles = 3000;
  cc.coordinator.gather_deadline_cycles = 20000;
  ShardCluster cluster(&wl, cc);

  net::FaultInjector::Config fc;
  fc.flap_down_cycles = 1u << 30;
  net::FaultInjector injector(fc);
  injector.Schedule({0, net::FaultInjector::kAnyNode, /*dst=*/2,
                     net::FaultKind::kLinkFlap});
  cluster.set_fault_injector(&injector);

  cluster.Submit(1);
  ASSERT_TRUE(cluster.Run().ok());

  PartialOutcome out;
  ASSERT_TRUE(cluster.PollOutcome(&out));
  EXPECT_TRUE(out.degraded());
  EXPECT_EQ(out.status.code(), StatusCode::kTimeout);
  EXPECT_EQ(out.shards_done, 4u);
  const std::set<uint32_t> stranded = {1, 3, 4, 7};  // shard 1's subtree
  for (const auto& slice : out.slices) {
    EXPECT_EQ(slice.outcome, stranded.count(slice.shard)
                                 ? SubOutcome::kTimedOut
                                 : SubOutcome::kDone)
        << "shard " << slice.shard;
  }
  // The root forwarded shards 0/2/5/6 after its merge timeout, and only the
  // live half of the tree ever forwarded bundles (0 -> {1, 2}, 2 -> {5, 6}).
  EXPECT_GE(cluster.server(0).merge_timeouts(), 1u);
  uint64_t forwarded = 0;
  for (uint32_t s = 0; s < 8; ++s) {
    forwarded += cluster.server(s).bundles_forwarded();
  }
  EXPECT_EQ(forwarded, 4u);
  EXPECT_EQ(cluster.gather_plan().armed_requests(), 0u);
  ASSERT_EQ(wl.merged().count(1), 1u);  // Merge still ran on the partials
}

TEST(GatherFaultTest, DeadSwitchPortDegradesItsShardsOnly) {
  // 8 shards on 2 coordinator ports: even shards gather through port 0,
  // odd shards through port 1. Request 1 proves both combiners work; then
  // port 1's combiner dies, and request 2's odd responses are consumed and
  // dropped in-switch — the gather deadline, not a hang, resolves them.
  TestWorkloadForGather wl(8, 100);
  ShardCluster::Config cc;
  cc.num_shards = 8;
  cc.gather.topology = GatherTopology::kSwitch;
  cc.gather.coordinator_ports = 2;
  cc.coordinator.gather_deadline_cycles = 20000;
  ShardCluster cluster(&wl, cc);

  cluster.Submit(1);
  ASSERT_TRUE(cluster.Run().ok());
  PartialOutcome out;
  ASSERT_TRUE(cluster.PollOutcome(&out));
  EXPECT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_EQ(cluster.agg_switch()->releases(), 2u);  // one per port

  cluster.agg_switch()->KillPort(/*port=*/1);
  cluster.Submit(2);
  ASSERT_TRUE(cluster.Run().ok());
  ASSERT_TRUE(cluster.PollOutcome(&out));
  EXPECT_TRUE(out.degraded());
  EXPECT_EQ(out.status.code(), StatusCode::kTimeout);
  EXPECT_EQ(out.shards_done, 4u);
  for (const auto& slice : out.slices) {
    EXPECT_EQ(slice.outcome, slice.shard % 2 == 1 ? SubOutcome::kTimedOut
                                                  : SubOutcome::kDone)
        << "shard " << slice.shard;
  }
  // All four odd responses reached the dead combiner and were dropped;
  // none are held (the engine was able to quiesce).
  EXPECT_EQ(cluster.agg_switch()->dropped_dead_port(), 4u);
  EXPECT_EQ(cluster.agg_switch()->held_responses(), 0u);
  ASSERT_EQ(wl.merged().count(2), 1u);
}

}  // namespace
}  // namespace fpgadp::shard
