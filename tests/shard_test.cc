#include "src/shard/shard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "src/anns/dataset.h"
#include "src/anns/ivf.h"
#include "src/net/fabric.h"
#include "src/obs/metrics.h"
#include "src/relational/cpu_executor.h"
#include "src/relational/table.h"
#include "src/shard/partitioner.h"
#include "src/shard/workloads.h"

namespace fpgadp::shard {
namespace {

// ---------------------------------------------------------------------------
// Partitioner

TEST(PartitionerTest, HashCoversAllShardsDeterministically) {
  Partitioner p = Partitioner::Hash(4);
  std::set<uint32_t> seen;
  for (uint64_t key = 0; key < 1000; ++key) {
    const uint32_t s = p.ShardOf(key);
    ASSERT_LT(s, 4u);
    EXPECT_EQ(s, p.ShardOf(key));  // stable
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(PartitionerTest, RangeRespectsBounds) {
  // Shard 0 owns [0, 10], shard 1 owns (10, 100], shard 2 the rest.
  Partitioner p = Partitioner::Range({10, 100, 1000});
  EXPECT_EQ(p.num_shards(), 3u);
  EXPECT_EQ(p.ShardOf(0), 0u);
  EXPECT_EQ(p.ShardOf(10), 0u);
  EXPECT_EQ(p.ShardOf(11), 1u);
  EXPECT_EQ(p.ShardOf(100), 1u);
  EXPECT_EQ(p.ShardOf(101), 2u);
  EXPECT_EQ(p.ShardOf(99999), 2u);  // overflow goes to the last shard
}

// ---------------------------------------------------------------------------
// A minimal workload with controllable costs, for failure-mode tests.

class TestWorkload : public Workload {
 public:
  TestWorkload(uint32_t num_shards, uint64_t serve_cycles)
      : num_shards_(num_shards), serve_cycles_(serve_cycles) {}

  std::vector<SubRequest> Scatter(uint64_t) override {
    std::vector<SubRequest> subs;
    for (uint32_t s = 0; s < num_shards_; ++s) subs.push_back({s, 64});
    return subs;
  }
  Service Serve(uint32_t, uint64_t) override {
    return {serve_cycles_, 64};
  }
  void Merge(uint64_t request_id, const PartialOutcome& outcome) override {
    merged_[request_id] = outcome;
  }

  const std::map<uint64_t, PartialOutcome>& merged() const { return merged_; }

 private:
  uint32_t num_shards_;
  uint64_t serve_cycles_;
  std::map<uint64_t, PartialOutcome> merged_;
};

// ---------------------------------------------------------------------------
// Loss-free happy path + merge correctness against single-node baselines.

anns::Dataset ShardDataset() {
  anns::DatasetSpec spec;
  spec.num_base = 4000;
  spec.num_queries = 16;
  spec.dim = 16;
  spec.num_clusters = 16;
  spec.cluster_stddev = 0.3f;
  spec.seed = 77;
  return anns::MakeDataset(spec);
}

anns::IvfPqIndex BuildShardIndex(const anns::Dataset& data) {
  anns::IvfPqIndex::Options opts;
  opts.nlist = 32;
  opts.pq.m = 4;
  opts.pq.ksub = 32;
  opts.pq.train_iters = 6;
  auto index = anns::IvfPqIndex::Build(data.base, data.dim, opts);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  return std::move(index).value();
}

TEST(ShardAnnsTest, ShardedTopKMatchesSingleNodeSearch) {
  const anns::Dataset data = ShardDataset();
  const anns::IvfPqIndex index = BuildShardIndex(data);

  AnnsTopKWorkload::Config wc;
  wc.nprobe = 8;
  wc.k = 10;
  AnnsTopKWorkload wl(&index, Partitioner::Hash(4), wc);

  ShardCluster::Config cc;
  cc.num_shards = 4;
  ShardCluster cluster(&wl, cc);
  std::vector<uint64_t> ids;
  for (size_t q = 0; q < data.num_queries(); ++q) {
    const uint64_t id = wl.AddQuery(data.QueryVector(q));
    ids.push_back(id);
    cluster.Submit(id);
  }
  auto cycles = cluster.Run();
  ASSERT_TRUE(cycles.ok()) << cycles.status().ToString();

  PartialOutcome out;
  size_t finalized = 0;
  while (cluster.PollOutcome(&out)) {
    EXPECT_TRUE(out.status.ok()) << out.status.ToString();
    EXPECT_FALSE(out.degraded());
    ++finalized;
  }
  EXPECT_EQ(finalized, data.num_queries());

  anns::IvfPqIndex::SearchParams params;
  params.nprobe = wc.nprobe;
  params.k = wc.k;
  for (size_t q = 0; q < data.num_queries(); ++q) {
    const auto expected = index.Search(data.QueryVector(q), params);
    const auto& got = wl.result(ids[q]);
    ASSERT_EQ(got.size(), expected.size()) << "query " << q;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, expected[i].id) << "query " << q << " rank " << i;
      EXPECT_FLOAT_EQ(got[i].distance, expected[i].distance);
    }
  }
}

// --- Serve returns at once; the scan runs on the worker pool ---------------

/// A slice's probed lists, in the order Scatter hands them to its shard.
std::vector<uint32_t> SliceLists(const anns::IvfPqIndex& index,
                                 const Partitioner& partitioner,
                                 const float* query, size_t nprobe,
                                 uint32_t shard) {
  std::vector<uint32_t> lists;
  for (uint32_t list : index.SelectProbes(query, nprobe)) {
    if (partitioner.ShardOf(list) == shard) lists.push_back(list);
  }
  return lists;
}

/// Every slice of `request_id` merged as served.
PartialOutcome AllDone(uint64_t request_id, const std::vector<SubRequest>& subs) {
  PartialOutcome out;
  out.request_id = request_id;
  for (const SubRequest& sub : subs) {
    out.slices.push_back({sub.shard, SubOutcome::kDone});
  }
  out.shards_done = out.shards_total();
  return out;
}

TEST(ShardAnnsTest, ServeChargesTheSizeOfTheScansAnswer) {
  // Eight copies of 40 distinct vectors in 64 lists: at most 40 lists fill,
  // and most hold fewer codes than a top-10 keeps.
  anns::DatasetSpec spec;
  spec.num_base = 40;
  spec.num_queries = 8;
  spec.dim = 16;
  spec.seed = 5;
  anns::Dataset data = anns::MakeDataset(spec);
  const std::vector<float> distinct = data.base;
  for (int copy = 1; copy < 8; ++copy) {
    data.base.insert(data.base.end(), distinct.begin(), distinct.end());
  }
  anns::IvfPqIndex::Options opts;
  opts.nlist = 64;
  opts.pq.m = 4;
  opts.pq.ksub = 32;
  auto built = anns::IvfPqIndex::Build(data.base, data.dim, opts);
  ASSERT_TRUE(built.ok()) << built.status();
  const anns::IvfPqIndex& index = *built;

  const Partitioner partitioner = Partitioner::Hash(4);
  size_t short_slices = 0, slices_with_empty_list = 0, k_above_all = 0;
  for (auto [nprobe, k] : {std::pair<size_t, size_t>{8, 10}, {64, 10},
                           {64, data.num_base() + 1}}) {
    AnnsTopKWorkload::Config wc;
    wc.nprobe = nprobe;
    wc.k = k;
    AnnsTopKWorkload wl(&index, partitioner, wc);
    for (size_t q = 0; q < data.num_queries(); ++q) {
      SCOPED_TRACE(testing::Message() << "nprobe=" << nprobe << " k=" << k
                                      << " q=" << q);
      const float* query = data.QueryVector(q);
      const uint64_t id = wl.AddQuery(query);
      const std::vector<SubRequest> subs = wl.Scatter(id);
      size_t candidates = 0;
      for (const SubRequest& sub : subs) {
        const std::vector<uint32_t> lists =
            SliceLists(index, partitioner, query, nprobe, sub.shard);
        size_t codes = 0;
        bool empty_list = false;
        for (uint32_t list : lists) {
          codes += index.list(list).ids.size();
          empty_list |= index.list(list).ids.empty();
        }
        candidates += codes;
        short_slices += codes < k ? 1 : 0;
        slices_with_empty_list += empty_list ? 1 : 0;
        EXPECT_EQ(wl.Serve(sub.shard, id).response_bytes,
                  index.SearchLists(query, lists, k).size() * sizeof(anns::Neighbor))
            << "shard " << sub.shard;
      }
      k_above_all += k > candidates ? 1 : 0;
      wl.Merge(id, AllDone(id, subs));
    }
  }
  EXPECT_GT(short_slices, 0u);
  EXPECT_GT(slices_with_empty_list, 0u);
  EXPECT_GT(k_above_all, 0u);
}

TEST(ShardAnnsTest, SliceServedTwiceMergesToTheSynchronousAnswer) {
  const anns::Dataset data = ShardDataset();
  const anns::IvfPqIndex index = BuildShardIndex(data);
  AnnsTopKWorkload::Config wc;
  wc.nprobe = 16;
  wc.k = 10;
  AnnsTopKWorkload wl(&index, Partitioner::Hash(4), wc);
  anns::IvfPqIndex::SearchParams params;
  params.nprobe = wc.nprobe;
  params.k = wc.k;
  for (size_t q = 0; q < data.num_queries(); ++q) {
    SCOPED_TRACE(q);
    const uint64_t id = wl.AddQuery(data.QueryVector(q));
    const std::vector<SubRequest> subs = wl.Scatter(id);
    // A failover replay serves the slice again; the second scan's answer
    // is the one merged, straight after the serve.
    for (const SubRequest& sub : subs) {
      const Service first = wl.Serve(sub.shard, id);
      const Service second = wl.Serve(sub.shard, id);
      EXPECT_EQ(first.compute_cycles, second.compute_cycles);
      EXPECT_EQ(first.response_bytes, second.response_bytes);
    }
    wl.Merge(id, AllDone(id, subs));
    const std::vector<anns::Neighbor>& got = wl.result(id);
    const std::vector<anns::Neighbor> want = index.Search(data.QueryVector(q), params);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id) << "rank " << i;
      EXPECT_EQ(got[i].distance, want[i].distance) << "rank " << i;
    }
  }
}

TEST(ShardAnnsTest, DestroyingAWorkloadWaitsForItsQueuedScans) {
  // Under asan or tsan, a scan that outlived its workload would read the
  // index freed right after it.
  const anns::Dataset data = ShardDataset();
  auto index = std::make_unique<anns::IvfPqIndex>(BuildShardIndex(data));
  AnnsTopKWorkload::Config wc;
  wc.nprobe = 32;  // every list: the longest scans this index has
  auto wl = std::make_unique<AnnsTopKWorkload>(index.get(), Partitioner::Hash(4), wc);
  for (int round = 0; round < 8; ++round) {
    for (size_t q = 0; q < data.num_queries(); ++q) {
      const uint64_t id = wl->AddQuery(data.QueryVector(q));
      const std::vector<SubRequest> subs = wl->Scatter(id);
      for (const SubRequest& sub : subs) wl->Serve(sub.shard, id);
      // Some slices are served twice, and some requests end with every
      // slice timed out: both leave scans nothing will read.
      if (q % 3 == 0) wl->Serve(subs.front().shard, id);
      if (q % 4 == 1) {
        PartialOutcome out = AllDone(id, subs);
        for (PartialOutcome::Slice& slice : out.slices) {
          slice.outcome = SubOutcome::kTimedOut;
        }
        out.shards_done = 0;
        wl->Merge(id, out);
      }
    }
  }
  wl.reset();
  index.reset();
}

TEST(ShardKvsTest, MultiGetReturnsUnionOfShardStores) {
  KvsMultiGetWorkload::Config kc;
  KvsMultiGetWorkload wl(Partitioner::Hash(4), kc);
  for (uint64_t key = 0; key < 500; ++key) {
    if (key % 3 != 0) wl.Load(key, key * 1000 + 7);
  }

  ShardCluster::Config cc;
  cc.num_shards = 4;
  ShardCluster cluster(&wl, cc);
  std::vector<uint64_t> keys;
  for (uint64_t key = 0; key < 120; ++key) keys.push_back(key * 4 + 1);
  const uint64_t id = wl.AddMultiGet(keys);
  cluster.Submit(id);
  ASSERT_TRUE(cluster.Run().ok());

  PartialOutcome out;
  ASSERT_TRUE(cluster.PollOutcome(&out));
  EXPECT_TRUE(out.status.ok());
  const auto& results = wl.result(id);
  ASSERT_EQ(results.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(results[i].key, keys[i]);
    EXPECT_TRUE(results[i].served);
    const bool should_hit = keys[i] % 3 != 0;
    EXPECT_EQ(results[i].hit, should_hit) << "key " << keys[i];
    if (should_hit) {
      EXPECT_EQ(results[i].value, keys[i] * 1000 + 7);
    }
  }
}

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

TEST(ShardJoinTest, PartitionedJoinMatchesSingleNodeJoin) {
  // Unique build keys (PK side); probe side reuses the key range.
  rel::Table build(rel::Schema{{{"k"}, {"payload"}}});
  for (int64_t i = 0; i < 300; ++i) {
    rel::Row r;
    r.Set(0, i);
    r.Set(1, i * 11);
    build.Append(r);
  }
  const rel::Table probe = MakeKeyedTable(2000, 400, 9);
  rel::JoinSpec spec;
  spec.left_key = 0;
  spec.right_key = 1;  // synthetic table: key column

  HashJoinWorkload::Config jc;
  HashJoinWorkload wl(&build, &probe, spec, Partitioner::Hash(4), jc);
  ShardCluster::Config cc;
  cc.num_shards = 4;
  ShardCluster cluster(&wl, cc);
  cluster.Submit(wl.request_id());
  ASSERT_TRUE(cluster.Run().ok());

  PartialOutcome out;
  ASSERT_TRUE(cluster.PollOutcome(&out));
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();

  auto expected = rel::HashJoinCpu(build, probe, spec);
  ASSERT_TRUE(expected.ok());
  EXPECT_GT(expected->num_rows(), 0u);
  EXPECT_EQ(RowMultiset(wl.result()), RowMultiset(*expected));

  // Co-partitioning routed every row somewhere.
  size_t build_total = 0, probe_total = 0;
  for (uint32_t s = 0; s < 4; ++s) {
    build_total += wl.build_rows(s);
    probe_total += wl.probe_rows(s);
  }
  EXPECT_EQ(build_total, build.num_rows());
  EXPECT_EQ(probe_total, probe.num_rows());
}

// ---------------------------------------------------------------------------
// Failure modes

TEST(ShardFailureTest, DeadShardDegradesToPartialOutcome) {
  TestWorkload wl(4, 100);
  ShardCluster::Config cc;
  cc.num_shards = 4;
  cc.reliability.rto_cycles = 500;
  cc.reliability.max_retries = 2;
  ShardCluster cluster(&wl, cc);

  // Shard 2's ingress link goes down before any traffic and stays down
  // longer than the retry budget: every request copy is lost.
  net::FaultInjector::Config fc;
  fc.flap_down_cycles = 1u << 30;
  net::FaultInjector injector(fc);
  injector.Schedule({0, net::FaultInjector::kAnyNode, /*dst=*/3,
                     net::FaultKind::kLinkFlap});
  cluster.set_fault_injector(&injector);

  cluster.Submit(1);
  ASSERT_TRUE(cluster.Run().ok());

  PartialOutcome out;
  ASSERT_TRUE(cluster.PollOutcome(&out));
  EXPECT_TRUE(out.degraded());
  EXPECT_EQ(out.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(out.shards_done, 3u);
  for (const auto& slice : out.slices) {
    EXPECT_EQ(slice.outcome,
              slice.shard == 2 ? SubOutcome::kFailed : SubOutcome::kDone);
  }
  EXPECT_EQ(cluster.coordinator().gathers_degraded(), 1u);
  ASSERT_EQ(wl.merged().count(1), 1u);  // Merge still ran on the partials
}

TEST(ShardFailureTest, StragglerTimesOutAndLateResponseIsCounted) {
  TestWorkload wl(2, 100);
  ShardCluster::Config cc;
  cc.num_shards = 2;
  cc.coordinator.gather_deadline_cycles = 20000;
  // No retransmissions: the delayed response must arrive late, not be
  // raced by a retransmitted copy.
  cc.reliability.rto_cycles = 1u << 30;
  ShardCluster cluster(&wl, cc);

  // Shard 1's first offload *response* pays a 200k-cycle delay spike —
  // well past the gather deadline. The op filter spares the RDMA ACKs.
  net::FaultInjector::Config fc;
  fc.delay_spike_cycles = 200000;
  net::FaultInjector injector(fc);
  injector.Schedule({0, /*src=*/2, /*dst=*/0, net::FaultKind::kDelay,
                     int(net::OpKind::kOffloadResp)});
  cluster.set_fault_injector(&injector);

  cluster.Submit(1);
  ASSERT_TRUE(cluster.Run().ok());

  PartialOutcome out;
  ASSERT_TRUE(cluster.PollOutcome(&out));
  EXPECT_TRUE(out.degraded());
  EXPECT_EQ(out.status.code(), StatusCode::kTimeout);
  for (const auto& slice : out.slices) {
    EXPECT_EQ(slice.outcome,
              slice.shard == 1 ? SubOutcome::kTimedOut : SubOutcome::kDone);
  }
  // The delayed response eventually arrived for a gather already gone.
  EXPECT_EQ(cluster.coordinator().late_responses(), 1u);
}

TEST(ShardFailureTest, OverloadedShardShedsInsteadOfStalling) {
  // One slow shard (10k cycles per slice), a tiny admission queue and a
  // wide-open coordinator window: a burst must shed, not pile up.
  TestWorkload wl(1, 10000);
  ShardCluster::Config cc;
  cc.num_shards = 1;
  cc.coordinator.window = 8;
  cc.server.max_queue = 1;
  ShardCluster cluster(&wl, cc);
  for (uint64_t id = 0; id < 8; ++id) cluster.Submit(id);
  ASSERT_TRUE(cluster.Run().ok());

  size_t ok = 0, shed = 0;
  PartialOutcome out;
  while (cluster.PollOutcome(&out)) {
    if (out.status.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(out.status.code(), StatusCode::kResourceExhausted);
      ASSERT_EQ(out.slices.size(), 1u);
      EXPECT_EQ(out.slices[0].outcome, SubOutcome::kRejected);
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, 8u);
  EXPECT_GE(shed, 1u);
  EXPECT_GE(ok, 1u);
  EXPECT_EQ(cluster.server(0).rejected(), shed);
  EXPECT_EQ(cluster.server(0).served(), ok);
  EXPECT_EQ(wl.merged().size(), 8u);
}

// ---------------------------------------------------------------------------
// Scheduler invariance: Run() must report the Step() loop's cycles and
// results bit-for-bit on the same deployment.

struct ModeRun {
  sim::Cycle cycles = 0;
  std::vector<anns::Neighbor> first_result;
  uint64_t stall_cycles = 0;
};

ModeRun RunAnnsCluster(const anns::Dataset& data,
                       const anns::IvfPqIndex& index, bool stepped) {
  AnnsTopKWorkload::Config wc;
  wc.nprobe = 8;
  wc.k = 10;
  AnnsTopKWorkload wl(&index, Partitioner::Hash(4), wc);
  ShardCluster::Config cc;
  cc.num_shards = 4;
  ShardCluster cluster(&wl, cc);
  std::vector<uint64_t> ids;
  for (size_t q = 0; q < data.num_queries(); ++q) {
    ids.push_back(wl.AddQuery(data.QueryVector(q)));
    cluster.Submit(ids.back());
  }
  auto cycles = stepped ? sim::StepUntilQuiesced(cluster.engine(), 1ull << 32)
                        : cluster.Run();
  EXPECT_TRUE(cycles.ok());
  ModeRun r;
  r.cycles = *cycles;
  r.first_result = wl.result(ids[0]);
  r.stall_cycles = cluster.coordinator().gather_stall_cycles();
  return r;
}

TEST(ShardDeterminismTest, RunMatchesStep) {
  const anns::Dataset data = ShardDataset();
  const anns::IvfPqIndex index = BuildShardIndex(data);
  const ModeRun ref = RunAnnsCluster(data, index, /*stepped=*/true);
  EXPECT_GT(ref.cycles, 0u);
  const ModeRun run = RunAnnsCluster(data, index, /*stepped=*/false);
  EXPECT_EQ(run.cycles, ref.cycles);
  EXPECT_EQ(run.stall_cycles, ref.stall_cycles);
  ASSERT_EQ(run.first_result.size(), ref.first_result.size());
  for (size_t i = 0; i < run.first_result.size(); ++i) {
    EXPECT_EQ(run.first_result[i].id, ref.first_result[i].id);
  }
}

// ---------------------------------------------------------------------------
// Observability

TEST(ShardMetricsTest, ClusterExportsPerShardGauges) {
  TestWorkload wl(2, 50);
  ShardCluster::Config cc;
  cc.num_shards = 2;
  ShardCluster cluster(&wl, cc);
  obs::MetricsRegistry registry;
  cluster.engine().EnableMetrics(&registry);
  cluster.Submit(1);
  ASSERT_TRUE(cluster.Run().ok());

  EXPECT_EQ(registry.GetGauge("shard.coord.gathers_completed")->value(), 1.0);
  EXPECT_EQ(registry.GetGauge("shard.coord.gathers_degraded")->value(), 0.0);
  EXPECT_EQ(registry.GetGauge("shard.shard0.served")->value(), 1.0);
  EXPECT_EQ(registry.GetGauge("shard.shard1.served")->value(), 1.0);
  EXPECT_GT(registry.GetGauge("shard.coord.gather_stall_cycles")->value(), 0.0);
}

// ---------------------------------------------------------------------------
// Elastic operations: replica bookkeeping units.

TEST(ReplicaSetTest, PromoteAdvancesCyclicallyAndKillsOldPrimary) {
  ReplicaSet rs(2, 3);
  EXPECT_EQ(rs.Primary(0), 0u);
  EXPECT_EQ(rs.alive_count(0), 3u);
  EXPECT_TRUE(rs.CanPromote(0));
  EXPECT_TRUE(rs.Promote(0));
  EXPECT_EQ(rs.Primary(0), 1u);
  EXPECT_FALSE(rs.alive(0, 0));
  EXPECT_EQ(rs.alive_count(0), 2u);
  EXPECT_EQ(rs.Primary(1), 0u);  // other shards untouched
  EXPECT_TRUE(rs.Promote(0));
  EXPECT_EQ(rs.Primary(0), 2u);
  // Last replica standing: nothing left to promote to.
  EXPECT_FALSE(rs.CanPromote(0));
  EXPECT_FALSE(rs.Promote(0));
  EXPECT_EQ(rs.Primary(0), 2u);
  EXPECT_EQ(rs.promotions(), 2u);
}

TEST(ReplicaSetTest, MarkDeadStandbyIsSkippedByPromote) {
  ReplicaSet rs(1, 3);
  rs.MarkDead(0, 1);
  EXPECT_TRUE(rs.Promote(0));
  EXPECT_EQ(rs.Primary(0), 2u);  // replica 1 was dead, scan skipped it
}

TEST(ReplicaSetTest, BeaconsAreMonotonic) {
  ReplicaSet rs(1, 2);
  rs.ObserveBeacon(0, 1, 500);
  rs.ObserveBeacon(0, 1, 300);  // late delivery must not rewind liveness
  EXPECT_EQ(rs.last_beacon(0, 1), 500u);
}

TEST(ElasticStateTest, BusyTracksLiveMigrationsOnly) {
  ElasticState es(ReplicaConfig{}, 4);
  EXPECT_FALSE(es.Busy(0));
  Migration m;
  m.plan = {/*source=*/0, /*target=*/2, 0, 10, 1 << 12};
  m.seq = es.next_migration_seq++;
  es.migrations.push_back(m);
  EXPECT_TRUE(es.Busy(0));
  EXPECT_TRUE(es.Busy(2));
  EXPECT_FALSE(es.Busy(1));
  EXPECT_EQ(es.ActiveCopyFrom(0), &es.migrations[0]);
  es.migrations[0].phase = MigrationPhase::kDone;
  EXPECT_FALSE(es.Busy(0));
  EXPECT_EQ(es.ActiveCopyFrom(0), nullptr);
}

TEST(PartitionerTest, MoveRangeSplitsAndCoalescesSegments) {
  // Shard 0 owns [0, 10], shard 1 (10, 100], shard 2 the rest.
  Partitioner p = Partitioner::Range({10, 100, 1000});
  EXPECT_TRUE(p.RangeOwnedBy(20, 60, 1));
  EXPECT_FALSE(p.RangeOwnedBy(5, 60, 1));
  p.MoveRange(20, 60, 2);
  EXPECT_EQ(p.ShardOf(19), 1u);
  EXPECT_EQ(p.ShardOf(20), 2u);
  EXPECT_EQ(p.ShardOf(60), 2u);
  EXPECT_EQ(p.ShardOf(61), 1u);
  EXPECT_EQ(p.ShardOf(100), 1u);
  EXPECT_EQ(p.ShardOf(101), 2u);
  EXPECT_EQ(p.ShardOf(1u << 20), 2u);  // tail above the last bound
  EXPECT_TRUE(p.RangeOwnedBy(20, 60, 2));
  // Move it back: the table re-coalesces to the original ownership.
  p.MoveRange(20, 60, 1);
  for (uint64_t k = 0; k <= 110; ++k) {
    const uint32_t expected = k <= 10 ? 0u : (k <= 100 ? 1u : 2u);
    EXPECT_EQ(p.ShardOf(k), expected) << "key " << k;
  }
}

// ---------------------------------------------------------------------------
// Failover differential: a replicated cluster that loses a primary mid-run
// must deliver results id-identical to a fault-free run — across all three
// workloads (mirrors gather_equivalence_test.cc). The fault-free reference
// is driven by the Step() loop and the failover run by Run(), so every seed
// also checks the scheduler against its oracle.

uint64_t Lcg(uint64_t& state) {
  state = state * 6364136223846793005ull + 1442695040888963407ull;
  return state >> 33;
}

struct FailoverPlan {
  bool inject = false;       ///< false = fault-free reference run.
  uint32_t victim_shard = 0; ///< Primary to kill (both link directions).
  sim::Cycle death_cycle = 0;
};

ShardCluster::Config ElasticConfig(uint32_t num_shards, bool replicated) {
  ShardCluster::Config cc;
  cc.num_shards = num_shards;
  cc.reliability.rto_cycles = 300;
  cc.reliability.max_retries = 2;
  if (replicated) {
    cc.replica.replication_factor = 2;
    // Interval must exceed the control-packet flight time (~207 cycles at
    // the default fabric config), or the wire never drains between waves.
    cc.replica.beacon_interval_cycles = 600;
    cc.replica.beacon_timeout_cycles = 1500;
  }
  return cc;
}

/// Runs `wl` with the given requests submitted; when fp.inject, the victim
/// shard's primary drops off the fabric (both directions, permanently) at
/// fp.death_cycle. Returns the per-request outcomes; asserts every slice
/// resolved kDone when a standby existed.
std::vector<PartialOutcome> RunWithFailover(Workload* wl,
                                            const std::vector<uint64_t>& ids,
                                            uint32_t num_shards,
                                            const FailoverPlan& fp,
                                            uint64_t* failovers) {
  ShardCluster::Config cc = ElasticConfig(num_shards, fp.inject);
  ShardCluster cluster(wl, cc);
  net::FaultInjector::Config fc;
  fc.flap_down_cycles = 1u << 30;  // the node never comes back
  net::FaultInjector injector(fc);
  if (fp.inject) {
    const uint32_t node = cluster.gather_plan().ReplicaNode(fp.victim_shard, 0);
    injector.Schedule({fp.death_cycle, node, net::FaultInjector::kAnyNode,
                       net::FaultKind::kLinkFlap});
    injector.Schedule({fp.death_cycle, net::FaultInjector::kAnyNode, node,
                       net::FaultKind::kLinkFlap});
    cluster.set_fault_injector(&injector);
  }
  for (uint64_t id : ids) cluster.Submit(id);
  const auto cycles =
      fp.inject ? cluster.Run()
                : sim::StepUntilQuiesced(cluster.engine(), 1ull << 32);
  EXPECT_TRUE(cycles.ok()) << cycles.status().ToString();
  if (failovers != nullptr) *failovers = cluster.coordinator().failovers();
  std::map<uint64_t, PartialOutcome> by_id;
  PartialOutcome out;
  while (cluster.PollOutcome(&out)) by_id[out.request_id] = out;
  std::vector<PartialOutcome> outs;
  for (uint64_t id : ids) {
    EXPECT_EQ(by_id.count(id), 1u) << "request " << id << " never resolved";
    outs.push_back(by_id[id]);
  }
  return outs;
}

TEST(FailoverEquivalenceTest, AnnsIdenticalWithDeadPrimary100Seeds) {
  const anns::Dataset data = ShardDataset();
  const anns::IvfPqIndex index = BuildShardIndex(data);
  AnnsTopKWorkload::Config wc;
  wc.nprobe = 8;
  wc.k = 10;
  uint64_t rng = 41;
  size_t seeds_with_failover = 0;
  for (uint32_t seed = 0; seed < 100; ++seed) {
    const uint32_t shards = 2 + seed % 7;
    FailoverPlan fp;
    const std::vector<size_t> queries = {seed % data.num_queries(),
                                         (seed * 7 + 3) % data.num_queries()};

    AnnsTopKWorkload ref_wl(&index, Partitioner::Hash(shards), wc);
    std::vector<uint64_t> ref_ids;
    for (size_t q : queries) ref_ids.push_back(ref_wl.AddQuery(data.QueryVector(q)));
    const auto ref = RunWithFailover(&ref_wl, ref_ids, shards, fp, nullptr);

    fp.inject = true;
    fp.victim_shard = seed % shards;
    fp.death_cycle = 20 + Lcg(rng) % 1500;
    AnnsTopKWorkload wl(&index, Partitioner::Hash(shards), wc);
    std::vector<uint64_t> ids;
    for (size_t q : queries) ids.push_back(wl.AddQuery(data.QueryVector(q)));
    uint64_t failovers = 0;
    const auto runs = RunWithFailover(&wl, ids, shards, fp, &failovers);
    seeds_with_failover += failovers > 0 ? 1 : 0;

    ASSERT_EQ(runs.size(), ref.size());
    for (size_t q = 0; q < ids.size(); ++q) {
      EXPECT_TRUE(runs[q].status.ok())
          << "seed " << seed << " query " << q << " degraded despite standby: "
          << runs[q].status.ToString();
      const auto& expect = ref_wl.result(ref_ids[q]);
      const auto& got = wl.result(ids[q]);
      ASSERT_EQ(got.size(), expect.size()) << "seed " << seed;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, expect[i].id)
            << "seed " << seed << " query " << q << " rank " << i;
        EXPECT_EQ(got[i].distance, expect[i].distance);
      }
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The sweep must actually exercise recovery, not just schedule faults
  // after quiesce.
  EXPECT_GE(seeds_with_failover, 30u);
}

TEST(FailoverEquivalenceTest, KvsIdenticalWithDeadPrimary100Seeds) {
  KvsMultiGetWorkload::Config kc;
  uint64_t rng = 97;
  size_t seeds_with_failover = 0;
  for (uint32_t seed = 0; seed < 100; ++seed) {
    const uint32_t shards = 2 + seed % 7;
    FailoverPlan fp;
    std::vector<std::vector<uint64_t>> batches(2);
    for (auto& batch : batches) {
      for (size_t i = 0; i < 24; ++i) batch.push_back(Lcg(rng) % 4096);
    }

    const auto load = [&](KvsMultiGetWorkload& wl) {
      for (uint64_t key = 0; key < 4096; key += 3) wl.Load(key, key * 31 + 5);
    };
    KvsMultiGetWorkload ref_wl(Partitioner::Hash(shards), kc);
    load(ref_wl);
    std::vector<uint64_t> ref_ids;
    for (const auto& b : batches) ref_ids.push_back(ref_wl.AddMultiGet(b));
    const auto ref = RunWithFailover(&ref_wl, ref_ids, shards, fp, nullptr);

    fp.inject = true;
    fp.victim_shard = seed % shards;
    // Multi-gets resolve fast; keep the death window tight so most seeds
    // kill the primary while its slice is still outstanding.
    fp.death_cycle = 5 + Lcg(rng) % 400;
    KvsMultiGetWorkload wl(Partitioner::Hash(shards), kc);
    load(wl);
    std::vector<uint64_t> ids;
    for (const auto& b : batches) ids.push_back(wl.AddMultiGet(b));
    uint64_t failovers = 0;
    const auto runs = RunWithFailover(&wl, ids, shards, fp, &failovers);
    seeds_with_failover += failovers > 0 ? 1 : 0;

    for (size_t r = 0; r < ids.size(); ++r) {
      EXPECT_TRUE(runs[r].status.ok()) << "seed " << seed;
      const auto& expect = ref_wl.result(ref_ids[r]);
      const auto& got = wl.result(ids[r]);
      ASSERT_EQ(got.size(), expect.size()) << "seed " << seed;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].key, expect[i].key) << "seed " << seed;
        EXPECT_EQ(got[i].served, expect[i].served) << "seed " << seed;
        EXPECT_EQ(got[i].hit, expect[i].hit) << "seed " << seed;
        EXPECT_EQ(got[i].value, expect[i].value) << "seed " << seed;
      }
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GE(seeds_with_failover, 30u);
}

TEST(FailoverEquivalenceTest, HashJoinIdenticalWithDeadPrimary100Seeds) {
  // Smaller sweep per seed (the join runs nested pipeline simulations at
  // Scatter), full coverage of victim/death-cycle combinations.
  rel::Table build(rel::Schema{{{"k"}, {"payload"}}});
  for (int64_t i = 0; i < 120; ++i) {
    rel::Row r;
    r.Set(0, i);
    r.Set(1, i * 11);
    build.Append(r);
  }
  const rel::Table probe = MakeKeyedTable(600, 160, 9);
  rel::JoinSpec spec;
  spec.left_key = 0;
  spec.right_key = 1;
  HashJoinWorkload::Config jc;
  uint64_t rng = 7;
  size_t seeds_with_failover = 0;
  for (uint32_t seed = 0; seed < 100; ++seed) {
    const uint32_t shards = 2 + seed % 5;
    FailoverPlan fp;

    HashJoinWorkload ref_wl(&build, &probe, spec, Partitioner::Hash(shards),
                            jc);
    const auto ref = RunWithFailover(&ref_wl, {ref_wl.request_id()}, shards,
                                     fp, nullptr);

    fp.inject = true;
    fp.victim_shard = seed % shards;
    fp.death_cycle = 20 + Lcg(rng) % 1500;
    HashJoinWorkload wl(&build, &probe, spec, Partitioner::Hash(shards), jc);
    uint64_t failovers = 0;
    const auto runs = RunWithFailover(&wl, {wl.request_id()}, shards, fp,
                                      &failovers);
    seeds_with_failover += failovers > 0 ? 1 : 0;

    EXPECT_TRUE(runs[0].status.ok()) << "seed " << seed;
    EXPECT_EQ(RowMultiset(wl.result()), RowMultiset(ref_wl.result()))
        << "seed " << seed;
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GE(seeds_with_failover, 30u);
}

}  // namespace
}  // namespace fpgadp::shard
