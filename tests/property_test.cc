// Cross-module property tests: conservation laws, ordering invariants, and
// randomized-workload checks that hold for every seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>

#include "src/common/random.h"
#include "src/farview/farview.h"
#include "src/memory/multi_channel.h"
#include "src/microrec/engine.h"
#include "src/microrec/model.h"
#include "src/net/fabric.h"
#include "src/net/rdma.h"
#include "src/net/tcp.h"
#include "src/relational/compression.h"
#include "src/relational/cpu_executor.h"
#include "src/relational/fpga_executor.h"
#include "src/relational/program.h"
#include "src/relational/table.h"
#include "src/serve/synthetic.h"
#include "src/shard/partitioner.h"
#include "src/shard/replica.h"
#include "src/shard/shard.h"
#include "src/shard/workloads.h"
#include "src/sim/engine.h"
#include "tests/reference_executor.h"

#include <iterator>
#include <map>
#include <set>

namespace fpgadp {
namespace {

class SeededProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeededProperty, FabricConservesPacketsAndBytes) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  const uint32_t nodes = 4;
  net::Fabric::Config cfg;
  cfg.clock_hz = 200e6;
  net::Fabric fab("fab", nodes, cfg);
  sim::Engine e;
  fab.RegisterWith(e);

  uint64_t sent_packets = 0, sent_bytes = 0;
  uint64_t recv_packets = 0, recv_bytes = 0;
  const int to_send = 200;
  int queued = 0;
  uint64_t guard = 0;
  while ((recv_packets < uint64_t(to_send)) && guard++ < (1ull << 22)) {
    // Drip-feed random packets.
    while (queued < to_send) {
      const auto src = uint32_t(rng.NextBounded(nodes));
      if (!fab.egress(src).CanWrite()) break;
      net::Packet p;
      p.src = src;
      p.dst = uint32_t(rng.NextBounded(nodes));
      p.bytes = rng.NextBounded(8192);
      fab.egress(src).Write(p);
      sent_bytes += p.bytes;
      ++sent_packets;
      ++queued;
    }
    e.Step();
    for (uint32_t n = 0; n < nodes; ++n) {
      while (fab.ingress(n).CanRead()) {
        recv_bytes += fab.ingress(n).Read().bytes;
        ++recv_packets;
      }
    }
  }
  EXPECT_EQ(recv_packets, sent_packets);
  EXPECT_EQ(recv_bytes, sent_bytes);
  EXPECT_EQ(fab.packets_delivered(), sent_packets);
  EXPECT_EQ(fab.payload_bytes_delivered(), sent_bytes);
}

TEST_P(SeededProperty, RdmaEveryPostedOpCompletes) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  const uint32_t nodes = 3;
  net::Fabric::Config cfg;
  cfg.clock_hz = 200e6;
  net::Fabric fab("fab", nodes, cfg);
  std::vector<std::unique_ptr<net::RdmaEndpoint>> eps;
  sim::Engine e;
  fab.RegisterWith(e);
  for (uint32_t n = 0; n < nodes; ++n) {
    eps.push_back(std::make_unique<net::RdmaEndpoint>(
        "ep" + std::to_string(n), n, &fab));
    e.AddModule(eps.back().get());
  }
  // Random mix of reads and writes; sends excluded (their completions are
  // local and would double-count against the remote's receive count).
  const int ops = 150;
  int expected_completions = 0;
  for (int i = 0; i < ops; ++i) {
    const auto src = uint32_t(rng.NextBounded(nodes));
    auto dst = uint32_t(rng.NextBounded(nodes - 1));
    if (dst >= src) ++dst;
    const uint64_t bytes = 1 + rng.NextBounded(4096);
    if (rng.NextBounded(2) == 0) {
      eps[src]->PostRead(dst, 0, bytes, uint64_t(i));
    } else {
      eps[src]->PostWrite(dst, 0, bytes, uint64_t(i));
    }
    ++expected_completions;
  }
  int completions = 0;
  net::Completion c;
  uint64_t guard = 0;
  while (completions < expected_completions && guard++ < (1ull << 22)) {
    e.Step();
    for (auto& ep : eps) {
      while (ep->PollCompletion(&c)) ++completions;
    }
  }
  EXPECT_EQ(completions, expected_completions);
}

TEST_P(SeededProperty, TcpDeliversExactByteCounts) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  net::Fabric::Config cfg;
  cfg.clock_hz = 200e6;
  net::Fabric fab("fab", 2, cfg);
  net::TcpStack a("a", 0, &fab);
  net::TcpStack b("b", 1, &fab);
  sim::Engine e;
  fab.RegisterWith(e);
  e.AddModule(&a);
  e.AddModule(&b);
  uint64_t total = 0;
  for (int i = 0; i < 20; ++i) {
    const uint64_t bytes = 1 + rng.NextBounded(100000);
    a.Send(1, bytes);
    total += bytes;
  }
  uint64_t guard = 0;
  while (b.Readable(0) < total && guard++ < (1ull << 24)) e.Step();
  EXPECT_EQ(b.Readable(0), total);
  // Drain the last ACKs.
  for (int i = 0; i < 2000; ++i) e.Step();
  EXPECT_EQ(a.bytes_acked(), total);
  EXPECT_TRUE(a.Idle());
}

TEST_P(SeededProperty, RdmaFaultSoakEveryOpStillCompletes) {
  // Randomized-fault soak: for every seed, derive random (low) fault rates
  // and a random op mix, and check the RC layer delivers every completion
  // with no payload loss — twice, with bit-identical completion cycles.
  const uint64_t seed = GetParam();
  auto run = [seed] {
    Rng rng(seed);
    net::FaultInjector::Config fcfg;
    fcfg.seed = seed;
    fcfg.drop_rate = rng.NextDouble() * 0.03;
    fcfg.corrupt_rate = rng.NextDouble() * 0.03;
    fcfg.duplicate_rate = rng.NextDouble() * 0.03;
    fcfg.delay_rate = rng.NextDouble() * 0.03;
    net::FaultInjector inj(fcfg);
    net::Fabric::Config cfg;
    cfg.clock_hz = 200e6;
    net::Fabric fab("fab", 2, cfg);
    fab.set_fault_injector(&inj);
    net::RdmaEndpoint a("a", 0, &fab);
    net::RdmaEndpoint b("b", 1, &fab);
    sim::Engine e;
    fab.RegisterWith(e);
    e.AddModule(&a);
    e.AddModule(&b);
    const int ops = 60;
    uint64_t posted_bytes = 0;
    for (int i = 0; i < ops; ++i) {
      const uint64_t bytes = 1 + rng.NextBounded(16384);
      posted_bytes += bytes;
      if (rng.NextBounded(2) == 0) {
        a.PostRead(1, uint64_t(i) * 64, bytes, uint64_t(i));
      } else {
        a.PostWrite(1, uint64_t(i) * 64, bytes, uint64_t(i));
      }
    }
    EXPECT_TRUE(e.Run(1 << 24).ok());
    std::vector<std::pair<uint64_t, sim::Cycle>> completions;
    uint64_t completed_read_bytes = 0;
    net::Completion c;
    while (a.PollCompletion(&c)) {
      EXPECT_EQ(c.status, StatusCode::kOk);
      if (c.kind == net::OpKind::kReadResp) completed_read_bytes += c.bytes;
      completions.push_back({c.tag, c.at});
    }
    EXPECT_EQ(completions.size(), size_t(ops));
    EXPECT_FALSE(a.failed());
    EXPECT_FALSE(b.failed());
    (void)posted_bytes;
    (void)completed_read_bytes;
    return completions;
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
}

TEST_P(SeededProperty, TcpFaultSoakDeliversExactBytes) {
  // Same soak for TCP: random transfer sizes across a randomly lossy
  // fabric still deliver exactly the sent byte counts, in order.
  const uint64_t seed = GetParam();
  Rng rng(seed);
  net::FaultInjector::Config fcfg;
  fcfg.seed = seed ^ 0x9e3779b97f4a7c15ull;
  fcfg.drop_rate = rng.NextDouble() * 0.02;
  fcfg.corrupt_rate = rng.NextDouble() * 0.02;
  fcfg.duplicate_rate = rng.NextDouble() * 0.02;
  fcfg.delay_rate = rng.NextDouble() * 0.05;
  net::FaultInjector inj(fcfg);
  net::Fabric::Config cfg;
  cfg.clock_hz = 200e6;
  net::Fabric fab("fab", 2, cfg);
  fab.set_fault_injector(&inj);
  net::TcpStack a("a", 0, &fab);
  net::TcpStack b("b", 1, &fab);
  sim::Engine e;
  fab.RegisterWith(e);
  e.AddModule(&a);
  e.AddModule(&b);
  uint64_t total = 0;
  for (int i = 0; i < 10; ++i) {
    const uint64_t bytes = 1 + rng.NextBounded(60000);
    a.Send(1, bytes);
    total += bytes;
  }
  uint64_t guard = 0;
  while (b.Readable(0) < total && guard++ < (1ull << 24) && !a.failed()) {
    e.Step();
  }
  EXPECT_FALSE(a.failed()) << a.status();
  EXPECT_EQ(b.Readable(0), total);
  EXPECT_EQ(b.Read(0, total), total);
}

TEST_P(SeededProperty, MemoryChannelCompletesInOrder) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  sim::Stream<mem::MemRequest> req("req", 32);
  sim::Stream<mem::MemResponse> resp("resp", 32);
  mem::MemoryChannel::Config cfg;
  cfg.clock_hz = 200e6;
  mem::MemoryChannel ch("ch", &req, &resp, cfg);
  sim::Engine e;
  e.AddModule(&ch);
  e.AddStream(&req);
  e.AddStream(&resp);
  const int n = 100;
  int issued = 0;
  uint64_t next_expected = 0;
  uint64_t guard = 0;
  while (next_expected < uint64_t(n) && guard++ < (1ull << 22)) {
    while (issued < n && req.CanWrite()) {
      req.Write({uint64_t(issued), rng.NextBounded(1 << 20),
                 uint32_t(1 + rng.NextBounded(4096)), false});
      ++issued;
    }
    e.Step();
    while (resp.CanRead()) {
      // Fixed-latency + serialized bus => strictly FIFO completion.
      EXPECT_EQ(resp.Read().id, next_expected);
      ++next_expected;
    }
  }
  EXPECT_EQ(next_expected, uint64_t(n));
  EXPECT_EQ(ch.completed(), uint64_t(n));
}

TEST_P(SeededProperty, LzRoundTripsStructuredData) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  // Random mix of runs, copies, and noise.
  std::vector<uint8_t> data;
  while (data.size() < 100000) {
    switch (rng.NextBounded(3)) {
      case 0: {  // run
        data.insert(data.end(), 1 + rng.NextBounded(300),
                    uint8_t(rng.Next()));
        break;
      }
      case 1: {  // self-copy
        if (data.empty()) break;
        const size_t start = rng.NextBounded(data.size());
        const size_t len =
            std::min<size_t>(1 + rng.NextBounded(200), data.size() - start);
        for (size_t i = 0; i < len; ++i) data.push_back(data[start + i]);
        break;
      }
      default: {  // noise
        for (int i = 0; i < 50; ++i) data.push_back(uint8_t(rng.Next()));
        break;
      }
    }
  }
  auto round = rel::LzDecompress(rel::LzCompress(data));
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(*round, data);
  // RLE too.
  auto rle = rel::RleDecode(rel::RleEncode(data));
  ASSERT_TRUE(rle.ok());
  EXPECT_EQ(*rle, data);
}

TEST_P(SeededProperty, MicroRecPlacementInvariants) {
  const uint64_t seed = GetParam();
  microrec::RecModel model = microrec::MakeTypicalModel(
      40, seed, 100, 200000, 16);
  microrec::CartesianPlan plan = microrec::PlanWithoutCartesian(model);
  for (uint32_t channels : {2u, 8u, 32u}) {
    for (uint64_t sram : {0ull, 1ull << 20}) {
      auto layout =
          microrec::PlaceTables(plan, channels, sram, 8ull << 30);
      ASSERT_TRUE(layout.ok());
      EXPECT_LE(layout->sram_bytes_used, sram);
      uint64_t hbm_bytes = 0;
      for (size_t g = 0; g < plan.groups.size(); ++g) {
        const auto& p = layout->placements[g];
        if (p.loc == microrec::Loc::kHbm) {
          EXPECT_LT(p.channel, channels);
          hbm_bytes += plan.groups[g].bytes();
        }
      }
      uint64_t channel_sum = std::accumulate(
          layout->channel_bytes.begin(), layout->channel_bytes.end(), 0ull);
      EXPECT_EQ(channel_sum, hbm_bytes);
      EXPECT_EQ(layout->sram_groups + layout->hbm_groups, plan.groups.size());
    }
  }
}

TEST_P(SeededProperty, SyntheticScatterBalancesStartShardsOnAdversarialIds) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  for (uint32_t n : {1u, 2u, 3u, 5u, 8u, 13u}) {
    // Four adversarial request-id streams that would wreck a start shard
    // derived from the id (id % n): one repeated id, ids strided by the
    // shard count, power-of-two ids, and uniform random ids.
    for (int pattern = 0; pattern < 4; ++pattern) {
      serve::SyntheticWorkload::Config wc;
      wc.num_shards = n;
      wc.fanout = 1 + static_cast<uint32_t>(rng.NextBounded(n));
      serve::SyntheticWorkload wl(wc);
      const size_t total = 500 + rng.NextBounded(1000);
      for (size_t i = 0; i < total; ++i) wl.AddRequest(100);
      std::vector<uint64_t> counts(n, 0);
      for (size_t i = 0; i < total; ++i) {
        uint64_t id = 0;
        switch (pattern) {
          case 0: id = 42; break;
          case 1: id = i * n % total; break;
          case 2: id = (uint64_t{1} << (i % 63)) % total; break;
          default: id = rng.NextBounded(total); break;
        }
        const std::vector<shard::SubRequest> subs = wl.Scatter(id);
        ASSERT_EQ(subs.size(), wc.fanout);
        // The fanout window's start cycles the shards in call order.
        ASSERT_EQ(subs[0].shard, i % n);
        ++counts[subs[0].shard];
      }
      // So start shards balance within +-1 on ANY id stream.
      const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
      EXPECT_LE(*hi - *lo, 1u)
          << "n=" << n << " pattern=" << pattern << " total=" << total;
      EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0ull), total);
    }
  }
}

TEST_P(SeededProperty, ReshardingKeepsEveryKeyOwnedExactlyOnce) {
  // Live-resharding ownership law: at every engine cycle of a migration —
  // copy, flip, drain, or abort — every loaded key sits in exactly one
  // shard's store, every multi-get answers from exactly one serving shard,
  // and no slice is ever executed twice across the double-ownership window.
  // Scenario 0 streams the copy to completion; scenario 1 severs the chunk
  // stream mid-copy, which must abort the migration with ownership never
  // flipping and no key lost.
  const uint64_t seed = GetParam();
  Rng rng(seed);
  for (int scenario = 0; scenario < 2; ++scenario) {
    const uint32_t shards = 2 + uint32_t(rng.NextBounded(4));
    const uint64_t space = 1ull << 16;
    std::vector<uint64_t> bounds;
    for (uint32_t s = 0; s + 1 < shards; ++s) {
      bounds.push_back(space / shards * (s + 1) - 1);
    }
    bounds.push_back(space - 1);

    shard::KvsMultiGetWorkload::Config kc;
    shard::KvsMultiGetWorkload wl(shard::Partitioner::Range(bounds), kc);

    const uint32_t source = uint32_t(rng.NextBounded(shards));
    uint32_t target = uint32_t(rng.NextBounded(shards - 1));
    if (target >= source) ++target;
    const uint64_t src_lo = source == 0 ? 0 : bounds[source - 1] + 1;
    const uint64_t src_hi = bounds[source];
    shard::MigrationPlan mp;
    mp.source = source;
    mp.target = target;
    mp.range_lo = src_lo + rng.NextBounded((src_hi - src_lo) / 2 + 1);
    mp.range_hi = mp.range_lo + rng.NextBounded(src_hi - mp.range_lo + 1);
    mp.state_bytes = 8192 + rng.NextBounded(16384);
    mp.chunk_bytes = 1024;
    mp.chunk_interval_cycles = 16;

    // Adversarial keys: segment-boundary huggers (including the migrated
    // range's own edges), shard-strided, powers of two, uniform random.
    std::set<uint64_t> loaded;
    const auto add = [&](uint64_t key) { loaded.insert(key % space); };
    for (uint64_t b : bounds) {
      add(b);
      add(b + 1);
      if (b > 0) add(b - 1);
    }
    add(mp.range_lo);
    if (mp.range_lo > 0) add(mp.range_lo - 1);
    add(mp.range_hi);
    add(mp.range_hi + 1);
    for (uint64_t i = 0; i < 40; ++i) add(i * shards * 257);
    for (uint64_t i = 0; i < 16; ++i) add(uint64_t{1} << i);
    for (int i = 0; i < 60; ++i) add(rng.Next() % space);
    for (uint64_t key : loaded) wl.Load(key, key * 31 + 5);

    shard::ShardCluster::Config cc;
    cc.num_shards = shards;
    cc.reliability.rto_cycles = 300;
    cc.reliability.max_retries = 2;
    shard::ShardCluster cluster(&wl, cc);
    std::vector<std::vector<shard::ShardServer::ServedRecord>> logs(shards);
    for (uint32_t s = 0; s < shards; ++s) {
      cluster.server(s).set_serve_log(&logs[s]);
    }

    net::FaultInjector::Config fc;
    fc.flap_down_cycles = 1u << 30;
    net::FaultInjector injector(fc);
    if (scenario == 1) cluster.set_fault_injector(&injector);

    int last_phase = -1;
    const auto step_until = [&](auto done) {
      uint64_t guard = 0;
      while (!done() && guard++ < (1u << 20)) {
        cluster.engine().Step();
        // Conservation at every cycle: the copy never duplicates or drops
        // a stored key, and the ownership flip moves state atomically.
        uint64_t total = 0;
        for (uint32_t s = 0; s < shards; ++s) total += wl.store_size(s);
        EXPECT_EQ(total, loaded.size());
        const auto& ms = cluster.elastic().migrations;
        if (!ms.empty()) {
          // kCopy -> kDrain -> kDone, or kCopy -> kAborted; never backwards.
          EXPECT_GE(int(ms[0].phase), last_phase);
          last_phase = int(ms[0].phase);
        }
        if (::testing::Test::HasFailure()) return;
      }
      EXPECT_TRUE(done()) << "stalled at cycle " << cluster.engine().now();
    };

    const auto sample = [&](size_t n) {
      std::vector<uint64_t> keys;
      for (size_t i = 0; i < n; ++i) {
        if (rng.NextBounded(4) == 0) {
          keys.push_back(space + rng.NextBounded(space));  // guaranteed miss
        } else {
          auto it = loaded.begin();
          std::advance(it, rng.NextBounded(loaded.size()));
          keys.push_back(*it);
        }
      }
      return keys;
    };

    std::vector<uint64_t> ids;
    std::map<uint64_t, shard::PartialOutcome> outcomes;
    const auto submit = [&](std::vector<uint64_t> keys) {
      ids.push_back(wl.AddMultiGet(std::move(keys)));
      cluster.Submit(ids.back());
    };
    const auto all_resolved = [&] {
      shard::PartialOutcome out;
      while (cluster.PollOutcome(&out)) outcomes[out.request_id] = out;
      return outcomes.size() == ids.size();
    };

    // Wave A is in flight (or freshly served) when the copy starts.
    submit(sample(12));
    submit(sample(12));
    for (uint64_t i = rng.NextBounded(200); i > 0; --i) {
      cluster.engine().Step();
    }
    cluster.StartMigration(mp);
    if (scenario == 1) {
      // Sever the chunk stream at a random point inside the copy window.
      // The op filter arms the flap on a chunk specifically; the downed
      // link then swallows every retransmission, so the source's retry cap
      // must fire and abort the copy.
      injector.Schedule({cluster.engine().now() + rng.NextBounded(300),
                         cluster.gather_plan().ReplicaNode(source, 0),
                         cluster.gather_plan().ReplicaNode(target, 0),
                         net::FaultKind::kLinkFlap,
                         int(net::OpKind::kMigrateChunk)});
    }
    // Wave B scatters under pre-flip ownership and resolves across it.
    submit(sample(12));
    submit(sample(12));
    const auto terminal = [&] {
      const auto& ms = cluster.elastic().migrations;
      return !ms.empty() &&
             (ms[0].phase == shard::MigrationPhase::kDone ||
              ms[0].phase == shard::MigrationPhase::kAborted);
    };
    step_until([&] { return terminal() && all_resolved(); });
    if (::testing::Test::HasFailure()) return;

    const shard::Migration& m = cluster.elastic().migrations.at(0);
    if (scenario == 0) {
      EXPECT_EQ(m.phase, shard::MigrationPhase::kDone);
      EXPECT_EQ(m.bytes_received, m.plan.state_bytes);
      EXPECT_EQ(cluster.coordinator().migrations_flipped(), 1u);
    } else {
      EXPECT_EQ(m.phase, shard::MigrationPhase::kAborted);
      EXPECT_EQ(cluster.coordinator().migrations_flipped(), 0u);
      EXPECT_GE(injector.fault_count(net::FaultKind::kLinkFlap), 1u);
    }

    // Wave C sweeps every loaded key post-migration: each must answer from
    // exactly one serving shard with its loaded value — whichever side of
    // the flip (or abort) owns it now.
    const std::vector<uint64_t> all_keys(loaded.begin(), loaded.end());
    for (size_t at = 0; at < all_keys.size(); at += 32) {
      submit({all_keys.begin() + at,
              all_keys.begin() + std::min(at + 32, all_keys.size())});
    }
    step_until(all_resolved);
    if (::testing::Test::HasFailure()) return;

    uint64_t done_slices = 0;
    for (uint64_t id : ids) {
      const shard::PartialOutcome& out = outcomes.at(id);
      EXPECT_TRUE(out.status.ok()) << out.status.ToString();
      done_slices += out.shards_done;
      for (const auto& r : wl.result(id)) {
        EXPECT_TRUE(r.served) << "key " << r.key;
        if (r.key < space) {
          EXPECT_TRUE(r.hit) << "key " << r.key;
          EXPECT_EQ(r.value, r.key * 31 + 5) << "key " << r.key;
        } else {
          EXPECT_FALSE(r.hit) << "key " << r.key;
        }
      }
    }

    // Exactly-once execution across the double-ownership window: every
    // finished slice ran on exactly one server, forwarded or not.
    std::map<std::pair<uint64_t, uint32_t>, uint64_t> served;
    uint64_t log_records = 0;
    for (const auto& log : logs) {
      log_records += log.size();
      for (const auto& rec : log) ++served[{rec.request_id, rec.slice_shard}];
    }
    EXPECT_EQ(log_records, done_slices);
    for (uint64_t id : ids) {
      for (const auto& slice : outcomes.at(id).slices) {
        EXPECT_EQ((served[{id, slice.shard}]), 1u)
            << "request " << id << " slice shard " << slice.shard;
      }
    }
    if (::testing::Test::HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1ull, 7ull, 42ull, 1234ull,
                                           987654321ull));

// ---------------------------------------------------------------------------
// Differential executor suite: for each seed, build a random synthetic table
// and a random relational program, run it through the functional CPU
// executor, the cycle-level FPGA pipeline and Farview offloads from raw and
// compressed storage, and require each output relation to equal the
// test-only reference executor's bit for bit. The three paths share one
// Operator implementation, so the reference (tests/reference_executor.h) is
// what checks operator semantics; the FPGA path also exercises the full
// simulation engine (sources, kernels, sinks, streams) and the Farview path
// the memory node's page-by-page pipeline and request handling.
// ---------------------------------------------------------------------------

using rel::reference::SameTable;

/// Mutable view of the schema as ops are stacked, just enough to keep
/// generated column references valid.
struct ColumnState {
  std::vector<bool> is_double;
  std::vector<bool> few_values;  // cat and qty: many rows share each value
  size_t count() const { return is_double.size(); }
};

/// The key column of a top-N or group-by. Half the time it is a few-valued
/// column, when one survives the projections, so that equal keys meet at
/// the top-N cut and every group folds many rows.
uint32_t KeyColumn(Rng& rng, const ColumnState& state) {
  std::vector<uint32_t> few;
  for (uint32_t c = 0; c < state.count(); ++c) {
    if (state.few_values[c]) few.push_back(c);
  }
  if (!few.empty() && rng.NextBounded(2) == 0) {
    return few[rng.NextBounded(few.size())];
  }
  return uint32_t(rng.NextBounded(state.count()));
}

rel::Program RandomProgram(Rng& rng, ColumnState state) {
  rel::Program program;
  const uint32_t chain = 1 + uint32_t(rng.NextBounded(3));
  for (uint32_t i = 0; i < chain; ++i) {
    // The last step draws from six: filter, project, aggregate, group-by
    // and, twice as often, top-N, whose tie rule only shows when equal keys
    // meet at its cut.
    switch (rng.NextBounded(i + 1 == chain ? 6 : 2)) {
      case 0: {  // filter
        rel::FilterOp f;
        const uint32_t conjuncts = 1 + uint32_t(rng.NextBounded(2));
        for (uint32_t c = 0; c < conjuncts; ++c) {
          rel::Predicate p;
          p.column = uint32_t(rng.NextBounded(state.count()));
          p.op = rel::CmpOp(rng.NextBounded(6));
          p.is_double = state.is_double[p.column];
          // Constants in the synthetic table's value range so filters are
          // neither always-true nor always-false.
          p.value = int64_t(rng.NextBounded(1 << 18));
          p.dvalue = rng.NextDouble() * 1000.0;
          f.conjuncts.push_back(p);
        }
        program.ops.push_back(f);
        break;
      }
      case 1: {  // project: random non-empty subset, original order
        rel::ProjectOp proj;
        ColumnState next;
        for (uint32_t c = 0; c < state.count(); ++c) {
          if (rng.NextBounded(2) == 0) {
            proj.columns.push_back(c);
            next.is_double.push_back(state.is_double[c]);
            next.few_values.push_back(state.few_values[c]);
          }
        }
        if (proj.columns.empty()) {
          proj.columns.push_back(0);
          next.is_double.push_back(state.is_double[0]);
          next.few_values.push_back(state.few_values[0]);
        }
        program.ops.push_back(proj);
        state = next;
        break;
      }
      case 2: {  // terminal scalar aggregate
        rel::AggregateOp a;
        a.column = uint32_t(rng.NextBounded(state.count()));
        a.kind = rel::AggKind(rng.NextBounded(5));
        a.is_double = state.is_double[a.column];
        program.ops.push_back(a);
        return program;
      }
      case 3: {  // terminal group-by (group on an int64 column)
        rel::GroupByOp g;
        g.group_column = KeyColumn(rng, state);
        if (state.is_double[g.group_column]) g.group_column = 0;
        if (state.is_double[g.group_column]) {  // col 0 itself is double
          rel::AggregateOp a;
          a.column = 0;
          a.kind = rel::AggKind::kCount;
          a.is_double = true;
          program.ops.push_back(a);
          return program;
        }
        g.agg.column = uint32_t(rng.NextBounded(state.count()));
        g.agg.kind = rel::AggKind(rng.NextBounded(5));
        g.agg.is_double = state.is_double[g.agg.column];
        program.ops.push_back(g);
        return program;
      }
      default: {  // terminal top-n (two of the six draws)
        rel::TopNOp t;
        t.order_column = KeyColumn(rng, state);
        t.is_double = state.is_double[t.order_column];
        t.ascending = rng.NextBounded(2) == 0;
        t.n = 1 + uint32_t(rng.NextBounded(50));
        program.ops.push_back(t);
        return program;
      }
    }
  }
  return program;
}

class DifferentialSeed : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialSeed, CpuAndFpgaExecutorsAgree) {
  const uint64_t seed = uint64_t(GetParam());
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  rel::SyntheticTableSpec spec;
  spec.num_rows = 500 + rng.NextBounded(3500);
  spec.key_cardinality = 1 + rng.NextBounded(1 << 18);
  spec.num_categories = 1 + rng.NextBounded(64);
  spec.zipf_theta = rng.NextDouble();
  spec.seed = seed;
  const rel::Table table = rel::MakeSyntheticTable(spec);
  // Synthetic schema: id, key, cat int64; price double; qty int64.
  ColumnState state{{false, false, false, true, false},
                    {false, false, true, false, true}};
  const rel::Program program = RandomProgram(rng, state);

  const rel::Table want = rel::reference::ReferenceExecute(program, table);

  auto cpu = rel::ExecuteCpu(program, table);
  ASSERT_TRUE(cpu.ok()) << cpu.status() << " for " << program.ToString();
  EXPECT_TRUE(SameTable(*cpu, want)) << "ExecuteCpu, " << program.ToString();

  rel::FpgaOptions options;
  options.lanes = 1u << rng.NextBounded(3);       // 1 / 2 / 4
  options.stream_depth = 8u << rng.NextBounded(3);  // 8 / 16 / 32
  options.kernel_latency = 1 + uint32_t(rng.NextBounded(6));
  auto fpga = rel::ExecuteFpga(program, table, options);
  ASSERT_TRUE(fpga.ok()) << fpga.status() << " for " << program.ToString();
  EXPECT_TRUE(SameTable(fpga->output, want))
      << "ExecuteFpga, " << program.ToString() << " lanes " << options.lanes;

  // The memory node pushes each page's rows as it arrives: whole rows from
  // raw storage, a rows-per-stored-byte share from compressed storage.
  farview::FarviewSystem farview;
  const uint64_t program_id = farview.RegisterProgram(program);
  for (const bool compressed : {false, true}) {
    const uint64_t table_id = compressed ? farview.LoadTableCompressed(table)
                                         : farview.LoadTable(table);
    auto offloaded = farview.RunOffloaded(table_id, program_id);
    ASSERT_TRUE(offloaded.ok()) << offloaded.status();
    EXPECT_TRUE(SameTable(offloaded->result, want))
        << "RunOffloaded, " << program.ToString()
        << (compressed ? ", compressed" : "");
  }
}

TEST_P(DifferentialSeed, CpuAndFpgaHashJoinsAgree) {
  const uint64_t seed = uint64_t(GetParam());
  Rng rng(seed * 0x2545f4914f6cdd1dull + 7);
  // Unique-key build side (PK-FK join, the contract both executors share).
  const size_t build_rows = 16 + rng.NextBounded(2000);
  rel::Schema dim_schema(
      {{"k", rel::ColumnType::kInt64}, {"payload", rel::ColumnType::kInt64}});
  rel::Table dim(dim_schema);
  dim.Reserve(build_rows);
  for (size_t i = 0; i < build_rows; ++i) {
    rel::Row r;
    r.Set(0, int64_t(i));
    r.Set(1, int64_t(rng.Next() >> 8));
    dim.Append(r);
  }
  rel::SyntheticTableSpec spec;
  spec.num_rows = 200 + rng.NextBounded(3000);
  spec.key_cardinality = 1 + rng.NextBounded(4 * build_rows);
  spec.seed = seed ^ 0xabcdu;
  const rel::Table probe = rel::MakeSyntheticTable(spec);

  const rel::JoinSpec js{0, 1};  // dim.k == probe.key
  const rel::Table want = rel::reference::NestedLoopJoin(dim, probe, js);
  auto cpu = rel::HashJoinCpu(dim, probe, js);
  ASSERT_TRUE(cpu.ok()) << cpu.status();
  EXPECT_TRUE(SameTable(*cpu, want)) << "HashJoinCpu";
  rel::FpgaOptions options;
  options.lanes = 1u << rng.NextBounded(4);  // 1 / 2 / 4 / 8
  auto fpga = rel::HashJoinFpga(dim, probe, js, options);
  ASSERT_TRUE(fpga.ok()) << fpga.status();
  EXPECT_TRUE(SameTable(fpga->output, want))
      << "HashJoinFpga, lanes " << options.lanes;
}

INSTANTIATE_TEST_SUITE_P(Seeds100, DifferentialSeed, ::testing::Range(0, 100));

}  // namespace
}  // namespace fpgadp
