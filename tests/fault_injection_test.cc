// Fault-injection coverage: every FaultKind against every reliability
// protocol (RDMA RC, TCP, KVS at-least-once, Farview offload, ACCL
// collectives), the retry-cap failure paths, and cycle-determinism of
// recovery (same seed => bit-identical completion cycles).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "src/accl/collectives.h"
#include "src/farview/farview.h"
#include "src/kvs/smart_kvs.h"
#include "src/net/fabric.h"
#include "src/net/rdma.h"
#include "src/net/tcp.h"
#include "src/obs/metrics.h"
#include "src/relational/table.h"
#include "src/sim/engine.h"

namespace fpgadp {
namespace {

using net::Fabric;
using net::FaultInjector;
using net::FaultKind;
using net::OpKind;
using net::Packet;
using net::RdmaEndpoint;
using net::TcpStack;

Fabric::Config TestFabricConfig() {
  Fabric::Config cfg;
  cfg.bits_per_sec = 100e9;  // 62.5 B/cycle @ 200 MHz
  cfg.clock_hz = 200e6;
  cfg.wire_latency_ns = 1000;
  cfg.header_bytes = 64;
  return cfg;
}

// ---------------------------------------------------------------------------
// FaultInjector unit behaviour.

Packet MakePacket(uint32_t src, uint32_t dst, uint64_t bytes) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.bytes = bytes;
  return p;
}

TEST(FaultInjectorTest, SameSeedSameDecisionStream) {
  FaultInjector::Config cfg;
  cfg.seed = 99;
  cfg.drop_rate = 0.2;
  cfg.corrupt_rate = 0.2;
  cfg.duplicate_rate = 0.2;
  cfg.delay_rate = 0.2;
  FaultInjector a(cfg), b(cfg);
  bool diverged_from_other_seed = false;
  cfg.seed = 100;
  FaultInjector other(cfg);
  for (int i = 0; i < 200; ++i) {
    const Packet p = MakePacket(0, 1, 4096);
    const auto da = a.OnPacket(i, p);
    const auto db = b.OnPacket(i, p);
    EXPECT_EQ(da.drop, db.drop);
    EXPECT_EQ(da.corrupt, db.corrupt);
    EXPECT_EQ(da.duplicate, db.duplicate);
    EXPECT_EQ(da.extra_delay_cycles, db.extra_delay_cycles);
    const auto dc = other.OnPacket(i, p);
    if (dc.drop != da.drop || dc.corrupt != da.corrupt) {
      diverged_from_other_seed = true;
    }
  }
  EXPECT_EQ(a.total_faults(), b.total_faults());
  EXPECT_TRUE(diverged_from_other_seed);
}

TEST(FaultInjectorTest, ScheduledEntryFiresOnceOnMatchingLink) {
  FaultInjector inj(FaultInjector::Config{});
  inj.Schedule({/*cycle=*/50, /*src=*/0, /*dst=*/1, FaultKind::kDrop});
  // Before the scheduled cycle, and on the wrong link, nothing fires.
  EXPECT_FALSE(inj.OnPacket(10, MakePacket(0, 1, 64)).drop);
  EXPECT_FALSE(inj.OnPacket(60, MakePacket(1, 0, 64)).drop);
  // First matching pickup at/after the cycle fires; it is one-shot.
  EXPECT_TRUE(inj.OnPacket(60, MakePacket(0, 1, 64)).drop);
  EXPECT_FALSE(inj.OnPacket(61, MakePacket(0, 1, 64)).drop);
  EXPECT_EQ(inj.fault_count(FaultKind::kDrop), 1u);
  EXPECT_EQ(inj.total_faults(), 1u);
}

TEST(FaultInjectorTest, LinkFlapTakesLinkDownForWindow) {
  FaultInjector::Config cfg;
  cfg.flap_down_cycles = 500;
  FaultInjector inj(cfg);
  inj.Schedule({/*cycle=*/0, /*src=*/0, /*dst=*/1, FaultKind::kLinkFlap});
  // The triggering packet is dropped and the link goes down.
  EXPECT_TRUE(inj.OnPacket(100, MakePacket(0, 1, 64)).drop);
  EXPECT_TRUE(inj.LinkDown(100, 0, 1));
  EXPECT_TRUE(inj.LinkDown(599, 0, 1));
  EXPECT_FALSE(inj.LinkDown(600, 0, 1));
  // The reverse direction is a different link.
  EXPECT_FALSE(inj.LinkDown(100, 1, 0));
  // Packets offered to the down link are casualties, counted as flap faults.
  EXPECT_TRUE(inj.OnPacket(300, MakePacket(0, 1, 64)).drop);
  EXPECT_GE(inj.fault_count(FaultKind::kLinkFlap), 2u);
}

// ---------------------------------------------------------------------------
// RDMA reliable-connection recovery, one fault kind at a time.

struct LossyRdmaPair {
  FaultInjector inj;
  Fabric fab{"fab", 2, TestFabricConfig()};
  RdmaEndpoint a;
  RdmaEndpoint b;
  sim::Engine e;

  explicit LossyRdmaPair(
      const FaultInjector::Config& cfg,
      const net::Retry& rel = net::Retry())
      : inj(cfg), a("a", 0, &fab, rel), b("b", 1, &fab, rel) {
    fab.set_fault_injector(&inj);
    fab.RegisterWith(e);
    e.AddModule(&a);
    e.AddModule(&b);
  }

  // Posts `n` alternating writes/reads of 4 KiB from a to b.
  void PostMixed(int n) {
    for (int i = 0; i < n; ++i) {
      if (i % 2 == 0) {
        a.PostWrite(1, uint64_t(i) * 4096, 4096, 100 + uint64_t(i));
      } else {
        a.PostRead(1, uint64_t(i) * 4096, 4096, 100 + uint64_t(i));
      }
    }
  }

  // Runs to quiescence and returns a's completions in arrival order.
  std::vector<net::Completion> Drain() {
    EXPECT_TRUE(e.Run(1 << 24).ok());
    std::vector<net::Completion> out;
    net::Completion c;
    while (a.PollCompletion(&c)) out.push_back(c);
    return out;
  }
};

void ExpectAllOk(const std::vector<net::Completion>& cs, int n) {
  ASSERT_EQ(cs.size(), size_t(n));
  for (const auto& c : cs) EXPECT_EQ(c.status, StatusCode::kOk);
}

TEST(RdmaFaultTest, RecoversFromDrops) {
  FaultInjector::Config cfg;
  cfg.seed = 7;
  cfg.drop_rate = 0.05;
  LossyRdmaPair p(cfg);
  p.PostMixed(24);
  ExpectAllOk(p.Drain(), 24);
  EXPECT_GT(p.fab.packets_dropped(), 0u);
  EXPECT_GT(p.a.retransmits() + p.b.retransmits(), 0u);
  EXPECT_FALSE(p.a.failed());
}

TEST(RdmaFaultTest, RecoversFromCorruptionViaNack) {
  FaultInjector::Config cfg;
  cfg.seed = 11;
  cfg.corrupt_rate = 0.1;
  LossyRdmaPair p(cfg);
  p.PostMixed(24);
  ExpectAllOk(p.Drain(), 24);
  EXPECT_GT(p.inj.fault_count(FaultKind::kCorrupt), 0u);
  EXPECT_GT(p.a.nacks_sent() + p.b.nacks_sent(), 0u);
}

TEST(RdmaFaultTest, DiscardsDuplicatesExactlyOnce) {
  FaultInjector::Config cfg;
  cfg.seed = 13;
  cfg.duplicate_rate = 0.3;
  LossyRdmaPair p(cfg);
  p.PostMixed(20);
  // Exactly 20 completions despite the switch emitting copies: the
  // receive window consumes each sequence number once.
  ExpectAllOk(p.Drain(), 20);
  EXPECT_GT(p.inj.fault_count(FaultKind::kDuplicate), 0u);
  EXPECT_GT(p.a.duplicates_discarded() + p.b.duplicates_discarded(), 0u);
}

TEST(RdmaFaultTest, AbsorbsDelaySpikes) {
  FaultInjector::Config cfg;
  cfg.seed = 17;
  cfg.delay_rate = 0.2;
  cfg.delay_spike_cycles = 3000;
  LossyRdmaPair p(cfg);
  p.PostMixed(24);
  ExpectAllOk(p.Drain(), 24);
  EXPECT_GT(p.inj.fault_count(FaultKind::kDelay), 0u);
}

TEST(RdmaFaultTest, RidesOutLinkFlap) {
  FaultInjector::Config cfg;
  cfg.seed = 19;
  cfg.flap_down_cycles = 2000;
  LossyRdmaPair p(cfg);
  p.inj.Schedule({/*cycle=*/0, /*src=*/0, /*dst=*/1, FaultKind::kLinkFlap});
  p.PostMixed(8);
  ExpectAllOk(p.Drain(), 8);
  EXPECT_GT(p.inj.fault_count(FaultKind::kLinkFlap), 0u);
  EXPECT_GT(p.a.retransmits(), 0u);
}

TEST(RdmaFaultTest, ScheduledDropOfFirstPacketIsRetransmitted) {
  LossyRdmaPair p(FaultInjector::Config{});
  p.inj.Schedule({/*cycle=*/0, /*src=*/0, /*dst=*/1, FaultKind::kDrop});
  p.a.PostWrite(1, 0, 4096, 42);
  const auto cs = p.Drain();
  ExpectAllOk(cs, 1);
  EXPECT_EQ(cs[0].tag, 42u);
  EXPECT_EQ(p.inj.fault_count(FaultKind::kDrop), 1u);
  EXPECT_EQ(p.a.retransmits(), 1u);
}

TEST(RdmaFaultTest, RetryCapYieldsUnavailableCompletion) {
  FaultInjector::Config cfg;
  cfg.drop_rate = 1.0;  // the link is dead
  net::Retry rel;
  rel.rto_cycles = 200;
  rel.max_retries = 3;
  LossyRdmaPair p(cfg, rel);
  p.a.PostWrite(1, 0, 4096, 7);
  const auto cs = p.Drain();
  ASSERT_EQ(cs.size(), 1u);
  EXPECT_EQ(cs[0].status, StatusCode::kUnavailable);
  EXPECT_EQ(cs[0].kind, OpKind::kWrite);  // names the abandoned request
  EXPECT_EQ(cs[0].tag, 7u);
  EXPECT_TRUE(p.a.failed());
  EXPECT_EQ(p.a.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(p.a.retransmits(), 3u);
}

TEST(RdmaFaultTest, SameSeedSameCompletionCycles) {
  FaultInjector::Config cfg;
  cfg.seed = 23;
  cfg.drop_rate = 0.03;
  cfg.corrupt_rate = 0.03;
  cfg.duplicate_rate = 0.03;
  cfg.delay_rate = 0.03;
  auto run = [&cfg] {
    LossyRdmaPair p(cfg);
    p.PostMixed(24);
    std::vector<std::pair<uint64_t, sim::Cycle>> out;
    for (const auto& c : p.Drain()) out.push_back({c.tag, c.at});
    return out;
  };
  const auto first = run();
  const auto second = run();
  ASSERT_EQ(first.size(), 24u);
  EXPECT_EQ(first, second);  // bit-identical recovery, cycle for cycle
}

// Acceptance: 1% drop, mixed one-sided ops, everything completes correctly.
TEST(RdmaFaultTest, OnePercentDropAcceptance) {
  FaultInjector::Config cfg;
  cfg.seed = 1;
  cfg.drop_rate = 0.01;
  LossyRdmaPair p(cfg);
  p.PostMixed(40);
  const auto cs = p.Drain();
  ExpectAllOk(cs, 40);
  // Every posted tag completed exactly once.
  std::vector<uint64_t> tags;
  for (const auto& c : cs) tags.push_back(c.tag);
  std::sort(tags.begin(), tags.end());
  for (int i = 0; i < 40; ++i) EXPECT_EQ(tags[i], 100 + uint64_t(i));
  EXPECT_FALSE(p.a.failed());
}

// ---------------------------------------------------------------------------
// TCP retransmission, dup/ooo handling, and failure path.

struct LossyTcpPair {
  FaultInjector inj;
  Fabric fab{"fab", 2, TestFabricConfig()};
  TcpStack a;
  TcpStack b;
  sim::Engine e;

  explicit LossyTcpPair(
      const FaultInjector::Config& cfg,
      const net::Retry& rel = net::Retry())
      : inj(cfg), a("a", 0, &fab, TcpStack::Config{}, rel),
        b("b", 1, &fab, TcpStack::Config{}, rel) {
    fab.set_fault_injector(&inj);
    fab.RegisterWith(e);
    e.AddModule(&a);
    e.AddModule(&b);
  }

  // Steps until b holds `total` in-order bytes from a; returns cycles.
  uint64_t RunUntilDelivered(uint64_t total, uint64_t max = 1 << 24) {
    uint64_t cycles = 0;
    while (b.Readable(0) < total && cycles < max && !a.failed()) {
      e.Step();
      ++cycles;
    }
    return cycles;
  }
};

TEST(TcpFaultTest, RetransmitsThroughDrops) {
  FaultInjector::Config cfg;
  cfg.seed = 29;
  cfg.drop_rate = 0.05;
  LossyTcpPair p(cfg);
  const uint64_t total = 200 * 1024;
  p.a.Send(1, total);
  p.RunUntilDelivered(total);
  EXPECT_EQ(p.b.Readable(0), total);
  EXPECT_GT(p.a.retransmits() + p.a.fast_retransmits(), 0u);
  EXPECT_FALSE(p.a.failed());
}

TEST(TcpFaultTest, CorruptSegmentsAreDiscardedAndResent) {
  FaultInjector::Config cfg;
  cfg.seed = 31;
  cfg.corrupt_rate = 0.08;
  LossyTcpPair p(cfg);
  const uint64_t total = 200 * 1024;
  p.a.Send(1, total);
  p.RunUntilDelivered(total);
  EXPECT_EQ(p.b.Readable(0), total);
  EXPECT_GT(p.b.corrupt_discarded() + p.a.corrupt_discarded(), 0u);
}

TEST(TcpFaultTest, DuplicateSegmentsDoNotInflateByteCount) {
  FaultInjector::Config cfg;
  cfg.seed = 37;
  cfg.duplicate_rate = 0.3;
  LossyTcpPair p(cfg);
  const uint64_t total = 150 * 1024;
  p.a.Send(1, total);
  p.RunUntilDelivered(total);
  // Exact: duplicated segments must not be double-counted.
  EXPECT_EQ(p.b.Readable(0), total);
  EXPECT_GT(p.inj.fault_count(FaultKind::kDuplicate), 0u);
}

TEST(TcpFaultTest, DelaySpikesReorderAndAreBuffered) {
  FaultInjector::Config cfg;
  cfg.seed = 41;
  cfg.delay_rate = 0.25;
  cfg.delay_spike_cycles = 3000;
  LossyTcpPair p(cfg);
  const uint64_t total = 250 * 1024;  // ~62 MSS segments
  p.a.Send(1, total);
  p.RunUntilDelivered(total);
  EXPECT_EQ(p.b.Readable(0), total);
  // A 3000-cycle spike pushes a segment behind several successors, so the
  // receiver must have buffered out-of-order data.
  EXPECT_GT(p.b.ooo_buffered(), 0u);
}

TEST(TcpFaultTest, DeadLinkFailsConnectionWithUnavailable) {
  FaultInjector::Config cfg;
  cfg.drop_rate = 1.0;
  net::Retry rel;
  rel.rto_cycles = 200;
  rel.max_retries = 3;
  LossyTcpPair p(cfg, rel);
  p.a.Send(1, 64 * 1024);
  uint64_t guard = 0;
  while (!p.a.failed() && guard++ < (1 << 22)) p.e.Step();
  EXPECT_TRUE(p.a.failed());
  EXPECT_EQ(p.a.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(p.b.Readable(0), 0u);
}

TEST(TcpFaultTest, SameSeedSameDeliveryCycle) {
  FaultInjector::Config cfg;
  cfg.seed = 43;
  cfg.drop_rate = 0.02;
  cfg.delay_rate = 0.05;
  auto run = [&cfg] {
    LossyTcpPair p(cfg);
    const uint64_t total = 120 * 1024;
    p.a.Send(1, total);
    const uint64_t cycles = p.RunUntilDelivered(total);
    EXPECT_EQ(p.b.Readable(0), total);
    return cycles;
  };
  EXPECT_EQ(run(), run());
}

// Acceptance: a TCP transfer across a 1%-drop fabric completes exactly.
TEST(TcpFaultTest, OnePercentDropAcceptance) {
  FaultInjector::Config cfg;
  cfg.seed = 1;
  cfg.drop_rate = 0.01;
  LossyTcpPair p(cfg);
  const uint64_t total = 300 * 1024;
  p.a.Send(1, total);
  p.RunUntilDelivered(total);
  EXPECT_EQ(p.b.Readable(0), total);
  EXPECT_EQ(p.b.Read(0, total), total);
  EXPECT_FALSE(p.a.failed());
}

// ---------------------------------------------------------------------------
// KVS at-least-once client/server under faults.

struct LossyKvs {
  FaultInjector inj;
  Fabric fab{"fab", 2, TestFabricConfig()};
  kvs::SmartNicKvs server;
  kvs::KvClient client;
  sim::Engine e;

  explicit LossyKvs(const FaultInjector::Config& cfg,
                    const net::Retry& retry = net::Retry())
      : inj(cfg), server("kvs", 1, &fab, kvs::SmartNicKvs::Config{}),
        client("cli", 0, 1, &fab, retry) {
    fab.set_fault_injector(&inj);
    fab.RegisterWith(e);
    server.RegisterWith(e);
    e.AddModule(&client);
  }
};

TEST(KvsFaultTest, RetriesDeliverEveryResponse) {
  FaultInjector::Config cfg;
  cfg.seed = 47;
  cfg.drop_rate = 0.03;
  cfg.corrupt_rate = 0.03;
  LossyKvs k(cfg);
  const int ops = 40;
  for (int i = 0; i < ops; ++i) {
    if (i % 2 == 0) {
      k.client.Put(uint64_t(i), uint64_t(i) * 10, /*tag=*/uint64_t(i));
    } else {
      k.client.Get(uint64_t(i - 1), /*tag=*/uint64_t(i));
    }
  }
  uint64_t guard = 0;
  while (k.client.responses_received() < uint64_t(ops) &&
         guard++ < (1 << 22)) {
    k.e.Step();
  }
  EXPECT_EQ(k.client.responses_received(), uint64_t(ops));
  EXPECT_FALSE(k.client.failed());
  // The injected faults actually exercised the retry machinery.
  EXPECT_GT(k.client.retries() + k.client.corrupt_discarded() +
                k.server.corrupt_discarded(),
            0u);
  // Idempotent at-least-once: a GET after the dust settles sees the PUT.
  net::Packet resp;
  int get_hits = 0;
  while (k.client.PollResponse(&resp)) {
    if (resp.user == uint64_t(kvs::KvOp::kGetResp) && resp.bytes > 0) {
      ++get_hits;
    }
  }
  EXPECT_GT(get_hits, 0);
}

TEST(KvsFaultTest, DeadLinkLatchesUnavailable) {
  FaultInjector::Config cfg;
  cfg.drop_rate = 1.0;
  net::Retry retry;
  retry.rto_cycles = 200;
  retry.max_retries = 2;
  LossyKvs k(cfg, retry);
  k.client.Put(1, 2, /*tag=*/0);
  uint64_t guard = 0;
  while (!k.client.failed() && guard++ < (1 << 22)) k.e.Step();
  EXPECT_TRUE(k.client.failed());
  EXPECT_EQ(k.client.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(k.client.responses_received(), 0u);
}

// ---------------------------------------------------------------------------
// Farview offload across a lossy fabric.

rel::Table SmallTable() {
  rel::SyntheticTableSpec spec;
  spec.num_rows = 2000;
  spec.seed = 5;
  return rel::MakeSyntheticTable(spec);
}

rel::Program FilterProgram() {
  rel::Program p;
  rel::FilterOp f;
  f.conjuncts.push_back(rel::Predicate{4, rel::CmpOp::kGe, 25});
  p.ops.push_back(f);
  return p;
}

TEST(FarviewFaultTest, OffloadSurvivesDropsWithIdenticalResult) {
  // Loss-free reference.
  farview::FarviewSystem clean;
  const uint64_t ct = clean.LoadTable(SmallTable());
  const uint64_t cp = clean.RegisterProgram(FilterProgram());
  auto clean_stats = clean.RunOffloaded(ct, cp);
  ASSERT_TRUE(clean_stats.ok());

  farview::FarviewSystem lossy;
  FaultInjector::Config cfg;
  cfg.seed = 53;
  cfg.drop_rate = 0.01;
  FaultInjector inj(cfg);
  lossy.set_fault_injector(&inj);
  const uint64_t lt = lossy.LoadTable(SmallTable());
  const uint64_t lp = lossy.RegisterProgram(FilterProgram());
  auto lossy_stats = lossy.RunOffloaded(lt, lp);
  ASSERT_TRUE(lossy_stats.ok()) << lossy_stats.status();
  // Faults cost time, never answers.
  EXPECT_EQ(lossy_stats->result.num_rows(), clean_stats->result.num_rows());
  EXPECT_GE(lossy_stats->cycles, clean_stats->cycles);
}

TEST(FarviewFaultTest, DeadLinkSurfacesUnavailable) {
  farview::FarviewConfig cfg;
  cfg.reliability.rto_cycles = 200;
  cfg.reliability.max_retries = 2;
  farview::FarviewSystem sys(cfg);
  FaultInjector::Config fcfg;
  fcfg.drop_rate = 1.0;
  FaultInjector inj(fcfg);
  sys.set_fault_injector(&inj);
  const uint64_t t = sys.LoadTable(SmallTable());
  const uint64_t p = sys.RegisterProgram(FilterProgram());
  auto stats = sys.RunOffloaded(t, p);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kUnavailable);
}

// ---------------------------------------------------------------------------
// ACCL collectives: bounded retry, partial outcomes, and the timeout path.

TEST(AcclFaultTest, WholeScheduleRetrySucceedsAfterInjectedFailure) {
  accl::Communicator comm(4);
  FaultInjector::Config cfg;
  FaultInjector inj(cfg);
  // No retransmissions allowed: the one scheduled drop fails attempt 1
  // outright. The entry is one-shot, so attempt 2 runs fault-free.
  inj.Schedule({/*cycle=*/0, FaultInjector::kAnyNode, FaultInjector::kAnyNode,
                FaultKind::kDrop});
  comm.set_fault_injector(&inj);
  net::Retry rel;
  rel.max_retries = 0;  // base RTO stays default, comfortably above the RTT
  comm.set_retry(rel);
  comm.set_max_attempts(3);
  std::vector<std::vector<float>> bufs(4, std::vector<float>(1024, 0.f));
  for (size_t i = 0; i < bufs[0].size(); ++i) bufs[0][i] = float(i);
  auto stats = comm.Broadcast(0, bufs);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->attempts, 2u);
  EXPECT_TRUE(comm.last_outcome().status.ok());
  EXPECT_EQ(comm.last_outcome().attempts, 2u);
  EXPECT_EQ(comm.last_outcome().ranks_completed, 4u);
  for (const auto& b : bufs) EXPECT_EQ(b, bufs[0]);
}

TEST(AcclFaultTest, ExhaustedAttemptsReportPartialOutcome) {
  accl::Communicator comm(4);
  FaultInjector::Config cfg;
  cfg.drop_rate = 1.0;
  FaultInjector inj(cfg);
  comm.set_fault_injector(&inj);
  net::Retry rel;
  rel.rto_cycles = 200;
  rel.max_retries = 1;
  comm.set_retry(rel);
  comm.set_max_attempts(2);
  std::vector<std::vector<float>> bufs(4, std::vector<float>(256, 1.f));
  auto stats = comm.Broadcast(0, bufs);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kUnavailable);
  const auto& outcome = comm.last_outcome();
  EXPECT_EQ(outcome.attempts, 2u);
  EXPECT_EQ(outcome.status.code(), StatusCode::kUnavailable);
  EXPECT_LT(outcome.ranks_completed, 4u);
  EXPECT_EQ(outcome.rank_done.size(), 4u);
}

// Regression for the RunSchedule timeout path (`collective did not
// complete`): a loss-free schedule that cannot finish inside max_cycles
// must surface Status::Timeout, not hang or report success.
TEST(AcclFaultTest, TimeoutPathReportsTimeout) {
  accl::Communicator comm(4);
  comm.set_max_cycles(10);  // far below one wire latency
  std::vector<std::vector<float>> bufs(4, std::vector<float>(1024, 1.f));
  auto stats = comm.Broadcast(0, bufs);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kTimeout);
  EXPECT_NE(stats.status().message().find("did not complete"),
            std::string::npos);
  EXPECT_EQ(comm.last_outcome().status.code(), StatusCode::kTimeout);
}

TEST(AcclFaultTest, CollectiveCompletesOverLossyTcpTransport) {
  accl::Communicator comm(4, net::Fabric::Config{}, 200e6,
                          accl::Transport::kTcp);
  FaultInjector::Config cfg;
  cfg.seed = 61;
  cfg.drop_rate = 0.005;
  FaultInjector inj(cfg);
  comm.set_fault_injector(&inj);
  std::vector<std::vector<float>> bufs(4, std::vector<float>(2048, 0.f));
  for (size_t i = 0; i < bufs[1].size(); ++i) bufs[1][i] = float(i);
  auto stats = comm.Broadcast(1, bufs);
  ASSERT_TRUE(stats.ok()) << stats.status();
  for (const auto& b : bufs) EXPECT_EQ(b, bufs[1]);
}

// ---------------------------------------------------------------------------
// Observability: fault counts land in the metrics registry.

TEST(FaultMetricsTest, InjectorCountsExportAsGauges) {
  FaultInjector::Config cfg;
  cfg.seed = 67;
  cfg.drop_rate = 0.1;
  cfg.corrupt_rate = 0.1;
  LossyRdmaPair p(cfg);
  p.PostMixed(24);
  ExpectAllOk(p.Drain(), 24);

  obs::MetricsRegistry registry;
  p.fab.ExportCustomMetrics(registry);
  const obs::Gauge* drops = registry.FindGauge("net.fab.faults.drop");
  ASSERT_NE(drops, nullptr);
  EXPECT_EQ(drops->value(),
            double(p.inj.fault_count(FaultKind::kDrop)));
  const obs::Gauge* dropped = registry.FindGauge("net.fab.packets_dropped");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->value(), double(p.fab.packets_dropped()));
  EXPECT_GT(dropped->value(), 0.0);
  // Endpoint protocol counters export too.
  obs::MetricsRegistry ep;
  p.a.ExportCustomMetrics(ep);
  ASSERT_NE(ep.FindGauge("net.a.retransmits"), nullptr);
}

}  // namespace
}  // namespace fpgadp
