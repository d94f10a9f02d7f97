// The retransmission rule every lossy-fabric protocol shares: net::Retry and
// net::RetryTimer pinned directly, then through RdmaEndpoint, TcpStack and
// KvClient with the first two transmissions of one message dropped.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "src/kvs/smart_kvs.h"
#include "src/net/fabric.h"
#include "src/net/rdma.h"
#include "src/net/retry.h"
#include "src/net/tcp.h"
#include "src/sim/engine.h"

namespace fpgadp::net {
namespace {

Fabric::Config TestFabricConfig() {
  Fabric::Config cfg;
  cfg.bits_per_sec = 100e9;  // 62.5 B/cycle @ 200 MHz
  cfg.clock_hz = 200e6;
  cfg.wire_latency_ns = 1000;
  cfg.header_bytes = 64;
  return cfg;
}

TEST(RetryTimerTest, TimeoutDoublesResendAndRestartKeepTheRto) {
  Fabric fab("fab", 2, TestFabricConfig());
  const Retry policy{.rto_cycles = 500, .max_retries = 3};
  const uint64_t first = 500 + 2 * fab.SerializationCycles(4096);
  RetryTimer t(policy, fab, 4096, /*now=*/100);
  EXPECT_EQ(t.rto(), first);
  EXPECT_EQ(t.due(), 100 + first);
  EXPECT_EQ(t.retries(), 0u);

  // A timeout doubles the RTO and re-arms from the cycle it fired.
  ASSERT_TRUE(t.Timeout(policy, 100 + first));
  EXPECT_EQ(t.rto(), 2 * first);
  EXPECT_EQ(t.due(), 100 + 3 * first);
  EXPECT_EQ(t.retries(), 1u);

  // A NACK or fast retransmit resends at the current RTO.
  ASSERT_TRUE(t.Resend(policy, 5000));
  EXPECT_EQ(t.rto(), 2 * first);
  EXPECT_EQ(t.due(), 5000 + 2 * first);
  EXPECT_EQ(t.retries(), 2u);

  // Progress restarts the deadline at the current RTO and is no resend.
  t.Restart(6000);
  EXPECT_EQ(t.rto(), 2 * first);
  EXPECT_EQ(t.due(), 6000 + 2 * first);
  EXPECT_EQ(t.retries(), 2u);

  // The third resend is the last one the policy allows; after it, a
  // timeout or a resend fails the message and leaves the timer as it was.
  ASSERT_TRUE(t.Timeout(policy, 7000));
  EXPECT_EQ(t.rto(), 4 * first);
  EXPECT_EQ(t.due(), 7000 + 4 * first);
  EXPECT_FALSE(t.Timeout(policy, 8000));
  EXPECT_FALSE(t.Resend(policy, 8000));
  EXPECT_EQ(t.rto(), 4 * first);
  EXPECT_EQ(t.due(), 7000 + 4 * first);
  EXPECT_EQ(t.retries(), 3u);
}

TEST(RetryTimerTest, FailsAfterExactlyMaxRetriesResends) {
  Fabric fab("fab", 2, TestFabricConfig());
  for (uint32_t max_retries : {0u, 1u, 2u, 8u, 32u}) {
    const Retry policy{.rto_cycles = 100000, .max_retries = max_retries};
    const uint64_t first = 100000 + 2 * fab.SerializationCycles(0);
    RetryTimer timeouts(policy, fab, 0, 0);
    RetryTimer resends(policy, fab, 0, 0);
    uint32_t done = 0;
    while (timeouts.Timeout(policy, timeouts.due())) {
      ++done;
      // Each timeout doubles exactly: the RTO is first x 2^done.
      ASSERT_EQ(timeouts.rto(), first << done);
    }
    EXPECT_EQ(done, max_retries);
    EXPECT_EQ(timeouts.retries(), max_retries);
    done = 0;
    while (resends.Resend(policy, resends.due())) ++done;
    EXPECT_EQ(done, max_retries);
    EXPECT_EQ(resends.rto(), first);
  }
}

// ---------------------------------------------------------------------------
// The same rule through each protocol.

constexpr uint64_t kRto = 700;

/// When node 0 first sent a message and when its protocol's timer fired.
struct Timeline {
  sim::Cycle first_sent = 0;
  std::vector<sim::Cycle> timeouts;
};

/// Steps `e` while node 0 sends one message of `kind` to node 1. Scheduled
/// `inj` entries drop its first transmission and its first retransmission,
/// so nothing reaches node 1 before two timeouts fire. `retransmits` reads
/// the protocol's retransmission counter, which rises on the cycle a timer
/// fires.
Timeline DropTwice(sim::Engine& e, Fabric& fab, FaultInjector& inj,
                   OpKind kind, const std::function<uint64_t()>& retransmits) {
  inj.Schedule({/*cycle=*/0, /*src=*/0, /*dst=*/1, FaultKind::kDrop,
                int(kind)});
  const uint64_t pushed = fab.egress(0).TotalPushed();
  bool sent = false;
  Timeline t;
  for (int guard = 0; t.timeouts.size() < 2 && guard < (1 << 20); ++guard) {
    const sim::Cycle now = e.now();
    const uint64_t before = retransmits();
    e.Step();
    if (!sent && fab.egress(0).TotalPushed() > pushed) {
      sent = true;
      t.first_sent = now;
      // The fabric picks the packet up next cycle; an entry armed after
      // that matches only the retransmission.
      inj.Schedule({now + 2, 0, 1, FaultKind::kDrop, int(kind)});
    }
    if (retransmits() > before) t.timeouts.push_back(now);
  }
  return t;
}

/// The first timeout comes one RTO after the first transmission, and the
/// second one doubled RTO after that.
void ExpectRetryLadder(const Timeline& t, uint64_t first_rto) {
  ASSERT_EQ(t.timeouts.size(), 2u);
  EXPECT_EQ(t.timeouts[0] - t.first_sent, first_rto);
  EXPECT_EQ(t.timeouts[1] - t.timeouts[0], 2 * first_rto);
}

TEST(RetryProtocolTest, RdmaEndpointFollowsTheRetryLadder) {
  FaultInjector inj(FaultInjector::Config{});
  Fabric fab("fab", 2, TestFabricConfig());
  fab.set_fault_injector(&inj);
  const Retry retry{.rto_cycles = kRto};
  RdmaEndpoint a("a", 0, &fab, retry);
  RdmaEndpoint b("b", 1, &fab, retry);
  sim::Engine e;
  fab.RegisterWith(e);
  e.AddModule(&a);
  e.AddModule(&b);
  const uint64_t bytes = 4096;
  a.PostSend(1, bytes, /*tag=*/7);
  const Timeline t =
      DropTwice(e, fab, inj, OpKind::kSend, [&] { return a.retransmits(); });
  ExpectRetryLadder(t, kRto + 2 * fab.SerializationCycles(bytes));

  ASSERT_TRUE(e.Run(1 << 22).ok());
  Packet got;
  ASSERT_TRUE(b.PollRecv(&got));
  EXPECT_EQ(got.tag, 7u);
  EXPECT_EQ(a.retransmits(), 2u);
  EXPECT_EQ(inj.fault_count(FaultKind::kDrop), 2u);
}

TEST(RetryProtocolTest, TcpStackFollowsTheRetryLadder) {
  FaultInjector inj(FaultInjector::Config{});
  Fabric fab("fab", 2, TestFabricConfig());
  fab.set_fault_injector(&inj);
  const Retry retry{.rto_cycles = kRto};
  TcpStack a("a", 0, &fab, TcpStack::Config{}, retry);
  TcpStack b("b", 1, &fab, TcpStack::Config{}, retry);
  sim::Engine e;
  fab.RegisterWith(e);
  e.AddModule(&a);
  e.AddModule(&b);
  // Handshake first, so the data segment is the only packet node 0 sends.
  a.Connect(1);
  for (int guard = 0; !a.Connected(1) && guard < (1 << 16); ++guard) e.Step();
  ASSERT_TRUE(a.Connected(1));
  const uint64_t bytes = 4096;  // one MSS-sized segment
  a.Send(1, bytes);
  const Timeline t =
      DropTwice(e, fab, inj, OpKind::kTcpData, [&] { return a.retransmits(); });
  ExpectRetryLadder(t, kRto + 2 * fab.SerializationCycles(bytes));

  ASSERT_TRUE(e.Run(1 << 22).ok());
  EXPECT_EQ(b.Readable(0), bytes);
  EXPECT_EQ(a.retransmits(), 2u);
  EXPECT_EQ(a.fast_retransmits(), 0u);
  EXPECT_EQ(inj.fault_count(FaultKind::kDrop), 2u);
}

TEST(RetryProtocolTest, KvClientFollowsTheRetryLadder) {
  FaultInjector inj(FaultInjector::Config{});
  Fabric fab("fab", 2, TestFabricConfig());
  fab.set_fault_injector(&inj);
  kvs::SmartNicKvs server("kvs", 1, &fab, kvs::SmartNicKvs::Config{});
  kvs::KvClient client("cli", 0, 1, &fab, Retry{.rto_cycles = kRto});
  sim::Engine e;
  fab.RegisterWith(e);
  server.RegisterWith(e);
  e.AddModule(&client);
  client.Put(/*key=*/1, /*value=*/2, /*tag=*/0);
  const uint64_t bytes = 64;  // a PUT request carries its value
  const Timeline t =
      DropTwice(e, fab, inj, OpKind::kSend, [&] { return client.retries(); });
  ExpectRetryLadder(t, kRto + 2 * fab.SerializationCycles(bytes));

  ASSERT_TRUE(e.Run(1 << 22).ok());
  EXPECT_EQ(client.responses_received(), 1u);
  EXPECT_EQ(client.retries(), 2u);
  EXPECT_EQ(inj.fault_count(FaultKind::kDrop), 2u);
}

}  // namespace
}  // namespace fpgadp::net
