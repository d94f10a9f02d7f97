#ifndef FPGADP_NET_RETRY_H_
#define FPGADP_NET_RETRY_H_

#include <cstdint>

#include "src/net/fabric.h"
#include "src/sim/module.h"

namespace fpgadp::net {

/// The retransmission policy of every protocol that recovers lost messages
/// on a lossy fabric (Fabric::lossy()): RdmaEndpoint's sequenced packets,
/// TcpStack's segments and SYNs, and KvClient's requests. It is the rule the
/// hardware RDMA and TCP stacks the tutorial cites implement; RetryTimer
/// applies it to one message.
struct Retry {
  /// Base retransmission timeout. A message's first timeout adds twice its
  /// serialization time, so a 1 MiB write is not declared lost while it is
  /// still on the wire.
  uint64_t rto_cycles = 2000;
  uint32_t max_retries = 8;  ///< Resends before the message fails.
};

/// One message's retransmission timer under a Retry policy:
///
///  * the first timeout is due `rto_cycles` + 2 x the message's
///    serialization cycles after its first transmission;
///  * a timeout doubles the RTO and resends;
///  * a NACK or a TCP fast retransmit resends at the current RTO;
///  * progress from the peer restarts the timer at the current RTO, since
///    messages still waiting are queued behind it, not lost;
///  * a message that has spent its `max_retries` resends fails on its next
///    timeout or resend instead.
class RetryTimer {
 public:
  RetryTimer() = default;
  /// Arms the first timeout of a `bytes`-payload message sent at `now`.
  RetryTimer(const Retry& policy, const Fabric& fabric, uint64_t bytes,
             sim::Cycle now)
      : rto_(policy.rto_cycles + 2 * fabric.SerializationCycles(bytes)),
        due_(now + rto_) {}

  sim::Cycle due() const { return due_; }
  uint64_t rto() const { return rto_; }
  uint32_t retries() const { return retries_; }

  /// The timer expired at `now`. Returns false when the message has spent
  /// its resends (the caller fails it); otherwise doubles the RTO, re-arms
  /// and returns true (the caller resends).
  bool Timeout(const Retry& policy, sim::Cycle now) {
    return Rearm(policy, now, 2 * rto_);
  }
  /// A NACK or fast retransmit at `now`: as Timeout, but the RTO stays.
  bool Resend(const Retry& policy, sim::Cycle now) {
    return Rearm(policy, now, rto_);
  }
  /// Progress from the peer at `now`: the next timeout is one RTO away.
  void Restart(sim::Cycle now) { due_ = now + rto_; }

 private:
  bool Rearm(const Retry& policy, sim::Cycle now, uint64_t rto) {
    if (retries_ >= policy.max_retries) return false;
    ++retries_;
    rto_ = rto;
    due_ = now + rto_;
    return true;
  }

  uint64_t rto_ = 0;
  sim::Cycle due_ = 0;
  uint32_t retries_ = 0;
};

}  // namespace fpgadp::net

#endif  // FPGADP_NET_RETRY_H_
