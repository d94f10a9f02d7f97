#ifndef FPGADP_NET_RDMA_H_
#define FPGADP_NET_RDMA_H_

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>

#include "src/common/status.h"
#include "src/net/fabric.h"
#include "src/net/retry.h"
#include "src/sim/module.h"

namespace fpgadp::net {

/// A completed verb, polled from the endpoint's completion queue.
struct Completion {
  uint64_t tag = 0;
  OpKind kind = OpKind::kSend;
  uint32_t peer = 0;
  uint64_t bytes = 0;
  sim::Cycle at = 0;  ///< Cycle at which the completion was generated.
  /// kOk on success; kUnavailable when the op was abandoned after the
  /// retransmission retry cap (kind then names the original request).
  StatusCode status = StatusCode::kOk;
};

/// Verbs-style RDMA endpoint ("one queue pair per peer" collapsed into a
/// single QP, which is what the open-source FPGA RDMA stacks the tutorial
/// cites expose to HLS kernels). Reliable-connection semantics:
///
///  * PostSend   — two-sided; remote side receives a Packet, local side
///                 completes when the NIC serializes the message (loss-free
///                 fabric) or when the link-level ACK returns (lossy fabric).
///  * PostRead   — one-sided; header-only request travels to the target,
///                 whose NIC answers with the payload autonomously (no
///                 remote CPU/kernel involvement); completes on data arrival.
///  * PostWrite  — one-sided; payload travels out, hardware ACK completes it.
///
/// Packets of kind kOffloadReq/kOffloadResp are *not* auto-answered; they
/// surface in the receive queue for an upper layer (Farview) to serve.
///
/// On a lossy fabric (Fabric::lossy(), i.e. a FaultInjector is attached)
/// the endpoint adds a go-back-N-free link-level reliability layer, the
/// shape real RC queue pairs implement in NIC hardware:
///
///  * every outbound packet carries a per-destination sequence number;
///  * the receiver ACKs each sequenced packet (header-only kRdmaAck),
///    NACKs corrupted ones (kRdmaNack), and drops duplicates by seq;
///  * each unacked packet has a RetryTimer: a timeout retransmits it, a
///    NACK retransmits it immediately, and an ACK from the peer restarts
///    the timers of its other unacked packets;
///  * after `Retry::max_retries` retransmissions the op is abandoned: a
///    Completion with status kUnavailable is queued, failed() latches, and
///    status() surfaces Status::Unavailable.
///
/// On a loss-free fabric none of this machinery runs — wire traffic and
/// cycle counts are bit-identical to the no-injector behaviour.
class RdmaEndpoint : public sim::Module {
 public:
  /// `retry` applies only on a lossy fabric.
  RdmaEndpoint(std::string name, uint32_t node_id, Fabric* fabric,
               const Retry& retry = Retry());

  /// Posts verbs; safe to call before Run() or from another module's Tick().
  void PostSend(uint32_t dst, uint64_t bytes, uint64_t tag, uint64_t user = 0);
  void PostRead(uint32_t dst, uint64_t addr, uint64_t bytes, uint64_t tag);
  void PostWrite(uint32_t dst, uint64_t addr, uint64_t bytes, uint64_t tag);
  /// Posts a raw packet (used by upper layers for offload protocols).
  void PostPacket(Packet p);

  /// Pops one completion if available.
  bool PollCompletion(Completion* out);
  /// Pops one received message (kSend / kOffloadReq / kOffloadResp).
  bool PollRecv(Packet* out);

  size_t completions_available() const { return cq_.size(); }
  size_t recv_available() const { return rq_.size(); }
  uint32_t node_id() const { return node_id_; }

  /// Registers the module that polls this endpoint's completion/receive
  /// queues. Under event-driven scheduling the endpoint wakes it whenever a
  /// tick is about to deliver a new completion or received message, so the
  /// poller may sleep between deliveries. A harness polling between cycles
  /// (a Run() stop predicate) needs no listener.
  void SetWakeListener(sim::Module* listener) { listener_ = listener; }

  /// True once any op exhausted its retry cap; status() then carries
  /// Status::Unavailable for the first such op.
  bool failed() const { return !status_.ok(); }
  const Status& status() const { return status_; }

  /// Lossy-mode protocol counters (all zero on a loss-free fabric).
  uint64_t retransmits() const { return retransmits_; }
  uint64_t acks_sent() const { return acks_sent_; }
  uint64_t nacks_sent() const { return nacks_sent_; }
  uint64_t duplicates_discarded() const { return duplicates_discarded_; }

  void Tick(sim::Cycle cycle) override;
  bool Idle() const override { return outbox_.empty() && unacked_.empty(); }

  /// Posted work ships next tick; otherwise the endpoint sleeps until its
  /// earliest retransmission timer (lossy mode) or an arrival (reactive).
  sim::Cycle NextEventCycle(sim::Cycle now) const override {
    if (!outbox_.empty()) return now;
    sim::Cycle earliest = sim::kNoEventCycle;
    for (const auto& [key, u] : unacked_) {
      if (u.timer.due() < earliest) earliest = u.timer.due();
    }
    return earliest > now ? earliest : now;
  }

  void ExportCustomMetrics(obs::MetricsRegistry& registry) const override;

 private:
  /// A sequenced packet awaiting its link-level ACK.
  struct Unacked {
    Packet packet;
    RetryTimer timer;
  };
  /// Per-peer receive-side dedup window.
  struct RecvWindow {
    uint64_t next_expected = 1;
    std::set<uint64_t> seen_ahead;  // out-of-order seqs already consumed
  };

  bool reliable() const { return fabric_->lossy(); }
  void NotifyDelivery();
  void HandleArrival(sim::Cycle cycle, Packet p);
  void Dispatch(sim::Cycle cycle, const Packet& p);
  void CheckRetransmits(sim::Cycle cycle);
  void FailOp(sim::Cycle cycle, const Packet& p);

  uint32_t node_id_;
  Fabric* fabric_;
  Retry retry_;
  std::deque<Packet> outbox_;
  std::deque<Completion> cq_;
  std::deque<Packet> rq_;
  std::map<uint32_t, uint64_t> next_seq_;  ///< Per-destination tx sequence.
  std::map<std::pair<uint32_t, uint64_t>, Unacked> unacked_;  ///< (dst, seq).
  std::map<uint32_t, RecvWindow> recv_window_;  ///< Per-source dedup.
  sim::Module* listener_ = nullptr;  ///< Woken before cq_/rq_ deliveries.
  Status status_;
  uint64_t retransmits_ = 0;
  uint64_t acks_sent_ = 0;
  uint64_t nacks_sent_ = 0;
  uint64_t duplicates_discarded_ = 0;
};

}  // namespace fpgadp::net

#endif  // FPGADP_NET_RDMA_H_
