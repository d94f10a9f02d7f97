#ifndef FPGADP_NET_TCP_H_
#define FPGADP_NET_TCP_H_

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/net/fabric.h"
#include "src/net/retry.h"
#include "src/sim/module.h"

namespace fpgadp::net {

/// TcpStack session parameters (TcpStack::Config). Declared outside the
/// class so its constructor can default it: a nested struct with member
/// initializers cannot be a default argument inside its enclosing class.
struct TcpConfig {
  uint32_t mss_bytes = 4096;        ///< Segment payload size.
  uint64_t window_bytes = 256 * 1024;  ///< Receive window / in-flight cap.
};

/// An EasyNet/Limago-style hardware TCP session layer (the 100 Gbps
/// TCP/IP stacks the tutorial cites, over which ACCL runs its
/// collectives). One stack per node; one connection per peer. Provides
/// reliable, in-order byte streams with:
///
///  * a 3-way-ish handshake (SYN / SYN-ACK) paying one RTT,
///  * MSS-sized segments, each with per-packet header overhead,
///  * a fixed receive window limiting unacknowledged bytes in flight
///    (throughput = min(line rate, window/RTT) — why the FPGA stacks ship
///    large on-chip buffers),
///  * per-segment cumulative ACKs (header-only packets).
///
/// Loss model. On a loss-free fabric (no FaultInjector attached) delivery
/// is in order per (src,dst) pair and nothing is ever lost, so the stack
/// runs a minimal fast path: incremental ACKs, no sequence numbers, no
/// timers — byte-identical to the pre-fault-model behaviour. On a lossy
/// fabric (Fabric::lossy()) the stack switches to real TCP-style
/// retransmission:
///
///  * each kTcpData segment carries its byte offset in Packet::seq, and
///    ACKs are cumulative (Packet::seq = next expected byte offset);
///  * the receiver buffers out-of-order segments, discards duplicates and
///    corrupted segments (which elicit a duplicate cumulative ACK), and
///    releases bytes to Read() strictly in order;
///  * each unacked segment has a RetryTimer: a timeout retransmits it, a
///    new cumulative ACK restarts the connection's timers, and three
///    duplicate ACKs trigger a fast retransmit of the lowest unacked
///    segment;
///  * a SYN retransmits on its own RetryTimer until the SYN-ACK arrives;
///  * a segment (or SYN) exceeding `Retry::max_retries` abandons the
///    connection: tx state is cleared, failed() latches, and status()
///    carries Status::Unavailable.
class TcpStack : public sim::Module {
 public:
  using Config = TcpConfig;

  /// `retry` applies only on a lossy fabric.
  TcpStack(std::string name, uint32_t node_id, Fabric* fabric,
           const Config& config = Config(), const Retry& retry = Retry());

  /// Opens (or returns) the connection to `peer`. Actively sends SYN; the
  /// peer's stack accepts passively. Data queued before establishment is
  /// held until the handshake completes.
  void Connect(uint32_t peer);

  /// True once the handshake with `peer` finished.
  bool Connected(uint32_t peer) const;

  /// Queues `bytes` for transmission to `peer` (auto-connects).
  void Send(uint32_t peer, uint64_t bytes);

  /// Bytes received in order from `peer` and not yet consumed.
  uint64_t Readable(uint32_t peer) const;

  /// Consumes up to `max_bytes` from `peer`'s stream; returns the amount.
  uint64_t Read(uint32_t peer, uint64_t max_bytes);

  /// Registers the module that Read()s this stack; it is woken before each
  /// tick that handles arrivals, so it may sleep between them.
  void SetReadListener(sim::Module* listener) { listener_ = listener; }

  void Tick(sim::Cycle cycle) override;
  bool Idle() const override;

  /// Deferred ACKs/retransmits and sendable data ship next tick; armed
  /// SYN/segment timers (lossy mode) report their earliest deadline;
  /// everything else is reactive (waiting on arrivals).
  sim::Cycle NextEventCycle(sim::Cycle now) const override;

  uint32_t node_id() const { return node_id_; }
  uint64_t segments_sent() const { return segments_sent_; }
  uint64_t bytes_acked() const { return bytes_acked_; }

  /// True once any connection exhausted its retry cap; status() then
  /// carries Status::Unavailable for the first such connection.
  bool failed() const { return !status_.ok(); }
  const Status& status() const { return status_; }

  /// Lossy-mode protocol counters (all zero on a loss-free fabric).
  uint64_t retransmits() const { return retransmits_; }
  uint64_t fast_retransmits() const { return fast_retransmits_; }
  uint64_t ooo_buffered() const { return ooo_buffered_; }
  uint64_t corrupt_discarded() const { return corrupt_discarded_; }

  void ExportCustomMetrics(obs::MetricsRegistry& registry) const override;

 private:
  /// One in-flight segment awaiting its cumulative ACK (lossy mode only).
  struct SentSegment {
    uint64_t bytes = 0;
    RetryTimer timer;
  };

  struct Connection {
    bool established = false;
    bool syn_sent = false;
    bool failed = false;       ///< Retry cap hit; tx side is abandoned.
    uint64_t tx_pending = 0;   ///< Bytes queued, not yet segmented.
    uint64_t in_flight = 0;    ///< Sent but unacked bytes.
    uint64_t rx_available = 0; ///< In-order bytes awaiting Read().
    // Lossy-mode state. Sender side:
    uint64_t snd_nxt = 0;  ///< Next byte offset to segment.
    uint64_t snd_una = 0;  ///< Lowest unacknowledged byte offset.
    uint32_t dup_acks = 0; ///< Consecutive duplicate-ACK count.
    std::map<uint64_t, SentSegment> unacked;  ///< Keyed by start offset.
    // Receiver side:
    uint64_t rx_next = 0;  ///< Next expected byte offset.
    std::map<uint64_t, uint64_t> ooo;  ///< Out-of-order: offset -> bytes.
    RetryTimer syn_timer;  ///< Armed when the SYN leaves (lossy mode only).
  };

  Connection& Conn(uint32_t peer) { return conns_[peer]; }
  bool reliable() const { return fabric_->lossy(); }
  void FailConnection(uint32_t peer, Connection& c, const char* what);
  void HandleData(sim::Cycle cycle, const Packet& p, Connection& c);
  void HandleAck(sim::Cycle cycle, const Packet& p, Connection& c);
  void CheckRetransmits(sim::Cycle cycle, bool* progressed);
  void SendAck(uint32_t peer, uint64_t cumulative);

  uint32_t node_id_;
  Fabric* fabric_;
  Config config_;
  Retry retry_;
  std::map<uint32_t, Connection> conns_;
  std::deque<Packet> pending_acks_;  ///< ACK/SYN-ACK deferred by port pressure.
  std::deque<Packet> retransmit_q_;  ///< Retransmits deferred by port pressure.
  std::set<uint32_t> syn_emitted_;   ///< Peers whose SYN already left.
  sim::Module* listener_ = nullptr;  ///< Woken before arrivals are handled.
  Status status_;
  uint64_t segments_sent_ = 0;
  uint64_t bytes_acked_ = 0;
  uint64_t retransmits_ = 0;
  uint64_t fast_retransmits_ = 0;
  uint64_t ooo_buffered_ = 0;
  uint64_t corrupt_discarded_ = 0;
};

}  // namespace fpgadp::net

#endif  // FPGADP_NET_TCP_H_
