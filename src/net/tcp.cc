#include "src/net/tcp.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/obs/metrics.h"

namespace fpgadp::net {

TcpStack::TcpStack(std::string name, uint32_t node_id, Fabric* fabric,
                   const Config& config, const Retry& retry)
    : sim::Module(std::move(name)), node_id_(node_id), fabric_(fabric),
      config_(config), retry_(retry) {
  FPGADP_CHECK(fabric_ != nullptr);
  FPGADP_CHECK(node_id_ < fabric_->num_nodes());
  FPGADP_CHECK(config_.mss_bytes > 0 && config_.window_bytes > 0);
  // The Tick touches exactly this node's port pair.
  fabric_->egress(node_id_).BindProducer(this);
  fabric_->ingress(node_id_).BindConsumer(this);
}

sim::Cycle TcpStack::NextEventCycle(sim::Cycle now) const {
  if (!pending_acks_.empty() || !retransmit_q_.empty()) return now;
  const bool rel = fabric_->lossy();
  sim::Cycle earliest = sim::kNoEventCycle;
  for (const auto& [peer, c] : conns_) {
    if (c.failed) continue;
    if (c.syn_sent && !c.established) {
      // An unemitted SYN leaves next tick; an emitted one waits for the
      // SYN-ACK, with a retransmission deadline only in lossy mode.
      if (syn_emitted_.count(peer) == 0) return now;
      if (rel && c.syn_timer.due() < earliest) earliest = c.syn_timer.due();
      continue;
    }
    if (c.established && c.tx_pending > 0 &&
        c.in_flight + config_.mss_bytes <= config_.window_bytes) {
      return now;  // a data segment can leave next tick
    }
    for (const auto& [off, seg] : c.unacked) {
      if (seg.timer.due() < earliest) earliest = seg.timer.due();
    }
  }
  return earliest > now ? earliest : now;
}

void TcpStack::Connect(uint32_t peer) {
  Connection& c = Conn(peer);
  if (c.established || c.syn_sent || c.failed) return;
  WakeUp();
  c.syn_sent = true;  // SYN goes out on the next Tick
}

bool TcpStack::Connected(uint32_t peer) const {
  auto it = conns_.find(peer);
  return it != conns_.end() && it->second.established;
}

void TcpStack::Send(uint32_t peer, uint64_t bytes) {
  WakeUp();  // queued data ships from the next tick
  Connect(peer);
  Conn(peer).tx_pending += bytes;
}

uint64_t TcpStack::Readable(uint32_t peer) const {
  auto it = conns_.find(peer);
  return it == conns_.end() ? 0 : it->second.rx_available;
}

uint64_t TcpStack::Read(uint32_t peer, uint64_t max_bytes) {
  Connection& c = Conn(peer);
  const uint64_t take = std::min(max_bytes, c.rx_available);
  c.rx_available -= take;
  return take;
}

void TcpStack::FailConnection(uint32_t peer, Connection& c, const char* what) {
  if (status_.ok()) {
    status_ = Status::Unavailable(name() + ": connection to " +
                                  std::to_string(peer) + " abandoned (" +
                                  what + " exceeded " +
                                  std::to_string(retry_.max_retries) +
                                  " retries)");
  }
  c.failed = true;
  c.syn_sent = false;
  c.tx_pending = 0;
  c.in_flight = 0;
  c.unacked.clear();
  c.dup_acks = 0;
}

void TcpStack::SendAck(uint32_t peer, uint64_t cumulative) {
  Packet ack;
  ack.src = node_id_;
  ack.dst = peer;
  ack.kind = OpKind::kTcpAck;
  ack.seq = cumulative;  // next expected byte offset
  auto& eg = fabric_->egress(node_id_);
  if (eg.CanWrite()) {
    eg.Write(ack);
  } else {
    pending_acks_.push_back(ack);
  }
}

void TcpStack::HandleData(sim::Cycle, const Packet& p, Connection& c) {
  if (p.corrupt) {
    // Checksum failure: discard; the duplicate cumulative ACK below tells
    // the sender where the stream actually stands.
    ++corrupt_discarded_;
    SendAck(p.src, c.rx_next);
    return;
  }
  c.established = true;  // data implies the peer saw our SYN-ACK
  if (p.seq + p.bytes <= c.rx_next) {
    // Entirely old data (a retransmit that crossed our ACK): re-ACK.
    SendAck(p.src, c.rx_next);
    return;
  }
  if (p.seq == c.rx_next) {
    c.rx_next += p.bytes;
    c.rx_available += p.bytes;
    // Drain out-of-order segments that are now contiguous (or stale).
    auto it = c.ooo.begin();
    while (it != c.ooo.end() && it->first <= c.rx_next) {
      if (it->first == c.rx_next) {
        c.rx_next += it->second;
        c.rx_available += it->second;
      }
      it = c.ooo.erase(it);
    }
  } else {
    // A gap precedes this segment: buffer it for later.
    if (c.ooo.emplace(p.seq, p.bytes).second) ++ooo_buffered_;
  }
  SendAck(p.src, c.rx_next);
}

void TcpStack::HandleAck(sim::Cycle cycle, const Packet& p, Connection& c) {
  if (p.corrupt) return;  // a later cumulative ACK supersedes it anyway
  const uint64_t ackno = p.seq;
  if (ackno > c.snd_una) {
    uint64_t newly = 0;
    auto it = c.unacked.begin();
    while (it != c.unacked.end() &&
           it->first + it->second.bytes <= ackno) {
      newly += it->second.bytes;
      it = c.unacked.erase(it);
    }
    c.snd_una = ackno;
    FPGADP_CHECK(c.in_flight >= newly);
    c.in_flight -= newly;
    bytes_acked_ += newly;
    c.dup_acks = 0;
    // Progress restarts the connection's timers (TCP's RTO-restart rule):
    // segments behind the acked one are queued, not lost.
    for (auto& [off, s] : c.unacked) s.timer.Restart(cycle);
    return;
  }
  if (ackno == c.snd_una && !c.unacked.empty() && ++c.dup_acks == 3) {
    // Fast retransmit — exactly once per hole (on the 3rd duplicate, as
    // Reno does): a long flight behind one lost segment produces dozens of
    // duplicate ACKs, and re-firing on every 3rd would burn through the
    // retry cap on a single loss. Further recovery is the RTO's job.
    auto it = c.unacked.begin();
    SentSegment& s = it->second;
    if (!s.timer.Resend(retry_, cycle)) {
      FailConnection(p.src, c, "fast retransmit");
      return;
    }
    ++retransmits_;
    ++fast_retransmits_;
    Packet data;
    data.src = node_id_;
    data.dst = p.src;
    data.kind = OpKind::kTcpData;
    data.seq = it->first;
    data.bytes = s.bytes;
    retransmit_q_.push_back(data);
  }
}

void TcpStack::CheckRetransmits(sim::Cycle cycle, bool* progressed) {
  for (auto& [peer, c] : conns_) {
    if (c.failed) continue;
    // SYN timer.
    if (c.syn_sent && !c.established && syn_emitted_.count(peer) > 0 &&
        cycle >= c.syn_timer.due()) {
      if (!c.syn_timer.Timeout(retry_, cycle)) {
        FailConnection(peer, c, "SYN");
        *progressed = true;
        continue;
      }
      ++retransmits_;
      Packet syn;
      syn.src = node_id_;
      syn.dst = peer;
      syn.kind = OpKind::kTcpSyn;
      retransmit_q_.push_back(syn);
      *progressed = true;
    }
    // Segment timers.
    for (auto it = c.unacked.begin(); it != c.unacked.end();) {
      SentSegment& s = it->second;
      if (cycle < s.timer.due()) {
        ++it;
        continue;
      }
      if (!s.timer.Timeout(retry_, cycle)) {
        FailConnection(peer, c, "retransmission");
        *progressed = true;
        break;  // FailConnection cleared c.unacked; iterator is dead
      }
      ++retransmits_;
      Packet data;
      data.src = node_id_;
      data.dst = peer;
      data.kind = OpKind::kTcpData;
      data.seq = it->first;
      data.bytes = s.bytes;
      retransmit_q_.push_back(data);
      *progressed = true;
      ++it;
    }
  }
}

void TcpStack::Tick(sim::Cycle cycle) {
  bool progressed = false;
  auto& eg = fabric_->egress(node_id_);
  auto& ig = fabric_->ingress(node_id_);
  const bool rel = reliable();

  // Service arrivals, waking the reader before any byte becomes readable.
  if (listener_ != nullptr && ig.CanRead()) listener_->WakeUp();
  while (ig.CanRead()) {
    Packet p = ig.Read();
    progressed = true;
    Connection& c = Conn(p.src);
    switch (p.kind) {
      case OpKind::kTcpSyn: {
        if (rel && p.corrupt) break;  // sender's SYN timer recovers
        // Passive open: accept and reply (deferred if the port is busy).
        // A duplicate SYN (our SYN-ACK was lost) gets a fresh SYN-ACK.
        Packet ack;
        ack.src = node_id_;
        ack.dst = p.src;
        ack.kind = OpKind::kTcpSynAck;
        c.established = true;
        if (eg.CanWrite()) {
          eg.Write(ack);
        } else {
          pending_acks_.push_back(ack);
        }
        break;
      }
      case OpKind::kTcpSynAck:
        if (rel && p.corrupt) break;
        c.established = true;
        c.syn_sent = false;
        break;
      case OpKind::kTcpData: {
        if (rel) {
          HandleData(cycle, p, c);
          break;
        }
        c.established = true;  // data implies the peer saw our SYN-ACK
        c.rx_available += p.bytes;
        Packet ack;
        ack.src = node_id_;
        ack.dst = p.src;
        ack.kind = OpKind::kTcpAck;
        ack.user = p.bytes;  // bytes being acknowledged
        if (eg.CanWrite()) {
          eg.Write(ack);
        } else {
          // Defer the ACK by crediting it back next cycle.
          pending_acks_.push_back(ack);
        }
        break;
      }
      case OpKind::kTcpAck:
        if (rel) {
          HandleAck(cycle, p, c);
          break;
        }
        FPGADP_CHECK(c.in_flight >= p.user);
        c.in_flight -= p.user;
        bytes_acked_ += p.user;
        break;
      default:
        // Non-TCP traffic on a TCP-owned port is a wiring bug.
        FPGADP_CHECK(false);
    }
  }

  // Flush deferred ACKs.
  while (!pending_acks_.empty() && eg.CanWrite()) {
    eg.Write(pending_acks_.front());
    pending_acks_.pop_front();
    progressed = true;
  }

  // Expired timers queue retransmissions, drained ahead of new data.
  if (rel) {
    CheckRetransmits(cycle, &progressed);
    while (!retransmit_q_.empty() && eg.CanWrite()) {
      eg.Write(retransmit_q_.front());
      retransmit_q_.pop_front();
      progressed = true;
    }
  }

  // Transmit: handshakes first, then window-limited data segments.
  for (auto& [peer, c] : conns_) {
    if (c.failed) continue;
    if (c.syn_sent && !c.established) {
      if (!syn_emitted_.count(peer) && eg.CanWrite()) {
        Packet syn;
        syn.src = node_id_;
        syn.dst = peer;
        syn.kind = OpKind::kTcpSyn;
        eg.Write(syn);
        syn_emitted_.insert(peer);
        if (rel) c.syn_timer = RetryTimer(retry_, *fabric_, 0, cycle);
        progressed = true;
      }
      continue;
    }
    while (c.established && c.tx_pending > 0 &&
           c.in_flight + config_.mss_bytes <= config_.window_bytes &&
           eg.CanWrite()) {
      const uint64_t seg =
          std::min<uint64_t>(config_.mss_bytes, c.tx_pending);
      Packet data;
      data.src = node_id_;
      data.dst = peer;
      data.kind = OpKind::kTcpData;
      data.bytes = seg;
      if (rel) {
        data.seq = c.snd_nxt;
        c.unacked[c.snd_nxt] = {seg, RetryTimer(retry_, *fabric_, seg, cycle)};
        c.snd_nxt += seg;
      }
      eg.Write(data);
      c.tx_pending -= seg;
      c.in_flight += seg;
      ++segments_sent_;
      progressed = true;
    }
  }
  if (progressed) MarkBusy();
}

bool TcpStack::Idle() const {
  if (!pending_acks_.empty() || !retransmit_q_.empty()) return false;
  for (const auto& [peer, c] : conns_) {
    if (c.tx_pending > 0 || c.in_flight > 0) return false;
    if (c.syn_sent && !c.established) return false;
  }
  return true;
}

void TcpStack::ExportCustomMetrics(obs::MetricsRegistry& registry) const {
  if (retransmits_ == 0 && ooo_buffered_ == 0 && corrupt_discarded_ == 0) {
    return;  // loss-free stacks stay out of the registry
  }
  const std::string base = "net." + name();
  registry.GetGauge(base + ".retransmits")
      ->Set(static_cast<double>(retransmits_));
  registry.GetGauge(base + ".fast_retransmits")
      ->Set(static_cast<double>(fast_retransmits_));
  registry.GetGauge(base + ".ooo_buffered")
      ->Set(static_cast<double>(ooo_buffered_));
  registry.GetGauge(base + ".corrupt_discarded")
      ->Set(static_cast<double>(corrupt_discarded_));
}

}  // namespace fpgadp::net
