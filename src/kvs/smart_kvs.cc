#include "src/kvs/smart_kvs.h"

#include "src/common/check.h"
#include "src/common/units.h"
#include "src/relational/sketches.h"
#include "src/sim/engine.h"

namespace fpgadp::kvs {

uint64_t SmartNicKvs::DramLatencyCycles(const Config& config) {
  return NanosToCycles(config.dram_latency_ns, config.clock_hz);
}

double SmartNicKvs::DramCyclesPerOp(const Config& config) {
  // One 64-byte bucket line per op at the channel's bus bandwidth — the
  // same access_granularity the internal MemoryChannel is configured with.
  return 64.0 * config.clock_hz / config.dram_bytes_per_sec;
}

SmartNicKvs::SmartNicKvs(std::string name, uint32_t node_id,
                         net::Fabric* fabric, const Config& config)
    : sim::Module(std::move(name)), node_id_(node_id), fabric_(fabric),
      config_(config),
      dram_req_(this->name() + ".dreq", 16),
      dram_resp_(this->name() + ".dresp", 16),
      dram_(this->name() + ".dram", &dram_req_, &dram_resp_,
            [&] {
              mem::MemoryChannel::Config mc;
              mc.latency_ns = config.dram_latency_ns;
              mc.bytes_per_sec = config.dram_bytes_per_sec;
              mc.clock_hz = config.clock_hz;
              mc.access_granularity = 64;  // one bucket line
              mc.max_outstanding = config.max_outstanding;
              return mc;
            }()) {
  FPGADP_CHECK(fabric_ != nullptr);
  fabric_->ingress(node_id_).BindConsumer(this);
  fabric_->egress(node_id_).BindProducer(this);
  dram_req_.BindProducer(this);
  dram_resp_.BindConsumer(this);
}

void SmartNicKvs::RegisterWith(sim::Engine& engine) {
  engine.AddModule(this);
  engine.AddModule(&dram_);
  engine.AddStream(&dram_req_);
  engine.AddStream(&dram_resp_);
}

void SmartNicKvs::Tick(sim::Cycle) {
  bool progressed = false;
  auto& ig = fabric_->ingress(node_id_);
  auto& eg = fabric_->egress(node_id_);

  // Admit arriving requests into the pipeline: every op costs one bucket
  // access in NIC DRAM (hash computed combinationally).
  while (ig.CanRead() && in_flight_.size() < config_.max_outstanding &&
         dram_req_.CanWrite()) {
    net::Packet req = ig.Read();
    if (req.corrupt) {
      // Failed CRC: the request's key/value cannot be trusted. Drop it;
      // the client's retry timer re-issues the (idempotent) op.
      ++corrupt_discarded_;
      progressed = true;
      continue;
    }
    const uint64_t tag = next_dram_tag_++;
    const uint64_t bucket_addr = rel::Hash64(req.addr) % (1ull << 30);
    const bool is_put = req.user == uint64_t(KvOp::kPutReq);
    dram_req_.Write({tag, bucket_addr, 64, is_put});
    in_flight_.emplace(tag, Pending{req});
    progressed = true;
  }
  // Completed bucket accesses: run the functional op and answer.
  while (dram_resp_.CanRead() && eg.CanWrite()) {
    const auto done = dram_resp_.Read();
    auto it = in_flight_.find(done.id);
    FPGADP_CHECK(it != in_flight_.end());
    const net::Packet& req = it->second.request;
    net::Packet resp;
    resp.src = node_id_;
    resp.dst = req.src;
    resp.tag = req.tag;
    resp.addr = req.addr;  // echo the key
    if (req.user == uint64_t(KvOp::kGetReq)) {
      ++gets_;
      auto hit = store_.find(req.addr);
      resp.user = uint64_t(KvOp::kGetResp);
      if (hit != store_.end()) {
        ++hits_;
        resp.bytes = config_.value_bytes;
        resp.user2 = hit->second;  // the stored value
      } else {
        resp.bytes = 0;
      }
    } else {
      ++puts_;
      store_[req.addr] = req.user2;
      resp.user = uint64_t(KvOp::kPutResp);
      resp.bytes = 0;
    }
    eg.Write(resp);
    in_flight_.erase(it);
    progressed = true;
  }
  if (progressed) MarkBusy();
}

KvClient::KvClient(std::string name, uint32_t node_id, uint32_t server,
                   net::Fabric* fabric, const net::Retry& retry)
    : sim::Module(std::move(name)), node_id_(node_id), server_(server),
      fabric_(fabric), retry_(retry) {
  FPGADP_CHECK(fabric_ != nullptr);
  fabric_->egress(node_id_).BindProducer(this);
  fabric_->ingress(node_id_).BindConsumer(this);
}

bool KvClient::reliable() const { return fabric_->lossy(); }

void KvClient::Get(uint64_t key, uint64_t tag) {
  WakeUp();  // queued requests ship from the next tick
  net::Packet p;
  p.src = node_id_;
  p.dst = server_;
  p.user = uint64_t(KvOp::kGetReq);
  p.addr = key;
  p.bytes = 0;
  p.tag = tag;
  queue_.push_back(p);
}

void KvClient::Put(uint64_t key, uint64_t value, uint64_t tag) {
  WakeUp();
  net::Packet p;
  p.src = node_id_;
  p.dst = server_;
  p.user = uint64_t(KvOp::kPutReq);
  p.user2 = value;
  p.addr = key;
  p.bytes = 64;  // value payload travels with the request
  p.tag = tag;
  queue_.push_back(p);
}

bool KvClient::PollResponse(net::Packet* out) {
  if (responses_q_.empty()) return false;
  *out = responses_q_.front();
  responses_q_.pop_front();
  return true;
}

void KvClient::Tick(sim::Cycle cycle) {
  bool progressed = false;
  const bool rel = reliable();
  auto& eg = fabric_->egress(node_id_);
  while (!queue_.empty() && eg.CanWrite()) {
    const net::Packet& p = queue_.front();
    if (rel && outstanding_.find(p.tag) == outstanding_.end()) {
      // First transmission: arm the at-least-once retry timer.
      outstanding_[p.tag] =
          {p, net::RetryTimer(retry_, *fabric_, p.bytes, cycle)};
    }
    eg.Write(p);
    queue_.pop_front();
    progressed = true;
  }
  auto& ig = fabric_->ingress(node_id_);
  while (ig.CanRead()) {
    net::Packet p = ig.Read();
    progressed = true;
    if (rel) {
      if (p.corrupt) {
        ++corrupt_discarded_;  // the retry timer covers the lost response
        continue;
      }
      auto it = outstanding_.find(p.tag);
      if (it == outstanding_.end()) {
        ++duplicates_discarded_;  // a late response for a retried request
        continue;
      }
      outstanding_.erase(it);
      // Progress restarts the timers of requests still queued behind the
      // server's pipeline, preventing spurious retries under deep load.
      for (auto& [tag, o] : outstanding_) o.timer.Restart(cycle);
    }
    responses_q_.push_back(p);
    ++responses_;
  }
  if (rel) {
    for (auto it = outstanding_.begin(); it != outstanding_.end();) {
      Outstanding& o = it->second;
      if (cycle < o.timer.due()) {
        ++it;
        continue;
      }
      if (!o.timer.Timeout(retry_, cycle)) {
        if (status_.ok()) {
          status_ = Status::Unavailable(
              name() + ": request tag " + std::to_string(it->first) +
              " gave up after " + std::to_string(retry_.max_retries) +
              " retries");
        }
        it = outstanding_.erase(it);
        progressed = true;
        continue;
      }
      ++retries_;
      queue_.push_back(o.request);
      progressed = true;
      ++it;
    }
  }
  if (progressed) MarkBusy();
}

}  // namespace fpgadp::kvs
