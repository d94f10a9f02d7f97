#ifndef FPGADP_KVS_SMART_KVS_H_
#define FPGADP_KVS_SMART_KVS_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/memory/channel.h"
#include "src/net/fabric.h"
#include "src/net/retry.h"
#include "src/sim/module.h"
#include "src/sim/stream.h"

namespace fpgadp::kvs {

/// Wire encoding for KV operations, carried in Packet::user.
enum class KvOp : uint64_t {
  kGetReq = 1,
  kPutReq = 2,
  kGetResp = 3,
  kPutResp = 4,
};

/// KV-Direct (SOSP'17, tutorial §1 ref [26]): a key-value store served
/// entirely by an FPGA smart NIC — requests arrive over the network, the
/// NIC pipeline hashes, reads/writes NIC-attached DRAM, and answers
/// without ever waking the host CPU. Throughput is bounded by the NIC's
/// DRAM random-access pipeline and the line rate, not by a software stack.
///
/// Functional contents live in a hash map; timing is modeled per request:
/// a one-cycle pipeline slot plus a (pipelined) DRAM access per bucket.
class SmartNicKvs : public sim::Module {
 public:
  struct Config {
    uint32_t value_bytes = 64;     ///< Payload size of a stored value.
    double dram_latency_ns = 90;   ///< NIC-attached DRAM.
    double dram_bytes_per_sec = 19.2e9;
    double clock_hz = 200e6;
    uint32_t max_outstanding = 64; ///< Requests in the NIC pipeline.
  };

  SmartNicKvs(std::string name, uint32_t node_id, net::Fabric* fabric,
              const Config& config);

  /// Fill latency of the NIC DRAM pipeline, in kernel cycles — what the
  /// first bucket access of a batch waits.
  static uint64_t DramLatencyCycles(const Config& config);
  /// Pipelined bus occupancy of one 64-byte bucket access, in kernel
  /// cycles (fractional: the bus retires more than one line per cycle).
  static double DramCyclesPerOp(const Config& config);

  /// Registers the NIC and its internal DRAM channel with `engine`.
  void RegisterWith(sim::Engine& engine);

  void Tick(sim::Cycle cycle) override;
  bool Idle() const override { return in_flight_.empty(); }
  /// Reactive: it acts only on a request or bucket access on a bound input.
  sim::Cycle NextEventCycle(sim::Cycle) const override {
    return sim::kNoEventCycle;
  }

  uint64_t gets() const { return gets_; }
  uint64_t puts() const { return puts_; }
  uint64_t hits() const { return hits_; }
  size_t size() const { return store_.size(); }
  /// Requests dropped because their payload failed its CRC (lossy fabric
  /// only); the client's retry timer re-issues them.
  uint64_t corrupt_discarded() const { return corrupt_discarded_; }

 private:
  struct Pending {
    net::Packet request;
  };

  uint32_t node_id_;
  net::Fabric* fabric_;
  Config config_;
  sim::Stream<mem::MemRequest> dram_req_;
  sim::Stream<mem::MemResponse> dram_resp_;
  mem::MemoryChannel dram_;
  std::unordered_map<uint64_t, uint64_t> store_;
  std::unordered_map<uint64_t, Pending> in_flight_;  // by dram tag
  uint64_t next_dram_tag_ = 0;
  uint64_t gets_ = 0, puts_ = 0, hits_ = 0;
  uint64_t corrupt_discarded_ = 0;
};

/// A client issuing GET/PUT requests over the fabric and collecting
/// responses. Keeps a configurable number of requests outstanding so the
/// NIC pipeline stays full (the closed-loop load generator KV-Direct uses).
///
/// On a lossy fabric (Fabric::lossy()) the client adds at-least-once
/// request/response retry, which is all an idempotent KV protocol needs:
/// each request is tracked by its tag and re-issued when its RetryTimer
/// expires, and every response restarts the timers of the requests still
/// outstanding; responses for unknown tags (late duplicates) and corrupted
/// packets are discarded. A request exceeding the retry cap latches
/// failed() and surfaces Status::Unavailable. Tags must be unique among
/// in-flight requests for the dedup to work.
class KvClient : public sim::Module {
 public:
  /// `retry` applies only on a lossy fabric.
  KvClient(std::string name, uint32_t node_id, uint32_t server,
           net::Fabric* fabric, const net::Retry& retry = net::Retry());

  /// Queues a request (sent as pipeline slots free up).
  void Get(uint64_t key, uint64_t tag);
  void Put(uint64_t key, uint64_t value, uint64_t tag);

  /// Pops one response: kind is kGetResp/kPutResp; addr echoes the key,
  /// bytes carries the value payload size (GET hits only).
  bool PollResponse(net::Packet* out);

  void Tick(sim::Cycle cycle) override;
  bool Idle() const override {
    return queue_.empty() && outstanding_.empty();
  }
  /// Queued requests ship next tick; else the earliest retry deadline.
  sim::Cycle NextEventCycle(sim::Cycle now) const override {
    sim::Cycle next = queue_.empty() ? sim::kNoEventCycle : now;
    for (const auto& [tag, o] : outstanding_) {
      next = std::min(next, o.timer.due());
    }
    return std::max(next, now);
  }

  uint64_t responses_received() const { return responses_; }

  /// True once any request exhausted its retry cap (lossy fabric only).
  bool failed() const { return !status_.ok(); }
  const Status& status() const { return status_; }

  /// Lossy-mode protocol counters (all zero on a loss-free fabric).
  uint64_t retries() const { return retries_; }
  uint64_t duplicates_discarded() const { return duplicates_discarded_; }
  uint64_t corrupt_discarded() const { return corrupt_discarded_; }

 private:
  /// A request awaiting its response (lossy mode only).
  struct Outstanding {
    net::Packet request;
    net::RetryTimer timer;
  };

  bool reliable() const;

  uint32_t node_id_;
  uint32_t server_;
  net::Fabric* fabric_;
  net::Retry retry_;
  std::deque<net::Packet> queue_;
  std::deque<net::Packet> responses_q_;
  std::map<uint64_t, Outstanding> outstanding_;  ///< Keyed by request tag.
  Status status_;
  uint64_t responses_ = 0;
  uint64_t retries_ = 0;
  uint64_t duplicates_discarded_ = 0;
  uint64_t corrupt_discarded_ = 0;
};

/// Deterministic software-KVS baseline: a kernel-bypass server still pays
/// a per-op software cost (hash, allocation, batching) per core.
struct CpuKvsModel {
  double ns_per_op = 500;
  uint32_t cores = 16;

  double OpsPerSec() const { return double(cores) * 1e9 / ns_per_op; }
};

}  // namespace fpgadp::kvs

#endif  // FPGADP_KVS_SMART_KVS_H_
