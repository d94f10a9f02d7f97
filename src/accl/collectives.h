#ifndef FPGADP_ACCL_COLLECTIVES_H_
#define FPGADP_ACCL_COLLECTIVES_H_

#include <cstdint>
#include <vector>

#include "src/common/result.h"
#include "src/net/fabric.h"
#include "src/net/rdma.h"
#include "src/net/retry.h"
#include "src/net/tcp.h"

namespace fpgadp::accl {

/// Algorithm choice for rooted/unrooted collectives.
enum class Algo {
  kLinear,  ///< Root talks to every rank directly.
  kTree,    ///< Binomial tree (log2 p rounds).
  kRing,    ///< Ring (all-reduce only): 2(p-1) bandwidth-optimal steps.
};

/// Wire protocol carrying the collective's messages. ACCL's published
/// implementation runs over the EasyNet 100 Gbps TCP stack; the RDMA
/// transport is the Coyote-style alternative.
enum class Transport {
  kRdma,  ///< Verbs sends; messages fly unsegmented.
  kTcp,   ///< TCP sessions: handshake, MSS segmentation, windowed ACKs.
};

/// Timing of one collective operation.
struct CollectiveStats {
  uint64_t cycles = 0;
  double seconds = 0;
  uint64_t wire_bytes = 0;   ///< Payload bytes that crossed the fabric.
  double bus_bw = 0;         ///< bytes / seconds of the caller's buffer.
  uint32_t attempts = 1;     ///< Schedule executions (>1 after fault retries).
};

/// Graceful-degradation report for the most recent collective: which ranks
/// finished their schedules on the final attempt, even when the operation
/// as a whole failed. Lets callers salvage partial results (e.g. a gather
/// root that received most contributions) instead of all-or-nothing.
struct PartialOutcome {
  uint32_t attempts = 0;         ///< Schedule executions performed.
  uint32_t ranks_completed = 0;  ///< Ranks that ran to completion last try.
  std::vector<bool> rank_done;   ///< Per-rank completion, last attempt.
  Status status;                 ///< Final status (OK on success).
};

/// An ACCL-style collectives library for a cluster of FPGAs on a 100 Gbps
/// fabric: each rank is an FPGA whose NIC executes the communication
/// schedule without host involvement. Data semantics are computed
/// functionally on the caller's buffers; timing comes from simulating the
/// exact message schedule (every send/recv, with NIC serialization and
/// wire latency) on the fabric model.
class Communicator {
 public:
  /// `world_size` ranks on one switch.
  explicit Communicator(uint32_t world_size,
                        net::Fabric::Config fabric = {},
                        double clock_hz = 200e6,
                        Transport transport = Transport::kRdma);

  uint32_t world_size() const { return world_size_; }
  Transport transport() const { return transport_; }

  /// TCP session parameters (ignored on the RDMA transport).
  void set_tcp_config(const net::TcpStack::Config& config) {
    tcp_config_ = config;
  }

  /// Attaches a fault injector to every fabric the communicator builds.
  /// The injector's seeded stream persists across collectives and retry
  /// attempts, so a retried schedule sees fresh (but still deterministic)
  /// fault draws. Endpoints detect the lossy fabric and switch on their
  /// reliability protocols automatically.
  void set_fault_injector(net::FaultInjector* injector) {
    fault_injector_ = injector;
  }

  /// Retransmission policy of every endpoint (RDMA or TCP) on a lossy
  /// fabric.
  void set_retry(const net::Retry& retry) { retry_ = retry; }

  /// Caps one schedule execution; exceeding it yields Status::Timeout
  /// (see RunSchedule). Tests shrink this to exercise the timeout path.
  void set_max_cycles(uint64_t max_cycles) { max_cycles_ = max_cycles; }

  /// Whole-schedule retry bound: a collective that fails (timeout or a
  /// transport giving up) is re-executed from scratch up to this many
  /// times before the error is surfaced. Default 1 = no retry.
  void set_max_attempts(uint32_t max_attempts) {
    max_attempts_ = max_attempts == 0 ? 1 : max_attempts;
  }

  /// Degradation report for the most recent collective (valid after any
  /// Broadcast/Reduce/... call, success or failure).
  const PartialOutcome& last_outcome() const { return last_outcome_; }

  /// buffers[rank] is rank's local buffer; all must equal buffers[root] in
  /// size. After the call every rank holds root's data.
  Result<CollectiveStats> Broadcast(uint32_t root,
                                    std::vector<std::vector<float>>& buffers,
                                    Algo algo = Algo::kTree);

  /// Root's `input` (world_size * chunk) is split; rank r receives chunk r
  /// into out[r].
  Result<CollectiveStats> Scatter(uint32_t root,
                                  const std::vector<float>& input,
                                  std::vector<std::vector<float>>& out);

  /// Rank r contributes buffers[r]; root receives the concatenation.
  Result<CollectiveStats> Gather(uint32_t root,
                                 const std::vector<std::vector<float>>& buffers,
                                 std::vector<float>* out);

  /// Element-wise sum of all buffers lands at root (others unchanged).
  Result<CollectiveStats> Reduce(uint32_t root,
                                 std::vector<std::vector<float>>& buffers,
                                 Algo algo = Algo::kTree);

  /// Element-wise sum lands at every rank. kRing is the bandwidth-optimal
  /// 2(p-1)-step schedule; kTree is reduce-to-0 + broadcast.
  Result<CollectiveStats> AllReduce(std::vector<std::vector<float>>& buffers,
                                    Algo algo = Algo::kRing);

  /// Ring all-gather: rank r contributes buffers[r]; every rank ends with
  /// the concatenation (p-1 chunk-forwarding steps per rank).
  Result<CollectiveStats> AllGather(
      const std::vector<std::vector<float>>& buffers,
      std::vector<std::vector<float>>* out);

  /// Ring reduce-scatter: buffers are equal-sized and conceptually split
  /// into p chunks; rank r ends with the element-wise sum of chunk r.
  Result<CollectiveStats> ReduceScatter(
      const std::vector<std::vector<float>>& buffers,
      std::vector<std::vector<float>>* out);

  /// Pipelined chain broadcast: ranks form a chain from the root and the
  /// payload is cut into `segment_bytes` pieces, so every rank forwards
  /// segment i while receiving segment i+1. Bandwidth-optimal for large
  /// payloads (each NIC sends the buffer once: time ~ ser(total) +
  /// (p-2) x ser(segment)), unlike the binomial tree whose root sends
  /// log2(p) full copies.
  Result<CollectiveStats> BroadcastSegmented(
      uint32_t root, std::vector<std::vector<float>>& buffers,
      uint64_t segment_bytes);

  /// Synchronization only (header-only messages, tree up + tree down).
  Result<CollectiveStats> Barrier();

 private:
  /// One step of a rank's schedule.
  struct Step {
    bool is_send = true;
    uint32_t peer = 0;
    uint64_t bytes = 0;
    uint64_t tag = 0;
  };

  /// Simulates the per-rank schedules to completion, retrying failed
  /// attempts up to max_attempts_ and recording last_outcome_.
  Result<CollectiveStats> RunSchedule(
      const std::vector<std::vector<Step>>& schedule, uint64_t payload_bytes);

  /// One schedule execution on a fresh fabric; fills last_outcome_'s
  /// per-rank completion state.
  Result<CollectiveStats> RunScheduleOnce(
      const std::vector<std::vector<Step>>& schedule, uint64_t payload_bytes);

  /// Builds the binomial-tree schedule rooted at `root`; `down` = true for
  /// broadcast (root to leaves), false for reduce (leaves to root).
  std::vector<std::vector<Step>> TreeSchedule(uint32_t root, uint64_t bytes,
                                              bool down) const;

  /// Builds the linear star: every other rank exchanges one message with
  /// `root`; `down` = true sends from the root (broadcast, scatter), false
  /// sends to it (gather, reduce).
  std::vector<std::vector<Step>> StarSchedule(uint32_t root, uint64_t bytes,
                                              bool down) const;

  /// Builds the ring: in each of `steps` rounds every rank sends `bytes` to
  /// its successor, then waits for its predecessor's message.
  std::vector<std::vector<Step>> RingSchedule(uint64_t bytes,
                                              uint32_t steps) const;

  /// Builds a binomial reduce to rank 0 followed by a binomial broadcast
  /// from it (tree all-reduce, barrier).
  std::vector<std::vector<Step>> ReduceBroadcastSchedule(uint64_t bytes) const;

  uint32_t world_size_;
  net::Fabric::Config fabric_config_;
  double clock_hz_;
  Transport transport_;
  net::TcpStack::Config tcp_config_;
  net::FaultInjector* fault_injector_ = nullptr;
  net::Retry retry_;
  uint64_t max_cycles_ = 1ull << 34;
  uint32_t max_attempts_ = 1;
  PartialOutcome last_outcome_;
};

}  // namespace fpgadp::accl

#endif  // FPGADP_ACCL_COLLECTIVES_H_
