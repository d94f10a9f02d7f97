#ifndef FPGADP_SERVE_SYNTHETIC_H_
#define FPGADP_SERVE_SYNTHETIC_H_

#include <cstdint>
#include <vector>

#include "src/shard/shard.h"

namespace fpgadp::serve {

/// A parametric shard::Workload for serving experiments: every request
/// fans out to `fanout` distinct shards (the window's start shard cycles
/// in Scatter call order, so load balances within ±1 regardless of request
/// ids), and each slice occupies its shard for a caller-chosen base service
/// time plus bounded deterministic jitter. No functional payload — the
/// point is the queueing, not the answer — which keeps latency experiments
/// free of compute noise from a real kernel.
///
/// Requests are registered up front via AddRequest() (outside any tick,
/// like every Scatter caller); Serve() and Merge() only read state, so the
/// workload is safe inside module ticks per the Workload contract.
class SyntheticWorkload : public shard::Workload {
 public:
  struct Config {
    uint32_t num_shards = 4;
    /// Distinct shards each request scatters to, in [1, num_shards].
    uint32_t fanout = 1;
    uint64_t request_bytes = 256;
    uint64_t response_bytes = 512;
    /// Service-time jitter: each slice's cycles are drawn uniformly from
    /// base * [100 - pct, 100 + pct] / 100, keyed by (request, shard) so
    /// replays are bit-identical. 0 disables jitter.
    uint32_t jitter_pct = 25;
    /// When true, Scatter publishes each slice's exact service cycles in
    /// SubRequest::est_service_cycles (an oracle estimator — isolates the
    /// admission policy from estimation error). When false the field stays
    /// 0 and the coordinator leans on its per-shard EWMA.
    bool publish_estimates = true;
  };

  explicit SyntheticWorkload(const Config& config);

  /// Registers a request whose slices each cost ~base_service_cycles and
  /// returns its id. Call outside engine ticks.
  uint64_t AddRequest(uint64_t base_service_cycles);

  std::vector<shard::SubRequest> Scatter(uint64_t request_id) override;
  shard::Service Serve(uint32_t shard, uint64_t request_id) override;
  void Merge(uint64_t request_id, const shard::PartialOutcome& outcome) override;

  /// Exact cycles Serve() reports for this (request, shard) pair.
  uint64_t ServiceCyclesFor(uint64_t request_id, uint32_t shard) const;

  uint64_t merged() const { return merged_; }
  uint64_t merged_degraded() const { return merged_degraded_; }

 private:
  Config config_;
  uint32_t next_start_ = 0;  ///< Start shard of the next Scatter's window.
  std::vector<uint64_t> base_cycles_;  ///< Indexed by request id.
  uint64_t merged_ = 0;
  uint64_t merged_degraded_ = 0;
};

}  // namespace fpgadp::serve

#endif  // FPGADP_SERVE_SYNTHETIC_H_
