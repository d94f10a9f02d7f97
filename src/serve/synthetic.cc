#include "src/serve/synthetic.h"

#include "src/common/check.h"
#include "src/relational/sketches.h"

namespace fpgadp::serve {

SyntheticWorkload::SyntheticWorkload(const Config& config)
    : config_(config) {
  FPGADP_CHECK(config_.num_shards > 0);
  FPGADP_CHECK(config_.fanout >= 1 && config_.fanout <= config_.num_shards);
}

uint64_t SyntheticWorkload::AddRequest(uint64_t base_service_cycles) {
  FPGADP_CHECK(base_service_cycles > 0);
  base_cycles_.push_back(base_service_cycles);
  return base_cycles_.size() - 1;
}

uint64_t SyntheticWorkload::ServiceCyclesFor(uint64_t request_id,
                                             uint32_t shard) const {
  FPGADP_CHECK(request_id < base_cycles_.size());
  const uint64_t base = base_cycles_[request_id];
  if (config_.jitter_pct == 0) return base;
  const uint64_t h = rel::Hash64(request_id * 0x100000001b3ull + shard);
  const uint64_t span = 2 * config_.jitter_pct + 1;
  const uint64_t pct = 100 - config_.jitter_pct + (h % span);
  const uint64_t cycles = base * pct / 100;
  return cycles == 0 ? 1 : cycles;
}

std::vector<shard::SubRequest> SyntheticWorkload::Scatter(uint64_t request_id) {
  FPGADP_CHECK(request_id < base_cycles_.size());
  // Round-robin the fanout window's start so that single-slice requests
  // cycle the shards ±1-balanced and multi-slice requests rotate which
  // shards co-serve — no shard is systematically first (and thus hottest).
  const uint32_t start = next_start_;
  next_start_ = (next_start_ + 1) % config_.num_shards;
  std::vector<shard::SubRequest> subs;
  subs.reserve(config_.fanout);
  for (uint32_t i = 0; i < config_.fanout; ++i) {
    shard::SubRequest sub;
    sub.shard = (start + i) % config_.num_shards;
    sub.request_bytes = config_.request_bytes;
    if (config_.publish_estimates) {
      sub.est_service_cycles = ServiceCyclesFor(request_id, sub.shard);
    }
    subs.push_back(sub);
  }
  return subs;
}

shard::Service SyntheticWorkload::Serve(uint32_t shard, uint64_t request_id) {
  shard::Service svc;
  svc.compute_cycles = ServiceCyclesFor(request_id, shard);
  svc.response_bytes = config_.response_bytes;
  return svc;
}

void SyntheticWorkload::Merge(uint64_t request_id,
                              const shard::PartialOutcome& outcome) {
  (void)request_id;
  ++merged_;
  if (outcome.degraded()) ++merged_degraded_;
}

}  // namespace fpgadp::serve
