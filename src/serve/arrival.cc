#include "src/serve/arrival.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/common/random.h"

namespace fpgadp::serve {

namespace {

std::vector<sim::Cycle> PoissonArrivals(const ArrivalConfig& config,
                                        size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<sim::Cycle> out;
  out.reserve(count);
  double t = 0.0;
  for (size_t i = 0; i < count; ++i) {
    t += rng.NextExponential(config.mean_interarrival_cycles);
    out.push_back(static_cast<sim::Cycle>(t));
  }
  return out;
}

std::vector<sim::Cycle> BurstyArrivals(const ArrivalConfig& config,
                                       size_t count, uint64_t seed) {
  FPGADP_CHECK(config.burst_rate_multiplier >= 1.0);
  FPGADP_CHECK(config.mean_burst_cycles > 0.0);
  FPGADP_CHECK(config.mean_gap_cycles > 0.0);
  Rng rng(seed);
  std::vector<sim::Cycle> out;
  out.reserve(count);
  double t = 0.0;
  bool in_burst = false;
  // End of the current modulation state; arrivals that would overshoot it
  // are re-drawn from the new state's rate starting at the boundary.
  double state_end = rng.NextExponential(config.mean_gap_cycles);
  while (out.size() < count) {
    const double mean = in_burst ? config.mean_interarrival_cycles /
                                       config.burst_rate_multiplier
                                 : config.mean_interarrival_cycles;
    const double next = t + rng.NextExponential(mean);
    if (next > state_end) {
      // Memorylessness lets us discard the partial gap and restart the
      // exponential clock at the state boundary.
      t = state_end;
      in_burst = !in_burst;
      state_end = t + rng.NextExponential(in_burst ? config.mean_burst_cycles
                                                   : config.mean_gap_cycles);
      continue;
    }
    t = next;
    out.push_back(static_cast<sim::Cycle>(t));
  }
  return out;
}

std::vector<sim::Cycle> DiurnalArrivals(const ArrivalConfig& config,
                                        size_t count, uint64_t seed) {
  FPGADP_CHECK(config.period_cycles > 0.0);
  FPGADP_CHECK(config.amplitude >= 0.0 && config.amplitude < 1.0);
  Rng rng(seed);
  std::vector<sim::Cycle> out;
  out.reserve(count);
  // Thinning (Lewis & Shedler): draw from the peak rate, keep each arrival
  // with probability rate(t) / peak_rate. Exact for any bounded rate.
  const double peak_mean =
      config.mean_interarrival_cycles / (1.0 + config.amplitude);
  double t = 0.0;
  while (out.size() < count) {
    t += rng.NextExponential(peak_mean);
    const double phase = 2.0 * M_PI * t / config.period_cycles;
    const double relative_rate = (1.0 + config.amplitude * std::sin(phase)) /
                                 (1.0 + config.amplitude);
    if (rng.NextDouble() < relative_rate) {
      out.push_back(static_cast<sim::Cycle>(t));
    }
  }
  return out;
}

}  // namespace

std::vector<sim::Cycle> GenerateArrivals(const ArrivalConfig& config,
                                         size_t count, uint64_t seed) {
  if (count == 0) return {};
  if (config.kind == ArrivalKind::kClosedLoop) {
    FPGADP_CHECK(config.concurrency > 0);
    const size_t initial =
        std::min<size_t>(count, static_cast<size_t>(config.concurrency));
    std::vector<sim::Cycle> out;
    out.reserve(initial);
    for (size_t i = 0; i < initial; ++i) out.push_back(i);
    return out;
  }
  FPGADP_CHECK(config.mean_interarrival_cycles > 0.0);
  switch (config.kind) {
    case ArrivalKind::kPoisson: return PoissonArrivals(config, count, seed);
    case ArrivalKind::kBursty: return BurstyArrivals(config, count, seed);
    case ArrivalKind::kDiurnal: return DiurnalArrivals(config, count, seed);
    case ArrivalKind::kClosedLoop: break;  // Handled above.
  }
  return {};
}

}  // namespace fpgadp::serve
