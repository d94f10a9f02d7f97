#ifndef FPGADP_SERVE_ARRIVAL_H_
#define FPGADP_SERVE_ARRIVAL_H_

#include <cstdint>
#include <vector>

#include "src/sim/module.h"

namespace fpgadp::serve {

/// The traffic shapes the serving front door can offer to a cluster.
enum class ArrivalKind : uint8_t {
  /// Open loop, Poisson: i.i.d. exponential inter-arrival gaps with the
  /// configured mean. The memoryless baseline every queueing model assumes.
  kPoisson = 0,
  /// Open loop, bursty: a two-state Markov-modulated Poisson process
  /// (MMPP-2). The source alternates between a burst state, where the
  /// arrival rate is multiplied by burst_rate_multiplier, and a quiet gap
  /// state at the base rate; state dwell times are exponential with means
  /// mean_burst_cycles / mean_gap_cycles. Same long-run average rate knobs
  /// as Poisson but with the correlated clumps real front ends see.
  kBursty = 1,
  /// Open loop, diurnal: a Poisson process whose instantaneous rate follows
  /// a sinusoid, rate(t) = base_rate * (1 + amplitude * sin(2*pi*t /
  /// period_cycles)) — a compressed day/night cycle for ramp studies.
  /// Sampled by thinning, so it degrades to exact Poisson at amplitude 0.
  kDiurnal = 2,
  /// Closed loop: `concurrency` clients that each submit, wait for their
  /// response, then immediately submit again. The arrival schedule here
  /// only staggers the initial submissions one cycle apart; subsequent
  /// arrivals are response-driven (the front door spawns them at
  /// completion, so the offered load self-limits — the classic reason
  /// closed-loop benchmarks hide tail-latency cliffs).
  kClosedLoop = 3,
};

/// Parameters for one traffic source. Rates are expressed through the mean
/// inter-arrival gap in sim cycles (mean_interarrival_cycles = 1/rate), the
/// natural unit for a cycle-stepped simulator.
struct ArrivalConfig {
  ArrivalKind kind = ArrivalKind::kPoisson;
  /// Mean gap between arrivals at the base rate. Must be > 0 for the open
  /// loop kinds.
  double mean_interarrival_cycles = 1000.0;

  // kBursty (MMPP-2):
  double burst_rate_multiplier = 4.0;  ///< Rate gain inside a burst.
  double mean_burst_cycles = 5000.0;   ///< Mean dwell in the burst state.
  double mean_gap_cycles = 20000.0;    ///< Mean dwell in the quiet state.

  // kDiurnal:
  double period_cycles = 100000.0;  ///< Length of one rate cycle.
  double amplitude = 0.5;           ///< Peak rate swing, in [0, 1).

  // kClosedLoop:
  uint32_t concurrency = 8;  ///< Always-on clients.
};

/// Generates the first `count` arrival cycles of the configured process,
/// ascending (ties allowed — two requests may land on one cycle), seeded and
/// bit-deterministic: equal (config, count, seed) always yields the equal
/// schedule, which is what keeps serving runs replayable across engine
/// modes. For kClosedLoop only the initial `concurrency` submissions are
/// scheduled (cycles 0, 1, ..., concurrency-1, clamped to count).
std::vector<sim::Cycle> GenerateArrivals(const ArrivalConfig& config,
                                         size_t count, uint64_t seed);

}  // namespace fpgadp::serve

#endif  // FPGADP_SERVE_ARRIVAL_H_
