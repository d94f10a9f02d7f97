#ifndef FPGADP_SERVE_FRONT_DOOR_H_
#define FPGADP_SERVE_FRONT_DOOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/obs/latency_histogram.h"
#include "src/serve/arrival.h"
#include "src/shard/shard.h"
#include "src/sim/module.h"

namespace fpgadp::serve {

/// One class of traffic a serving deployment distinguishes: a name for
/// reporting, a latency SLO (which doubles as the deadline budget handed to
/// admission), and a relative share of the offered load.
struct RequestClass {
  std::string name = "default";
  /// The class's tail-latency target in cycles, measured arrival-to-merge.
  /// Deadline-feasibility admission plans against exactly this budget.
  uint64_t slo_cycles = 10000;
  /// Relative arrival weight; class draws are weight-proportional.
  double weight = 1.0;
};

/// Everything measured about one request class over a run. Latency is
/// recorded arrival-to-finalize in sim cycles for completed requests only;
/// shed requests never enter the histogram (they are counted, not timed —
/// the shed/served split is the experiment's other axis).
struct ClassStats {
  obs::LatencyHistogram latency;
  uint64_t offered = 0;         ///< Arrivals presented to admission.
  uint64_t admitted = 0;        ///< Accepted by TrySubmit.
  uint64_t shed = 0;            ///< Refused at ingress.
  uint64_t completed = 0;       ///< Gathers finalized (incl. degraded).
  uint64_t degraded = 0;        ///< Completed with missing slices.
  uint64_t slo_violations = 0;  ///< Completed with latency > slo_cycles.
};

/// The serving front door: a load-generator-plus-client module that offers
/// a configured traffic mix to a ShardCoordinator and measures what comes
/// back. It closes the loop the shard layer left open — PR5's benches
/// submitted a fixed batch and drained it; this module injects requests on
/// an arrival schedule *while the cluster runs*, which is what makes
/// latency-vs-load and admission experiments possible at all.
///
/// Determinism: every source of randomness is consumed in the constructor —
/// the arrival schedule, the per-request class draws, and every
/// Workload::Scatter plan are precomputed before the engine starts. Tick()
/// only moves cursors over that precomputed state and calls the tick-safe
/// ShardCoordinator::TrySubmit, so a run's every latency sample is
/// bit-identical between the event-driven Run() and a Step() loop — the
/// same guarantee the shard modules give.
///
/// Closed-loop traffic is response-driven, so only the initial window is
/// scheduled up front; each completion (or ingress shed) schedules the next
/// precomputed request at the current cycle. The request *contents* are
/// still precomputed — only the timing is dynamic, and it derives from
/// deterministic completions.
class FrontDoor : public sim::Module {
 public:
  /// Registers one request of class `class_index` with the workload (e.g.
  /// SyntheticWorkload::AddRequest) and returns its request id. Called from
  /// the FrontDoor constructor, once per request, in arrival order —
  /// outside any tick, so it may be arbitrarily heavy.
  using RequestFactory = std::function<uint64_t(uint32_t class_index,
                                                size_t sequence)>;

  struct Config {
    ArrivalConfig arrivals;
    std::vector<RequestClass> classes = {RequestClass{}};
    /// Total requests the run offers (across all classes).
    size_t num_requests = 100;
    /// Seeds the arrival schedule and the class draws.
    uint64_t seed = 1;
  };

  FrontDoor(std::string name, shard::ShardCoordinator* coordinator,
            shard::Workload* workload, RequestFactory factory,
            const Config& config);

  void Tick(sim::Cycle cycle) override;
  bool Idle() const override;
  sim::Cycle NextEventCycle(sim::Cycle now) const override;
  void ExportCustomMetrics(obs::MetricsRegistry& registry) const override;

  const ClassStats& class_stats(size_t class_index) const {
    return stats_[class_index];
  }
  size_t num_classes() const { return stats_.size(); }
  /// All classes rolled into one histogram (LatencyHistogram::Merge).
  obs::LatencyHistogram MergedLatency() const;

  uint64_t total_offered() const { return total_offered_; }
  uint64_t total_admitted() const { return total_admitted_; }
  uint64_t total_shed() const { return total_shed_; }
  uint64_t total_completed() const { return total_completed_; }

  /// Test hook: every completion is appended to `log` in finalize order.
  /// Histograms aggregate time away; the chaos tier needs the time series
  /// to assert that p99 *returns* under the SLO within a recovery budget
  /// after a fault, not just that the run-wide tail looks healthy. Null
  /// (default) disables recording.
  struct CompletionRecord {
    sim::Cycle completed_at = 0;
    uint64_t latency_cycles = 0;
    uint32_t class_index = 0;
    bool degraded = false;
  };
  void set_completion_log(std::vector<CompletionRecord>* log) {
    completion_log_ = log;
  }

 private:
  /// One precomputed request: identity, class, scatter plan, and (once
  /// known) its arrival cycle.
  struct Request {
    uint64_t id = 0;
    uint32_t class_index = 0;
    sim::Cycle arrival = 0;
    std::vector<shard::SubRequest> subs;
  };

  /// Appends request `index` to the injection order at cycle `at` (used at
  /// construction for open-loop schedules and at completion time for
  /// closed-loop spawns).
  void ScheduleArrival(size_t index, sim::Cycle at);

  shard::ShardCoordinator* coordinator_;
  Config config_;

  std::vector<Request> requests_;
  std::map<uint64_t, size_t> id_to_index_;
  /// Request indices in injection order; cycles are non-decreasing.
  std::vector<size_t> inject_order_;
  size_t next_inject_ = 0;
  /// First request not yet given an arrival cycle (closed loop only; open
  /// loop schedules everything at construction).
  size_t next_unscheduled_ = 0;

  std::vector<ClassStats> stats_;
  std::vector<CompletionRecord>* completion_log_ = nullptr;
  uint64_t total_offered_ = 0;
  uint64_t total_admitted_ = 0;
  uint64_t total_shed_ = 0;
  uint64_t total_completed_ = 0;
};

}  // namespace fpgadp::serve

#endif  // FPGADP_SERVE_FRONT_DOOR_H_
