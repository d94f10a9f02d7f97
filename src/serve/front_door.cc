#include "src/serve/front_door.h"

#include <utility>

#include "src/common/check.h"
#include "src/common/random.h"
#include "src/obs/metrics.h"

namespace fpgadp::serve {

FrontDoor::FrontDoor(std::string name, shard::ShardCoordinator* coordinator,
                     shard::Workload* workload, RequestFactory factory,
                     const Config& config)
    : sim::Module(std::move(name)), coordinator_(coordinator), config_(config) {
  FPGADP_CHECK(coordinator_ != nullptr);
  FPGADP_CHECK(workload != nullptr);
  FPGADP_CHECK(!config_.classes.empty());
  FPGADP_CHECK(config_.num_requests > 0);
  // NextEventCycle covers the arrival schedule and unpolled outcomes, and
  // the coordinator wakes this module at every finalize.
  coordinator_->SetOutcomeListener(this);
  stats_.resize(config_.classes.size());

  double total_weight = 0.0;
  for (const RequestClass& c : config_.classes) {
    FPGADP_CHECK(c.weight > 0.0);
    FPGADP_CHECK(c.slo_cycles > 0);
    total_weight += c.weight;
  }

  // All randomness is spent here, before the engine's first tick: the class
  // mix, the request registrations (and through them the workload's scatter
  // plans), and the arrival schedule. Tick() is a pure cursor walk.
  Rng class_rng(config_.seed ^ 0xC1A55D7A0ull);
  requests_.reserve(config_.num_requests);
  for (size_t i = 0; i < config_.num_requests; ++i) {
    uint32_t cls = 0;
    double pick = class_rng.NextDouble() * total_weight;
    for (; cls + 1 < config_.classes.size(); ++cls) {
      pick -= config_.classes[cls].weight;
      if (pick < 0.0) break;
    }
    Request req;
    req.class_index = cls;
    req.id = factory(cls, i);
    req.subs = workload->Scatter(req.id);
    FPGADP_CHECK(!req.subs.empty());
    const bool inserted =
        id_to_index_.emplace(req.id, requests_.size()).second;
    FPGADP_CHECK(inserted);  // Factory must mint unique request ids.
    requests_.push_back(std::move(req));
  }

  const std::vector<sim::Cycle> schedule =
      GenerateArrivals(config_.arrivals, config_.num_requests, config_.seed);
  inject_order_.reserve(config_.num_requests);
  for (size_t i = 0; i < schedule.size(); ++i) ScheduleArrival(i, schedule[i]);
  next_unscheduled_ = schedule.size();  // < num_requests only closed-loop.
}

void FrontDoor::ScheduleArrival(size_t index, sim::Cycle at) {
  FPGADP_CHECK(inject_order_.empty() ||
               requests_[inject_order_.back()].arrival <= at);
  requests_[index].arrival = at;
  inject_order_.push_back(index);
}

void FrontDoor::Tick(sim::Cycle cycle) {
  bool progressed = false;

  // Harvest finished gathers first so a closed-loop spawn triggered by a
  // completion can still inject this cycle.
  shard::PartialOutcome outcome;
  while (coordinator_->PollOutcome(&outcome)) {
    progressed = true;
    const auto it = id_to_index_.find(outcome.request_id);
    FPGADP_CHECK(it != id_to_index_.end());
    Request& req = requests_[it->second];
    ClassStats& cs = stats_[req.class_index];
    const uint64_t latency = outcome.completed_at - req.arrival;
    cs.latency.Record(latency);
    ++cs.completed;
    ++total_completed_;
    if (outcome.degraded()) ++cs.degraded;
    if (latency > config_.classes[req.class_index].slo_cycles) {
      ++cs.slo_violations;
    }
    if (completion_log_ != nullptr) {
      completion_log_->push_back(
          {outcome.completed_at, latency, req.class_index,
           outcome.degraded()});
    }
    if (next_unscheduled_ < requests_.size()) {
      ScheduleArrival(next_unscheduled_++, cycle);  // Closed-loop client.
    }
  }

  // Inject every arrival due by now, in schedule order. An ingress shed in
  // closed-loop mode frees its client immediately (fast-fail), so the next
  // request lands at this same cycle and is picked up by this loop.
  while (next_inject_ < inject_order_.size() &&
         requests_[inject_order_[next_inject_]].arrival <= cycle) {
    Request& req = requests_[inject_order_[next_inject_]];
    ++next_inject_;
    progressed = true;
    ClassStats& cs = stats_[req.class_index];
    ++cs.offered;
    ++total_offered_;
    const uint64_t budget = config_.classes[req.class_index].slo_cycles;
    if (coordinator_->TrySubmit(req.id, req.subs, budget)) {
      ++cs.admitted;
      ++total_admitted_;
      req.arrival = cycle;  // Latency counts from actual injection.
    } else {
      ++cs.shed;
      ++total_shed_;
      if (next_unscheduled_ < requests_.size()) {
        ScheduleArrival(next_unscheduled_++, cycle);
      }
    }
  }

  if (progressed) MarkBusy();
  // No-progress ticks stay unclassified (idle backfill), matching the
  // default AttributeSkip under fast-forward bit-for-bit.
}

bool FrontDoor::Idle() const {
  return next_inject_ >= inject_order_.size() &&
         next_unscheduled_ >= requests_.size() &&
         coordinator_->outcomes_available() == 0;
}

sim::Cycle FrontDoor::NextEventCycle(sim::Cycle now) const {
  // Unpolled outcomes must be harvested before any skip: they can spawn
  // closed-loop arrivals and they gate Idle().
  if (coordinator_->outcomes_available() > 0) return now;
  if (next_inject_ < inject_order_.size()) {
    const sim::Cycle due = requests_[inject_order_[next_inject_]].arrival;
    return due < now ? now : due;
  }
  // Waiting on responses (closed loop) or fully drained: reactive only.
  return sim::kNoEventCycle;
}

void FrontDoor::ExportCustomMetrics(obs::MetricsRegistry& registry) const {
  const std::string base = "serve." + this->name();
  registry.GetGauge(base + ".offered")
      ->Set(static_cast<double>(total_offered_));
  registry.GetGauge(base + ".admitted")
      ->Set(static_cast<double>(total_admitted_));
  registry.GetGauge(base + ".shed")->Set(static_cast<double>(total_shed_));
  registry.GetGauge(base + ".completed")
      ->Set(static_cast<double>(total_completed_));
  for (size_t c = 0; c < stats_.size(); ++c) {
    const std::string cls = base + "." + config_.classes[c].name;
    registry.GetGauge(cls + ".p99")
        ->Set(static_cast<double>(stats_[c].latency.p99()));
    registry.GetGauge(cls + ".slo_violations")
        ->Set(static_cast<double>(stats_[c].slo_violations));
  }
}

obs::LatencyHistogram FrontDoor::MergedLatency() const {
  obs::LatencyHistogram merged(stats_.empty()
                                   ? 4
                                   : stats_[0].latency.sub_bucket_bits());
  for (const ClassStats& cs : stats_) merged.Merge(cs.latency);
  return merged;
}

}  // namespace fpgadp::serve
