#ifndef PERFBENCH_WRAPPERS_H_
#define PERFBENCH_WRAPPERS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "spans.h"
#include "src/serve/front_door.h"
#include "src/shard/shard.h"

namespace perfbench {

/// A forwarding shard::Workload that times the three calls carrying real
/// work — Scatter, Serve and Merge — as spans tagged with the request id
/// (Serve also with the shard). Every other virtual is forwarded untimed, so
/// the wrapped workload's answers, and with them every simulated cycle, are
/// exactly those of the inner one. With a null tracer it is a pure
/// pass-through.
class TimedWorkload : public fpgadp::shard::Workload {
 public:
  /// `prefix` names the spans: "<prefix>.scatter", ".serve", ".merge".
  TimedWorkload(fpgadp::shard::Workload* inner, Tracer* tracer,
                const std::string& prefix)
      : inner_(inner), tracer_(tracer) {
    if (tracer_ != nullptr) {
      scatter_ = tracer_->Name(prefix + ".scatter");
      serve_ = tracer_->Name(prefix + ".serve");
      merge_ = tracer_->Name(prefix + ".merge");
    }
  }

  std::vector<fpgadp::shard::SubRequest> Scatter(
      uint64_t request_id) override {
    ScopedSpan span(tracer_, scatter_, request_id);
    return inner_->Scatter(request_id);
  }

  fpgadp::shard::Service Serve(uint32_t shard, uint64_t request_id) override {
    ScopedSpan span(tracer_, serve_, request_id, shard);
    return inner_->Serve(shard, request_id);
  }

  void Merge(uint64_t request_id,
             const fpgadp::shard::PartialOutcome& outcome) override {
    ScopedSpan span(tracer_, merge_, request_id);
    inner_->Merge(request_id, outcome);
  }

  uint64_t MergedBytes(uint64_t request_id, uint64_t done_mask,
                       uint64_t concat_bytes) override {
    return inner_->MergedBytes(request_id, done_mask, concat_bytes);
  }

  uint64_t ScatterSharedBytes(uint64_t request_id) override {
    return inner_->ScatterSharedBytes(request_id);
  }

  uint32_t SliceOwner(uint32_t shard, uint64_t request_id) override {
    return inner_->SliceOwner(shard, request_id);
  }

  void CommitMigration(const fpgadp::shard::MigrationPlan& plan) override {
    inner_->CommitMigration(plan);
  }

 private:
  fpgadp::shard::Workload* inner_;
  Tracer* tracer_;
  uint32_t scatter_ = 0;
  uint32_t serve_ = 0;
  uint32_t merge_ = 0;
};

/// The serving front door with its Tick timed. Tick fires on every visited
/// cycle, so it is an aggregate (count + total), not one span per call; the
/// total includes the admission calls (ShardCoordinator::TrySubmit) nested
/// in it. Everything else is the base class's.
class TimedFrontDoor : public fpgadp::serve::FrontDoor {
 public:
  TimedFrontDoor(std::string name, fpgadp::shard::ShardCoordinator* coordinator,
                 fpgadp::shard::Workload* workload, RequestFactory factory,
                 const Config& config, Tracer* tracer)
      : FrontDoor(std::move(name), coordinator, workload, std::move(factory),
                  config),
        tracer_(tracer),
        tick_(tracer->Name("serve.door_tick")) {}

  void Tick(fpgadp::sim::Cycle cycle) override {
    tracer_->BeginAggregate(tick_);
    FrontDoor::Tick(cycle);
    tracer_->End();
  }

 private:
  Tracer* tracer_;
  uint32_t tick_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WRAPPERS_H_
