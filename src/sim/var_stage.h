#ifndef FPGADP_SIM_VAR_STAGE_H_
#define FPGADP_SIM_VAR_STAGE_H_

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/sim/module.h"
#include "src/sim/stream.h"

namespace fpgadp::sim {

/// A pipeline stage whose occupancy varies per item: it accepts one item,
/// works on it for `cost(item)` cycles (the stage is not available to the
/// next item meanwhile — the hardware is a single shared engine, not
/// replicated per item), then emits `fn(item)`. This models the coarse
/// search / LUT build / list scan engines of accelerators like FANNS,
/// where per-query work depends on data (e.g. how long the probed lists
/// are).
template <typename In, typename Out>
class VarStage : public Module {
 public:
  using Fn = std::function<Out(const In&)>;
  using CostFn = std::function<uint64_t(const In&)>;

  VarStage(std::string name, Stream<In>* in, Stream<Out>* out, Fn fn,
           CostFn cost)
      : Module(std::move(name)), in_(in), out_(out), fn_(std::move(fn)),
        cost_(std::move(cost)) {
    FPGADP_CHECK(in_ != nullptr && out_ != nullptr);
    in_->BindConsumer(this);
    out_->BindProducer(this);
  }

  void Tick(Cycle cycle) override {
    bool progressed = false;
    if (holding_) {
      if (cycle < ready_at_) {
        MarkBusy();  // actively computing on the held item
        return;
      }
      std::span<Out> dst = out_->WritableSpan();
      if (dst.empty()) {
        MarkStall(StallKind::kOutputBlocked);
        return;
      }
      dst[0] = std::move(*pending_);
      out_->CommitWrite(1);
      pending_.reset();
      holding_ = false;
      progressed = true;
    }
    // Length-1 burst: the stage is a single shared engine, so it accepts at
    // most one item per cycle by design.
    std::span<const In> src = in_->ReadableSpan();
    if (!src.empty()) {
      const In& item = src[0];
      const uint64_t cost = cost_(item);
      pending_ = fn_(item);
      in_->ConsumeRead(1);
      ready_at_ = cycle + (cost > 0 ? cost : 1);
      holding_ = true;
      progressed = true;
    }
    if (progressed) {
      MarkBusy();
    } else {
      MarkStall(StallKind::kInputStarved);
    }
  }

  bool Idle() const override { return !holding_; }

  /// Holding an item: the stage emits when its per-item cost elapses.
  /// Empty-handed it waits on input.
  Cycle NextEventCycle(Cycle now) const override {
    if (!holding_) return kNoEventCycle;
    return ready_at_ > now ? ready_at_ : now;
  }

  /// Items fully processed.
  uint64_t processed() const { return out_ ? out_->total_pushed() : 0; }

 protected:
  void AttributeSkip(Cycle from, Cycle to) override {
    // The serial ticks mark busy while the engine crunches the held item
    // and starved while waiting for one.
    if (holding_) {
      MarkBusyN(to - from);
    } else {
      MarkStallN(StallKind::kInputStarved, to - from);
    }
  }

 private:
  Stream<In>* in_;
  Stream<Out>* out_;
  Fn fn_;
  CostFn cost_;
  bool holding_ = false;
  Cycle ready_at_ = 0;
  std::optional<Out> pending_;
};

}  // namespace fpgadp::sim

#endif  // FPGADP_SIM_VAR_STAGE_H_
