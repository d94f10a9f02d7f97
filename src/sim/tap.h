#ifndef FPGADP_SIM_TAP_H_
#define FPGADP_SIM_TAP_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/obs/trace.h"
#include "src/sim/module.h"
#include "src/sim/stream.h"

namespace fpgadp::sim {

/// A pass-through probe between two streams: forwards every item with one
/// cycle of latency and records (cycle, item) pairs — the simulator analog
/// of dropping an ILA core onto a wire. Use it to inspect timing inside a
/// pipeline (arrival times, burst shapes, inter-arrival gaps) without
/// perturbing functional results.
template <typename T>
class StreamTap : public Module {
 public:
  struct Event {
    Cycle cycle;
    T value;
  };

  /// Records at most `max_events` (older events are kept; further traffic
  /// still flows, uncaptured).
  StreamTap(std::string name, Stream<T>* in, Stream<T>* out,
            size_t max_events = 4096)
      : Module(std::move(name)), in_(in), out_(out), max_events_(max_events) {
    FPGADP_CHECK(in_ != nullptr && out_ != nullptr);
    in_->BindConsumer(this);
    out_->BindProducer(this);
  }

  void Tick(Cycle cycle) override {
    // Exactly one item per cycle: the tap is a register slice, not a burst
    // mover. Draining more would compress the burst shapes it exists to
    // record and let a tapped pipeline outrun an untapped one. Uses the
    // span API as a length-1 burst so the move skips the per-item checks.
    std::span<const T> src = in_->ReadableSpan();
    if (src.empty()) {
      MarkStall(StallKind::kInputStarved);
      return;
    }
    std::span<T> dst = out_->WritableSpan();
    if (dst.empty()) {
      MarkStall(StallKind::kOutputBlocked);
      return;
    }
    if (events_.size() < max_events_) events_.push_back({cycle, src[0]});
    ++forwarded_;
    if (trace_writer() != nullptr) {
      trace_writer()->Instant(trace_pid(), trace_tid(), name(), cycle);
    }
    dst[0] = src[0];
    in_->ConsumeRead(1);
    out_->CommitWrite(1);
    MarkBusy();
  }

  bool Idle() const override { return true; }

  /// Purely reactive: the tap only moves when its input has traffic, so the
  /// commit edge on `in_` is the complete wake set.
  Cycle NextEventCycle(Cycle now) const override {
    (void)now;
    return kNoEventCycle;
  }

  const std::vector<Event>& events() const { return events_; }
  uint64_t forwarded() const { return forwarded_; }

  /// Largest gap (in cycles) between consecutive captured events — a stall
  /// detector.
  Cycle MaxInterArrivalGap() const {
    Cycle worst = 0;
    for (size_t i = 1; i < events_.size(); ++i) {
      worst = std::max(worst, events_[i].cycle - events_[i - 1].cycle);
    }
    return worst;
  }

 protected:
  void AttributeSkip(Cycle from, Cycle to) override {
    // The tap is only ever skipped while its input is empty, where the
    // per-cycle Tick marks input-starved (with traffic queued it is re-armed
    // every cycle, including while output-blocked).
    MarkStallN(StallKind::kInputStarved, to - from);
  }

 private:
  Stream<T>* in_;
  Stream<T>* out_;
  size_t max_events_;
  std::vector<Event> events_;
  uint64_t forwarded_ = 0;
};

}  // namespace fpgadp::sim

#endif  // FPGADP_SIM_TAP_H_
