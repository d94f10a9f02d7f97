#ifndef FPGADP_SIM_KERNELS_H_
#define FPGADP_SIM_KERNELS_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/sim/module.h"
#include "src/sim/stream.h"

namespace fpgadp::sim {

/// Timing contract of a pipelined HLS kernel: it can *issue* up to `lanes`
/// items every `ii` cycles (initiation interval), and each item leaves the
/// pipeline `latency` cycles after issue. An ideal `#pragma HLS pipeline
/// II=1` kernel is {ii=1, lanes=1, latency=depth}.
struct KernelTiming {
  uint32_t ii = 1;
  uint32_t lanes = 1;
  uint32_t latency = 1;
};

/// Feeds the contents of a vector into an output stream at up to
/// `lanes` items per cycle — the simulator analog of an AXI read burst from
/// host memory feeding a kernel.
template <typename T>
class VectorSource : public Module {
 public:
  VectorSource(std::string name, std::vector<T> data, Stream<T>* out,
               uint32_t lanes = 1)
      : Module(std::move(name)), data_(std::move(data)), out_(out),
        lanes_(lanes) {
    FPGADP_CHECK(out_ != nullptr);
    FPGADP_CHECK(lanes_ > 0);
    out_->BindProducer(this);
  }

  void Tick(Cycle) override {
    // Burst write: up to `lanes` items per cycle, one bounds check and one
    // bulk copy per contiguous run (an empty WritableSpan is exactly the
    // FIFO-full condition the per-item loop would have hit).
    size_t budget = std::min<size_t>(lanes_, data_.size() - pos_);
    size_t written = 0;
    while (written < budget) {
      std::span<T> dst = out_->WritableSpan();
      if (dst.empty()) break;
      const size_t n = std::min(budget - written, dst.size());
      std::copy_n(data_.begin() + static_cast<ptrdiff_t>(pos_), n,
                  dst.begin());
      out_->CommitWrite(n);
      pos_ += n;
      written += n;
    }
    if (written > 0) {
      MarkBusy();
    } else if (pos_ < data_.size()) {
      MarkStall(StallKind::kOutputBlocked);  // data left but FIFO is full
    } else {
      MarkStall(StallKind::kIdle);  // burst fully emitted
    }
  }

  bool Idle() const override { return pos_ >= data_.size(); }

  /// With streams empty the source either still has data (it will write
  /// next cycle) or is exhausted (it never acts again).
  Cycle NextEventCycle(Cycle now) const override {
    return pos_ < data_.size() ? now : kNoEventCycle;
  }

  /// Items emitted so far.
  size_t emitted() const { return pos_; }

 private:
  std::vector<T> data_;
  Stream<T>* out_;
  uint32_t lanes_;
  size_t pos_ = 0;
};

/// Drains a stream into a vector at up to `lanes` items per cycle.
template <typename T>
class VectorSink : public Module {
 public:
  VectorSink(std::string name, Stream<T>* in, uint32_t lanes = 1)
      : Module(std::move(name)), in_(in), lanes_(lanes) {
    FPGADP_CHECK(in_ != nullptr);
    FPGADP_CHECK(lanes_ > 0);
    in_->BindConsumer(this);
  }

  void Tick(Cycle) override {
    // Burst read: drain up to `lanes` committed items with one bulk append
    // per contiguous run.
    size_t drained = 0;
    while (drained < lanes_) {
      std::span<const T> src = in_->ReadableSpan();
      if (src.empty()) break;
      const size_t n = std::min<size_t>(lanes_ - drained, src.size());
      collected_.insert(collected_.end(), src.begin(),
                        src.begin() + static_cast<ptrdiff_t>(n));
      in_->ConsumeRead(n);
      drained += n;
    }
    if (drained > 0) {
      MarkBusy();
      last_arrival_ = true;
    } else {
      MarkStall(StallKind::kInputStarved);  // a sink only ever waits on input
    }
  }

  bool Idle() const override { return true; }

  /// Purely reactive; a skipped sink would have counted starvation.
  Cycle NextEventCycle(Cycle) const override { return kNoEventCycle; }

  const std::vector<T>& collected() const { return collected_; }
  std::vector<T>& collected() { return collected_; }

 protected:
  void AttributeSkip(Cycle from, Cycle to) override {
    MarkStallN(StallKind::kInputStarved, to - from);
  }

 private:
  Stream<T>* in_;
  uint32_t lanes_;
  std::vector<T> collected_;
  bool last_arrival_ = false;
};

/// A pipelined map/filter kernel: applies `fn` to each input item; emitting
/// the returned value, or dropping the item when `fn` returns nullopt (the
/// line-rate filter pattern — the kernel still consumes one item per lane per
/// II, so throughput is input-bound, not selectivity-bound).
template <typename In, typename Out>
class TransformKernel : public Module {
 public:
  using Fn = std::function<std::optional<Out>(const In&)>;

  TransformKernel(std::string name, Stream<In>* in, Stream<Out>* out, Fn fn,
                  KernelTiming timing = {})
      : Module(std::move(name)), in_(in), out_(out), fn_(std::move(fn)),
        timing_(timing) {
    FPGADP_CHECK(in_ != nullptr && out_ != nullptr);
    FPGADP_CHECK(timing_.ii > 0 && timing_.lanes > 0);
    in_->BindConsumer(this);
    out_->BindProducer(this);
  }

  void Tick(Cycle cycle) override {
    bool progressed = false;
    // Retire phase: completed items leave the pipeline into the out stream,
    // burst-written per contiguous free run.
    uint32_t retired = 0;
    while (retired < timing_.lanes && !pipe_.empty() &&
           pipe_.front().ready <= cycle) {
      std::span<Out> dst = out_->WritableSpan();
      if (dst.empty()) break;  // FIFO full — same exit CanWrite() gave
      size_t n = 0;
      while (n < dst.size() && retired + n < timing_.lanes &&
             !pipe_.empty() && pipe_.front().ready <= cycle) {
        dst[n++] = std::move(pipe_.front().value);
        pipe_.pop_front();
      }
      out_->CommitWrite(n);
      retired += static_cast<uint32_t>(n);
      progressed = progressed || n > 0;
    }
    // Issue phase: accept new inputs if the II gate is open and the pipeline
    // register file has room (bounded by latency*lanes in-flight items).
    // Inputs arrive as read bursts; the room bound is re-checked per item
    // because filtered (dropped) items occupy no pipeline slot, so a burst
    // can legally consume more items than the pipeline has free slots.
    const size_t max_in_flight =
        static_cast<size_t>(timing_.latency) * timing_.lanes + timing_.lanes;
    if (cycle >= next_issue_) {
      uint32_t issued = 0;
      while (issued < timing_.lanes &&
             pipe_.size() + drop_slots_ < max_in_flight) {
        std::span<const In> src = in_->ReadableSpan();
        if (src.empty()) break;  // starved — same exit CanRead() gave
        const size_t n = std::min<size_t>(timing_.lanes - issued, src.size());
        size_t taken = 0;
        while (taken < n && pipe_.size() + drop_slots_ < max_in_flight) {
          std::optional<Out> produced = fn_(src[taken]);
          ++taken;
          if (produced.has_value()) {
            pipe_.push_back({cycle + timing_.latency, std::move(*produced)});
          }
        }
        in_->ConsumeRead(taken);
        consumed_ += taken;
        issued += static_cast<uint32_t>(taken);
        progressed = progressed || taken > 0;
        if (taken < n) break;  // pipeline register file filled mid-burst
      }
      if (issued > 0) next_issue_ = cycle + timing_.ii;
    }
    if (progressed) {
      MarkBusy();
    } else if (!pipe_.empty() && pipe_.front().ready <= cycle &&
               !out_->CanWrite()) {
      MarkStall(StallKind::kOutputBlocked);
    } else if (!in_->CanRead() && pipe_.empty()) {
      MarkStall(StallKind::kInputStarved);
    } else {
      // Items in the latency shadow, or the II gate is closed: the kernel is
      // limited by its own timing contract, not by its neighbours.
      MarkStall(StallKind::kIdle);
    }
  }

  bool Idle() const override { return pipe_.empty(); }

  /// Empty pipeline: reactive (waiting on input). Otherwise the front
  /// in-flight item retires when its latency elapses, and readable input
  /// issues when the II gate opens.
  Cycle NextEventCycle(Cycle now) const override {
    if (pipe_.empty()) return kNoEventCycle;
    Cycle next = pipe_.front().ready;
    if (in_->CanRead()) next = std::min(next, next_issue_);
    return std::max(next, now);
  }

  /// Items consumed from the input stream.
  uint64_t consumed() const { return consumed_; }

 protected:
  void AttributeSkip(Cycle from, Cycle to) override {
    // Matches the serial waiting branches: no input and nothing in flight
    // counts as starvation; items in the latency shadow count as idle.
    if (pipe_.empty()) MarkStallN(StallKind::kInputStarved, to - from);
  }

 private:
  struct InFlight {
    Cycle ready;
    Out value;
  };

  Stream<In>* in_;
  Stream<Out>* out_;
  Fn fn_;
  KernelTiming timing_;
  std::deque<InFlight> pipe_;
  Cycle next_issue_ = 0;
  uint64_t consumed_ = 0;
  // Dropped (filtered) items occupy no pipeline slot in this model.
  static constexpr size_t drop_slots_ = 0;
};

/// A pipelined reduction: folds `expected_count` input items into an
/// accumulator with `fn`, then emits the single result. `expected_count`
/// plays the role of the end-of-stream signal an RTL design would carry in a
/// side channel.
template <typename In, typename Acc>
class ReduceKernel : public Module {
 public:
  using Fn = std::function<void(Acc&, const In&)>;

  ReduceKernel(std::string name, Stream<In>* in, Stream<Acc>* out, Acc init,
               Fn fn, uint64_t expected_count, KernelTiming timing = {})
      : Module(std::move(name)), in_(in), out_(out), acc_(std::move(init)),
        fn_(std::move(fn)), expected_(expected_count), timing_(timing) {
    FPGADP_CHECK(in_ != nullptr && out_ != nullptr);
    in_->BindConsumer(this);
    out_->BindProducer(this);
  }

  void Tick(Cycle cycle) override {
    bool progressed = false;
    if (consumed_ < expected_ && cycle >= next_issue_) {
      const uint64_t budget =
          std::min<uint64_t>(timing_.lanes, expected_ - consumed_);
      uint64_t issued = 0;
      while (issued < budget) {
        std::span<const In> src = in_->ReadableSpan();
        if (src.empty()) break;
        const size_t n = static_cast<size_t>(
            std::min<uint64_t>(budget - issued, src.size()));
        for (size_t i = 0; i < n; ++i) fn_(acc_, src[i]);
        in_->ConsumeRead(n);
        consumed_ += n;
        issued += n;
        progressed = true;
      }
      if (issued > 0) next_issue_ = cycle + timing_.ii;
    }
    if (consumed_ == expected_ && !emitted_ && out_->CanWrite()) {
      out_->Write(acc_);
      emitted_ = true;
      progressed = true;
    }
    if (progressed) {
      MarkBusy();
    } else if (consumed_ == expected_ && !emitted_) {
      MarkStall(StallKind::kOutputBlocked);
    } else if (consumed_ < expected_ && !in_->CanRead()) {
      MarkStall(StallKind::kInputStarved);
    } else {
      MarkStall(StallKind::kIdle);  // II gate closed or reduction finished
    }
  }

  bool Idle() const override { return emitted_ || consumed_ < expected_; }

  /// Mid-fold the kernel is input-driven; once the count is reached the
  /// emit is self-scheduled for the very next tick; after that, done.
  Cycle NextEventCycle(Cycle now) const override {
    if (consumed_ == expected_ && !emitted_) return now;
    return kNoEventCycle;
  }

  uint64_t consumed() const { return consumed_; }

 protected:
  void AttributeSkip(Cycle from, Cycle to) override {
    if (consumed_ < expected_) {
      MarkStallN(StallKind::kInputStarved, to - from);
    } else {
      MarkStallN(StallKind::kIdle, to - from);  // reduction finished
    }
  }

 private:
  Stream<In>* in_;
  Stream<Acc>* out_;
  Acc acc_;
  Fn fn_;
  uint64_t expected_;
  KernelTiming timing_;
  Cycle next_issue_ = 0;
  uint64_t consumed_ = 0;
  bool emitted_ = false;
};

/// Fixed-latency, full-rate pass-through — models a wire, a register slice,
/// or a serialization stage (e.g. NIC MAC) between two stream endpoints.
template <typename T>
class DelayLine : public Module {
 public:
  DelayLine(std::string name, Stream<T>* in, Stream<T>* out, uint32_t latency,
            uint32_t lanes = 1)
      : Module(std::move(name)), in_(in), out_(out), latency_(latency),
        lanes_(lanes) {
    FPGADP_CHECK(in_ != nullptr && out_ != nullptr);
    in_->BindConsumer(this);
    out_->BindProducer(this);
  }

  void Tick(Cycle cycle) override {
    bool progressed = false;
    uint32_t moved = 0;
    while (moved < lanes_ && !pending_.empty() &&
           pending_.front().first <= cycle) {
      std::span<T> dst = out_->WritableSpan();
      if (dst.empty()) break;  // FIFO full — same exit CanWrite() gave
      size_t n = 0;
      while (n < dst.size() && moved + n < lanes_ && !pending_.empty() &&
             pending_.front().first <= cycle) {
        dst[n++] = std::move(pending_.front().second);
        pending_.pop_front();
      }
      out_->CommitWrite(n);
      moved += static_cast<uint32_t>(n);
      progressed = progressed || n > 0;
    }
    const size_t bound = static_cast<size_t>(latency_ + 1) * lanes_;
    uint32_t accepted = 0;
    while (accepted < lanes_ && pending_.size() < bound) {
      std::span<const T> src = in_->ReadableSpan();
      if (src.empty()) break;  // starved — same exit CanRead() gave
      const size_t n = std::min({static_cast<size_t>(lanes_ - accepted),
                                 src.size(), bound - pending_.size()});
      for (size_t i = 0; i < n; ++i) {
        pending_.emplace_back(cycle + latency_, src[i]);
      }
      in_->ConsumeRead(n);
      accepted += static_cast<uint32_t>(n);
      progressed = true;
    }
    if (progressed) {
      MarkBusy();
    } else if (!pending_.empty() && pending_.front().first <= cycle &&
               !out_->CanWrite()) {
      MarkStall(StallKind::kOutputBlocked);
    } else if (pending_.empty() && !in_->CanRead()) {
      MarkStall(StallKind::kInputStarved);
    } else {
      MarkStall(StallKind::kIdle);  // items still inside the delay window
    }
  }

  bool Idle() const override { return pending_.empty(); }

  Cycle NextEventCycle(Cycle now) const override {
    if (pending_.empty()) return kNoEventCycle;
    return pending_.front().first > now ? pending_.front().first : now;
  }

 protected:
  void AttributeSkip(Cycle from, Cycle to) override {
    // Matches the serial branches: empty+no-input is starvation, items
    // still inside the delay window are idle.
    if (pending_.empty()) MarkStallN(StallKind::kInputStarved, to - from);
  }

 private:
  Stream<T>* in_;
  Stream<T>* out_;
  uint32_t latency_;
  uint32_t lanes_;
  std::deque<std::pair<Cycle, T>> pending_;
};

}  // namespace fpgadp::sim

#endif  // FPGADP_SIM_KERNELS_H_
