#ifndef FPGADP_SIM_MODULE_H_
#define FPGADP_SIM_MODULE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

namespace fpgadp::obs {
class MetricsRegistry;
class TraceCounterSink;
class TraceWriter;
}  // namespace fpgadp::obs

namespace fpgadp::sim {

/// Simulated clock cycle index.
using Cycle = uint64_t;

/// Sentinel NextEventCycle() value: the module has no self-scheduled future
/// event — it only reacts to stream traffic and wakeups (or is finished
/// entirely).
inline constexpr Cycle kNoEventCycle = ~Cycle{0};

class Engine;

/// Why a module made no forward progress in a cycle. Attribution follows the
/// classic pipeline-stall taxonomy: waiting on an empty input FIFO, waiting
/// on a full output FIFO, or genuinely having no work.
enum class StallKind : uint8_t {
  kInputStarved = 0,
  kOutputBlocked = 1,
  kIdle = 2,
};

/// A hardware block in the spatial dataflow simulator. Modules communicate
/// exclusively through Stream<T> channels (see stream.h) so the composition
/// mirrors an HLS `#pragma HLS dataflow` region: every module is "running"
/// every cycle, consuming from input streams and producing to output streams
/// under backpressure.
///
/// Each cycle the engine ticks modules in registration order (compute
/// phase), then commits all streams (update phase). Two-phase streams keep
/// a write invisible until the next cycle, but tick order still matters: a
/// Read() frees FIFO space that a later-ticking producer sees the same
/// cycle, and a mutation one module makes to another from inside its Tick
/// is seen the same cycle only if the target ticks later. Registration
/// order is therefore part of the model (see Engine::AddModule).
///
/// Each Tick classifies the cycle into exactly one bucket: MarkBusy() for
/// forward progress, or MarkStall() for the three stall kinds. The engine
/// backfills any unclassified cycle as idle (FinalizeTick), so per-module
/// bucket totals always sum to the elapsed cycle count.
class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Advances the module by one clock cycle. Reads from input streams are
  /// visible immediately; writes become visible to consumers next cycle.
  virtual void Tick(Cycle cycle) = 0;

  /// True iff the module holds no in-flight state (nothing buffered, no
  /// pending latencies). The engine stops when all modules are idle and all
  /// streams are drained.
  virtual bool Idle() const = 0;

  /// Scheduling hint, asked after each tick under Run(): the earliest cycle
  /// >= `now` at which the module could make progress without a wake edge.
  /// Timer- and latency-driven modules (memory channels, retransmission
  /// timers, delay lines) return their next deadline; purely reactive ones
  /// return kNoEventCycle.
  ///
  /// The one scheduling contract: a tick Run() skips (no hint due, no commit
  /// or drain edge, no WakeUp, no item left on a bound input the module
  /// read last tick) is a no-op except for stall attribution, which
  /// AttributeSkip() reproduces in closed form. So a module binds every
  /// stream its Tick touches (Stream::BindProducer/BindConsumer, in the
  /// constructor), calls WakeUp() before any mutation of its state from
  /// outside its Tick, hints <= now while it holds output a full stream
  /// refused (a consumer that drains earlier in the cycle re-opens the path
  /// at once), and, when it leaves readable input unread, either hints the
  /// cycle it reads again or returns kNoEventCycle (Run() then re-ticks it
  /// next cycle).
  virtual Cycle NextEventCycle(Cycle now) const = 0;

  /// Engine-driven bulk attribution for a skipped gap: accounts the
  /// `to - from` skipped cycles exactly as the per-cycle Tick()s would have
  /// (AttributeSkip first, then idle backfill — the bulk analogue of
  /// FinalizeTick), keeping every bucket total bit-identical to the Step()
  /// loop.
  void AccountSkip(Cycle from, Cycle to) {
    AttributeSkip(from, to);
    ticked_ += to - from;
    if (attributed_ < ticked_) {
      idle_cycles_ += ticked_ - attributed_;
      attributed_ = ticked_;
    }
  }

  /// Requests a tick from the event-driven scheduler: at the current cycle
  /// when called from inside another module's Tick() (the engine preserves
  /// registration-order visibility), at the engine's current cycle
  /// otherwise. No-op when the module is not registered with an engine or
  /// the engine is not inside Run() (Step() ticks every module anyway).
  /// Modules whose state can be mutated from *outside* their own Tick
  /// (completion queues filled by an endpoint, outcomes published by a
  /// coordinator) call this — directly or via a wake-listener hook — so the
  /// mutation never outruns the hint they gave when they last ran.
  void WakeUp();

  const std::string& name() const { return name_; }

  /// Cycles in which the module made forward progress; for utilization
  /// reporting. Subclasses call MarkBusy() from Tick().
  uint64_t busy_cycles() const { return busy_cycles_; }

  /// Stall-attribution counters (see StallKind).
  uint64_t starved_cycles() const { return starved_cycles_; }
  uint64_t blocked_cycles() const { return blocked_cycles_; }
  uint64_t idle_cycles() const { return idle_cycles_; }

  /// Total classified cycles: busy + starved + blocked + idle.
  uint64_t attributed_cycles() const { return attributed_; }

  /// Called by the engine after each Tick(): attributes the cycle as idle
  /// when the subclass recorded nothing, keeping the per-module invariant
  /// (one bucket per ticked cycle) without requiring every subclass to
  /// classify explicitly.
  void FinalizeTick() {
    ++ticked_;
    if (attributed_ < ticked_) {
      idle_cycles_ += ticked_ - attributed_;
      attributed_ = ticked_;
    }
  }

  /// Engine probe attach: gives the module a place to emit per-item trace
  /// events (see StreamTap). Null writer detaches.
  void AttachTrace(obs::TraceWriter* writer, int pid, int tid) {
    trace_writer_ = writer;
    trace_pid_ = pid;
    trace_tid_ = tid;
  }

  /// Periodic trace sampling hook: modules owning hardware-level resources
  /// (memory bus, NIC ports) publish counter tracks here.
  virtual void SampleTraceCounters(obs::TraceCounterSink& sink) { (void)sink; }

  /// Metrics export hook for module-specific counters beyond the stall
  /// buckets (e.g. bus-busy cycles). Called by the engine when a metrics
  /// registry is attached.
  virtual void ExportCustomMetrics(obs::MetricsRegistry& registry) const {
    (void)registry;
  }

 protected:
  void MarkBusy() {
    ++busy_cycles_;
    ++attributed_;
  }

  void MarkStall(StallKind kind) {
    switch (kind) {
      case StallKind::kInputStarved: ++starved_cycles_; break;
      case StallKind::kOutputBlocked: ++blocked_cycles_; break;
      case StallKind::kIdle: ++idle_cycles_; break;
    }
    ++attributed_;
  }

  /// Bulk attribution counterparts, for AttributeSkip implementations.
  void MarkBusyN(uint64_t n) {
    busy_cycles_ += n;
    attributed_ += n;
  }

  void MarkStallN(StallKind kind, uint64_t n) {
    switch (kind) {
      case StallKind::kInputStarved: starved_cycles_ += n; break;
      case StallKind::kOutputBlocked: blocked_cycles_ += n; break;
      case StallKind::kIdle: idle_cycles_ += n; break;
    }
    attributed_ += n;
  }

  /// Hook for AccountSkip(): classify the `to - from` skipped cycles the
  /// same way the serial Tick()s would have. The default classifies nothing,
  /// which AccountSkip backfills as idle — correct for any module whose
  /// waiting Tick marks nothing (or kIdle) while its hint is pending.
  virtual void AttributeSkip(Cycle from, Cycle to) {
    (void)from;
    (void)to;
  }

  obs::TraceWriter* trace_writer() const { return trace_writer_; }
  int trace_pid() const { return trace_pid_; }
  int trace_tid() const { return trace_tid_; }

 private:
  friend class Engine;  // Sets the backpointer in AddModule.

  std::string name_;
  uint64_t busy_cycles_ = 0;
  uint64_t starved_cycles_ = 0;
  uint64_t blocked_cycles_ = 0;
  uint64_t idle_cycles_ = 0;
  uint64_t attributed_ = 0;
  uint64_t ticked_ = 0;
  /// Set by Engine::AddModule so WakeUp() can reach the scheduler. Nothing
  /// enforces one engine per module: the last AddModule wins, so a module
  /// may move to a fresh engine after its old one died, but must never be
  /// live in two engines at once.
  Engine* engine_ = nullptr;
  size_t engine_index_ = 0;
  obs::TraceWriter* trace_writer_ = nullptr;
  int trace_pid_ = 0;
  int trace_tid_ = 0;
};

}  // namespace fpgadp::sim

#endif  // FPGADP_SIM_MODULE_H_
