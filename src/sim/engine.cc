#include "src/sim/engine.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "src/common/check.h"
#include "src/common/units.h"

namespace fpgadp::sim {

namespace {
/// Consecutive full-run-list event cycles before the event loop drops into
/// its saturated (every-module) inner loop; see RunEventDriven.
constexpr uint32_t kDenseStreakCycles = 8;

/// Busy-probe window inside the saturated loop: every this-many cycles the
/// loop samples the busy-cycle sum and exits back to per-module scheduling
/// when the whole window accrued fewer busy-marks than one fully-busy cycle
/// would; see RunEventDriven.
constexpr uint32_t kSaturationLullCycles = 16;

/// Min-heap order for the (cycle, module index) calendar entries.
bool HeapLater(const std::pair<Cycle, size_t>& a,
               const std::pair<Cycle, size_t>& b) {
  return a.first > b.first;
}

constexpr size_t kNone = ~size_t{0};
}  // namespace

void Module::WakeUp() {
  if (engine_ != nullptr) engine_->WakeModule(engine_index_);
}

Engine::Engine(double clock_hz) : clock_hz_(clock_hz) {}

Engine::~Engine() {
  // Safety net for manually stepped harnesses that forget the final flush;
  // a Run()-driven engine has already flushed, so this stays a no-op (and
  // never touches modules that might not outlive an oddly-ordered scope).
  // Streams attached to the commit queue need no detach here: the queue is
  // shared-owned, so it outlives whichever of engine/stream dies last.
  if (!flushed_) FlushObservers();
}

void Engine::AddModule(Module* module) {
  FPGADP_CHECK(module != nullptr);
  // WakeUp() routes through this backpointer. Last registration wins: a
  // module may be re-registered with a fresh engine after its previous one
  // died (the dead engine cannot clear the pointer — modules routinely
  // outlive engines and vice versa), but must never be live in two engines
  // at once.
  module->engine_ = this;
  module->engine_index_ = modules_.size();
  modules_.push_back(module);
  schedule_dirty_ = true;
}

void Engine::AddStream(StreamBase* stream) {
  FPGADP_CHECK(stream != nullptr);
  streams_.push_back(stream);
  schedule_dirty_ = true;
}

void Engine::RebuildSchedule() {
  // The module/stream set changed: settle any lazily-deferred event-mode
  // attribution against the OLD set before the indices shift under it.
  InvalidateEventState();
  schedule_dirty_ = false;
  // Wire the commit-skip plumbing: commits drain the dirty-stream list
  // writers push onto. Streams already dirty (e.g. preloaded by a harness
  // before the first Step) are re-seeded from their flags.
  commit_queue_->clear();
  for (StreamBase* s : streams_) {
    s->commit_queue_ = commit_queue_;
    if (s->has_staged()) commit_queue_->push_back(s);
  }
  // Cache each stream's endpoint registration indices so event-mode commit
  // and drain edges arm the neighbour with one array write instead of a
  // pointer lookup.
  std::unordered_map<const Module*, size_t> index;
  index.reserve(modules_.size());
  for (size_t i = 0; i < modules_.size(); ++i) index[modules_[i]] = i;
  for (StreamBase* s : streams_) {
    s->producer_index_ = StreamBase::kNoEndpoint;
    s->consumer_index_ = StreamBase::kNoEndpoint;
    const auto ip = index.find(s->producer());
    const auto ic = index.find(s->consumer());
    if (ip != index.end()) s->producer_index_ = ip->second;
    if (ic != index.end()) s->consumer_index_ = ic->second;
  }
}

void Engine::EnableTracing(obs::TraceWriter* writer, TraceOptions options) {
  FPGADP_CHECK(writer != nullptr);
  FPGADP_CHECK(options.sample_period > 0);
  trace_ = std::make_unique<TraceState>();
  trace_->writer = writer;
  trace_->options = std::move(options);
  trace_->pid = writer->NewProcess(trace_->options.label);
  observability_checked_ = true;
  if (!metrics_ && obs::GlobalMetrics() != nullptr) {
    EnableMetrics(obs::GlobalMetrics());
  }
}

void Engine::EnableMetrics(obs::MetricsRegistry* registry) {
  FPGADP_CHECK(registry != nullptr);
  metrics_ = std::make_unique<MetricsState>();
  metrics_->registry = registry;
}

void Engine::SetupObservability() {
  observability_checked_ = true;
  if (!trace_ && obs::GlobalTraceWriter() != nullptr) {
    EnableTracing(obs::GlobalTraceWriter());
  }
  if (!metrics_ && obs::GlobalMetrics() != nullptr) {
    EnableMetrics(obs::GlobalMetrics());
  }
}

void Engine::EnsureProbeSlots() {
  if (trace_) {
    TraceState& t = *trace_;
    while (t.tids.size() < modules_.size()) {
      const size_t i = t.tids.size();
      const int tid = t.writer->NewThread(t.pid, modules_[i]->name());
      t.tids.push_back(tid);
      t.prev_busy.push_back(modules_[i]->busy_cycles());
      t.span_start.push_back(0);
      t.span_open.push_back(false);
      modules_[i]->AttachTrace(t.writer, t.pid, tid);
    }
    while (t.last_depth.size() < streams_.size()) t.last_depth.push_back(-1);
  }
  if (metrics_) {
    MetricsState& m = *metrics_;
    obs::MetricsRegistry& reg = *m.registry;
    // Resolve instrument handles by name once per module/stream; exports
    // and depth samples afterwards touch only cached pointers.
    while (m.module_cursor.size() < modules_.size()) {
      const std::string base =
          "module." + modules_[m.module_cursor.size()]->name();
      MetricsState::ModuleCursor cur;
      cur.busy_c = reg.GetCounter(base + ".busy_cycles");
      cur.starved_c = reg.GetCounter(base + ".starved_cycles");
      cur.blocked_c = reg.GetCounter(base + ".blocked_cycles");
      cur.idle_c = reg.GetCounter(base + ".idle_cycles");
      m.module_cursor.push_back(cur);
    }
    while (m.stream_cursor.size() < streams_.size()) {
      const std::string base =
          "stream." + streams_[m.stream_cursor.size()]->name();
      MetricsState::StreamCursor cur;
      cur.pushed_c = reg.GetCounter(base + ".pushed");
      cur.popped_c = reg.GetCounter(base + ".popped");
      m.stream_cursor.push_back(cur);
    }
    while (m.depth_hist.size() < streams_.size()) {
      m.depth_hist.push_back(reg.GetHistogram(
          "stream." + streams_[m.depth_hist.size()]->name() + ".depth"));
    }
    if (m.cycles_c == nullptr) m.cycles_c = reg.GetCounter("engine.cycles");
  }
}

void Engine::Step() {
  if (!observability_checked_) SetupObservability();
  if (schedule_dirty_) RebuildSchedule();
  // Step ticks every module; settle any event-mode attribution first so
  // AccountSkip never double-counts a cycle FinalizeTick is about to count.
  InvalidateEventState();
  TickAndCommit();
  if (trace_ || metrics_) ProbeStep();
  flushed_ = false;
  ++now_;
}

void Engine::TickAndCommit() {
  // Tick() runs once per module per cycle; by-name metrics lookups (hash +
  // registry mutex) do not belong there. The guard turns any such lookup
  // into an FPGADP_DCHECK failure for the duration of this function;
  // modules cache instrument handles at construction instead. Probes run
  // after the guard is gone — they are allowed (and sampled) lookups.
  [[maybe_unused]] const obs::internal::TickPhaseGuard tick_guard;
  for (Module* m : modules_) {
    m->Tick(now_);
    m->FinalizeTick();
  }
  // Commit only the streams that staged a write this cycle — they queued
  // themselves via StreamBase::NoteStaged. Idle streams cost nothing.
  if (!commit_queue_->empty()) {
    for (StreamBase* s : *commit_queue_) s->Commit();
    commit_queue_->clear();
  }
}

void Engine::ProbeStep() {
  EnsureProbeSlots();
  if (trace_) {
    TraceState& t = *trace_;
    for (size_t i = 0; i < modules_.size(); ++i) {
      const uint64_t busy = modules_[i]->busy_cycles();
      if (busy != t.prev_busy[i]) {
        if (!t.span_open[i]) {
          t.span_open[i] = true;
          t.span_start[i] = now_;
        }
      } else if (t.span_open[i]) {
        t.writer->CompleteSpan(t.pid, t.tids[i], "busy", t.span_start[i],
                               now_ - t.span_start[i]);
        t.span_open[i] = false;
      }
      t.prev_busy[i] = busy;
    }
    if (now_ % t.options.sample_period == 0) {
      for (size_t i = 0; i < streams_.size(); ++i) {
        const double depth = static_cast<double>(streams_[i]->Depth());
        if (depth != t.last_depth[i]) {
          t.writer->Counter(t.pid, streams_[i]->name() + ".depth", now_,
                            depth);
          t.last_depth[i] = depth;
        }
      }
      obs::TraceCounterSink sink(t.writer, t.pid, now_);
      for (Module* m : modules_) m->SampleTraceCounters(sink);
    }
  }
  if (metrics_ && now_ % metrics_->sample_period == 0) {
    for (size_t i = 0; i < streams_.size(); ++i) {
      metrics_->depth_hist[i]->Observe(
          static_cast<double>(streams_[i]->Depth()));
    }
  }
}

void Engine::FlushObservers() {
  flushed_ = true;
  if (!trace_ && !metrics_) return;
  EnsureProbeSlots();
  if (trace_) {
    TraceState& t = *trace_;
    for (size_t i = 0; i < modules_.size(); ++i) {
      if (t.span_open[i]) {
        t.writer->CompleteSpan(t.pid, t.tids[i], "busy", t.span_start[i],
                               now_ - t.span_start[i]);
        t.span_open[i] = false;
      }
    }
  }
  if (metrics_) ExportMetrics();
}

void Engine::ExportMetrics() {
  MetricsState& ms = *metrics_;
  obs::MetricsRegistry& reg = *ms.registry;
  for (size_t i = 0; i < modules_.size(); ++i) {
    const Module& m = *modules_[i];
    auto& cur = ms.module_cursor[i];
    cur.busy_c->Inc(m.busy_cycles() - cur.busy);
    cur.starved_c->Inc(m.starved_cycles() - cur.starved);
    cur.blocked_c->Inc(m.blocked_cycles() - cur.blocked);
    cur.idle_c->Inc(m.idle_cycles() - cur.idle);
    cur.busy = m.busy_cycles();
    cur.starved = m.starved_cycles();
    cur.blocked = m.blocked_cycles();
    cur.idle = m.idle_cycles();
    m.ExportCustomMetrics(reg);
  }
  for (size_t i = 0; i < streams_.size(); ++i) {
    const StreamBase& s = *streams_[i];
    auto& cur = ms.stream_cursor[i];
    cur.pushed_c->Inc(s.TotalPushed() - cur.pushed);
    cur.popped_c->Inc(s.TotalPopped() - cur.popped);
    cur.pushed = s.TotalPushed();
    cur.popped = s.TotalPopped();
  }
  ms.cycles_c->Inc(now_ - ms.cycles_cursor);
  ms.cycles_cursor = now_;
}

bool Engine::QuiescedNow() const {
  // Streams first: InFlight() is a non-virtual load, and a busy run almost
  // always has an occupied stream, so the common answer costs no virtual
  // Idle() call.
  for (const StreamBase* s : streams_) {
    if (s->InFlight()) return false;
  }
  for (const Module* m : modules_) {
    if (!m->Idle()) return false;
  }
  return true;
}

Result<Cycle> Engine::Run(uint64_t max_cycles, const StopFn& stop) {
  for (const StreamBase* s : streams_) {  // no single endpoint to arm
    if (s->bind_conflict()) {
      return Status::InvalidArgument("stream " + s->name() +
                                     " has two producers or two consumers");
    }
  }
  if (!observability_checked_) SetupObservability();
  if (schedule_dirty_) RebuildSchedule();
  // Observers need every cycle visited: per-cycle span tracking and
  // periodic sampling read each one, and observers must never perturb what
  // they measure, so the skipping is what yields, not the probes.
  if (trace_ || metrics_) return StepUntilQuiesced(*this, max_cycles, stop);
  return RunEventDriven(max_cycles, stop);
}

Result<Cycle> StepUntilQuiesced(Engine& engine, uint64_t max_cycles,
                                const Engine::StopFn& stop) {
  const Cycle limit = engine.now() + max_cycles;
  for (;;) {
    if ((stop && stop()) || engine.QuiescedNow()) {
      engine.FlushObservers();
      return engine.now();
    }
    if (engine.now() >= limit) break;
    engine.Step();
  }
  engine.FlushObservers();
  return Status::Timeout("engine did not quiesce within " +
                         std::to_string(max_cycles) + " cycles");
}

// --- Event-driven core ------------------------------------------------------
//
// Correctness frame: Step() ticks EVERY module EVERY cycle, so extra ticks
// are always safe — the only dangerous direction is skipping one. A module's
// tick is skipped at cycle c only when nothing armed it for c, and by the
// module contract (Module::NextEventCycle) an unarmed tick is a no-op except
// for stall attribution, which AttributeSkip reproduces in closed form.
// Arming is over-approximate everywhere: residual committed items on a bound
// input (unless the module left them unread and hinted when it reads again),
// any commit on a bound input, a drain of a full bound output, an explicit
// WakeUp, or the module's own NextEventCycle hint each force a tick.

void Engine::RebuildEventState() {
  const size_t n = modules_.size();
  next_run_.assign(n, kNoEventCycle);
  queued_at_.assign(n, kNoEventCycle);
  accounted_.assign(n, now_);
  heap_.clear();
  heap_pops_.clear();
  run_now_.clear();
  run_next_.clear();
  run_next_sorted_ = true;
  qc_module_ = kNone;
  qc_stream_ = kNone;
  // Bound-input lists drive the post-tick residual re-arm (ReArmModule).
  bound_inputs_.assign(n, {});
  for (StreamBase* s : streams_) {
    if (s->consumer_index_ != StreamBase::kNoEndpoint) {
      bound_inputs_[s->consumer_index_].push_back(s);
    }
  }
  for (StreamBase* s : streams_) {
    s->drained_pending_ = false;
    s->drain_queue_ = drain_queue_;
  }
  drain_queue_->clear();
  event_state_valid_ = true;
}

void Engine::InvalidateEventState() {
  if (!event_state_valid_) return;
  // accounted_ may be shorter than modules_ (AddModule since the last
  // rebuild); new modules have no deferred event attribution to settle.
  for (size_t i = 0; i < accounted_.size(); ++i) SettleTo(i, now_);
  event_state_valid_ = false;
  for (StreamBase* s : streams_) {
    s->drain_queue_.reset();
    s->drained_pending_ = false;
  }
  drain_queue_->clear();
}

void Engine::SettleTo(size_t i, Cycle to) {
  if (accounted_[i] >= to) return;
  modules_[i]->AccountSkip(accounted_[i], to);
  accounted_[i] = to;
}

bool Engine::EventQuiesced() {
  // Re-test the cached blocker first: in a steady-state run the same stream
  // (or module) stays occupied for long stretches, making the full scan a
  // once-per-phase cost instead of a per-cycle one. The stream check leads
  // because InFlight() is a non-virtual load — the common per-cycle cost is
  // then identical to QuiescedNow()'s first stream probe — while Idle()
  // is a virtual call.
  if (qc_stream_ != kNone) {
    if (streams_[qc_stream_]->InFlight()) return false;
    qc_stream_ = kNone;
  }
  if (qc_module_ != kNone) {
    if (!modules_[qc_module_]->Idle()) return false;
    qc_module_ = kNone;
  }
  for (size_t i = 0; i < streams_.size(); ++i) {
    if (streams_[i]->InFlight()) {
      qc_stream_ = i;
      return false;
    }
  }
  for (size_t i = 0; i < modules_.size(); ++i) {
    if (!modules_[i]->Idle()) {
      qc_module_ = i;
      return false;
    }
  }
  return true;
}

void Engine::BuildRunList(Cycle c) {
  // Pop due calendar entries. The heap is lazy-delete: an entry is live iff
  // it still matches next_run_, so re-arms never search the heap.
  heap_pops_.clear();
  while (!heap_.empty() && heap_.front().first <= c) {
    std::pop_heap(heap_.begin(), heap_.end(), HeapLater);
    const auto [cycle, idx] = heap_.back();
    heap_.pop_back();
    if (queued_at_[idx] == cycle) queued_at_[idx] = kNoEventCycle;
    if (next_run_[idx] != cycle) continue;  // stale entry
    // Nothing may be overdue: jumps target the heap head, so a live entry
    // below c would mean a skipped armed tick.
    FPGADP_DCHECK(cycle == c);
    heap_pops_.push_back(idx);
  }
  // Fast path for dense flow-through phases: every armed module was armed
  // for c by the previous cycle's in-order re-arms — the list is already
  // sorted and deduped, so the run list is a pointer swap.
  if (heap_pops_.empty() && run_next_sorted_) {
    std::swap(run_now_, run_next_);
    run_next_.clear();
    return;
  }
  run_now_.clear();
  run_now_.insert(run_now_.end(), run_next_.begin(), run_next_.end());
  run_now_.insert(run_now_.end(), heap_pops_.begin(), heap_pops_.end());
  std::sort(run_now_.begin(), run_now_.end());
  run_now_.erase(std::unique(run_now_.begin(), run_now_.end()),
                 run_now_.end());
  run_next_.clear();
  run_next_sorted_ = true;
}

void Engine::ArmNext(size_t i) {
  const Cycle nc = now_ + 1;
  if (next_run_[i] == nc) return;  // already queued in run_next_
  next_run_[i] = nc;
  if (!run_next_.empty() && run_next_.back() > i) run_next_sorted_ = false;
  run_next_.push_back(i);
}

void Engine::WakeModule(size_t t) {
  // Wakes are meaningful only while event bookkeeping is live; Step()
  // ticks everyone anyway.
  if (!event_state_valid_) return;
  // Same reasoning inside a saturated phase: every module ticks every
  // cycle, and the phase exit re-arms the world. (accounted_ is also stale
  // there — settling against it would double-count genuinely ticked
  // cycles.)
  if (event_saturated_) return;
  if (event_dispatching_) {
    const Cycle c = now_;
    if (next_run_[t] == c) return;  // already runs (or ran) this cycle
    if (t == current_ticking_index_) {
      // Self-wake from inside the module's own Tick: its cycle-c accounting
      // is handled by the dispatch loop; just ask for c+1.
      ArmNext(t);
      return;
    }
    if (t < current_ticking_index_) {
      // Step() ticked t BEFORE the in-flight module mutated it, so
      // t's cycle c stays an unarmed no-op (settled via AttributeSkip using
      // the pre-mutation state — wakers must call WakeUp() before the
      // mutation, see Module::WakeUp) and t runs at c+1.
      SettleTo(t, c + 1);
      ArmNext(t);
      return;
    }
    // t ticks AFTER the in-flight module in registration order, so Step()
    // makes the mutation visible to it this very cycle: arm it
    // for c. If a next-cycle arm is already queued in run_next_, supersede
    // it (leaving it would duplicate t once the c-tick re-arms); a c+1 arm
    // living in the calendar heap instead (a timer hint from an earlier
    // cycle) goes stale on its own when next_run_ is overwritten below.
    if (next_run_[t] == c + 1) {
      const auto it = std::find(run_next_.begin(), run_next_.end(), t);
      if (it != run_next_.end()) run_next_.erase(it);
    }
    SettleTo(t, c);
    next_run_[t] = c;
    // run_now_ is sorted and the dispatch cursor sits at a lower index than
    // t, so the insertion point is always after the cursor — the dispatch
    // loop will reach t later this cycle.
    run_now_.insert(std::lower_bound(run_now_.begin(), run_now_.end(), t), t);
    return;
  }
  // Outside dispatch (harness Submit between runs): arm at now_. Run()
  // re-seeds every module on entry anyway, so this is mostly
  // belt-and-braces for state mutated between Run() calls.
  if (next_run_[t] <= now_) return;  // already armed at or before now
  SettleTo(t, now_);
  QueueAt(t, now_);
}

void Engine::ReArmModule(size_t i, Cycle c) {
  // Items left on a bound input the module read this tick: it reads on next
  // cycle (the hot path on flow-through pipelines, no virtual call). Items
  // left unread re-arm only a hintless module; a hint says when it reads.
  bool unread_residual = false;
  for (StreamBase* s : bound_inputs_[i]) {
    if (s->committed_count_ == 0) continue;
    if (s->total_popped_ != s->popped_at_rearm_) {
      s->popped_at_rearm_ = s->total_popped_;
      ArmNext(i);
      return;
    }
    unread_residual = true;
  }
  const Cycle h = modules_[i]->NextEventCycle(c);
  FPGADP_DCHECK(h >= c);
  if (h == kNoEventCycle) {  // sleeps until a wake edge
    if (unread_residual) ArmNext(i);
    return;
  }
  if (h <= c + 1) {
    ArmNext(i);
    return;
  }
  if (next_run_[i] == c + 1) return;  // a wake already armed it sooner
  QueueAt(i, h);
}

void Engine::QueueAt(size_t i, Cycle h) {
  next_run_[i] = h;
  // A module woken before its timer re-hints the same deadline on every
  // early tick; its queued entry turns live again instead of gaining a
  // duplicate, so the calendar does not grow with early wakes.
  if (queued_at_[i] == h) return;
  queued_at_[i] = h;
  heap_.emplace_back(h, i);
  std::push_heap(heap_.begin(), heap_.end(), HeapLater);
}

void Engine::SeedAllArmed() {
  heap_.clear();
  std::fill(queued_at_.begin(), queued_at_.end(), kNoEventCycle);
  run_now_.clear();
  run_next_.clear();
  run_next_sorted_ = true;
  for (size_t i = 0; i < modules_.size(); ++i) {
    next_run_[i] = now_;
    run_next_.push_back(i);
  }
}

void Engine::DispatchCycle(Cycle c) {
  [[maybe_unused]] const obs::internal::TickPhaseGuard tick_guard;
  event_dispatching_ = true;
  // Dispatch in registration order. run_now_ may GROW mid-loop (WakeModule
  // inserts later-index targets past the cursor), so the size is re-read
  // every iteration.
  for (size_t cursor = 0; cursor < run_now_.size(); ++cursor) {
    const size_t i = run_now_[cursor];
    current_ticking_index_ = i;
    if (accounted_[i] != c) SettleTo(i, c);
    // Clear the arm BEFORE ticking so a self-WakeUp during the tick is seen
    // as a fresh request, and so a hintless sleeper never leaves a stale
    // next_run_ that would swallow a later wake.
    next_run_[i] = kNoEventCycle;
    modules_[i]->Tick(c);
    modules_[i]->FinalizeTick();
    accounted_[i] = c + 1;
    ReArmModule(i, c);
  }
  event_dispatching_ = false;
  // Commit phase. Committed data becomes readable at c+1, so every commit
  // arms the consumer — the stream edge that lets pure flow-through modules
  // sleep with a kNoEventCycle hint.
  if (!commit_queue_->empty()) {
    for (StreamBase* s : *commit_queue_) {
      s->Commit();
      if (s->consumer_index_ != StreamBase::kNoEndpoint) {
        ArmNext(s->consumer_index_);
      }
    }
    commit_queue_->clear();
  }
  // Drain edges: a stream that went full -> non-full this cycle re-opens a
  // blocked producer's output path for c+1. Belt-and-braces on top of the
  // blocked-producer hint contract.
  if (!drain_queue_->empty()) {
    for (StreamBase* s : *drain_queue_) {
      s->drained_pending_ = false;
      if (s->producer_index_ != StreamBase::kNoEndpoint) {
        ArmNext(s->producer_index_);
      }
    }
    drain_queue_->clear();
  }
}

Result<Cycle> Engine::RunEventDriven(uint64_t max_cycles,
                                     const StopFn& stop) {
  const Cycle limit = now_ + max_cycles;
  if (!event_state_valid_) RebuildEventState();
  // Entry seeding: harnesses may have preloaded streams, committed them
  // manually, swapped fault injectors, or submitted work without a wake
  // since the last Run() — none of which a previous run's sleep decisions
  // can know about. Arm every module once at now_ and drop the stale
  // calendar; one no-op tick per module per Run() is attribution-identical
  // by the module contract, and timer re-arms repopulate the heap from
  // fresh hints.
  SeedAllArmed();
  qc_module_ = kNone;
  qc_stream_ = kNone;
  dense_streak_ = 0;
  // Set when the run ends by `stop` or quiescence rather than the budget.
  bool done = false;
  for (;;) {
    // `stop` and quiescence are checked every VISITED cycle; the gaps in
    // between are frozen (unarmed modules do not tick), so no jump can
    // overshoot the cycle either would end the run on.
    if ((stop && stop()) || EventQuiesced()) {
      done = true;
      break;
    }
    if (now_ >= limit) break;
    BuildRunList(now_);
    if (run_now_.empty() && commit_queue_->empty()) {
      // Nothing armed and nothing staged (staged harness writes dispatch a
      // commit-only cycle): state is frozen until the next calendar entry.
      // Jump there, clamped to the budget; an empty heap is a deadlock,
      // which runs the budget out as per-cycle ticking would.
      const Cycle head = heap_.empty() ? kNoEventCycle : heap_.front().first;
      now_ = std::min(head, limit);
      dense_streak_ = 0;
      continue;
    }
    if (run_now_.size() == modules_.size()) {
      // A full run list means the cycle costs exactly what Step() charges,
      // plus the arming bookkeeping on top — dispatching a full list is
      // never cheaper than just ticking everyone. After a streak of such
      // cycles (hysteresis: the phase exit below costs O(modules)), drop
      // into a saturated inner loop that runs Step()'s every-module body
      // with zero scheduling overhead. Leave it only on a sustained LULL:
      // the loop samples the busy-cycle sum once per kSaturationLullCycles
      // window and exits when a whole window accrued fewer busy-marks than
      // a single fully-busy cycle would — a phase quiet enough that
      // sleeping modules must pay. Scattered stall cycles inside a dense
      // phase (a blocked producer, a memory channel waiting out latency)
      // never trip it; exiting on the first such cycle made full-armed-
      // but-stalling topologies (incast, memory-bound pipelines) thrash
      // the O(modules) boundary every few cycles. Extra ticks are always
      // safe, so the only cost of a late exit is wall-clock, never
      // correctness.
      //
      // The streak counter resets on every jump: entry therefore follows a
      // full *dispatched* cycle, which left accounted_[i] == now_ for every
      // module — the fast loop's real per-cycle ticks keep attribution
      // exact on their own, so no settling is pending while it runs.
      if (dense_streak_ >= kDenseStreakCycles) {
        event_saturated_ = true;
        uint64_t prev_busy = 0;
        for (const Module* m : modules_) prev_busy += m->busy_cycles();
        uint32_t probe_in = kSaturationLullCycles;
        // Hoisted out of the loop: nothing inside reads flushed_, and the
        // streak that got us here already cleared it.
        flushed_ = false;
        std::vector<StreamBase*>* const cq = commit_queue_.get();
        while (now_ < limit) {
          if (stop && stop()) {
            done = true;
            break;
          }
          // Inline quiesce check with QuiescedNow()'s exact shape (first
          // in-flight stream answers in one non-virtual load); an
          // out-of-line EventQuiesced() call here measurably taxed the
          // ~tens-of-ns cycle body on saturated dense pipelines.
          bool streams_empty = true;
          for (const StreamBase* s : streams_) {
            if (s->InFlight()) {
              streams_empty = false;
              break;
            }
          }
          if (streams_empty) {
            bool all_idle = true;
            for (const Module* m : modules_) {
              if (!m->Idle()) {
                all_idle = false;
                break;
              }
            }
            if (all_idle) {
              done = true;
              break;
            }
          }
          // TickAndCommit body inlined, commit queue deref hoisted: the
          // saturated loop is the one place the engine spends whole phases
          // in a ~tens-of-ns cycle body, so the call and the shared_ptr
          // chase are worth shaving.
          [[maybe_unused]] const obs::internal::TickPhaseGuard tick_guard;
          for (Module* m : modules_) {
            m->Tick(now_);
            m->FinalizeTick();
          }
          if (!cq->empty()) {
            for (StreamBase* s : *cq) s->Commit();
            cq->clear();
          }
          ++now_;
          if (--probe_in == 0) {
            uint64_t busy = 0;
            for (const Module* m : modules_) busy += m->busy_cycles();
            if (busy - prev_busy < modules_.size()) break;
            prev_busy = busy;
            probe_in = kSaturationLullCycles;
          }
        }
        event_saturated_ = false;
        dense_streak_ = 0;
        // Every fast-loop cycle was genuinely ticked and attributed by
        // FinalizeTick, so attribution simply advances; arming restarts
        // from a full seed, which also supersedes any drain edges recorded
        // during the phase.
        for (size_t i = 0; i < accounted_.size(); ++i) accounted_[i] = now_;
        SeedAllArmed();
        for (StreamBase* s : *drain_queue_) s->drained_pending_ = false;
        drain_queue_->clear();
        if (done) break;
        continue;
      }
      DispatchCycle(now_);
      ++dense_streak_;
      flushed_ = false;
      ++now_;
      continue;
    }
    dense_streak_ = 0;
    DispatchCycle(now_);
    flushed_ = false;
    ++now_;
  }
  // Settle every module through the final cycle, then classify exactly
  // like the Step() loop.
  for (size_t i = 0; i < modules_.size(); ++i) SettleTo(i, now_);
  FlushObservers();
  if (done) return now_;
  return Status::Timeout("engine did not quiesce within " +
                         std::to_string(max_cycles) + " cycles");
}

double Engine::ElapsedSeconds() const {
  return CyclesToSeconds(now_, clock_hz_);
}

std::string Engine::UtilizationReport() const {
  std::ostringstream os;
  const auto pct = [this](uint64_t cycles) {
    const double p = now_ == 0 ? 0.0
                               : 100.0 * static_cast<double>(cycles) /
                                     static_cast<double>(now_);
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%.1f", p);
    return std::string(buf);
  };
  for (const Module* m : modules_) {
    os << m->name() << ": busy " << m->busy_cycles() << "/" << now_ << " ("
       << pct(m->busy_cycles()) << "%), starved " << pct(m->starved_cycles())
       << "%, blocked " << pct(m->blocked_cycles()) << "%, idle "
       << pct(m->idle_cycles()) << "%\n";
  }
  return os.str();
}

}  // namespace fpgadp::sim
