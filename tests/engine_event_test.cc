// The engine's one scheduler: unit tests for the event-driven Run()'s
// arming rules and a 100-seed differential over the sharded workloads. The
// determinism cases over real pipelines live in engine_parallel_test.
//
// The correctness frame is that Step() ticks every module on every cycle,
// so EXTRA ticks are always harmless (by the module contract an unarmed
// module's Tick is a no-op except for stall attribution) and only a MISSED
// tick can diverge.
// Every test here therefore compares Run() against a StepUntilQuiesced()
// loop over the same topology: elapsed cycles, per-module stall buckets,
// and (where a tick log is kept) the exact dispatch sequence.
//
// Covered arming scenarios, one test each:
//  * same-cycle re-arm (a module whose post-tick hint is `now`),
//  * wakeup ordering — registration-order dispatch within a cycle, and the
//    same-cycle / next-cycle split around the in-flight tick index,
//  * arm-cancel on quiesce (a stale far-future calendar entry must not
//    delay Run()'s return),
//  * stream-edge wakeups across producer/consumer levels (commit edge wakes
//    a reactive consumer; drain edge re-opens a blocked producer),
//  * the saturated-phase fast path (dense streak entry, wake-while-
//    saturated, quiesce inside the fast loop, staggered exit),
//  * idle-gap jumps between timer deadlines,
//  * Step()/Run() interleaving (Step ticks every module and must settle
//    event bookkeeping first),
//  * a stop predicate ending the run on the Step() loop's cycle: on entry,
//    after a jump, inside the saturated loop, and at the budget,
//  * a stream bound to two producers (no single edge target) rejected by
//    Run() before any cycle elapses.
//
// The differential suite reruns the three sharded workloads (ANNS top-k,
// KVS multi-get, partitioned hash join) across 100 seeded deployments,
// asserting cycles and results are bit-identical between the two drivers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/anns/dataset.h"
#include "src/anns/ivf.h"
#include "src/common/check.h"
#include "src/net/fabric.h"
#include "src/net/rdma.h"
#include "src/net/tcp.h"
#include "src/relational/cpu_executor.h"
#include "src/relational/table.h"
#include "src/shard/gather.h"
#include "src/shard/partitioner.h"
#include "src/shard/shard.h"
#include "src/shard/workloads.h"
#include "src/sim/engine.h"
#include "src/sim/module.h"
#include "src/sim/stream.h"

namespace fpgadp {
namespace {

using sim::Cycle;
using sim::Engine;
using sim::kNoEventCycle;
using sim::Module;
using sim::StallKind;
using sim::Stream;

/// How a test drives an engine: the event-driven Run(), or the Step() loop
/// it must reproduce.
enum class Driver { kRun, kStep };

Result<Cycle> Drive(Engine& e, Driver d, uint64_t max_cycles,
                    const Engine::StopFn& stop = {}) {
  return d == Driver::kRun ? e.Run(max_cycles, stop)
                           : sim::StepUntilQuiesced(e, max_cycles, stop);
}

/// Global dispatch sequence: (cycle, module name) appended on every Tick.
using TickLog = std::vector<std::pair<Cycle, std::string>>;

/// Per-module stall-bucket snapshot for bit-identity assertions.
struct Buckets {
  uint64_t busy = 0, starved = 0, blocked = 0, idle = 0, attributed = 0;
};

Buckets BucketsOf(const Module& m) {
  return {m.busy_cycles(), m.starved_cycles(), m.blocked_cycles(),
          m.idle_cycles(), m.attributed_cycles()};
}

void ExpectSameBuckets(const Buckets& ref, const Buckets& got,
                       const std::string& label) {
  EXPECT_EQ(got.busy, ref.busy) << label << " busy";
  EXPECT_EQ(got.starved, ref.starved) << label << " starved";
  EXPECT_EQ(got.blocked, ref.blocked) << label << " blocked";
  EXPECT_EQ(got.idle, ref.idle) << label << " idle";
  EXPECT_EQ(got.attributed, ref.attributed) << label << " attributed";
}

// ---------------------------------------------------------------------------
// Test modules

/// Makes forward progress for `n` consecutive ticks, hinting `now` while
/// work remains: the post-tick re-arm is always for the immediately next
/// cycle, the tightest same-cycle-re-arm shape the scheduler supports.
class SelfArmWorker : public Module {
 public:
  SelfArmWorker(std::string name, uint64_t n, TickLog* log = nullptr)
      : Module(std::move(name)), n_(n), log_(log) {}
  void Tick(Cycle c) override {
    if (log_) log_->push_back({c, this->name()});
    if (done_ < n_) {
      MarkBusy();
      ++done_;
    }
  }
  bool Idle() const override { return done_ == n_; }
  Cycle NextEventCycle(Cycle now) const override {
    return done_ < n_ ? now : kNoEventCycle;
  }

 private:
  uint64_t n_;
  uint64_t done_ = 0;
  TickLog* log_;
};

/// Purely reactive single-job module: holds no work until Deliver() sets the
/// mailbox from OUTSIDE its own Tick (the coordinator-completion pattern),
/// then consumes it at its next tick. Its hint is kNoEventCycle throughout —
/// without the caller's WakeUp() the event scheduler would never run it.
class MailboxSleeper : public Module {
 public:
  MailboxSleeper(std::string name, TickLog* log = nullptr)
      : Module(std::move(name)), log_(log) {}
  void Deliver() { mailbox_ = true; }
  void Tick(Cycle c) override {
    if (log_) log_->push_back({c, this->name()});
    if (mailbox_) {
      MarkBusy();
      mailbox_ = false;
      done_ = true;
    }
  }
  bool Idle() const override { return !mailbox_ && done_; }
  Cycle NextEventCycle(Cycle now) const override {
    // A delivered-but-unprocessed mailbox must be covered by the hint (the
    // fast-forward contract for externally mutated state); with nothing
    // pending the module is purely reactive.
    return mailbox_ ? now : kNoEventCycle;
  }

 private:
  bool mailbox_ = false;
  bool done_ = false;
  TickLog* log_;
};

/// Fires once at `fire_cycle`: delivers to (and wakes) every target, in the
/// deliberately scrambled order the caller handed them over. Sleeps on its
/// own timer hint until then.
class WakerModule : public Module {
 public:
  WakerModule(std::string name, Cycle fire_cycle,
              std::vector<MailboxSleeper*> targets, TickLog* log = nullptr)
      : Module(std::move(name)),
        fire_cycle_(fire_cycle),
        targets_(std::move(targets)),
        log_(log) {}
  void Tick(Cycle c) override {
    if (log_) log_->push_back({c, this->name()});
    if (!fired_ && c >= fire_cycle_) {
      for (MailboxSleeper* t : targets_) {
        t->Deliver();
        t->WakeUp();
      }
      fired_ = true;
      MarkBusy();
    }
  }
  bool Idle() const override { return fired_; }
  Cycle NextEventCycle(Cycle) const override {
    return fired_ ? kNoEventCycle : fire_cycle_;
  }

 private:
  Cycle fire_cycle_;
  std::vector<MailboxSleeper*> targets_;
  bool fired_ = false;
  TickLog* log_;
};

/// Holds one job with a far-future self-scheduled deadline. Cancel() (an
/// outside-the-tick mutation, paired with WakeUp() by the caller) completes
/// the job early; the stale calendar entry for the original deadline must
/// then be a no-op — lazily deleted, never a reason to keep running.
class CancellableTimer : public Module {
 public:
  CancellableTimer(std::string name, Cycle deadline)
      : Module(std::move(name)), deadline_(deadline) {}
  void Cancel() { cancelled_ = true; }
  void Tick(Cycle c) override {
    if (!done_ && (cancelled_ || c >= deadline_)) {
      MarkBusy();
      done_ = true;
    }
  }
  bool Idle() const override { return done_; }
  Cycle NextEventCycle(Cycle) const override {
    return done_ ? kNoEventCycle : deadline_;
  }

 private:
  Cycle deadline_;
  bool cancelled_ = false;
  bool done_ = false;
};

/// Emits `burst` items every `period` cycles (`count` bursts total), then
/// quiesces. The output stream is sized so it never blocks.
class BurstProducer : public Module {
 public:
  BurstProducer(std::string name, Stream<int>* out, Cycle period,
                uint32_t count, uint32_t burst)
      : Module(std::move(name)),
        out_(out),
        period_(period),
        count_(count),
        burst_(burst) {
    out_->BindProducer(this);
  }
  void Tick(Cycle c) override {
    if (emitted_ < count_ && c >= Cycle(emitted_) * period_) {
      for (uint32_t i = 0; i < burst_ && out_->CanWrite(); ++i) {
        out_->Write(int(emitted_ * burst_ + i));
      }
      ++emitted_;
      MarkBusy();
    }
  }
  bool Idle() const override { return emitted_ == count_; }
  Cycle NextEventCycle(Cycle now) const override {
    if (emitted_ == count_) return kNoEventCycle;
    return std::max<Cycle>(now, Cycle(emitted_) * period_);
  }

 private:
  Stream<int>* out_;
  Cycle period_;
  uint32_t count_;
  uint32_t burst_;
  uint32_t emitted_ = 0;
};

/// Drains everything readable each tick. Purely reactive (kNoEventCycle):
/// in event mode it runs only when a commit edge on its bound input arms it.
class GreedyConsumer : public Module {
 public:
  GreedyConsumer(std::string name, Stream<int>* in, TickLog* log = nullptr)
      : Module(std::move(name)), in_(in), log_(log) {
    in_->BindConsumer(this);
  }
  void Tick(Cycle c) override {
    if (log_) log_->push_back({c, this->name()});
    bool any = false;
    while (in_->CanRead()) {
      sum_ += in_->Read();
      ++count_;
      any = true;
    }
    if (any) MarkBusy();
  }
  bool Idle() const override { return true; }
  Cycle NextEventCycle(Cycle) const override { return kNoEventCycle; }
  uint64_t count() const { return count_; }
  int64_t sum() const { return sum_; }

 private:
  Stream<int>* in_;
  uint64_t count_ = 0;
  int64_t sum_ = 0;
  TickLog* log_;
};

/// Writes one item per cycle while the output has room. When blocked it
/// either keeps hinting `now` (the documented blocked-producer contract:
/// tick me every cycle, exactly like Step()) or goes fully to sleep with
/// kNoEventCycle — the latter deliberately leans on the engine's drain-edge
/// wakeup (the belt-and-braces arm when a stream goes full -> non-full), and
/// overrides AttributeSkip so the slept-through blocked cycles are
/// attributed exactly as Step()'s per-cycle ticks would have marked them.
class TrickleProducer : public Module {
 public:
  enum class BlockedPolicy { kHintNow, kSleepUntilDrainEdge };
  TrickleProducer(std::string name, Stream<int>* out, uint32_t total,
                  BlockedPolicy policy)
      : Module(std::move(name)), out_(out), total_(total), policy_(policy) {
    out_->BindProducer(this);
  }
  void Tick(Cycle) override {
    if (sent_ == total_) return;
    if (out_->CanWrite()) {
      out_->Write(int(sent_));
      ++sent_;
      MarkBusy();
    } else {
      MarkStall(StallKind::kOutputBlocked);
    }
  }
  bool Idle() const override { return sent_ == total_; }
  Cycle NextEventCycle(Cycle now) const override {
    if (sent_ == total_) return kNoEventCycle;
    if (policy_ == BlockedPolicy::kHintNow) return now;
    return out_->CanWrite() ? now : kNoEventCycle;
  }

 protected:
  void AttributeSkip(Cycle from, Cycle to) override {
    // The scheduler only skips this module while it is asleep, and under
    // kSleepUntilDrainEdge it only sleeps when unfinished-and-blocked: the
    // Step() loop would have marked every one of those cycles blocked.
    // (Post-completion skips fall through to the idle backfill.)
    if (sent_ < total_) MarkStallN(StallKind::kOutputBlocked, to - from);
  }

 private:
  Stream<int>* out_;
  uint32_t total_;
  BlockedPolicy policy_;
  uint32_t sent_ = 0;
};

/// Pops exactly one item at every multiple of `period`, on a self-timer
/// hint. Never-ending timer: quiescence must come from module/stream state,
/// never from calendar emptiness.
class TimedPopper : public Module {
 public:
  TimedPopper(std::string name, Stream<int>* in, Cycle period)
      : Module(std::move(name)), in_(in), period_(period) {
    in_->BindConsumer(this);
  }
  void Tick(Cycle c) override {
    if (c % period_ == 0 && in_->CanRead()) {
      sum_ += in_->Read();
      ++count_;
      MarkBusy();
    }
  }
  bool Idle() const override { return true; }
  Cycle NextEventCycle(Cycle now) const override {
    return now % period_ == 0 ? now : now + (period_ - now % period_);
  }
  uint64_t count() const { return count_; }

 private:
  Stream<int>* in_;
  Cycle period_;
  uint64_t count_ = 0;
  int64_t sum_ = 0;
};

/// Busy every cycle until `end_cycle` (the dense-phase workhorse that
/// engages the saturated fast path), optionally poking a sibling's WakeUp()
/// once mid-phase — which the saturated loop intentionally drops, because
/// every module is ticking every cycle anyway.
class DenseWorker : public Module {
 public:
  DenseWorker(std::string name, Cycle end_cycle)
      : Module(std::move(name)), end_(end_cycle) {}
  void PokeAt(Cycle c, Module* target) {
    poke_cycle_ = c;
    poke_target_ = target;
  }
  void Tick(Cycle c) override {
    if (poke_target_ != nullptr && c == poke_cycle_) poke_target_->WakeUp();
    if (c < end_) {
      MarkBusy();
    } else {
      done_ = true;
    }
  }
  bool Idle() const override { return done_; }
  Cycle NextEventCycle(Cycle now) const override {
    return done_ ? kNoEventCycle : now;
  }

 private:
  Cycle end_;
  bool done_ = false;
  Cycle poke_cycle_ = 0;
  Module* poke_target_ = nullptr;
};

/// Fires `fires` times, `period` cycles apart (first at cycle `period`),
/// hinting its next deadline in between. Counts its own ticks.
class PeriodicTimer : public Module {
 public:
  PeriodicTimer(std::string name, Cycle period, uint32_t fires)
      : Module(std::move(name)), period_(period), fires_(fires),
        deadline_(period) {}
  void Tick(Cycle c) override {
    ++ticks_;
    if (fired_ < fires_ && c >= deadline_) {
      MarkBusy();
      ++fired_;
      deadline_ = c + period_;
    }
  }
  bool Idle() const override { return fired_ == fires_; }
  Cycle NextEventCycle(Cycle now) const override {
    return fired_ == fires_ ? kNoEventCycle : std::max(now, deadline_);
  }
  uint64_t ticks() const { return ticks_; }

 private:
  Cycle period_;
  uint32_t fires_;
  Cycle deadline_;
  uint32_t fired_ = 0;
  uint64_t ticks_ = 0;
};

// ---------------------------------------------------------------------------
// Arming-rule unit tests

struct SimpleRun {
  Cycle cycles = 0;
  std::vector<Buckets> buckets;
  TickLog log;
};

void ExpectSameRun(const SimpleRun& ref, const SimpleRun& got,
                   const std::string& label) {
  EXPECT_EQ(got.cycles, ref.cycles) << label << " cycles";
  ASSERT_EQ(got.buckets.size(), ref.buckets.size()) << label;
  for (size_t i = 0; i < ref.buckets.size(); ++i) {
    ExpectSameBuckets(ref.buckets[i], got.buckets[i],
                      label + " module " + std::to_string(i));
  }
}

TEST(EngineEventTest, SameCycleRearmTicksOncePerCycle) {
  auto run = [](Driver d) {
    SimpleRun r;
    SelfArmWorker w("w", 40, &r.log);
    Engine e;
    e.AddModule(&w);
    auto cycles = Drive(e, d, 100000);
    EXPECT_TRUE(cycles.ok());
    r.cycles = cycles.ok() ? *cycles : 0;
    r.buckets = {BucketsOf(w)};
    return r;
  };
  const SimpleRun ref = run(Driver::kStep);
  const SimpleRun event = run(Driver::kRun);
  ExpectSameRun(ref, event, "self-arm");
  EXPECT_EQ(event.buckets[0].busy, 40u);
  // A hint of `now` must produce exactly one tick per cycle — never two
  // (double dispatch) and never zero (a dropped re-arm would starve).
  ASSERT_EQ(event.log.size(), ref.log.size());
  for (size_t i = 0; i < event.log.size(); ++i) {
    EXPECT_EQ(event.log[i].first, Cycle(i));
  }
}

TEST(EngineEventTest, WakesDispatchInRegistrationOrderDeterministically) {
  auto run_event = [] {
    SimpleRun r;
    // Waker registered FIRST; wakes its later-registered targets in
    // scrambled order. All targets must tick the SAME cycle (Step() would
    // have reached them after the waker), in registration order.
    MailboxSleeper a("a", &r.log), b("b", &r.log), c("c", &r.log);
    WakerModule waker("waker", 5, {&c, &a, &b}, &r.log);
    Engine e;
    e.AddModule(&waker);
    e.AddModule(&a);
    e.AddModule(&b);
    e.AddModule(&c);
    auto cycles = e.Run(100000);
    EXPECT_TRUE(cycles.ok());
    r.cycles = cycles.ok() ? *cycles : 0;
    r.buckets = {BucketsOf(waker), BucketsOf(a), BucketsOf(b), BucketsOf(c)};
    return r;
  };
  const SimpleRun first = run_event();
  const SimpleRun second = run_event();
  EXPECT_EQ(first.log, second.log) << "event dispatch must be deterministic";
  EXPECT_EQ(first.cycles, second.cycles);
  // Entry seeding ticks every module once at cycle 0; the only
  // other dispatches are the wake cycle, in registration order.
  const TickLog expected = {{0, "waker"}, {0, "a"}, {0, "b"}, {0, "c"},
                           {5, "waker"}, {5, "a"}, {5, "b"}, {5, "c"}};
  EXPECT_EQ(first.log, expected);

  // And the whole shape must be bit-identical to the Step() loop.
  MailboxSleeper a("a"), b("b"), c("c");
  WakerModule waker("waker", 5, {&c, &a, &b});
  Engine stepped;
  stepped.AddModule(&waker);
  stepped.AddModule(&a);
  stepped.AddModule(&b);
  stepped.AddModule(&c);
  auto cycles = sim::StepUntilQuiesced(stepped, 100000);
  ASSERT_TRUE(cycles.ok());
  EXPECT_EQ(first.cycles, *cycles);
  const std::vector<Buckets> ref = {BucketsOf(waker), BucketsOf(a),
                                    BucketsOf(b), BucketsOf(c)};
  for (size_t i = 0; i < ref.size(); ++i) {
    ExpectSameBuckets(ref[i], first.buckets[i],
                      "wake-order module " + std::to_string(i));
  }
}

TEST(EngineEventTest, WakeOfEarlierModuleLandsNextCycle) {
  auto run = [](Driver d, TickLog* log) {
    SimpleRun r;
    // Target registered BEFORE the waker: Step() had already ticked it when
    // the cycle-5 delivery happened, so it processes the mailbox at cycle 6
    // — the event scheduler must arm it for 6, not 5.
    MailboxSleeper early("early", log);
    WakerModule waker("waker", 5, {&early}, log);
    Engine e;
    e.AddModule(&early);
    e.AddModule(&waker);
    auto cycles = Drive(e, d, 100000);
    EXPECT_TRUE(cycles.ok());
    r.cycles = cycles.ok() ? *cycles : 0;
    r.buckets = {BucketsOf(early), BucketsOf(waker)};
    return r;
  };
  const SimpleRun ref = run(Driver::kStep, nullptr);
  TickLog log;
  const SimpleRun event = run(Driver::kRun, &log);
  ExpectSameRun(ref, event, "early-wake");
  const TickLog expected = {
      {0, "early"}, {0, "waker"}, {5, "waker"}, {6, "early"}};
  EXPECT_EQ(log, expected);
}

TEST(EngineEventTest, StaleCalendarEntryDoesNotDelayQuiesce) {
  auto run = [](Driver d) {
    SimpleRun r;
    CancellableTimer timer("timer", /*deadline=*/100000);
    // Fires at cycle 5 and cancels the timer's job; `timer` is registered
    // after the canceller, so it observes the cancel the same cycle.
    class Canceller : public Module {
     public:
      Canceller(CancellableTimer* t) : Module("cancel"), t_(t) {}
      void Tick(Cycle c) override {
        if (!fired_ && c >= 5) {
          t_->Cancel();
          t_->WakeUp();
          fired_ = true;
          MarkBusy();
        }
      }
      bool Idle() const override { return fired_; }
      Cycle NextEventCycle(Cycle) const override {
        return fired_ ? kNoEventCycle : Cycle(5);
      }

     private:
      CancellableTimer* t_;
      bool fired_ = false;
    } canceller(&timer);
    Engine e;
    e.AddModule(&canceller);
    e.AddModule(&timer);
    auto cycles = Drive(e, d, 100000);
    EXPECT_TRUE(cycles.ok());
    r.cycles = cycles.ok() ? *cycles : 0;
    r.buckets = {BucketsOf(canceller), BucketsOf(timer)};
    return r;
  };
  const SimpleRun ref = run(Driver::kStep);
  const SimpleRun event = run(Driver::kRun);
  ExpectSameRun(ref, event, "arm-cancel");
  // The whole point: the 100000-cycle calendar entry is stale after the
  // cancel, and neither engine waits for it.
  EXPECT_LT(event.cycles, Cycle(100));
}

TEST(EngineEventTest, CommitEdgeWakesReactiveConsumerAcrossLevels) {
  auto run = [](Driver d, TickLog* log) {
    SimpleRun r;
    Stream<int> ch("ch", 64);
    BurstProducer prod("prod", &ch, /*period=*/50, /*count=*/3, /*burst=*/8);
    GreedyConsumer cons("cons", &ch, log);
    Engine e;
    e.AddModule(&prod);
    e.AddModule(&cons);
    e.AddStream(&ch);
    auto cycles = Drive(e, d, 100000);
    EXPECT_TRUE(cycles.ok());
    r.cycles = cycles.ok() ? *cycles : 0;
    r.buckets = {BucketsOf(prod), BucketsOf(cons)};
    EXPECT_EQ(cons.count(), 24u);
    return r;
  };
  const SimpleRun ref = run(Driver::kStep, nullptr);
  TickLog log;
  const SimpleRun event = run(Driver::kRun, &log);
  ExpectSameRun(ref, event, "commit-edge");
  // The consumer's hint is kNoEventCycle: every dispatch after the entry
  // seed must come from a commit edge — cycle k*50+1, right after each
  // burst commits. (A missed edge would hang the run, not just skew it.)
  TickLog consumer_ticks;
  for (const auto& entry : log) {
    if (entry.second == "cons") consumer_ticks.push_back(entry);
  }
  const TickLog expected = {
      {0, "cons"}, {1, "cons"}, {51, "cons"}, {101, "cons"}};
  EXPECT_EQ(consumer_ticks, expected);
}

TEST(EngineEventTest, DrainEdgeReopensBlockedProducer) {
  auto run = [](Driver d, TrickleProducer::BlockedPolicy policy) {
    SimpleRun r;
    Stream<int> ch("ch", 2);  // tiny: the producer blocks almost instantly
    TrickleProducer prod("prod", &ch, /*total=*/10, policy);
    TimedPopper cons("cons", &ch, /*period=*/7);
    Engine e;
    e.AddModule(&prod);
    e.AddModule(&cons);
    e.AddStream(&ch);
    auto cycles = Drive(e, d, 100000);
    EXPECT_TRUE(cycles.ok());
    r.cycles = cycles.ok() ? *cycles : 0;
    r.buckets = {BucketsOf(prod), BucketsOf(cons)};
    EXPECT_EQ(cons.count(), 10u);
    return r;
  };
  const SimpleRun ref =
      run(Driver::kStep, TrickleProducer::BlockedPolicy::kHintNow);
  // Contract-compliant blocked producer (hint <= now while blocked): the
  // event engine ticks it every cycle exactly like the Step() loop.
  const SimpleRun hint_now = run(Driver::kRun,
                                 TrickleProducer::BlockedPolicy::kHintNow);
  ExpectSameRun(ref, hint_now, "blocked-hint-now");
  // Sleeping blocked producer: relies entirely on the drain
  // edge (full -> non-full re-arms the producer for the next cycle). A
  // dropped edge deadlocks the run; wrong AttributeSkip bulk-attribution
  // would skew the blocked bucket.
  const SimpleRun drained =
      run(Driver::kRun,
          TrickleProducer::BlockedPolicy::kSleepUntilDrainEdge);
  ExpectSameRun(ref, drained, "blocked-drain-edge");
}

TEST(EngineEventTest, SaturatedPhaseStaggeredExitMatchesStep) {
  auto run = [](Driver d) {
    SimpleRun r;
    // Six always-busy workers with staggered completion: the dense streak
    // engages the saturated fast path within the first handful of cycles,
    // and the stagger forces an exit + re-seed at cycle 200 with five
    // modules still live. Worker 0 additionally fires a WakeUp at cycle
    // 100 — mid-saturation, where the scheduler drops wakes by design.
    std::vector<std::unique_ptr<DenseWorker>> workers;
    for (int i = 0; i < 6; ++i) {
      workers.push_back(std::make_unique<DenseWorker>(
          "w" + std::to_string(i), /*end_cycle=*/200 + 10 * i));
    }
    workers[0]->PokeAt(100, workers[3].get());
    Engine e;
    for (auto& w : workers) e.AddModule(w.get());
    auto cycles = Drive(e, d, 100000);
    EXPECT_TRUE(cycles.ok());
    r.cycles = cycles.ok() ? *cycles : 0;
    for (auto& w : workers) r.buckets.push_back(BucketsOf(*w));
    return r;
  };
  const SimpleRun ref = run(Driver::kStep);
  const SimpleRun event = run(Driver::kRun);
  ExpectSameRun(ref, event, "saturated-staggered");
}

TEST(EngineEventTest, SaturatedPhaseQuiesceInsideFastLoopMatchesStep) {
  auto run = [](Driver d) {
    SimpleRun r;
    // All workers finish at the same cycle, so quiescence is first
    // observable INSIDE the saturated fast loop; the cycle count must not
    // gain an extra all-idle tick relative to the Step() loop's check-then-
    // loop.
    std::vector<std::unique_ptr<DenseWorker>> workers;
    for (int i = 0; i < 5; ++i) {
      workers.push_back(std::make_unique<DenseWorker>(
          "w" + std::to_string(i), /*end_cycle=*/150));
    }
    Engine e;
    for (auto& w : workers) e.AddModule(w.get());
    auto cycles = Drive(e, d, 100000);
    EXPECT_TRUE(cycles.ok());
    r.cycles = cycles.ok() ? *cycles : 0;
    for (auto& w : workers) r.buckets.push_back(BucketsOf(*w));
    return r;
  };
  const SimpleRun ref = run(Driver::kStep);
  const SimpleRun event = run(Driver::kRun);
  ExpectSameRun(ref, event, "saturated-quiesce");
}

TEST(EngineEventTest, TimersJumpIdleGaps) {
  constexpr uint32_t kFastFires = 12, kSlowFires = 7;
  struct TimerRun {
    SimpleRun run;
    uint64_t fast_ticks = 0;
  };
  auto run = [](Driver d) {
    TimerRun r;
    PeriodicTimer fast("fast", 1000, kFastFires);
    PeriodicTimer slow("slow", 1700, kSlowFires);
    Engine e;
    e.AddModule(&fast);
    e.AddModule(&slow);
    auto cycles = Drive(e, d, 1000000);
    EXPECT_TRUE(cycles.ok());
    r.run.cycles = cycles.ok() ? *cycles : 0;
    r.run.buckets = {BucketsOf(fast), BucketsOf(slow)};
    r.fast_ticks = fast.ticks();
    return r;
  };
  const TimerRun ref = run(Driver::kStep);
  const TimerRun event = run(Driver::kRun);
  ExpectSameRun(ref.run, event.run, "timers");
  EXPECT_EQ(ref.run.cycles, Cycle(12000) + 1);
  EXPECT_EQ(ref.fast_ticks, ref.run.cycles);
  // Run() ticks a timer only at entry and at its own deadlines; every gap
  // between events is a jump, so the tick count is bounded by the events,
  // not by the 12,001 elapsed cycles.
  EXPECT_EQ(event.fast_ticks, 1 + kFastFires);
}

TEST(EngineEventTest, StepRunInterleavingMatchesStep) {
  auto run = [](Driver d) {
    SimpleRun r;
    Stream<int> ch("ch", 64);
    BurstProducer prod("prod", &ch, /*period=*/20, /*count=*/4, /*burst=*/4);
    GreedyConsumer cons("cons", &ch);
    Engine e;
    e.AddModule(&prod);
    e.AddModule(&cons);
    e.AddStream(&ch);
    // Step() always ticks every module; entering it mid-workload forces
    // the event engine to settle its bookkeeping (InvalidateEventState) and
    // the following Run() to rebuild it.
    for (int i = 0; i < 3; ++i) e.Step();
    auto cycles = Drive(e, d, 100000);
    EXPECT_TRUE(cycles.ok());
    r.cycles = cycles.ok() ? *cycles : 0;
    r.buckets = {BucketsOf(prod), BucketsOf(cons)};
    EXPECT_EQ(cons.count(), 16u);
    return r;
  };
  const SimpleRun ref = run(Driver::kStep);
  const SimpleRun event = run(Driver::kRun);
  ExpectSameRun(ref, event, "step-run-interleave");
}

TEST(EngineEventTest, StopEndsRunOnTheStepLoopCycle) {
  // Five dense workers (alone, they engage the saturated loop), joined by a
  // 1000-cycle timer (the jumps) when the predicate watches the timer.
  auto run = [](Driver d, uint64_t budget, uint64_t busy_target,
                bool on_timer) {
    SimpleRun r;
    std::vector<std::unique_ptr<DenseWorker>> workers;
    for (int i = 0; i < 5; ++i) {
      workers.push_back(std::make_unique<DenseWorker>(
          "w" + std::to_string(i), /*end_cycle=*/400));
    }
    PeriodicTimer timer("timer", 1000, 12);
    Engine e;
    for (auto& w : workers) e.AddModule(w.get());
    if (on_timer) e.AddModule(&timer);
    const Module& watched = on_timer ? static_cast<const Module&>(timer)
                                     : *workers[0];
    auto cycles = Drive(e, d, budget, [&] {
      return watched.busy_cycles() >= busy_target;
    });
    EXPECT_TRUE(cycles.ok()) << cycles.status();
    r.cycles = cycles.ok() ? *cycles : 0;
    for (auto& w : workers) r.buckets.push_back(BucketsOf(*w));
    r.buckets.push_back(BucketsOf(timer));
    return r;
  };
  struct Case {
    const char* label;
    uint64_t budget, busy_target;
    bool on_timer;
    Cycle want;
  };
  for (const Case& c : {Case{"entry", 100000, 0, false, 0},
                        Case{"saturated", 100000, 150, false, 150},
                        Case{"after-jump", 100000, 5, true, 5001},
                        Case{"budget", 3001, 3, true, 3001}}) {
    const SimpleRun ref = run(Driver::kStep, c.budget, c.busy_target,
                              c.on_timer);
    EXPECT_EQ(ref.cycles, c.want) << c.label;
    ExpectSameRun(ref, run(Driver::kRun, c.budget, c.busy_target, c.on_timer),
                  c.label);
  }
}

TEST(EngineEventTest, BindConflictIsInvalidArgument) {
  // An RDMA endpoint and a TCP stack on one node both write its egress port
  // and both read its ingress port: no single module to arm on an edge.
  net::Fabric::Config fc;
  fc.clock_hz = 200e6;
  net::Fabric fabric("fab", 2, fc);
  net::RdmaEndpoint rdma("rdma", 0, &fabric);
  net::TcpStack tcp("tcp", 0, &fabric);
  Engine e;
  fabric.RegisterWith(e);
  e.AddModule(&rdma);
  e.AddModule(&tcp);
  rdma.PostSend(1, 64, /*tag=*/1);
  auto run = e.Run(1000);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(run.status().message().find("fab.eg0"), std::string::npos)
      << run.status();
  EXPECT_EQ(e.now(), 0u);
}

// ---------------------------------------------------------------------------
// 100-seed Run()-vs-Step() differential over the sharded workloads
//
// Mirrors tests/gather_equivalence_test.cc's harness, but the variable under
// test is the driver: for every seeded deployment Run() must reproduce the
// Step() loop bit-for-bit — elapsed cycles, per-slice outcomes, and result
// payloads.

uint64_t Lcg(uint64_t& state) {
  state = state * 6364136223846793005ull + 1442695040888963407ull;
  return state >> 33;
}

using OutcomeSig = std::vector<std::vector<std::pair<uint32_t, int>>>;

OutcomeSig SignatureOf(const std::vector<shard::PartialOutcome>& outcomes) {
  OutcomeSig sig;
  sig.reserve(outcomes.size());
  for (const shard::PartialOutcome& out : outcomes) {
    std::vector<std::pair<uint32_t, int>> slices;
    slices.reserve(out.slices.size());
    for (const shard::PartialOutcome::Slice& s : out.slices) {
      slices.push_back({s.shard, int(s.outcome)});
    }
    sig.push_back(std::move(slices));
  }
  return sig;
}

std::vector<shard::PartialOutcome> DrainOutcomes(
    shard::ShardCluster& cluster, const std::vector<uint64_t>& ids) {
  std::map<uint64_t, shard::PartialOutcome> by_id;
  shard::PartialOutcome out;
  while (cluster.PollOutcome(&out)) by_id[out.request_id] = out;
  std::vector<shard::PartialOutcome> ordered;
  for (uint64_t id : ids) {
    auto it = by_id.find(id);
    EXPECT_TRUE(it != by_id.end()) << "request " << id << " never finalized";
    if (it != by_id.end()) ordered.push_back(std::move(it->second));
  }
  return ordered;
}

const anns::Dataset& DiffDataset() {
  static const anns::Dataset* data = [] {
    anns::DatasetSpec spec;
    spec.num_base = 1600;
    spec.num_queries = 8;
    spec.dim = 12;
    spec.num_clusters = 12;
    spec.cluster_stddev = 0.3f;
    spec.seed = 123;
    return new anns::Dataset(anns::MakeDataset(spec));
  }();
  return *data;
}

const anns::IvfPqIndex& DiffIndex() {
  static const anns::IvfPqIndex* index = [] {
    anns::IvfPqIndex::Options opts;
    opts.nlist = 24;
    opts.pq.m = 4;
    opts.pq.ksub = 16;
    opts.pq.train_iters = 4;
    auto built =
        anns::IvfPqIndex::Build(DiffDataset().base, DiffDataset().dim, opts);
    FPGADP_CHECK(built.ok());
    return new anns::IvfPqIndex(std::move(built).value());
  }();
  return *index;
}

struct AnnsRun {
  Cycle cycles = 0;
  bool all_ok = true;
  OutcomeSig outcomes;
  std::vector<std::vector<anns::Neighbor>> results;
};

AnnsRun RunAnns(Driver driver, uint32_t num_shards, size_t nprobe, size_t k,
                const std::vector<size_t>& query_idx) {
  const anns::Dataset& data = DiffDataset();
  shard::AnnsTopKWorkload::Config wc;
  wc.nprobe = nprobe;
  wc.k = k;
  shard::AnnsTopKWorkload wl(&DiffIndex(),
                             shard::Partitioner::Hash(num_shards), wc);
  shard::ShardCluster::Config cc;
  cc.num_shards = num_shards;
  shard::ShardCluster cluster(&wl, cc);
  std::vector<uint64_t> ids;
  for (size_t q : query_idx) {
    ids.push_back(wl.AddQuery(data.QueryVector(q)));
    cluster.Submit(ids.back());
  }
  auto cycles = Drive(cluster.engine(), driver, 1ull << 32);
  AnnsRun r;
  EXPECT_TRUE(cycles.ok()) << cycles.status().ToString();
  if (!cycles.ok()) return r;
  r.cycles = *cycles;
  const std::vector<shard::PartialOutcome> outs = DrainOutcomes(cluster, ids);
  for (const shard::PartialOutcome& out : outs) r.all_ok &= out.status.ok();
  r.outcomes = SignatureOf(outs);
  for (uint64_t id : ids) r.results.push_back(wl.result(id));
  return r;
}

TEST(EngineEventDifferentialTest, AnnsTopK100Seeds) {
  const size_t nq = DiffDataset().num_queries();
  for (uint32_t seed = 0; seed < 100; ++seed) {
    const uint32_t shards = 1 + seed % 8;
    const size_t nprobe = 4 + seed % 9;
    const size_t k = 4 + seed % 8;
    const std::vector<size_t> queries = {seed % nq, (seed * 7 + 3) % nq};
    const AnnsRun ref = RunAnns(Driver::kStep, shards, nprobe, k, queries);
    const AnnsRun event = RunAnns(Driver::kRun, shards, nprobe, k, queries);
    const std::string label = "seed " + std::to_string(seed);
    EXPECT_TRUE(event.all_ok) << label;
    EXPECT_EQ(event.cycles, ref.cycles) << label;
    EXPECT_EQ(event.outcomes, ref.outcomes) << label;
    ASSERT_EQ(event.results.size(), ref.results.size()) << label;
    for (size_t q = 0; q < ref.results.size(); ++q) {
      ASSERT_EQ(event.results[q].size(), ref.results[q].size())
          << label << " query " << q;
      for (size_t i = 0; i < ref.results[q].size(); ++i) {
        EXPECT_EQ(event.results[q][i].id, ref.results[q][i].id)
            << label << " query " << q << " rank " << i;
        EXPECT_EQ(event.results[q][i].distance, ref.results[q][i].distance)
            << label << " query " << q << " rank " << i;
      }
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

struct KvsRun {
  Cycle cycles = 0;
  bool all_ok = true;
  OutcomeSig outcomes;
  std::vector<std::vector<std::tuple<uint64_t, bool, bool, uint64_t>>> results;
};

KvsRun RunKvs(Driver driver, uint32_t num_shards, uint32_t seed,
              size_t num_requests, size_t keys_per_req) {
  shard::KvsMultiGetWorkload::Config kc;
  shard::KvsMultiGetWorkload wl(shard::Partitioner::Hash(num_shards), kc);
  uint64_t st = seed * 2654435761ull + 17;
  for (int i = 0; i < 300; ++i) {
    const uint64_t key = Lcg(st) % 5000;
    wl.Load(key, key * 31 + seed);
  }
  shard::ShardCluster::Config cc;
  cc.num_shards = num_shards;
  shard::ShardCluster cluster(&wl, cc);
  std::vector<uint64_t> ids;
  for (size_t r = 0; r < num_requests; ++r) {
    std::vector<uint64_t> keys;
    for (size_t i = 0; i < keys_per_req; ++i) keys.push_back(Lcg(st) % 5000);
    ids.push_back(wl.AddMultiGet(std::move(keys)));
    cluster.Submit(ids.back());
  }
  auto cycles = Drive(cluster.engine(), driver, 1ull << 32);
  KvsRun r;
  EXPECT_TRUE(cycles.ok()) << cycles.status().ToString();
  if (!cycles.ok()) return r;
  r.cycles = *cycles;
  const std::vector<shard::PartialOutcome> outs = DrainOutcomes(cluster, ids);
  for (const shard::PartialOutcome& out : outs) r.all_ok &= out.status.ok();
  r.outcomes = SignatureOf(outs);
  for (uint64_t id : ids) {
    std::vector<std::tuple<uint64_t, bool, bool, uint64_t>> per_key;
    for (const shard::KvsMultiGetWorkload::GetResult& g : wl.result(id)) {
      per_key.push_back({g.key, g.served, g.hit, g.value});
    }
    r.results.push_back(std::move(per_key));
  }
  return r;
}

TEST(EngineEventDifferentialTest, KvsMultiGet100Seeds) {
  for (uint32_t seed = 0; seed < 100; ++seed) {
    const uint32_t shards = 1 + seed % 8;
    const size_t reqs = 2 + seed % 4;
    const size_t keys = 3 + seed % 6;
    const KvsRun ref = RunKvs(Driver::kStep, shards, seed, reqs, keys);
    const KvsRun event = RunKvs(Driver::kRun, shards, seed, reqs, keys);
    const std::string label = "seed " + std::to_string(seed);
    EXPECT_TRUE(event.all_ok) << label;
    EXPECT_EQ(event.cycles, ref.cycles) << label;
    EXPECT_EQ(event.outcomes, ref.outcomes) << label;
    EXPECT_EQ(event.results, ref.results) << label;
    if (::testing::Test::HasFatalFailure()) return;
  }
}

rel::Table MakeKeyedTable(uint64_t rows, uint64_t key_mod, uint64_t seed) {
  rel::SyntheticTableSpec spec;
  spec.num_rows = rows;
  spec.key_cardinality = key_mod;
  spec.seed = seed;
  return rel::MakeSyntheticTable(spec);
}

std::multiset<std::vector<int64_t>> RowMultiset(const rel::Table& t) {
  std::multiset<std::vector<int64_t>> rows;
  const size_t cols = t.schema().num_columns();
  for (const rel::Row& r : t.rows()) {
    std::vector<int64_t> v(cols);
    for (size_t c = 0; c < cols; ++c) v[c] = r.Get(c);
    rows.insert(std::move(v));
  }
  return rows;
}

struct JoinRun {
  Cycle cycles = 0;
  bool ok = true;
  OutcomeSig outcomes;
  std::multiset<std::vector<int64_t>> rows;
};

JoinRun RunJoin(Driver driver, uint32_t num_shards, uint32_t seed) {
  rel::Table build(rel::Schema{{{"k"}, {"payload"}}});
  const int64_t nbuild = 40 + seed % 30;
  for (int64_t i = 0; i < nbuild; ++i) {
    rel::Row r;
    r.Set(0, i);
    r.Set(1, i * 13 + seed);
    build.Append(r);
  }
  const rel::Table probe =
      MakeKeyedTable(150, uint64_t(nbuild) + 20, seed + 1);
  rel::JoinSpec spec;
  spec.left_key = 0;
  spec.right_key = 1;  // synthetic table: key column
  shard::HashJoinWorkload::Config jc;
  shard::HashJoinWorkload wl(&build, &probe, spec,
                             shard::Partitioner::Hash(num_shards), jc);
  shard::ShardCluster::Config cc;
  cc.num_shards = num_shards;
  shard::ShardCluster cluster(&wl, cc);
  cluster.Submit(wl.request_id());
  auto cycles = Drive(cluster.engine(), driver, 1ull << 32);
  JoinRun r;
  EXPECT_TRUE(cycles.ok()) << cycles.status().ToString();
  if (!cycles.ok()) return r;
  r.cycles = *cycles;
  const std::vector<shard::PartialOutcome> outs =
      DrainOutcomes(cluster, {wl.request_id()});
  for (const shard::PartialOutcome& out : outs) r.ok &= out.status.ok();
  r.outcomes = SignatureOf(outs);
  r.rows = RowMultiset(wl.result());
  return r;
}

TEST(EngineEventDifferentialTest, HashJoin100Seeds) {
  for (uint32_t seed = 0; seed < 100; ++seed) {
    const uint32_t shards = 1 + seed % 4;
    const JoinRun ref = RunJoin(Driver::kStep, shards, seed);
    const JoinRun event = RunJoin(Driver::kRun, shards, seed);
    const std::string label = "seed " + std::to_string(seed);
    EXPECT_TRUE(event.ok) << label;
    EXPECT_FALSE(ref.rows.empty()) << label;
    EXPECT_EQ(event.cycles, ref.cycles) << label;
    EXPECT_EQ(event.outcomes, ref.outcomes) << label;
    EXPECT_EQ(event.rows, ref.rows) << label;
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace fpgadp
