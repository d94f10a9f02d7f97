// The benchmark's own test: the timing wrappers must be transparent.
//
//  1. TimedWorkload forwards every shard::Workload virtual — including the
//     defaulted MergedBytes, ScatterSharedBytes, SliceOwner and
//     CommitMigration — with the caller's arguments and the inner answer.
//  2. On every workload, at the size the benchmark measures, a traced
//     iteration reports exactly the simulated metrics of a plain one, with
//     no failures.
//  3. The span roll-up keeps self time + child time == duration.
//
//   cmake --build .bench_build/perfbench --target perfbench_test
//   ctest --test-dir .bench_build/perfbench

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"
#include "wrappers.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

namespace shard = fpgadp::shard;

/// Answers every virtual with a value derived from its arguments and
/// records the calls, so a dropped or altered forward shows.
class RecordingWorkload : public shard::Workload {
 public:
  std::vector<std::string> calls;

  std::vector<shard::SubRequest> Scatter(uint64_t request_id) override {
    calls.push_back("Scatter " + std::to_string(request_id));
    return {{3, request_id + 7, 11}};
  }
  shard::Service Serve(uint32_t s, uint64_t request_id) override {
    calls.push_back("Serve " + std::to_string(s) + " " +
                    std::to_string(request_id));
    return {request_id + s, 5};
  }
  void Merge(uint64_t request_id, const shard::PartialOutcome& o) override {
    calls.push_back("Merge " + std::to_string(request_id) + " " +
                    std::to_string(o.shards_done));
  }
  uint64_t MergedBytes(uint64_t request_id, uint64_t done_mask,
                       uint64_t concat_bytes) override {
    calls.push_back("MergedBytes");
    return request_id * 1000 + done_mask * 10 + concat_bytes;
  }
  uint64_t ScatterSharedBytes(uint64_t request_id) override {
    calls.push_back("ScatterSharedBytes");
    return request_id + 42;
  }
  uint32_t SliceOwner(uint32_t s, uint64_t request_id) override {
    calls.push_back("SliceOwner");
    return s + static_cast<uint32_t>(request_id);
  }
  void CommitMigration(const shard::MigrationPlan& plan) override {
    calls.push_back("CommitMigration " + std::to_string(plan.source) + " " +
                    std::to_string(plan.target));
  }
};

void TestForwarding(Tracer* tracer) {
  RecordingWorkload inner;
  TimedWorkload timed(&inner, tracer, "probe");
  shard::Workload& w = timed;

  const std::vector<shard::SubRequest> subs = w.Scatter(9);
  Expect(subs.size() == 1 && subs[0].shard == 3 &&
             subs[0].request_bytes == 16 && subs[0].est_service_cycles == 11,
         "Scatter result forwarded");
  const shard::Service svc = w.Serve(2, 9);
  Expect(svc.compute_cycles == 11 && svc.response_bytes == 5,
         "Serve result forwarded");
  shard::PartialOutcome outcome;
  outcome.shards_done = 4;
  w.Merge(9, outcome);
  Expect(w.MergedBytes(2, 3, 100) == 2130, "MergedBytes forwarded");
  Expect(w.ScatterSharedBytes(8) == 50, "ScatterSharedBytes forwarded");
  Expect(w.SliceOwner(1, 5) == 6, "SliceOwner forwarded");
  shard::MigrationPlan plan;
  plan.source = 1;
  plan.target = 2;
  w.CommitMigration(plan);

  const std::vector<std::string> want = {
      "Scatter 9",     "Serve 2 9",          "Merge 9 4",
      "MergedBytes",   "ScatterSharedBytes", "SliceOwner",
      "CommitMigration 1 2"};
  Expect(inner.calls == want, "every virtual reaches the inner workload once");

  if (tracer != nullptr) {
    const auto spans = tracer->Summarize();
    Expect(spans.count("probe.scatter") == 1 && spans.count("probe.serve") == 1 &&
               spans.count("probe.merge") == 1,
           "Scatter, Serve and Merge recorded as spans");
    Expect(tracer->spans().size() == 3, "forwarded calls are not spans");
    Expect(tracer->spans()[1].request == 9 && tracer->spans()[1].shard == 2,
           "Serve span carries request id and shard");
  }
}

void TestSelfTimes() {
  Tracer t;
  const uint32_t outer = t.Name("outer");
  const uint32_t tick = t.Name("tick");
  const uint32_t inner = t.Name("inner");
  t.BeginSpan(outer);
  for (int i = 0; i < 3; ++i) {
    t.BeginAggregate(tick);
    t.BeginSpan(inner, 7);
    t.End();
    t.End();
  }
  t.End();
  int64_t self = 0;
  for (const auto& [name, s] : t.Summarize()) {
    Expect(s.self_ns() + s.child_ns == s.total_ns, name + ": self + children");
    self += s.self_ns();
  }
  Expect(self == t.RootNs(), "self times sum to the top-level duration");
  const auto sum = t.Summarize();
  Expect(sum.at("tick").count == 3 && sum.at("inner").count == 3,
         "aggregate counts every call");
  Expect(sum.at("outer").child_ns == sum.at("tick").total_ns,
         "outer's children are the ticks");
  Expect(t.spans()[1].parent == 0, "a span under an aggregate parents to "
                                   "the enclosing span");
}

void TestTracedMatchesPlain() {
  for (const std::string& name : WorkloadNames()) {
    auto w = MakeWorkload(name, 3);
    const Iteration plain = w->Run(nullptr);
    Tracer tracer;
    const Iteration traced = w->Run(&tracer);
    Expect(!plain.sim.empty(), name + ": simulated metrics reported");
    Expect(plain.sim == traced.sim,
           name + ": traced run reports the plain run's simulated metrics");
    Expect(plain.failed == 0 && traced.failed == 0, name + ": no failures");
    Expect(plain.correct && traced.correct, name + ": results correct");
    Expect(plain.attempted == traced.attempted && plain.attempted > 0,
           name + ": same work attempted");
    Expect(tracer.Summarize().count("sim.run") == 1,
           name + ": the simulated phase is traced");
  }
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::Tracer tracer;
  perfbench::TestForwarding(nullptr);
  perfbench::TestForwarding(&tracer);
  perfbench::TestSelfTimes();
  perfbench::TestTracedMatchesPlain();
  if (perfbench::failures != 0) {
    std::cerr << perfbench::failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench_test: all checks passed\n";
  return 0;
}
