#ifndef FPGADP_BENCH_BENCH_COMMON_H_
#define FPGADP_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace fpgadp::bench {

/// One flag a bench accepts. A `name` ending in '=' (`--gather=`) takes the
/// rest of the argument as its value; any other name (`--smoke`) must match
/// the whole argument. `set` stores the value into its target and returns
/// false to reject it; `accepted` describes the values for the usage lines.
struct Flag {
  std::string name;
  std::string accepted;
  std::function<bool(const char* value)> set;
};

/// `--name`: sets *target to true.
Flag BoolFlag(std::string name, bool* target);
/// `--name=v` for v one of `choices`.
Flag ChoiceFlag(std::string name, std::vector<std::string> choices,
                std::string* target);
/// `--name=n` for a decimal n in [lo, hi]: digits only, the whole value.
Flag RangeFlag(std::string name, uint64_t lo, uint64_t hi, uint64_t* target);
/// `--name=x` for a probability x in [0, 1], parsed whole.
Flag ProbabilityFlag(std::string name, double* target);

/// Shared flag parser and observability harness for every bench binary.
/// Declare the bench's flag targets, then the session, at the top of main():
///
///   int main(int argc, char** argv) {
///     bool smoke = false;
///     bench::Session session(argc, argv, {bench::BoolFlag("--smoke", &smoke)});
///     ...
///   }
///
/// The session accepts the bench's `flags` plus the three below. Any other
/// argument, or a value its flag rejects, prints one line naming it and one
/// usage line per accepted flag, and exits 2 before any work, so no run
/// measures something other than what was asked for.
///   --trace=<file>   Record every simulated engine run as Chrome
///                    trace_event JSON; open in chrome://tracing or
///                    https://ui.perfetto.dev. Module-busy spans, stream
///                    depth and hardware counter tracks; 1 trace "us" = 1
///                    kernel cycle.
///   --metrics        Print the metrics registry (stall attribution, stream
///                    traffic, memory/network counters) on exit.
///   --json=<file>    Dump every result row the bench recorded with
///                    AddResult(), plus the bench's total wall-clock, as a
///                    JSON file on exit — the machine-readable complement
///                    to the printed tables, for diffing perf trajectories
///                    across commits. A run marked Fail() leaves the file
///                    untouched.
///
/// The session installs the process-global trace writer / metrics registry
/// (see obs/trace.h), which every Engine picks up when it starts running —
/// including engines constructed deep inside ExecuteFpga or pipeline
/// helpers. The destructor writes the trace file and prints metrics, so the
/// Session must outlive all engine runs.
class Session {
 public:
  Session(int argc, char** argv, std::vector<Flag> flags = {});
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// One named numeric field of a result row.
  using ResultField = std::pair<std::string, double>;

  /// Records one result row for --json export (a no-op without --json).
  /// `name` identifies the scenario/configuration; fields are the numbers a
  /// printed table row would carry (cycles, wall seconds, items/sec, ...).
  void AddResult(const std::string& name,
                 const std::vector<ResultField>& fields);

  /// Fallback --json destination a bench can install before results are
  /// recorded; an explicit --json=<file> flag always wins.
  void SetDefaultJsonPath(const std::string& path);

  /// True when the command line gave flag `name` (as declared, e.g.
  /// "--gather="), whatever its value. Lets a bench reject a flag that one
  /// of its modes does not read.
  bool Given(const std::string& name) const;

  /// Marks the run failed, so the destructor writes no JSON (a failed run
  /// must not replace a committed baseline with partial rows). Returns the
  /// exit code 1, for `return session.Fail();` from main.
  int Fail() {
    failed_ = true;
    return 1;
  }

 private:
  struct ResultRow {
    std::string name;
    std::vector<ResultField> fields;
  };

  std::vector<std::string> given_;  ///< Names of the flags the command line set.
  std::string trace_path_;
  std::string json_path_;
  std::unique_ptr<obs::TraceWriter> writer_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::vector<ResultRow> results_;
  std::chrono::steady_clock::time_point start_;
  bool failed_ = false;
};

}  // namespace fpgadp::bench

#endif  // FPGADP_BENCH_BENCH_COMMON_H_
