#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the host's monotonic clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Host-time spans recorded from outside the program, around calls into its
/// public functions. Single-threaded: the benchmark drives one engine from
/// one thread, and every wrapped call runs on it.
///
/// Two kinds of boundary:
///  * a span — one record per call, with name, start, end, parent and
///    request id (plus the shard for per-slice calls). Records stay in
///    memory and are written out once the workload ends (Write).
///  * an aggregate — a boundary that fires every simulated tick, kept as a
///    count and a total instead of one record per call.
///
/// Both kinds nest on one stack, so every boundary knows how much of its
/// duration its children covered; its self time is the rest.
class Tracer {
 public:
  static constexpr uint32_t kNoParent = ~uint32_t{0};
  static constexpr uint64_t kNoRequest = ~uint64_t{0};
  static constexpr uint32_t kNoShard = ~uint32_t{0};

  struct Span {
    uint32_t name = 0;
    uint32_t parent = kNoParent;  ///< Index into spans(), or kNoParent.
    uint64_t request = kNoRequest;
    uint32_t shard = kNoShard;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t child_ns = 0;  ///< Part of [start, end) that child spans cover.
  };

  /// Per-name roll-up over both kinds of boundary.
  struct Summary {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t child_ns = 0;
    int64_t self_ns() const { return total_ns - child_ns; }
  };

  /// Interns a boundary name; ids are stable for the tracer's lifetime.
  uint32_t Name(const std::string& name);

  /// Opens a span (one record) or an aggregate (count + total only).
  void BeginSpan(uint32_t name, uint64_t request = kNoRequest,
                 uint32_t shard = kNoShard);
  void BeginAggregate(uint32_t name);
  /// Closes the innermost open boundary.
  void End();

  /// Roll-up by name. Only closed boundaries count.
  std::map<std::string, Summary> Summarize() const;
  /// Sum of the durations of the top-level boundaries: every nanosecond
  /// the tracer saw, counted once.
  int64_t RootNs() const { return root_ns_; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span record (tab-separated, one per line, with a header)
  /// followed by one line per aggregate.
  void Write(std::ostream& out) const;

 private:
  struct Frame {
    bool aggregate = false;
    uint32_t index = 0;  ///< Span index, or name id for an aggregate.
    int64_t start_ns = 0;
    int64_t child_ns = 0;
  };

  std::vector<std::string> names_;
  std::map<std::string, uint32_t> name_ids_;
  std::vector<Span> spans_;
  std::vector<Summary> aggregates_;  ///< Indexed by name id.
  std::vector<Frame> stack_;
  int64_t root_ns_ = 0;
};

/// Opens a span for the enclosing scope when `tracer` is set.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, uint32_t name,
             uint64_t request = Tracer::kNoRequest,
             uint32_t shard = Tracer::kNoShard)
      : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->BeginSpan(name, request, shard);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
