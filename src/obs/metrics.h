#ifndef FPGADP_OBS_METRICS_H_
#define FPGADP_OBS_METRICS_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace fpgadp::obs {

/// Monotone event count (cycles, items, bytes). Pointer-stable once created
/// through a MetricsRegistry, so hot paths can cache the pointer and bump it
/// with a single increment.
class Counter {
 public:
  void Inc(uint64_t delta = 1) { value_ += delta; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

/// Last-written instantaneous value (queue depth, utilization %). SetMax is
/// the high-watermark idiom: keep the largest value ever reported.
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void SetMax(double v) { value_ = std::max(value_, v); }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Fixed-bucket histogram for occupancy/latency distributions. Bucket i
/// counts observations <= bounds[i]; one extra overflow bucket counts the
/// rest. Bounds must be strictly increasing.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double max() const { return max_; }
  const std::vector<double>& bounds() const { return bounds_; }
  const std::vector<uint64_t>& bucket_counts() const { return counts_; }

  /// Smallest bucket upper bound covering quantile `q` in [0,1]; the overflow
  /// bucket reports the observed max.
  double Quantile(double q) const;

 private:
  std::vector<double> bounds_;
  std::vector<uint64_t> counts_;  // bounds_.size() + 1 entries
  uint64_t count_ = 0;
  double sum_ = 0;
  double max_ = 0;
};

/// Exponential bucket bounds 1, 2, 4, ... suited to FIFO depths and queue
/// lengths.
std::vector<double> Pow2Bounds(uint32_t num_buckets);

namespace internal {

/// RAII marker an engine holds across its per-cycle tick + commit phase.
/// While any guard is live, by-name registry lookups (Get*/Find*) are a
/// programmer error — hot-path code must resolve instrument handles once,
/// outside the cycle loop — and FPGADP_DCHECK-fail. Nestable (a counter,
/// not a flag) and process-global: safe because no module's Tick() runs a
/// nested engine, so a live guard always means "inside some engine's cycle
/// loop". Compiled to a no-op when FPGADP_DCHECK is compiled out (the
/// assertions that read it are gone too), so release ticking pays nothing.
class TickPhaseGuard {
 public:
#if !defined(NDEBUG) || defined(FPGADP_ENABLE_DCHECKS)
  TickPhaseGuard();
  ~TickPhaseGuard();
#else
  TickPhaseGuard() {}
  ~TickPhaseGuard() {}
#endif
  TickPhaseGuard(const TickPhaseGuard&) = delete;
  TickPhaseGuard& operator=(const TickPhaseGuard&) = delete;
};

/// True while any TickPhaseGuard is live.
bool InTickPhase();

}  // namespace internal

/// A flat namespace of named instruments. Get* creates on first use and
/// returns the same pointer thereafter, so callers register once and record
/// without lookups. Map access (lookup/creation/export) is mutex-guarded so
/// engines exporting from different threads — e.g. a sweep running one
/// engine per worker against the process-global registry — cannot corrupt
/// the name maps; the instruments themselves are still single-writer (the
/// thread running each engine), like the simulator they serve.
///
/// Per-cycle simulation code must not call Get*/Find* — hash + mutex per
/// lookup is exactly the probe cost the observability layer promises to
/// avoid. Every lookup FPGADP_DCHECKs that no engine is inside its tick
/// phase (see internal::TickPhaseGuard).
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// `bounds` is consulted only on first creation.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> bounds = Pow2Bounds(12));

  /// Lookup without creation; nullptr when absent.
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Human-readable dump, one instrument per line, sorted by name.
  std::string ToString() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Process-wide registry benches opt into with --metrics; nullptr when
/// disabled. Engines pick this up when they start running.
MetricsRegistry* GlobalMetrics();
void SetGlobalMetrics(MetricsRegistry* registry);

}  // namespace fpgadp::obs

#endif  // FPGADP_OBS_METRICS_H_
