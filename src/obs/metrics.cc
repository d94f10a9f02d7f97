#include "src/obs/metrics.h"

#include <atomic>
#include <sstream>

#include "src/common/check.h"

namespace fpgadp::obs {

namespace internal {

namespace {
// Depth counter, not a flag, so nested engines (a module whose Tick runs
// another engine) stay correct. Relaxed is enough: a guard is entered and
// left on the thread that ticks the engine's modules.
std::atomic<int> g_tick_phase_depth{0};
}  // namespace

#if !defined(NDEBUG) || defined(FPGADP_ENABLE_DCHECKS)
TickPhaseGuard::TickPhaseGuard() {
  g_tick_phase_depth.fetch_add(1, std::memory_order_relaxed);
}
TickPhaseGuard::~TickPhaseGuard() {
  g_tick_phase_depth.fetch_sub(1, std::memory_order_relaxed);
}
#endif

bool InTickPhase() {
  return g_tick_phase_depth.load(std::memory_order_relaxed) > 0;
}

}  // namespace internal

// Per-cycle code must cache instrument pointers; a by-name lookup during an
// engine's tick phase is a hot-path regression the DCHECK makes loud.
#define FPGADP_ASSERT_NOT_IN_TICK() \
  FPGADP_DCHECK(!::fpgadp::obs::internal::InTickPhase())

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  FPGADP_CHECK(!bounds_.empty());
  for (size_t i = 1; i < bounds_.size(); ++i) {
    FPGADP_CHECK(bounds_[i] > bounds_[i - 1]);
  }
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::Observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++counts_[static_cast<size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += v;
  max_ = std::max(max_, v);
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  const auto target = static_cast<uint64_t>(q * static_cast<double>(count_));
  uint64_t seen = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen > target) return i < bounds_.size() ? bounds_[i] : max_;
  }
  return max_;
}

std::vector<double> Pow2Bounds(uint32_t num_buckets) {
  std::vector<double> bounds;
  bounds.reserve(num_buckets);
  double b = 1;
  for (uint32_t i = 0; i < num_buckets; ++i, b *= 2) bounds.push_back(b);
  return bounds;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  FPGADP_ASSERT_NOT_IN_TICK();
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  FPGADP_ASSERT_NOT_IN_TICK();
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  FPGADP_ASSERT_NOT_IN_TICK();
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return slot.get();
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  FPGADP_ASSERT_NOT_IN_TICK();
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  FPGADP_ASSERT_NOT_IN_TICK();
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::FindHistogram(const std::string& name) const {
  FPGADP_ASSERT_NOT_IN_TICK();
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::string MetricsRegistry::ToString() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  for (const auto& [name, c] : counters_) {
    os << name << ": " << c->value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    os << name << ": " << g->value() << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    os << name << ": count " << h->count() << " mean "
       << (h->count() ? h->sum() / static_cast<double>(h->count()) : 0)
       << " p50 " << h->Quantile(0.5) << " p99 " << h->Quantile(0.99)
       << " max " << h->max() << "\n";
  }
  return os.str();
}

namespace {
MetricsRegistry* g_metrics = nullptr;
}  // namespace

MetricsRegistry* GlobalMetrics() { return g_metrics; }
void SetGlobalMetrics(MetricsRegistry* registry) { g_metrics = registry; }

}  // namespace fpgadp::obs
