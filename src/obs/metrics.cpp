#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace irf::obs {

namespace {

std::atomic<bool> g_metrics_enabled{true};

/// CAS add for pre-C++20-style floating-point atomics (portable and fine for
/// the low-contention sum slot; buckets take the fast fetch_add path).
void atomic_add(std::atomic<double>& slot, double delta) {
  double cur = slot.load(std::memory_order_relaxed);
  while (!slot.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& slot, double value) {
  double cur = slot.load(std::memory_order_relaxed);
  while (value < cur &&
         !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& slot, double value) {
  double cur = slot.load(std::memory_order_relaxed);
  while (value > cur &&
         !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

/// The instrument called `name` in `map`, created on first use. The caller
/// holds the registry mutex.
template <typename T>
T& instrument(std::map<std::string, std::unique_ptr<T>>& map, const std::string& name) {
  auto& slot = map[name];
  if (!slot) slot = std::make_unique<T>();
  return *slot;
}

}  // namespace

int Histogram::bucket_index(double value) {
  if (!(value >= kMinTracked)) return 0;  // underflow (also NaN, <=0)
  // Decide overflow in double: +inf (or anything past the top decade) must
  // never reach the int cast, where it would be out of range.
  const double inner = std::log10(value / kMinTracked) * kBucketsPerDecade;
  if (!(inner < kDecades * kBucketsPerDecade)) return kNumBuckets - 1;  // overflow
  return 1 + static_cast<int>(inner);
}

void Histogram::record(double value) {
  if (std::isnan(value)) return;
  buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, value);
  atomic_min(min_, value);
  atomic_max(max_, value);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  for (int i = 0; i < kNumBuckets; ++i) {
    snap.buckets[static_cast<std::size_t>(i)] =
        buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
    snap.count += snap.buckets[static_cast<std::size_t>(i)];
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  // min_/max_ rest at +/-inf until the first record; present an empty-safe 0.
  snap.min = snap.count == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
  snap.max = snap.count == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
  return snap;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
}

double Histogram::Snapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th sample (nearest-rank on the cumulative bucket counts).
  const std::uint64_t rank =
      std::min<std::uint64_t>(count - 1, static_cast<std::uint64_t>(q * static_cast<double>(count)));
  std::uint64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    cumulative += buckets[static_cast<std::size_t>(i)];
    if (cumulative > rank) {
      if (i == 0) return min;                  // underflow: everything < kMinTracked
      if (i == kNumBuckets - 1) return max;    // overflow: best estimate is the max
      // Geometric bucket midpoint, clamped to the observed range so estimates
      // never fall outside [min, max].
      const double mid =
          kMinTracked * std::pow(10.0, (static_cast<double>(i) - 0.5) / kBucketsPerDecade);
      return std::clamp(mid, min, max);
    }
  }
  return max;
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return instrument(counters_, name);
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return instrument(gauges_, name);
}

Histogram& MetricsRegistry::timer(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return instrument(timers_, name);
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return instrument(histograms_, name);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) snap.counters.emplace_back(name, c->value());
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) snap.gauges.emplace_back(name, g->value());
  snap.timers.reserve(timers_.size());
  for (const auto& [name, t] : timers_) snap.timers.emplace_back(name, t->snapshot());
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.emplace_back(name, h->snapshot());
  }
  return snap;
}

void MetricsRegistry::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.clear();
  gauges_.clear();
  timers_.clear();
  histograms_.clear();
}

bool metrics_enabled() { return g_metrics_enabled.load(std::memory_order_relaxed); }

void set_metrics_enabled(bool enabled) {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

void count(const std::string& name, std::uint64_t n) {
  if (!metrics_enabled()) return;
  MetricsRegistry::instance().counter(name).add(n);
}

void set_gauge(const std::string& name, double value) {
  if (!metrics_enabled()) return;
  MetricsRegistry::instance().gauge(name).set(value);
}

void record_timer(const std::string& name, double seconds) {
  if (!metrics_enabled()) return;
  MetricsRegistry::instance().timer(name).record(seconds);
}

void record_histogram(const std::string& name, double value) {
  if (!metrics_enabled()) return;
  MetricsRegistry::instance().histogram(name).record(value);
}

}  // namespace irf::obs
