#pragma once

/// \file metrics.hpp
/// Process-wide registry of named counters, gauges, quantile histograms and
/// timers (histograms of seconds). Instruments are created lazily on first
/// use and are safe to update from any thread; the registry survives for the
/// whole process so the JSON snapshot (see obs.hpp) can read a consistent
/// view at exit or on demand.
///
/// Instrument updates are cheap (a few relaxed atomic ops) but still
/// avoidable: the free helpers `count()` / `set_gauge()` / `record_timer()` /
/// `record_histogram()` check `metrics_enabled()` first so that a process
/// with metrics switched off (IRF_METRICS=0) pays only a relaxed atomic load.

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace irf::obs {

/// Monotonic event count (solves run, PCG iterations, samples trained).
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written value (epoch loss, AMG operator complexity, hard fraction).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-memory log-bucketed quantile histogram (HDR-style). Values land in
/// geometric buckets spanning [1e-9, 1e4) with kBucketsPerDecade buckets per
/// decade, so any quantile estimate is exact to within one bucket's relative
/// width (10^(1/kBucketsPerDecade) ≈ 26%) regardless of how many samples were
/// recorded. Recording is lock-free (relaxed atomics) and allocation-free —
/// cheap enough for per-request latencies on the serve hot path. Values are
/// unitless: a timer is a Histogram of seconds, and the serving layer also
/// records batch sizes and iteration counts. Non-positive values count into
/// the underflow bucket.
class Histogram {
 public:
  static constexpr int kBucketsPerDecade = 10;
  static constexpr int kDecades = 13;  ///< [1e-9, 1e4)
  static constexpr double kMinTracked = 1e-9;
  /// inner buckets + underflow (index 0) + overflow (last index)
  static constexpr int kNumBuckets = kDecades * kBucketsPerDecade + 2;

  /// Point-in-time copy with quantile estimation. min/max/sum are exact;
  /// quantiles are bucket-resolution estimates clamped to [min, max].
  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::array<std::uint64_t, kNumBuckets> buckets{};

    double mean() const { return count == 0 ? 0.0 : sum / count; }
    /// Value estimate at quantile q in [0, 1] (0 when empty).
    double quantile(double q) const;
    double p50() const { return quantile(0.50); }
    double p90() const { return quantile(0.90); }
    double p99() const { return quantile(0.99); }
    double p999() const { return quantile(0.999); }
  };

  void record(double value);
  Snapshot snapshot() const;
  void reset();

 private:
  static int bucket_index(double value);

  std::atomic<double> sum_{0.0};
  // +/-inf sentinels until the first record; snapshot() maps empty to 0.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
};

/// Point-in-time copy of every instrument, for exporters and tests.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, Histogram::Snapshot>> timers;
  std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;
  bool empty() const {
    return counters.empty() && gauges.empty() && timers.empty() && histograms.empty();
  }
};

/// Process-wide instrument registry. Lookup takes the registry mutex; the
/// returned references stay valid for the life of the process, so hot paths
/// should resolve an instrument once and update the reference.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Span durations in seconds: ScopedSpan and emit_span record into the
  /// timer named after the span.
  Histogram& timer(const std::string& name);
  Histogram& histogram(const std::string& name);

  MetricsSnapshot snapshot() const;

  /// Drop every instrument (tests only — outstanding references die).
  void clear();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> timers_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// True when metric collection is on (default; IRF_METRICS=0 switches off).
bool metrics_enabled();
void set_metrics_enabled(bool enabled);

/// Gated instrument helpers for instrumentation sites: no-ops (one relaxed
/// atomic load) when metrics are disabled.
void count(const std::string& name, std::uint64_t n = 1);
void set_gauge(const std::string& name, double value);
void record_timer(const std::string& name, double seconds);
void record_histogram(const std::string& name, double value);

}  // namespace irf::obs
