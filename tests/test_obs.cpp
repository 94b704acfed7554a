// Tests for the irf::obs telemetry subsystem: metrics aggregation, span
// nesting, thread-safety, exporter JSON well-formedness, and zero-output
// disabled mode. The subsystem is process-global, so every test starts from
// a clean slate via the fixture.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "obs/flight.hpp"
#include "obs/obs.hpp"

namespace {

using namespace irf;

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::MetricsRegistry::instance().clear();
    obs::clear_trace_events();
    obs::set_metrics_enabled(true);
    obs::set_trace_enabled(false);
  }
  void TearDown() override {
    obs::MetricsRegistry::instance().clear();
    obs::clear_trace_events();
    obs::set_metrics_enabled(true);
    obs::set_trace_enabled(false);
    obs::set_log_level(obs::LogLevel::kNormal);
  }
};

TEST_F(ObsTest, CounterAggregates) {
  obs::count("test.counter");
  obs::count("test.counter", 41);
  EXPECT_EQ(obs::MetricsRegistry::instance().counter("test.counter").value(), 42u);
}

TEST_F(ObsTest, GaugeKeepsLastValue) {
  obs::set_gauge("test.gauge", 1.5);
  obs::set_gauge("test.gauge", -2.25);
  EXPECT_DOUBLE_EQ(obs::MetricsRegistry::instance().gauge("test.gauge").value(), -2.25);
}

TEST_F(ObsTest, TimerTracksCountTotalMinMax) {
  obs::record_timer("test.timer", 0.25);
  obs::record_timer("test.timer", 0.75);
  obs::record_timer("test.timer", 0.5);
  const obs::Timer::Stats s = obs::MetricsRegistry::instance().timer("test.timer").stats();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.total_seconds, 1.5);
  EXPECT_DOUBLE_EQ(s.min_seconds, 0.25);
  EXPECT_DOUBLE_EQ(s.max_seconds, 0.75);
  EXPECT_DOUBLE_EQ(s.mean_seconds(), 0.5);
}

TEST_F(ObsTest, SnapshotCoversAllInstrumentKinds) {
  obs::count("snap.counter", 7);
  obs::set_gauge("snap.gauge", 3.5);
  obs::record_timer("snap.timer", 0.1);
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::instance().snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "snap.counter");
  EXPECT_EQ(snap.counters[0].second, 7u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, 3.5);
  ASSERT_EQ(snap.timers.size(), 1u);
  EXPECT_EQ(snap.timers[0].second.count, 1u);
}

TEST_F(ObsTest, DisabledMetricsCollectNothing) {
  obs::set_metrics_enabled(false);
  obs::count("off.counter");
  obs::set_gauge("off.gauge", 9.0);
  obs::record_timer("off.timer", 1.0);
  { obs::ScopedSpan span("off.span"); }
  EXPECT_TRUE(obs::MetricsRegistry::instance().snapshot().empty());
}

TEST_F(ObsTest, ConcurrentCounterIncrementsDoNotLose) {
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kIncrements; ++i) obs::count("mt.counter");
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(obs::MetricsRegistry::instance().counter("mt.counter").value(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST_F(ObsTest, ConcurrentTimerRecordsDoNotLose) {
  constexpr int kThreads = 4;
  constexpr int kRecords = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kRecords; ++i) obs::record_timer("mt.timer", 0.001);
    });
  }
  for (std::thread& t : threads) t.join();
  const obs::Timer::Stats s = obs::MetricsRegistry::instance().timer("mt.timer").stats();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kRecords);
  EXPECT_NEAR(s.total_seconds, kThreads * kRecords * 0.001, 1e-6);
}

TEST_F(ObsTest, SpanNestingDepthAndPath) {
  obs::set_trace_enabled(true);
  EXPECT_EQ(obs::current_span_depth(), 0);
  {
    obs::ScopedSpan outer("outer");
    EXPECT_EQ(obs::current_span_depth(), 1);
    {
      obs::ScopedSpan inner("inner");
      EXPECT_EQ(obs::current_span_depth(), 2);
      const std::vector<std::string> path = obs::current_span_path();
      ASSERT_EQ(path.size(), 2u);
      EXPECT_EQ(path[0], "outer");
      EXPECT_EQ(path[1], "inner");
    }
    EXPECT_EQ(obs::current_span_depth(), 1);
  }
  EXPECT_EQ(obs::current_span_depth(), 0);

  // Inner closes first, so it is emitted first and sits fully inside outer.
  const std::vector<obs::TraceEvent> events = obs::trace_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[1].depth, 0);
  EXPECT_LE(events[1].start_us, events[0].start_us);
  EXPECT_GE(events[1].start_us + events[1].duration_us,
            events[0].start_us + events[0].duration_us);
}

TEST_F(ObsTest, SpanSecondsIsUsableEvenWhenDisabled) {
  obs::set_trace_enabled(false);
  obs::set_metrics_enabled(false);
  obs::ScopedSpan span("untracked");
  EXPECT_GE(span.seconds(), 0.0);
  EXPECT_EQ(obs::trace_event_count(), 0u);
}

TEST_F(ObsTest, DisabledTracingProducesZeroOutput) {
  obs::set_trace_enabled(false);
  { obs::ScopedSpan span("invisible"); }
  EXPECT_EQ(obs::trace_event_count(), 0u);
  const obs::JsonValue doc = obs::parse_json(obs::chrome_trace_json());
  EXPECT_TRUE(doc.at("traceEvents").array.empty());
}

TEST_F(ObsTest, ChromeTraceJsonParsesBack) {
  obs::set_trace_enabled(true);
  {
    obs::ScopedSpan a("amg_setup", "solver");
    a.add_arg("rows", 1024);
    obs::ScopedSpan b("pcg_iterate", "solver");
  }
  const obs::JsonValue doc = obs::parse_json(obs::chrome_trace_json());
  const obs::JsonValue& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.array.size(), 2u);
  for (const obs::JsonValue& e : events.array) {
    EXPECT_EQ(e.at("ph").string, "X");
    EXPECT_TRUE(e.has("name"));
    EXPECT_TRUE(e.has("ts"));
    EXPECT_TRUE(e.has("dur"));
    EXPECT_GE(e.at("dur").number, 0.0);
  }
  EXPECT_EQ(events.array[0].at("name").string, "pcg_iterate");
  EXPECT_EQ(events.array[1].at("name").string, "amg_setup");
  EXPECT_DOUBLE_EQ(events.array[1].at("args").at("rows").number, 1024.0);
}

TEST_F(ObsTest, MetricsJsonParsesBack) {
  obs::count("json.counter", 5);
  obs::set_gauge("json.gauge", 2.5);
  obs::record_timer("json.timer", 0.125);
  const obs::JsonValue doc = obs::parse_json(obs::metrics_json());
  EXPECT_DOUBLE_EQ(doc.at("counters").at("json.counter").number, 5.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("json.gauge").number, 2.5);
  const obs::JsonValue& timer = doc.at("timers").at("json.timer");
  EXPECT_DOUBLE_EQ(timer.at("count").number, 1.0);
  EXPECT_DOUBLE_EQ(timer.at("total_seconds").number, 0.125);
}

TEST_F(ObsTest, MetricsJsonIsValidWhenEmpty) {
  const obs::JsonValue doc = obs::parse_json(obs::metrics_json());
  EXPECT_TRUE(doc.at("counters").object.empty());
  EXPECT_TRUE(doc.at("gauges").object.empty());
  EXPECT_TRUE(doc.at("timers").object.empty());
}

TEST_F(ObsTest, SpanFeedsTimerMetricOfSameName) {
  { obs::ScopedSpan span("span.timer"); }
  const obs::Timer::Stats s = obs::MetricsRegistry::instance().timer("span.timer").stats();
  EXPECT_EQ(s.count, 1u);
  EXPECT_GE(s.total_seconds, 0.0);
}

TEST_F(ObsTest, ConcurrentSpansKeepPerThreadNesting) {
  obs::set_trace_enabled(true);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 200; ++i) {
        obs::ScopedSpan outer("thread.outer");
        obs::ScopedSpan inner("thread.inner");
        if (obs::current_span_depth() != 2) std::abort();  // nesting is per-thread
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(obs::trace_event_count(), static_cast<std::size_t>(kThreads) * 400u);
  // Every event must parse back out of the exporter.
  const obs::JsonValue doc = obs::parse_json(obs::chrome_trace_json());
  EXPECT_EQ(doc.at("traceEvents").array.size(), static_cast<std::size_t>(kThreads) * 400u);
}

TEST_F(ObsTest, LogLevelGating) {
  obs::set_log_level(obs::LogLevel::kQuiet);
  EXPECT_FALSE(obs::log_enabled(obs::LogLevel::kNormal));
  EXPECT_FALSE(obs::log_enabled(obs::LogLevel::kVerbose));
  obs::set_log_level(obs::LogLevel::kNormal);
  EXPECT_TRUE(obs::log_enabled(obs::LogLevel::kNormal));
  EXPECT_FALSE(obs::log_enabled(obs::LogLevel::kVerbose));
  obs::set_log_level(obs::LogLevel::kVerbose);
  EXPECT_TRUE(obs::log_enabled(obs::LogLevel::kVerbose));
}

TEST_F(ObsTest, JsonParserRejectsMalformedInput) {
  EXPECT_THROW(obs::parse_json(""), ParseError);
  EXPECT_THROW(obs::parse_json("{"), ParseError);
  EXPECT_THROW(obs::parse_json("{\"a\":}"), ParseError);
  EXPECT_THROW(obs::parse_json("[1,2,]"), ParseError);
  EXPECT_THROW(obs::parse_json("{} trailing"), ParseError);
  EXPECT_THROW(obs::parse_json("\"unterminated"), ParseError);
  EXPECT_THROW(obs::parse_json("nul"), ParseError);
}

// ---------------------------------------------------------------------------
// Histograms

/// Exact nearest-rank quantile over a copy of `values` (the estimator the
/// log-bucketed histogram approximates).
double exact_quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(values.size()));
  rank = std::min(rank, values.size() - 1);
  return values[rank];
}

TEST_F(ObsTest, HistogramQuantilesTrackExactWithinBucketResolution) {
  obs::Histogram h;
  std::vector<double> values;
  // Deterministic spread over 4 decades: 1e-4 .. ~1.0 seconds.
  for (int i = 0; i < 10000; ++i) {
    const double v = 1e-4 * std::pow(10.0, 4.0 * i / 10000.0);
    values.push_back(v);
    h.record(v);
  }
  const obs::Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 10000u);
  // Log-bucketed at 10 buckets/decade: any quantile is within one bucket
  // width, i.e. a multiplicative factor of 10^0.1.
  const double tol = std::pow(10.0, 0.1) + 1e-12;
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const double exact = exact_quantile(values, q);
    const double est = snap.quantile(q);
    EXPECT_LE(est / exact, tol) << "q=" << q;
    EXPECT_LE(exact / est, tol) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(snap.min, values.front());
  EXPECT_DOUBLE_EQ(snap.max, values.back());
}

TEST_F(ObsTest, HistogramUnderflowAndOverflowClampToObservedExtremes) {
  obs::Histogram h;
  h.record(0.0);      // underflow bucket (below kMinTracked)
  h.record(-3.0);     // negative also lands in underflow
  h.record(1e-12);    // sub-resolution
  h.record(5.0e6);    // overflow bucket (above 1e4)
  const obs::Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.min, -3.0);
  EXPECT_DOUBLE_EQ(snap.max, 5.0e6);
  // Quantiles in the underflow bucket report the observed min; in the
  // overflow bucket the observed max — never an invented bucket midpoint.
  EXPECT_DOUBLE_EQ(snap.quantile(0.0), -3.0);
  EXPECT_DOUBLE_EQ(snap.quantile(0.999), 5.0e6);
}

// The Histogram suite starts from the same clean registry as ObsTest.
using Histogram = ObsTest;

TEST_F(Histogram, InfinityCountsInOverflowBucket) {
  // Regression: log10(inf) cast to int was INT_MIN on x86-64, so record()
  // incremented buckets_[1 + INT_MIN], far outside the bucket array.
  const double inf = std::numeric_limits<double>::infinity();
  obs::Histogram h;
  h.record(inf);
  const obs::Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.buckets.back(), 1u);
  EXPECT_EQ(snap.max, inf);

  obs::record_histogram("inf.hist", inf);
  const obs::JsonValue doc = obs::parse_json(obs::metrics_json());
  EXPECT_DOUBLE_EQ(doc.at("histograms").at("inf.hist").at("count").number, 1.0);
}

TEST_F(ObsTest, HistogramEmptyAndResetSnapshotsAreZero) {
  obs::Histogram h;
  obs::Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.min, 0.0);
  EXPECT_DOUBLE_EQ(snap.max, 0.0);
  EXPECT_DOUBLE_EQ(snap.quantile(0.99), 0.0);
  h.record(1.0);
  h.reset();
  snap = h.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.quantile(0.5), 0.0);
}

TEST_F(ObsTest, HistogramNanIsDropped) {
  obs::Histogram h;
  h.record(std::nan(""));
  h.record(0.5);
  const obs::Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
}

TEST_F(ObsTest, ConcurrentHistogramRecordsDoNotLose) {
  // Runs both narrow and under IRF_THREADS=4 (test_obs_threads4): the
  // lock-free bucket counters must agree with the exact per-thread totals.
  constexpr int kThreads = 4;
  constexpr int kRecords = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kRecords; ++i) {
        obs::record_histogram("mt.hist", 1e-3 * (1 + ((t * kRecords + i) % 1000)));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const obs::Histogram::Snapshot snap =
      obs::MetricsRegistry::instance().histogram("mt.hist").snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kRecords);
  EXPECT_DOUBLE_EQ(snap.min, 1e-3);
  EXPECT_DOUBLE_EQ(snap.max, 1.0);
  // All threads record the same value multiset, so the quantiles are exact
  // regardless of interleaving.
  const double tol = std::pow(10.0, 0.1) + 1e-12;
  const double p50 = snap.quantile(0.5);
  EXPECT_LE(p50 / 0.5, tol);
  EXPECT_LE(0.5 / p50, tol);
}

TEST_F(ObsTest, TimerStatsCarryQuantiles) {
  for (int i = 1; i <= 100; ++i) obs::record_timer("q.timer", 1e-3 * i);
  const obs::Timer::Stats s = obs::MetricsRegistry::instance().timer("q.timer").stats();
  EXPECT_EQ(s.count, 100u);
  const double tol = std::pow(10.0, 0.1) + 1e-12;
  EXPECT_LE(s.p50_seconds / 0.050, tol);
  EXPECT_LE(0.050 / s.p50_seconds, tol);
  EXPECT_LE(s.p99_seconds / 0.099, tol);
  EXPECT_LE(0.099 / s.p99_seconds, tol);
  EXPECT_GE(s.p999_seconds, s.p99_seconds * (1.0 / tol));
}

TEST_F(ObsTest, MetricsJsonCarriesTimerQuantilesAndHistograms) {
  obs::record_timer("json.q.timer", 0.25);
  obs::record_histogram("json.q.hist", 2.0);
  obs::record_histogram("json.q.hist", 8.0);
  const obs::JsonValue doc = obs::parse_json(obs::metrics_json());
  const obs::JsonValue& timer = doc.at("timers").at("json.q.timer");
  EXPECT_TRUE(timer.has("p50_seconds"));
  EXPECT_TRUE(timer.has("p99_seconds"));
  EXPECT_TRUE(timer.has("p999_seconds"));
  const obs::JsonValue& hist = doc.at("histograms").at("json.q.hist");
  EXPECT_DOUBLE_EQ(hist.at("count").number, 2.0);
  EXPECT_DOUBLE_EQ(hist.at("sum").number, 10.0);
  EXPECT_DOUBLE_EQ(hist.at("min").number, 2.0);
  EXPECT_DOUBLE_EQ(hist.at("max").number, 8.0);
  EXPECT_GT(hist.at("p99").number, 0.0);
}

TEST_F(ObsTest, JsonNumberEmitsNullForNonFinite) {
  // Regression: a NaN timer/metric value must not produce invalid JSON.
  EXPECT_EQ(obs::json_number(std::nan("")), "null");
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(obs::json_number(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_NO_THROW(obs::parse_json("{\"v\": " + obs::json_number(std::nan("")) + "}"));
}

// ---------------------------------------------------------------------------
// Prometheus exposition

TEST_F(ObsTest, PrometheusTextRoundTripsThroughValidator) {
  obs::count("prom.requests", 3);
  obs::set_gauge("prom.queue.depth", 2.0);
  obs::record_timer("prom.latency", 0.125);
  obs::record_histogram("prom.batch.size", 4.0);
  const std::string text = obs::prometheus_text();
  // Names are sanitized under the irf_ prefix and typed.
  EXPECT_NE(text.find("# TYPE irf_prom_requests counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE irf_prom_queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE irf_prom_latency_seconds summary"), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
  EXPECT_NE(text.find("# TYPE irf_prom_batch_size histogram"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  const std::size_t samples = obs::check_prometheus_text(text);
  EXPECT_GT(samples, 8u);
}

TEST_F(ObsTest, PrometheusValidatorRejectsMalformedInput) {
  EXPECT_THROW(obs::check_prometheus_text("not prometheus at all{"), ParseError);
  EXPECT_THROW(obs::check_prometheus_text("metric_name not_a_number\n"), ParseError);
  EXPECT_THROW(obs::check_prometheus_text("# TYPE irf_x bogus_kind\n"), ParseError);
  EXPECT_NO_THROW(obs::check_prometheus_text("# a plain comment\nok_metric 1\n"));
}

// ---------------------------------------------------------------------------
// Retroactive spans

TEST_F(ObsTest, EmitSpanRecordsTimerAndTraceEvent) {
  obs::set_trace_enabled(true);
  const auto start = std::chrono::steady_clock::now();
  const auto end = start + std::chrono::milliseconds(2);
  obs::emit_span("retro.span", "serve", start, end, {{"req_id", 7.0}});
  const obs::Timer::Stats s = obs::MetricsRegistry::instance().timer("retro.span").stats();
  EXPECT_EQ(s.count, 1u);
  EXPECT_NEAR(s.total_seconds, 0.002, 1e-9);
  const std::vector<obs::TraceEvent> events = obs::trace_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "retro.span");
  EXPECT_EQ(events[0].category, "serve");
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].first, "req_id");
  EXPECT_DOUBLE_EQ(events[0].args[0].second, 7.0);
}

TEST_F(ObsTest, EmitSpanClampsReversedInterval) {
  const auto start = std::chrono::steady_clock::now();
  obs::emit_span("retro.clamp", "serve", start, start - std::chrono::milliseconds(5));
  const obs::Timer::Stats s =
      obs::MetricsRegistry::instance().timer("retro.clamp").stats();
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.total_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// Flight recorder

TEST_F(ObsTest, FlightRecorderKeepsLastCapacityEvents) {
  obs::FlightRecorder fr(4);
  EXPECT_EQ(fr.capacity(), 4u);
  for (int i = 0; i < 10; ++i) {
    fr.record("event", static_cast<std::uint64_t>(i), static_cast<double>(i));
  }
  const std::vector<obs::FlightRecord> records = fr.records();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(fr.dropped(), 6u);
  // Oldest-first, holding exactly the newest 4 events.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(records[static_cast<std::size_t>(i)].req_id,
              static_cast<std::uint64_t>(6 + i));
  }
  // Timestamps are monotonic non-decreasing.
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_GE(records[i].t_seconds, records[i - 1].t_seconds);
  }
}

TEST_F(ObsTest, FlightRecorderDumpJsonParsesBack) {
  obs::FlightRecorder fr(8);
  fr.record("submit", 1, 0.0, "first");
  fr.record("degraded", 2, 1.5, "quote \" and \\ backslash");
  const obs::JsonValue doc = obs::parse_json(fr.dump_json());
  const obs::JsonValue& body = doc.at("flight_recorder");
  EXPECT_DOUBLE_EQ(body.at("capacity").number, 8.0);
  EXPECT_DOUBLE_EQ(body.at("dropped").number, 0.0);
  EXPECT_TRUE(body.has("wall_anchor_unix_seconds"));
  const obs::JsonValue& records = body.at("records");
  ASSERT_EQ(records.array.size(), 2u);
  EXPECT_EQ(records.array[0].at("event").string, "submit");
  EXPECT_EQ(records.array[0].at("detail").string, "first");
  EXPECT_EQ(records.array[1].at("event").string, "degraded");
  EXPECT_DOUBLE_EQ(records.array[1].at("req_id").number, 2.0);
  EXPECT_DOUBLE_EQ(records.array[1].at("value").number, 1.5);
}

TEST_F(ObsTest, FlightRecorderTruncatesDetailAndClears) {
  obs::FlightRecorder fr(2);
  fr.record("long", 1, 0.0, std::string(1000, 'x'));
  ASSERT_EQ(fr.records().size(), 1u);
  EXPECT_LE(fr.records()[0].detail.size(), 160u);
  fr.clear();
  EXPECT_TRUE(fr.records().empty());
  EXPECT_EQ(fr.dropped(), 0u);
}

// ---------------------------------------------------------------------------
// Residual-curve gate

TEST_F(ObsTest, ResidualCurveCaptureDefaultsOffAndToggles) {
  EXPECT_FALSE(obs::residual_curve_capture());
  obs::set_residual_curve_capture(true);
  EXPECT_TRUE(obs::residual_curve_capture());
  obs::set_residual_curve_capture(false);
  EXPECT_FALSE(obs::residual_curve_capture());
}

TEST_F(ObsTest, JsonParserRoundTripsEscapes) {
  const obs::JsonValue doc =
      obs::parse_json("{\"k\\n\\\"\": [true, false, null, -1.5e2, \"\\u0041\"]}");
  const obs::JsonValue& arr = doc.at("k\n\"");
  ASSERT_EQ(arr.array.size(), 5u);
  EXPECT_TRUE(arr.array[0].boolean);
  EXPECT_DOUBLE_EQ(arr.array[3].number, -150.0);
  EXPECT_EQ(arr.array[4].string, "A");
  EXPECT_EQ(obs::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

}  // namespace
