#pragma once

/// \file trace.hpp
/// RAII span tracing. A ScopedSpan marks a phase of work (amg_setup,
/// pcg_iterate, feature_extract, infer, ...); spans nest via a thread-local
/// span stack and completed spans are collected into a process-wide buffer
/// that exports as Chrome trace-event JSON (chrome://tracing / Perfetto —
/// see obs.hpp). Independently of tracing, every completed span records its
/// duration into the metrics timer of the same name, so phase timings show
/// up in the metrics snapshot as well.
///
/// Overhead: a span always takes one steady_clock reading at construction
/// (so callers may use seconds() for result plumbing even when telemetry is
/// off); event capture and timer recording only happen when the respective
/// subsystem is enabled.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace irf::obs {

/// One completed span, in Chrome trace-event terms (a "ph":"X" event).
struct TraceEvent {
  std::string name;
  std::string category;
  int thread_id = 0;      ///< small dense id, not the OS thread id
  int depth = 0;          ///< nesting depth at emission (0 = top level)
  double start_us = 0.0;  ///< microseconds since process trace epoch
  double duration_us = 0.0;
  std::vector<std::pair<std::string, double>> args;  ///< numeric annotations
};

/// True when span capture into the trace buffer is on. Default off;
/// enabled by IRF_TRACE or `--trace-out` (see obs.hpp).
bool trace_enabled();
void set_trace_enabled(bool enabled);

/// Copy of the collected events (exporters, tests).
std::vector<TraceEvent> trace_events();

/// Number of collected events without copying.
std::size_t trace_event_count();

/// Drop all collected events (tests, or after an export).
void clear_trace_events();

/// Nesting depth of the calling thread's active span stack.
int current_span_depth();

/// Emit a completed span retroactively from explicit start/end times, for
/// intervals that do not wrap code on the calling thread (e.g. a request's
/// queue wait, measured by the dispatcher after dequeue). Behaves like a
/// ScopedSpan that ran over [start, end]: records the same-named metrics
/// timer (when metrics are on) and captures a trace event with the given
/// args (when tracing is on).
void emit_span(const char* name, const char* category,
               std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point end,
               std::vector<std::pair<std::string, double>> args = {});

/// RAII phase marker. Construct at the top of a phase; destruction emits
/// the event. Spans must be stack-allocated and destroyed in LIFO order
/// (guaranteed by scoping); they are neither copyable nor movable.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* category = "irf");
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Elapsed seconds since construction. Always valid, telemetry on or off,
  /// so results (e.g. SolveResult::solve_seconds) source from the span.
  double seconds() const;

  /// Attach a numeric annotation exported in the trace event's "args".
  /// No-op unless tracing is enabled.
  void add_arg(const char* key, double value);

 private:
  const char* name_;
  const char* category_;
  std::chrono::steady_clock::time_point start_;
  bool capture_;  ///< tracing was on at construction: we pushed the stack
  std::vector<std::pair<std::string, double>> args_;
};

}  // namespace irf::obs
