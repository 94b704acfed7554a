#pragma once

/// \file spans.hpp
/// In-memory span recorder for the traced run. The benchmark wraps each call
/// into a library layer in a span (name, start, end, parent, request id);
/// nothing is recorded inside the library itself. Span names are
/// "<layer>.<call>", so a layer's self time is the summed self time of every
/// span whose name starts with "<layer>.". Spans are kept in memory and
/// written out once, when the run ends.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< steady-clock offset from the recorder's epoch
  std::int64_t end_ns = 0;
  int parent = -1;            ///< index of the enclosing span, -1 at top level
  std::int64_t request = -1;  ///< request id shared by every span of one request
};

class SpanRecorder {
 public:
  SpanRecorder();

  /// Open a span nested in the innermost open one; returns its index.
  int begin(std::string name, std::int64_t request);
  /// Close the innermost open span, which must be `index`.
  void end(int index);

  const std::vector<Span>& spans() const { return spans_; }
  double seconds(int index) const;

  /// Summed self time per layer (the name prefix before the first '.') over
  /// every span below a top-level span named `root`, the root included.
  std::map<std::string, double> layer_self_seconds(const std::string& root) const;

  /// Durations (seconds) of every span called `name`.
  std::vector<double> durations(const std::string& name) const;

  /// Chrome trace-event JSON, one complete event per span, with the parent
  /// index and request id as args.
  void write_json(const std::string& path) const;

 private:
  std::int64_t now_ns() const;
  /// Duration minus the part covered by direct children, per span.
  std::vector<double> self_seconds() const;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name, std::int64_t request)
      : recorder_(recorder), index_(recorder.begin(std::move(name), request)) {}
  ~ScopedSpan() { recorder_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int index_;
};

}  // namespace perfbench
