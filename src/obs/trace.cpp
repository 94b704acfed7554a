#include "obs/trace.hpp"

#include <atomic>
#include <mutex>

#include "obs/metrics.hpp"

namespace irf::obs {

namespace {

std::atomic<bool> g_trace_enabled{false};

std::chrono::steady_clock::time_point trace_epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

std::mutex& buffer_mutex() {
  static std::mutex m;
  return m;
}

std::vector<TraceEvent>& buffer() {
  static std::vector<TraceEvent> events;
  return events;
}

int this_thread_id() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

// Active span names of this thread, outermost first.
std::vector<const char*>& span_stack() {
  thread_local std::vector<const char*> stack;
  return stack;
}

double us_since_epoch(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - trace_epoch()).count();
}

}  // namespace

bool trace_enabled() { return g_trace_enabled.load(std::memory_order_relaxed); }

void set_trace_enabled(bool enabled) {
  if (enabled) trace_epoch();  // pin the epoch before the first span
  g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

std::vector<TraceEvent> trace_events() {
  std::lock_guard<std::mutex> lock(buffer_mutex());
  return buffer();
}

std::size_t trace_event_count() {
  std::lock_guard<std::mutex> lock(buffer_mutex());
  return buffer().size();
}

void clear_trace_events() {
  std::lock_guard<std::mutex> lock(buffer_mutex());
  buffer().clear();
}

void emit_span(const char* name, const char* category,
               std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point end,
               std::vector<std::pair<std::string, double>> args) {
  if (end < start) end = start;
  record_timer(name, std::chrono::duration<double>(end - start).count());
  if (!trace_enabled()) return;
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.thread_id = this_thread_id();
  event.depth = current_span_depth();
  event.start_us = us_since_epoch(start);
  event.duration_us = std::chrono::duration<double, std::micro>(end - start).count();
  event.args = std::move(args);
  std::lock_guard<std::mutex> lock(buffer_mutex());
  buffer().push_back(std::move(event));
}

int current_span_depth() { return static_cast<int>(span_stack().size()); }

ScopedSpan::ScopedSpan(const char* name, const char* category)
    : name_(name), category_(category), start_(std::chrono::steady_clock::now()),
      capture_(trace_enabled()) {
  if (capture_) span_stack().push_back(name_);
}

ScopedSpan::~ScopedSpan() {
  const auto end = std::chrono::steady_clock::now();
  const double elapsed = std::chrono::duration<double>(end - start_).count();
  record_timer(name_, elapsed);
  if (!capture_) return;
  auto& stack = span_stack();
  if (!stack.empty() && stack.back() == name_) stack.pop_back();
  TraceEvent event;
  event.name = name_;
  event.category = category_;
  event.thread_id = this_thread_id();
  event.depth = static_cast<int>(stack.size());
  event.start_us = us_since_epoch(start_);
  event.duration_us = std::chrono::duration<double, std::micro>(end - start_).count();
  event.args = std::move(args_);
  std::lock_guard<std::mutex> lock(buffer_mutex());
  buffer().push_back(std::move(event));
}

double ScopedSpan::seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
}

void ScopedSpan::add_arg(const char* key, double value) {
  if (capture_) args_.emplace_back(key, value);
}

}  // namespace irf::obs
