#include "obs/obs.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace irf::obs {

namespace {

// Exit-time export destinations, fixed at init time (atexit handlers cannot
// capture state).
std::string g_trace_exit_path;
std::string g_metrics_exit_path;
std::string g_bench_exit_path;
bool g_metrics_env_off = false;

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

void export_at_exit() {
  // Never throw across exit: report export failures on stderr and move on.
  try {
    if (!g_trace_exit_path.empty()) write_chrome_trace(g_trace_exit_path);
  } catch (const std::exception& e) {
    std::cerr << "irf::obs: trace export failed: " << e.what() << "\n";
  }
  try {
    if (!g_metrics_exit_path.empty()) write_metrics_json(g_metrics_exit_path);
    if (!g_bench_exit_path.empty()) write_metrics_json(g_bench_exit_path);
  } catch (const std::exception& e) {
    std::cerr << "irf::obs: metrics export failed: " << e.what() << "\n";
  }
}

void register_exit_hook() {
  static std::once_flag once;
  std::call_once(once, [] {
    // Touch the process-wide singletons first so they outlive the handler.
    MetricsRegistry::instance();
    trace_event_count();
    std::atexit(export_at_exit);
  });
}

void apply_env() {
  if (const char* s = std::getenv("IRF_LOG_LEVEL")) {
    const std::string v = lower(s);
    if (v == "quiet" || v == "0") set_log_level(LogLevel::kQuiet);
    else if (v == "normal" || v == "1" || v.empty()) set_log_level(LogLevel::kNormal);
    else if (v == "verbose" || v == "2") set_log_level(LogLevel::kVerbose);
    else throw ConfigError("IRF_LOG_LEVEL must be quiet|normal|verbose (or 0|1|2), got '" +
                           std::string(s) + "'");
  }
  if (const char* s = std::getenv("IRF_TRACE")) {
    const std::string v = lower(s);
    if (v.empty() || v == "0" || v == "off") {
      set_trace_enabled(false);
    } else if (v == "1" || v == "on") {
      set_trace_enabled(true);
    } else {
      set_trace_enabled(true);
      g_trace_exit_path = s;  // original spelling: it is a filesystem path
    }
  }
  if (const char* s = std::getenv("IRF_METRICS")) {
    const std::string v = lower(s);
    if (v.empty() || v == "0" || v == "off") {
      g_metrics_env_off = true;
      set_metrics_enabled(false);
    } else if (v == "1" || v == "on") {
      set_metrics_enabled(true);
    } else {
      set_metrics_enabled(true);
      g_metrics_exit_path = s;
    }
  }
  if (!g_trace_exit_path.empty() || !g_metrics_exit_path.empty()) {
    register_exit_hook();
  }
}

}  // namespace

void init_from_env() {
  static std::once_flag once;
  std::call_once(once, apply_env);
}

std::string chrome_trace_json() {
  const std::vector<TraceEvent> events = trace_events();
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << json_escape(e.name) << "\",\"cat\":\"" << json_escape(e.category)
        << "\",\"ph\":\"X\",\"ts\":" << json_number(e.start_us)
        << ",\"dur\":" << json_number(e.duration_us) << ",\"pid\":1,\"tid\":" << e.thread_id;
    out << ",\"args\":{\"depth\":" << e.depth;
    for (const auto& [key, value] : e.args) {
      out << ",\"" << json_escape(key) << "\":" << json_number(value);
    }
    out << "}}";
  }
  out << "],\"displayTimeUnit\":\"ms\"}";
  return out.str();
}

void write_chrome_trace(const std::string& path) {
  init_from_env();
  std::ofstream out(path);
  if (!out) throw Error("cannot open trace output for write: " + path);
  out << chrome_trace_json() << "\n";
  if (!out) throw Error("trace output write failed: " + path);
}

std::string metrics_json() {
  const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(name) << "\":" << value;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(name) << "\":" << json_number(value);
  }
  out << "},\"timers\":{";
  first = true;
  for (const auto& [name, t] : snap.timers) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(name) << "\":{\"count\":" << t.count
        << ",\"total_seconds\":" << json_number(t.sum)
        << ",\"mean_seconds\":" << json_number(t.mean())
        << ",\"min_seconds\":" << json_number(t.min)
        << ",\"max_seconds\":" << json_number(t.max)
        << ",\"p50_seconds\":" << json_number(t.p50())
        << ",\"p90_seconds\":" << json_number(t.p90())
        << ",\"p99_seconds\":" << json_number(t.p99())
        << ",\"p999_seconds\":" << json_number(t.p999()) << "}";
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(name) << "\":{\"count\":" << h.count
        << ",\"sum\":" << json_number(h.sum) << ",\"min\":" << json_number(h.min)
        << ",\"max\":" << json_number(h.max) << ",\"p50\":" << json_number(h.p50())
        << ",\"p90\":" << json_number(h.p90()) << ",\"p99\":" << json_number(h.p99())
        << ",\"p999\":" << json_number(h.p999()) << "}";
  }
  out << "}}";
  return out.str();
}

void write_metrics_json(const std::string& path) {
  init_from_env();
  std::ofstream out(path);
  if (!out) throw Error("cannot open metrics output for write: " + path);
  out << metrics_json() << "\n";
  if (!out) throw Error("metrics output write failed: " + path);
}

void enable_bench_metrics(const std::string& bench_name) {
  init_from_env();
  if (g_metrics_env_off) return;  // IRF_METRICS=0 suppresses the artifact too
  set_metrics_enabled(true);
  g_bench_exit_path = "BENCH_" + bench_name + ".json";
  register_exit_hook();
}

}  // namespace irf::obs
