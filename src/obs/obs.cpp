#include "obs/obs.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <mutex>
#include <regex>
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
bool g_summary_at_exit = false;
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
    if (g_summary_at_exit) print_metrics_summary(std::cerr);
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
  if (const char* s = std::getenv("IRF_RESIDUAL_CURVES")) {
    const std::string v = lower(s);
    set_residual_curve_capture(!(v.empty() || v == "0" || v == "off"));
  }
  if (const char* s = std::getenv("IRF_METRICS")) {
    const std::string v = lower(s);
    if (v.empty() || v == "0" || v == "off") {
      g_metrics_env_off = true;
      set_metrics_enabled(false);
    } else if (v == "1" || v == "on") {
      set_metrics_enabled(true);
      g_summary_at_exit = true;
    } else {
      set_metrics_enabled(true);
      g_metrics_exit_path = s;
    }
  }
  if (!g_trace_exit_path.empty() || !g_metrics_exit_path.empty() || g_summary_at_exit) {
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
  for (const auto& [name, stats] : snap.timers) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(name) << "\":{\"count\":" << stats.count
        << ",\"total_seconds\":" << json_number(stats.total_seconds)
        << ",\"mean_seconds\":" << json_number(stats.mean_seconds())
        << ",\"min_seconds\":" << json_number(stats.min_seconds)
        << ",\"max_seconds\":" << json_number(stats.max_seconds)
        << ",\"p50_seconds\":" << json_number(stats.p50_seconds)
        << ",\"p90_seconds\":" << json_number(stats.p90_seconds)
        << ",\"p99_seconds\":" << json_number(stats.p99_seconds)
        << ",\"p999_seconds\":" << json_number(stats.p999_seconds) << "}";
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

void print_metrics_summary(std::ostream& out) {
  MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
  out << "== irf metrics summary ==\n";
  if (snap.empty()) {
    out << "(no metrics recorded)\n";
    return;
  }
  if (!snap.counters.empty()) {
    out << "counters:\n";
    for (const auto& [name, value] : snap.counters) {
      out << "  " << std::left << std::setw(36) << name << std::right << std::setw(12)
          << value << "\n";
    }
  }
  if (!snap.gauges.empty()) {
    out << "gauges:\n";
    for (const auto& [name, value] : snap.gauges) {
      out << "  " << std::left << std::setw(36) << name << std::right << std::setw(12)
          << std::setprecision(6) << value << "\n";
    }
  }
  if (!snap.histograms.empty()) {
    out << "histograms:\n";
    out << "  " << std::left << std::setw(24) << "name" << std::right << std::setw(8)
        << "count" << std::setw(12) << "p50" << std::setw(12) << "p90" << std::setw(12)
        << "p99" << std::setw(12) << "max" << "\n";
    out << std::fixed << std::setprecision(6);
    for (const auto& [name, h] : snap.histograms) {
      out << "  " << std::left << std::setw(24) << name << std::right << std::setw(8)
          << h.count << std::setw(12) << h.p50() << std::setw(12) << h.p90()
          << std::setw(12) << h.p99() << std::setw(12) << h.max << "\n";
    }
    out.unsetf(std::ios::fixed);
  }
  if (!snap.timers.empty()) {
    std::sort(snap.timers.begin(), snap.timers.end(), [](const auto& a, const auto& b) {
      return a.second.total_seconds > b.second.total_seconds;
    });
    out << "timers (seconds):\n";
    out << "  " << std::left << std::setw(24) << "span" << std::right << std::setw(8)
        << "count" << std::setw(12) << "total" << std::setw(12) << "mean" << std::setw(12)
        << "p50" << std::setw(12) << "p99" << std::setw(12) << "max" << "\n";
    out << std::fixed << std::setprecision(6);
    for (const auto& [name, s] : snap.timers) {
      out << "  " << std::left << std::setw(24) << name << std::right << std::setw(8)
          << s.count << std::setw(12) << s.total_seconds << std::setw(12)
          << s.mean_seconds() << std::setw(12) << s.p50_seconds << std::setw(12)
          << s.p99_seconds << std::setw(12) << s.max_seconds << "\n";
    }
    out.unsetf(std::ios::fixed);
  }
}

namespace {

/// Prometheus metric name: `irf_` prefix, dots (and any other non-name
/// character) mapped to underscores.
std::string prom_name(const std::string& name) {
  std::string out = "irf_";
  out.reserve(out.size() + name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string prom_value(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

std::string prometheus_text() {
  const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
  std::ostringstream out;
  for (const auto& [name, value] : snap.counters) {
    const std::string n = prom_name(name);
    out << "# TYPE " << n << " counter\n" << n << " " << value << "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string n = prom_name(name);
    out << "# TYPE " << n << " gauge\n" << n << " " << prom_value(value) << "\n";
  }
  for (const auto& [name, s] : snap.timers) {
    const std::string n = prom_name(name) + "_seconds";
    out << "# TYPE " << n << " summary\n";
    out << n << "{quantile=\"0.5\"} " << prom_value(s.p50_seconds) << "\n";
    out << n << "{quantile=\"0.9\"} " << prom_value(s.p90_seconds) << "\n";
    out << n << "{quantile=\"0.99\"} " << prom_value(s.p99_seconds) << "\n";
    out << n << "{quantile=\"0.999\"} " << prom_value(s.p999_seconds) << "\n";
    out << n << "_sum " << prom_value(s.total_seconds) << "\n";
    out << n << "_count " << s.count << "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string n = prom_name(name);
    out << "# TYPE " << n << " histogram\n";
    std::uint64_t cumulative = 0;
    for (int i = 0; i < Histogram::kNumBuckets - 1; ++i) {
      const std::uint64_t b = h.buckets[static_cast<std::size_t>(i)];
      cumulative += b;
      if (b == 0) continue;  // sparse export; `le` bounds stay cumulative
      out << n << "_bucket{le=\"" << prom_value(Histogram::bucket_upper_bound(i))
          << "\"} " << cumulative << "\n";
    }
    out << n << "_bucket{le=\"+Inf\"} " << h.count << "\n";
    out << n << "_sum " << prom_value(h.sum) << "\n";
    out << n << "_count " << h.count << "\n";
  }
  return out.str();
}

void export_prometheus(const std::string& path) {
  init_from_env();
  std::ofstream out(path);
  if (!out) throw Error("cannot open prometheus output for write: " + path);
  out << prometheus_text();
  if (!out) throw Error("prometheus output write failed: " + path);
}

std::size_t check_prometheus_text(const std::string& text) {
  // Exposition-format line grammar: `name{labels} value [timestamp]`,
  // `# HELP name ...`, `# TYPE name kind`, other `#` comments, blank lines.
  // libstdc++'s std::regex_match recurses once per character, so a line is
  // length-checked before any regex sees it; prometheus_text() writes lines
  // of well under 100 bytes.
  constexpr std::size_t kMaxLineBytes = 1024;
  static const std::regex kSample(
      R"(^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[ \t]*[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"([ \t]*,[ \t]*[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*[ \t]*,?[ \t]*\})?[ \t]+(\S+)([ \t]+[-+]?[0-9]+)?[ \t]*$)");
  static const std::regex kTypeComment(
      R"(^#[ \t]+TYPE[ \t]+[a-zA-Z_:][a-zA-Z0-9_:]*[ \t]+(counter|gauge|summary|histogram|untyped)[ \t]*$)");
  static const std::regex kHelpComment(
      R"(^#[ \t]+HELP[ \t]+[a-zA-Z_:][a-zA-Z0-9_:]*([ \t].*)?$)");

  std::size_t samples = 0;
  std::size_t line_no = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.size() > kMaxLineBytes) {
      throw ParseError("prometheus line " + std::to_string(line_no) + ": " +
                       std::to_string(line.size()) + " bytes, longer than the " +
                       std::to_string(kMaxLineBytes) + "-byte limit");
    }
    if (line.empty() || line.find_first_not_of(" \t") == std::string::npos) continue;
    if (line[0] == '#') {
      // HELP/TYPE comments must be well-formed; any other comment is free text.
      const bool directive = line.find("HELP") != std::string::npos ||
                             line.find("TYPE") != std::string::npos;
      if (directive && !std::regex_match(line, kTypeComment) &&
          !std::regex_match(line, kHelpComment)) {
        throw ParseError("prometheus line " + std::to_string(line_no) +
                         ": malformed HELP/TYPE comment: " + line);
      }
      continue;
    }
    std::smatch m;
    if (!std::regex_match(line, m, kSample)) {
      throw ParseError("prometheus line " + std::to_string(line_no) +
                       ": not a valid sample line: " + line);
    }
    const std::string value = m[6].str();
    std::size_t consumed = 0;
    try {
      (void)std::stod(value, &consumed);
    } catch (const std::exception&) {
      consumed = 0;
    }
    if (consumed != value.size()) {
      throw ParseError("prometheus line " + std::to_string(line_no) +
                       ": sample value is not a number: " + value);
    }
    ++samples;
  }
  return samples;
}

void enable_bench_metrics(const std::string& bench_name) {
  init_from_env();
  if (g_metrics_env_off) return;  // IRF_METRICS=0 suppresses the artifact too
  set_metrics_enabled(true);
  g_bench_exit_path = "BENCH_" + bench_name + ".json";
  register_exit_hook();
}

}  // namespace irf::obs
