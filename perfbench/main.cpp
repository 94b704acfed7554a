// irf_perfbench: the repository benchmark binary (see perfbench/README.md).
//
//   irf_perfbench --workload cold_large|eco_warm|hot_serve --seed N
//                 --seconds S --trace 0|1 [--out-dir DIR]
//
// Runs one workload through the served path and prints, as the last line of
// stdout, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics for --trace 0, the per-layer metrics of the traced replay for
// --trace 1. The line before it records the seed and the run's settings.
// Diagnostics go to stderr. perfbench/run.py builds and invokes this.

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/json.hpp"
#include "workloads.hpp"

namespace {

std::string json_string(const std::string& s) {
  return "\"" + irf::obs::json_escape(s) + "\"";
}

/// Every digit of the measurement (obs::json_number keeps only 9).
std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const std::string& why) {
  std::cerr << "irf_perfbench: " << why << "\n"
            << "usage: irf_perfbench --workload NAME --seed N --seconds S --trace 0|1"
               " [--out-dir DIR]\n  workloads:";
  for (const std::string& w : perfbench::workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  return 2;
}

bool parse_number(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return !text.empty() && end == text.c_str() + text.size() && std::isfinite(out);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    double number = 0.0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      char* end = nullptr;
      errno = 0;
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || value[0] == '-' || errno != 0 ||
          end != value.c_str() + value.size()) {
        return usage("--seed must be a non-negative integer");
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_number(value, number) || number <= 0.0) {
        return usage("--seconds must be positive");
      }
      options.seconds = number;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace must be 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed) return usage("--workload and --seed are required");

  perfbench::RunReport report;
  try {
    report = perfbench::run_workload(options);
  } catch (const std::exception& e) {
    std::cerr << "irf_perfbench: " << options.workload << " failed: " << e.what() << "\n";
    return 1;
  }

  for (const perfbench::Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      report.correct = false;
      report.problems.push_back("metric " + m.name + " is not finite");
    }
  }
  for (const std::string& p : report.problems) std::cerr << "check: " << p << "\n";

  std::ostringstream context;
  context << "{\"workload\": " << json_string(options.workload)
          << ", \"trace\": " << (options.trace ? 1 : 0);
  for (const auto& [key, value] : report.context) {
    context << ", " << json_string(key) << ": " << json_number(value);
  }
  context << ", \"problems\": [";
  for (std::size_t i = 0; i < report.problems.size(); ++i) {
    context << (i ? ", " : "") << json_string(report.problems[i]);
  }
  context << "]}";

  std::ostringstream result;
  result << "{\"correct\": " << (report.correct ? "true" : "false")
         << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
         << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    result << (i ? ", " : "") << json_string(m.name) << ": {\"value\": "
           << json_number(std::isfinite(m.value) ? m.value : 0.0)
           << ", \"unit\": " << json_string(m.unit) << "}";
  }
  result << "}}";
  std::cout << context.str() << "\n" << result.str() << std::endl;
  return 0;
}
