#include "obs/log.hpp"

#include <atomic>
#include <iostream>

namespace irf::obs {

namespace {
std::atomic<int> g_log_level{static_cast<int>(LogLevel::kNormal)};
}  // namespace

void set_log_level(LogLevel level) {
  g_log_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

bool log_enabled(LogLevel level) {
  return static_cast<int>(level) <= g_log_level.load(std::memory_order_relaxed);
}

LogLine::~LogLine() {
  if (!enabled_) return;
  stream_ << '\n';
  std::cout << stream_.str() << std::flush;
}

LogLine info() { return LogLine(LogLevel::kNormal); }

LogLine verbose() { return LogLine(LogLevel::kVerbose); }

}  // namespace irf::obs
