#pragma once

/// \file log.hpp
/// Small leveled logger so tools and experiment harnesses never print
/// unconditionally. Three levels, selected by IRF_LOG_LEVEL
/// (quiet|normal|verbose, or 0|1|2) or programmatically:
///
///   obs::info()    << "loaded " << n << " designs";   // normal and up
///   obs::verbose() << "residual " << r;               // verbose only
///
/// A LogLine buffers the streamed message and writes it with a trailing
/// newline to stdout at end of statement, so concurrent log lines never
/// interleave mid-line. Errors belong on stderr via exceptions, not here.

#include <sstream>

namespace irf::obs {

enum class LogLevel { kQuiet = 0, kNormal = 1, kVerbose = 2 };

void set_log_level(LogLevel level);

/// True when a message at `level` would be emitted.
bool log_enabled(LogLevel level);

/// One buffered log statement; flushes on destruction when enabled.
class LogLine {
 public:
  explicit LogLine(LogLevel level) : enabled_(log_enabled(level)) {}
  ~LogLine();

  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  LogLine(LogLine&& other) noexcept
      : enabled_(other.enabled_), stream_(std::move(other.stream_)) {
    other.enabled_ = false;
  }

  template <typename T>
  LogLine& operator<<(const T& v) {
    if (enabled_) stream_ << v;
    return *this;
  }

 private:
  bool enabled_;
  std::ostringstream stream_;
};

/// Normal-priority progress line (suppressed by IRF_LOG_LEVEL=quiet).
LogLine info();

/// Detail line, emitted only under IRF_LOG_LEVEL=verbose.
LogLine verbose();

}  // namespace irf::obs
