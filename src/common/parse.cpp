#include "common/parse.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <string>

namespace irf {

namespace {

/// True when the consumed prefix is a plain decimal literal — digits, sign,
/// decimal point, exponent. Filters out the hex ("0x1a") and text
/// ("inf"/"nan") forms strtod happily accepts.
bool plain_decimal(std::string_view text, std::size_t consumed) {
  if (consumed == 0) return false;
  for (std::size_t i = 0; i < consumed; ++i) {
    const char c = text[i];
    const bool ok = (c >= '0' && c <= '9') || c == '+' || c == '-' || c == '.' ||
                    c == 'e' || c == 'E';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

std::optional<double> try_parse_double_prefix(std::string_view text,
                                              std::size_t* consumed) {
  const std::string buf(text);  // strtod needs NUL termination
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  const std::size_t used = static_cast<std::size_t>(end - buf.c_str());
  if (!plain_decimal(text, used)) return std::nullopt;
  if (errno == ERANGE && !std::isfinite(value)) return std::nullopt;  // overflow
  if (!std::isfinite(value)) return std::nullopt;
  if (consumed != nullptr) *consumed = used;
  return value;
}

std::optional<double> try_parse_double(std::string_view text) {
  std::size_t consumed = 0;
  const std::optional<double> value = try_parse_double_prefix(text, &consumed);
  if (!value || consumed != text.size()) return std::nullopt;
  return value;
}

std::optional<std::int64_t> try_parse_int64(std::string_view text) {
  // strtoll skips leading blanks; a full-string parse must not.
  if (text.empty() || std::isspace(static_cast<unsigned char>(text.front()))) {
    return std::nullopt;
  }
  const std::string buf(text);
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) return std::nullopt;
  return static_cast<std::int64_t>(value);
}

std::optional<std::uint64_t> try_parse_uint64(std::string_view text) {
  // strtoull silently negates "-5" into 18446744073709551611; reject any
  // sign-bearing input before it gets the chance, and any leading blank,
  // which strtoull would skip to reach a sign behind it (" -5").
  if (text.empty() || text.front() == '-' ||
      std::isspace(static_cast<unsigned char>(text.front()))) {
    return std::nullopt;
  }
  const std::string buf(text);
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) return std::nullopt;
  return static_cast<std::uint64_t>(value);
}

}  // namespace irf
