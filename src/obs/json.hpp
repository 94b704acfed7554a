#pragma once

/// \file json.hpp
/// Minimal JSON support for the telemetry exporters: string escaping for
/// the writers, and a small recursive-descent parser used to validate and
/// inspect exported artifacts (tests, `irf_cli json-check`). Deliberately
/// tiny — objects as sorted maps, no incremental parsing, throws
/// irf::ParseError on malformed input.

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace irf::obs {

/// Parsed JSON value. Exactly one of the containers is meaningful,
/// according to `kind`.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  /// Object member access; throws ParseError if absent or not an object.
  const JsonValue& at(const std::string& key) const;
  bool has(const std::string& key) const;
};

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected). Throws irf::ParseError on any syntax error and on
/// arrays/objects nested deeper than 256 levels.
JsonValue parse_json(const std::string& text);

/// `s` with JSON string escaping applied, without surrounding quotes.
std::string json_escape(const std::string& s);

/// Format a double as a JSON number. Non-finite values (NaN, +/-inf) have no
/// JSON number representation and are emitted as `null` — never as a fake 0
/// that downstream tooling would read as a real measurement.
std::string json_number(double v);

}  // namespace irf::obs
