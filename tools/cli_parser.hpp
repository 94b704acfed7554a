#pragma once

/// \file cli_parser.hpp
/// Table-driven command-line parsing shared by every irf_cli subcommand.
/// Each command declares one CommandSpec table; the parser enforces it
/// (unknown flags are errors, values are validated centrally) and the
/// --help text is generated from the same table, so flags, validation and
/// documentation cannot drift apart. Flag names are kebab-case.

#include <map>
#include <string>
#include <vector>

namespace irf::cli {

struct FlagSpec {
  std::string name;        ///< kebab-case name (no leading --)
  std::string value_name;  ///< metavar shown in help; "" = boolean flag
  std::string help;        ///< one-line description
};

struct CommandSpec {
  std::string name;
  std::string positional;  ///< metavar of the positional arg; "" = none
  std::string summary;     ///< one-line description for the command list
  std::vector<FlagSpec> flags;  ///< command flags (global flags are implied)
};

/// Flags every subcommand accepts (telemetry outputs, --help).
const std::vector<FlagSpec>& global_flags();

/// Parse result, looked up by flag name.
class ParsedArgs {
 public:
  std::vector<std::string> positional;

  bool has(const std::string& name) const { return values_.count(name) > 0; }
  std::string flag(const std::string& name, const std::string& fallback = "") const;

  /// Integer flag (try_parse_int64, then an int range check) with a
  /// usage-style error on non-numeric or out-of-range values.
  int flag_int(const std::string& name, int fallback) const;
  /// flag_int plus a lower bound (e.g. --pixels must be positive).
  int flag_int_at_least(const std::string& name, int fallback, int min_value) const;
  /// Finite, non-negative decimal flag (try_parse_double: no hex, no
  /// surrounding blanks).
  double flag_double(const std::string& name, double fallback) const;

  /// Require a value-carrying flag to be present.
  const std::string& require(const std::string& name) const;

  void set(const std::string& name, std::string value);

 private:
  std::map<std::string, std::string> values_;
};

/// Parse argv[first..) against `spec` (+ global flags). Throws
/// irf::ConfigError on unknown flags, missing values, or a positional
/// argument the command does not take.
ParsedArgs parse_command_line(const CommandSpec& spec, int argc, char** argv,
                              int first);

/// Generated from the spec tables: "usage:" line plus per-flag help.
std::string help_text(const CommandSpec& spec);

/// One-line usage summary for the command index.
std::string usage_line(const CommandSpec& spec);

}  // namespace irf::cli
