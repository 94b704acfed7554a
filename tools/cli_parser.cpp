#include "cli_parser.hpp"

#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "common/parse.hpp"

namespace irf::cli {

const std::vector<FlagSpec>& global_flags() {
  static const std::vector<FlagSpec> kGlobal = {
      {"trace-out", "FILE.json", "write Chrome trace-event spans for the run"},
      {"metrics-out", "FILE.json", "write the metrics snapshot for the run"},
      {"help", "", "show this help and exit"},
  };
  return kGlobal;
}

std::string ParsedArgs::flag(const std::string& name, const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

int ParsedArgs::flag_int(const std::string& name, int fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::optional<std::int64_t> value = try_parse_int64(it->second);
  if (!value || *value < std::numeric_limits<int>::min() ||
      *value > std::numeric_limits<int>::max()) {
    throw ConfigError("flag --" + name + " expects an integer, got '" + it->second + "'");
  }
  return static_cast<int>(*value);
}

int ParsedArgs::flag_int_at_least(const std::string& name, int fallback,
                                  int min_value) const {
  const int value = flag_int(name, fallback);
  if (value < min_value) {
    throw ConfigError("flag --" + name + " must be >= " + std::to_string(min_value) +
                      ", got " + std::to_string(value));
  }
  return value;
}

double ParsedArgs::flag_double(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::optional<double> value = try_parse_double(it->second);
  if (!value || *value < 0.0) {
    throw ConfigError("flag --" + name + " expects a finite non-negative number, got '" +
                      it->second + "'");
  }
  return *value;
}

const std::string& ParsedArgs::require(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) {
    throw ConfigError("flag --" + name + " is required");
  }
  return it->second;
}

void ParsedArgs::set(const std::string& name, std::string value) {
  values_[name] = std::move(value);
}

namespace {

/// Resolve a spelled flag against the command + global tables.
const FlagSpec* find_flag(const CommandSpec& spec, const std::string& key) {
  for (const std::vector<FlagSpec>* table : {&spec.flags, &global_flags()}) {
    for (const FlagSpec& f : *table) {
      if (f.name == key) return &f;
    }
  }
  return nullptr;
}

}  // namespace

ParsedArgs parse_command_line(const CommandSpec& spec, int argc, char** argv,
                              int first) {
  ParsedArgs args;
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      if (spec.positional.empty()) {
        throw ConfigError(spec.name + ": unexpected argument '" + a + "'");
      }
      args.positional.push_back(a);
      continue;
    }
    const std::string key = a.substr(2);
    const FlagSpec* flag = find_flag(spec, key);
    if (flag == nullptr) {
      throw ConfigError(spec.name + ": unknown flag --" + key +
                        " (see 'irf_cli " + spec.name + " --help')");
    }
    if (flag->value_name.empty()) {
      args.set(flag->name, "1");
      continue;
    }
    if (i + 1 >= argc) {
      throw ConfigError("flag --" + flag->name + " needs a value");
    }
    args.set(flag->name, argv[++i]);
  }
  return args;
}

std::string usage_line(const CommandSpec& spec) {
  std::ostringstream out;
  out << spec.name;
  if (!spec.positional.empty()) out << " " << spec.positional;
  for (const FlagSpec& f : spec.flags) {
    out << " [--" << f.name;
    if (!f.value_name.empty()) out << " " << f.value_name;
    out << "]";
  }
  return out.str();
}

std::string help_text(const CommandSpec& spec) {
  std::ostringstream out;
  out << "usage: irf_cli " << usage_line(spec) << "\n";
  if (!spec.summary.empty()) out << spec.summary << "\n";
  auto print_table = [&out](const std::vector<FlagSpec>& flags) {
    for (const FlagSpec& f : flags) {
      std::string left = "  --" + f.name;
      if (!f.value_name.empty()) left += " " + f.value_name;
      out << left;
      for (std::size_t pad = left.size(); pad < 30; ++pad) out << ' ';
      out << f.help << "\n";
    }
  };
  if (!spec.flags.empty()) {
    out << "options:\n";
    print_table(spec.flags);
  }
  out << "global options:\n";
  print_table(global_flags());
  return out.str();
}

}  // namespace irf::cli
