#include "analyze/analyzer.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "analyze/lexer.hpp"
#include "analyze/lint.hpp"

namespace irf::analyze {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Comment-only projection: comment bytes kept, everything else (including
/// string literals) blanked. Lock-order annotations are read from here so a
/// quoted "irf-lock-order:" inside analyzer source never parses as one.
std::string comment_view(const std::string& s, const std::vector<lex::Kind>& kind) {
  std::string out = s;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (kind[i] != lex::Kind::kComment && s[i] != '\n') out[i] = ' ';
  }
  return out;
}

std::vector<std::string> split_path(const std::string& path) {
  std::vector<std::string> parts;
  std::string cur;
  for (const char c : path) {
    if (c == '/' || c == '\\') {
      if (!cur.empty()) parts.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) parts.push_back(cur);
  return parts;
}

}  // namespace

std::string Finding::str() const {
  return file + ":" + std::to_string(line) + ": " + rule + ": " + message;
}

std::string module_of(const std::string& path) {
  const std::vector<std::string> parts = split_path(path);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (parts[i] == "src") {
      // ".../src/<module>/..." or ".../src/irf.hpp" (the facade).
      if (i + 2 < parts.size()) return parts[i + 1];
      if (i + 1 < parts.size()) return "irf";
      return "";
    }
  }
  for (const std::string& p : parts) {
    if (p == "tools" || p == "tests" || p == "bench" || p == "examples") return p;
  }
  return "";
}

bool is_declared_module(const LayerTable& table, const std::string& module) {
  auto it = table.modules.find(module);
  return it != table.modules.end() && !it->second.any;
}

std::set<std::string> parse_baseline(const std::string& text) {
  std::set<std::string> keys;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream fields(line);
    std::string rule, file, key;
    if (fields >> rule >> file >> key) keys.insert(rule + "|" + file + "|" + key);
  }
  return keys;
}

Analyzer::Analyzer(Config config) : config_(std::move(config)) {
  table_ = parse_layer_table(config_.layers_text);
  baseline_keys_ = parse_baseline(config_.baseline_text);
  for (const std::string& err : table_.errors) {
    report({config_.layers_path, 0, "layer-table", err, "parse"});
  }
}

void Analyzer::add_file(const std::string& path, const std::string& content) {
  ++files_scanned_;
  FileRecord rec;
  rec.path = path;
  rec.module = module_of(path);
  const std::vector<std::string> parts = split_path(path);
  std::string base = parts.empty() ? path : parts.back();
  const std::size_t dot = base.rfind('.');
  rec.stem = dot == std::string::npos ? base : base.substr(0, dot);
  rec.content = content;
  const std::vector<lex::Kind> kinds = lex::classify(content);
  rec.code = lex::code_view(content, kinds);
  rec.comments = comment_view(content, kinds);
  files_.push_back(std::move(rec));
}

void Analyzer::finish() {
  // Pass 0 + 3: the carried-forward token rules and the obs-name extraction
  // share the lint engine (one scan, one name registry).
  lint::Linter linter;
  for (const FileRecord& f : files_) linter.add_file(f.path, f.content);
  linter.finish();
  for (const lint::Issue& issue : linter.issues()) {
    report({issue.file, issue.line, issue.rule, issue.message,
            "L" + std::to_string(issue.line)});
  }
  for (const auto& [name, use] : linter.names()) {
    if (obs_sites_.find(name) == obs_sites_.end()) obs_names_.emplace_back(name, use.kind);
    obs_sites_[name].emplace_back(use.file, use.line);
  }

  run_layering();
  run_env_contract();
  run_lock_order();

  auto order = [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  };
  std::stable_sort(findings_.begin(), findings_.end(), order);
  std::stable_sort(baselined_.begin(), baselined_.end(), order);
}

void Analyzer::report(Finding finding) {
  const std::string match = finding.rule + "|" + finding.file + "|" + finding.key;
  if (baseline_keys_.count(match) > 0) {
    baselined_.push_back(std::move(finding));
  } else {
    findings_.push_back(std::move(finding));
  }
}

std::string Analyzer::findings_json() const {
  std::ostringstream out;
  out << "{\"schema\":\"irf.analyze.v1\",\"files_scanned\":" << files_scanned_
      << ",\"baselined\":" << baselined_.size() << ",\"findings\":[";
  bool first = true;
  for (const Finding& f : findings_) {
    if (!first) out << ",";
    first = false;
    out << "{\"file\":\"" << json_escape(f.file) << "\",\"line\":" << f.line
        << ",\"rule\":\"" << json_escape(f.rule) << "\",\"key\":\"" << json_escape(f.key)
        << "\",\"message\":\"" << json_escape(f.message) << "\"}";
  }
  out << "],\"counts\":{";
  std::map<std::string, int> counts;
  for (const Finding& f : findings_) ++counts[f.rule];
  first = true;
  for (const auto& [rule, n] : counts) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(rule) << "\":" << n;
  }
  out << "}}\n";
  return out.str();
}

std::string Analyzer::obs_registry_json() const {
  std::vector<std::pair<std::string, std::string>> names = obs_names_;
  std::sort(names.begin(), names.end());
  std::ostringstream out;
  out << "{\"schema\":\"irf.obs_names.v1\",\"names\":[";
  bool first = true;
  for (const auto& [name, kind] : names) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << json_escape(name) << "\",\"kind\":\"" << json_escape(kind)
        << "\",\"sites\":[";
    auto sites = obs_sites_.at(name);
    std::sort(sites.begin(), sites.end());
    bool s_first = true;
    for (const auto& [file, line] : sites) {
      if (!s_first) out << ",";
      s_first = false;
      out << "{\"file\":\"" << json_escape(file) << "\",\"line\":" << line << "}";
    }
    out << "]}";
  }
  out << "]}\n";
  return out.str();
}

std::string Analyzer::env_table_markdown() const {
  std::map<std::string, std::vector<std::string>> by_var;
  for (const EnvSite& s : env_sites_) {
    by_var[s.var].push_back(s.file + ":" + std::to_string(s.line));
  }
  std::ostringstream out;
  out << "| Variable | Values | Effect |\n|---|---|---|\n";
  for (const auto& [var, sites] : by_var) {
    out << "| `" << var << "` | … | … (read at ";
    for (std::size_t i = 0; i < sites.size(); ++i) out << (i ? ", " : "") << sites[i];
    out << ") |\n";
  }
  return out.str();
}

std::string Analyzer::baseline_lines() const {
  std::ostringstream out;
  for (const Finding& f : findings_) {
    out << f.rule << " " << f.file << " " << f.key << "  # " << f.message << "\n";
  }
  return out.str();
}

}  // namespace irf::analyze
