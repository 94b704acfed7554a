#include "analyze/lint.hpp"

#include <algorithm>
#include <cctype>
#include <regex>

#include "analyze/lexer.hpp"

namespace irf::analyze::lint {

namespace {

using lex::Kind;

bool is_header(const std::string& path) {
  return path.size() >= 4 && path.compare(path.size() - 4, 4, ".hpp") == 0;
}

/// A pattern rule applied to the code-only view, line-agnostic.
struct PatternRule {
  const char* name;
  const char* message;
  std::regex pattern;  // submatch 1 anchors the report position
};

const std::vector<PatternRule>& pattern_rules() {
  static const std::vector<PatternRule> rules = [] {
    std::vector<PatternRule> r;
    r.push_back({"raw-new",
                 "raw `new` outside an arena/pool; use std::make_unique / "
                 "std::make_shared / containers",
                 std::regex(R"((?:^|[^_A-Za-z0-9])(new)\b\s*[A-Za-z_:(])")});
    r.push_back({"raw-delete",
                 "raw `delete`; owning smart pointers free memory here",
                 // `= delete` (deleted functions) stays legal.
                 std::regex(R"((?:^|[^=\s])\s*(delete)\b(?:\s*\[\s*\])?\s+[A-Za-z_:*(])")});
    r.push_back({"reinterpret-cast",
                 "reinterpret_cast is banned in this codebase; serialization "
                 "must use the memcpy-based byte IO in common/bytes.hpp",
                 std::regex(R"((reinterpret_cast))")});
    return r;
  }();
  return rules;
}

/// Instrument-call extractors for the obs-name rule. `kind` groups span with
/// timer because a completed span records into the timer of the same name.
struct NamePattern {
  const char* token;
  const char* kind;
  bool allow_trailing_angle;  // make_unique<obs::ScopedSpan>("...")
};

const NamePattern kNamePatterns[] = {
    {"obs::count", "counter", false},
    {"obs::set_gauge", "gauge", false},
    {"obs::record_timer", "timer", false},
    {"obs::record_histogram", "histogram", false},
    {"ScopedSpan", "timer", true},
    // A retroactive span has the same dual identity as a ScopedSpan: it both
    // captures a trace event and records the same-named timer.
    {"obs::emit_span", "timer", false},
};

const std::regex& name_grammar() {
  static const std::regex re(R"(^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$)");
  return re;
}

bool identifier_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

std::string Issue::str() const {
  return file + ":" + std::to_string(line) + ": [" + rule + "] " + message;
}

void Linter::add_file(const std::string& path, const std::string& content) {
  ++files_scanned_;
  const std::vector<Kind> kinds = lex::classify(content);
  const std::string code = lex::code_view(content, kinds);

  // pragma-once: the first non-blank raw content of a header must be the
  // guard (doc comments above it are fine, code is not).
  if (is_header(path)) {
    std::size_t pos = 0;
    while (pos < code.size() &&
           (std::isspace(static_cast<unsigned char>(code[pos])) || kinds[pos] != Kind::kCode)) {
      ++pos;
    }
    const bool guarded =
        pos + 12 <= code.size() && code.compare(pos, 12, "#pragma once") == 0;
    if (!guarded) {
      issues_.push_back({path, pos < code.size() ? lex::line_of(content, pos) : 1,
                         "pragma-once", "header does not start with #pragma once"});
    }
  }

  for (const PatternRule& rule : pattern_rules()) {
    auto begin = std::sregex_iterator(code.begin(), code.end(), rule.pattern);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      const std::size_t pos = static_cast<std::size_t>(it->position(1));
      const int line = lex::line_of(content, pos);
      if (lex::line_allows(content, line, rule.name)) continue;
      issues_.push_back({path, line, rule.name, rule.message});
    }
  }

  // obs-name: find instrument-call tokens in real code, then read the name
  // from the string literal that follows.
  for (const NamePattern& np : kNamePatterns) {
    const std::string token = np.token;
    std::size_t pos = 0;
    while ((pos = code.find(token, pos)) != std::string::npos) {
      const std::size_t tok = pos;
      pos += token.size();
      if (tok > 0 && identifier_char(code[tok - 1])) continue;
      if (pos < code.size() && identifier_char(code[pos])) continue;
      std::size_t j = pos;
      if (np.allow_trailing_angle && j < code.size() && code[j] == '>') ++j;
      while (j < code.size() && std::isspace(static_cast<unsigned char>(code[j]))) ++j;
      // Optional variable name (obs::ScopedSpan span("...")).
      while (j < code.size() && identifier_char(code[j])) ++j;
      while (j < code.size() && std::isspace(static_cast<unsigned char>(code[j]))) ++j;
      if (j >= code.size() || code[j] != '(') continue;
      ++j;
      // Skip whitespace in the RAW text: the code view blanks string bytes to
      // spaces, so scanning it here would sail straight past the name.
      while (j < content.size() &&
             std::isspace(static_cast<unsigned char>(content[j]))) {
        ++j;
      }
      if (j >= content.size() || content[j] != '"') continue;  // not a literal name
      const std::size_t name_begin = j + 1;
      const std::size_t name_end = content.find('"', name_begin);
      if (name_end == std::string::npos) continue;
      const std::string name = content.substr(name_begin, name_end - name_begin);
      const int line = lex::line_of(content, tok);
      if (lex::line_allows(content, line, "obs-name")) continue;
      if (!std::regex_match(name, name_grammar())) {
        issues_.push_back({path, line, "obs-name",
                           "instrument name \"" + name +
                               "\" does not match [a-z][a-z0-9_]*(.[a-z][a-z0-9_]*)*"});
      } else {
        names_.emplace_back(name, NameUse{np.kind, path, line});
      }
    }
  }
}

void Linter::finish() {
  // One name, one instrument kind, repo-wide: "serve.queue.depth" must not
  // be a gauge in one file and a counter in another.
  std::vector<std::pair<std::string, NameUse>> first_use;
  for (const auto& [name, use] : names_) {
    auto it = std::find_if(first_use.begin(), first_use.end(),
                           [&](const auto& p) { return p.first == name; });
    if (it == first_use.end()) {
      first_use.emplace_back(name, use);
    } else if (it->second.kind != use.kind) {
      issues_.push_back({use.file, use.line, "obs-name",
                         "instrument \"" + name + "\" used as " + use.kind +
                             " but registered as " + it->second.kind + " at " +
                             it->second.file + ":" + std::to_string(it->second.line)});
    }
  }
  std::stable_sort(issues_.begin(), issues_.end(), [](const Issue& a, const Issue& b) {
    return a.file != b.file ? a.file < b.file : a.line < b.line;
  });
}

std::vector<Issue> lint_content(const std::string& path, const std::string& content) {
  Linter linter;
  linter.add_file(path, content);
  linter.finish();
  return linter.issues();
}

std::vector<std::string> rule_names() {
  std::vector<std::string> names;
  for (const PatternRule& r : pattern_rules()) names.emplace_back(r.name);
  names.emplace_back("pragma-once");
  names.emplace_back("obs-name");
  return names;
}

}  // namespace irf::analyze::lint
