#include <algorithm>
#include <functional>
#include <sstream>

#include "analyze/analyzer.hpp"
#include "analyze/lexer.hpp"

namespace irf::analyze {

namespace {

std::string trim(const std::string& s) {
  const std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

/// Module a quoted include target belongs to: "check/check.hpp" -> "check",
/// "irf.hpp" -> "irf" (the facade header sits directly under src/),
/// "analyze/analyzer.hpp" -> "" (tool-local, outside the layer model).
std::string target_module(const LayerTable& table, const std::string& target) {
  const std::size_t slash = target.find('/');
  if (slash == std::string::npos) {
    return target == "irf.hpp" ? "irf" : "";
  }
  const std::string head = target.substr(0, slash);
  return table.modules.count(head) > 0 ? head : "";
}

/// Tarjan SCC over a string digraph; returns the non-trivial components
/// (size > 1, or a self-loop), each sorted for deterministic reporting.
std::vector<std::vector<std::string>> find_cycles(
    const std::map<std::string, std::set<std::string>>& graph) {
  std::map<std::string, int> index, low;
  std::map<std::string, bool> on_stack;
  std::vector<std::string> stack;
  std::vector<std::vector<std::string>> cycles;
  int next = 0;

  std::function<void(const std::string&)> strongconnect = [&](const std::string& v) {
    index[v] = low[v] = next++;
    stack.push_back(v);
    on_stack[v] = true;
    auto it = graph.find(v);
    if (it != graph.end()) {
      for (const std::string& w : it->second) {
        if (index.find(w) == index.end()) {
          strongconnect(w);
          low[v] = std::min(low[v], low[w]);
        } else if (on_stack[w]) {
          low[v] = std::min(low[v], index[w]);
        }
      }
    }
    if (low[v] == index[v]) {
      std::vector<std::string> comp;
      std::string w;
      do {
        w = stack.back();
        stack.pop_back();
        on_stack[w] = false;
        comp.push_back(w);
      } while (w != v);
      const bool self_loop =
          comp.size() == 1 && graph.count(v) > 0 && graph.at(v).count(v) > 0;
      if (comp.size() > 1 || self_loop) {
        std::sort(comp.begin(), comp.end());
        cycles.push_back(std::move(comp));
      }
    }
  };

  for (const auto& [v, _] : graph) {
    if (index.find(v) == index.end()) strongconnect(v);
  }
  std::sort(cycles.begin(), cycles.end());
  return cycles;
}

std::string join(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

}  // namespace

LayerTable parse_layer_table(const std::string& text) {
  LayerTable table;
  std::istringstream in(text);
  std::string raw;
  std::string section;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw = raw.substr(0, hash);
    const std::string line = trim(raw);
    if (line.empty()) continue;
    if (line.front() == '[' && line.back() == ']') {
      section = line.substr(1, line.size() - 2);
      if (section != "layers" && section != "private") {
        table.errors.push_back("line " + std::to_string(line_no) +
                               ": unknown section [" + section + "]");
      }
      continue;
    }
    if (section == "layers") {
      const std::size_t eq = line.find('=');
      if (eq == std::string::npos) {
        table.errors.push_back("line " + std::to_string(line_no) +
                               ": expected `module = deps...`, got '" + line + "'");
        continue;
      }
      const std::string name = trim(line.substr(0, eq));
      if (name.empty()) {
        table.errors.push_back("line " + std::to_string(line_no) + ": empty module name");
        continue;
      }
      if (table.modules.count(name) > 0) {
        table.errors.push_back("line " + std::to_string(line_no) + ": module '" + name +
                               "' declared twice");
        continue;
      }
      LayerTable::Entry entry;
      entry.line = line_no;
      std::istringstream deps(line.substr(eq + 1));
      std::string dep;
      while (deps >> dep) {
        if (dep == "*") {
          entry.any = true;
        } else {
          entry.deps.push_back(dep);
        }
      }
      if (entry.any && !entry.deps.empty()) {
        table.errors.push_back("line " + std::to_string(line_no) + ": module '" + name +
                               "' mixes '*' with explicit deps");
      }
      table.modules.emplace(name, std::move(entry));
    } else if (section == "private") {
      if (line.find('/') == std::string::npos) {
        table.errors.push_back("line " + std::to_string(line_no) +
                               ": private header must be `module/header`, got '" + line +
                               "'");
        continue;
      }
      table.private_headers.emplace(line, line_no);
    } else {
      table.errors.push_back("line " + std::to_string(line_no) +
                             ": content before any [section]");
    }
  }
  // Every explicit dep must itself be a declared module, and the declared
  // edges must form a DAG — the table is the architecture spec, so a broken
  // spec is an error even before looking at any source file.
  std::map<std::string, std::set<std::string>> declared;
  for (const auto& [name, entry] : table.modules) {
    for (const std::string& dep : entry.deps) {
      if (table.modules.count(dep) == 0) {
        table.errors.push_back("line " + std::to_string(entry.line) + ": module '" + name +
                               "' depends on undeclared module '" + dep + "'");
      } else {
        declared[name].insert(dep);
      }
    }
  }
  for (const std::vector<std::string>& cycle : find_cycles(declared)) {
    table.errors.push_back("declared dependency cycle: " + join(cycle, " -> "));
  }
  return table;
}

void Analyzer::run_layering() {
  std::map<std::string, std::set<std::string>> observed;  // module -> deps
  std::set<std::string> undeclared_reported;

  for (const FileRecord& f : files_) {
    if (f.module.empty()) continue;
    auto entry_it = table_.modules.find(f.module);
    // A src module missing from the table means the table is stale — report
    // once per module, at its first file.
    if (entry_it == table_.modules.end()) {
      if (f.path.compare(0, 4, "src/") == 0 &&
          undeclared_reported.insert(f.module).second) {
        report({f.path, 1, "layer-table",
                "module '" + f.module + "' is not declared in " + config_.layers_path,
                f.module});
      }
      continue;
    }
    const LayerTable::Entry& entry = entry_it->second;
    const std::set<std::string> allowed(entry.deps.begin(), entry.deps.end());

    // Quoted-include extraction: find the directive in the code view (so
    // includes inside comments/strings don't count), read the target from the
    // raw bytes (the code view blanks string literals).
    std::size_t pos = 0;
    while ((pos = f.code.find("#include", pos)) != std::string::npos) {
      std::size_t j = pos + 8;
      pos = j;
      while (j < f.content.size() &&
             (f.content[j] == ' ' || f.content[j] == '\t')) {
        ++j;
      }
      if (j >= f.content.size() || f.content[j] != '"') continue;  // <system> include
      const std::size_t begin = j + 1;
      const std::size_t end = f.content.find('"', begin);
      if (end == std::string::npos) continue;
      const std::string target = f.content.substr(begin, end - begin);
      const int line = lex::line_of(f.content, begin);

      // private-include applies to every module, wildcard or not.
      auto priv = table_.private_headers.find(target);
      if (priv != table_.private_headers.end()) {
        const std::string owner = target.substr(0, target.find('/'));
        if (owner != f.module && !lex::line_allows(f.content, line, "private-include")) {
          report({f.path, line, "private-include",
                  "\"" + target + "\" is private to module '" + owner +
                      "' (declared in " + config_.layers_path + ")",
                  target});
        }
      }

      const std::string to = target_module(table_, target);
      if (to.empty() || to == f.module) continue;
      observed[f.module].insert(to);
      if (entry.any || allowed.count(to) > 0) continue;
      if (lex::line_allows(f.content, line, "layering")) continue;
      report({f.path, line, "layering",
              "module '" + f.module + "' must not include module '" + to +
                  "' (\"" + target + "\"); allowed deps: {" +
                  join(entry.deps, ", ") + "}",
              f.module + "->" + to});
    }
  }

  for (const std::vector<std::string>& cycle : find_cycles(observed)) {
    int line = 0;
    auto it = table_.modules.find(cycle.front());
    if (it != table_.modules.end()) line = it->second.line;
    report({config_.layers_path, line, "layer-cycle",
            "include cycle between modules: " + join(cycle, " -> ") + " -> " +
                cycle.front(),
            join(cycle, "+")});
  }
}

}  // namespace irf::analyze
