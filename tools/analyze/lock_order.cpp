#include <algorithm>
#include <cctype>
#include <functional>
#include <queue>
#include <set>
#include <sstream>

#include "analyze/analyzer.hpp"
#include "analyze/lexer.hpp"

namespace irf::analyze {

namespace {

bool identifier_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool valid_lock_name(const std::string& s) {
  if (s.empty()) return false;
  bool dot_ok = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '.') {
      if (i == 0 || i + 1 == s.size() || s[i - 1] == '.') return false;
      dot_ok = true;
    } else if (!identifier_char(c)) {
      return false;
    }
  }
  return dot_ok || !s.empty();
}

std::string trim(const std::string& s) {
  const std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

/// Last identifier in a lock-argument expression: "this->cache_mutex_" ->
/// "cache_mutex_", "other.m" -> "m". Empty for non-lvalue args.
std::string final_identifier(const std::string& expr) {
  const std::string e = trim(expr);
  if (e.empty()) return "";
  std::size_t end = e.size();
  while (end > 0 && !identifier_char(e[end - 1])) --end;
  std::size_t begin = end;
  while (begin > 0 && identifier_char(e[begin - 1])) --begin;
  return e.substr(begin, end - begin);
}

bool is_tag_arg(const std::string& id) {
  return id == "defer_lock" || id == "adopt_lock" || id == "try_to_lock";
}

const char* const kLockTokens[] = {"lock_guard", "unique_lock", "scoped_lock"};

struct LockSite {
  std::vector<std::string> names;  // qualified "<stem>.<member>"
  std::size_t pos = 0;             // position of the token in the file
  int line = 0;
  int depth = 0;  // brace depth at the declaration (set during the walk)
};

/// Brace depth at every byte of the code view, so lock sites can be replayed
/// in textual order with lexical scope.
std::vector<int> brace_depths(const std::string& code) {
  std::vector<int> depth(code.size() + 1, 0);
  int d = 0;
  for (std::size_t i = 0; i < code.size(); ++i) {
    depth[i] = d;
    if (code[i] == '{') ++d;
    else if (code[i] == '}') d = std::max(0, d - 1);
  }
  depth[code.size()] = d;
  return depth;
}

}  // namespace

void Analyzer::run_lock_order() {
  // ---- collect annotations (comment view) and lock sites (code view) ----
  std::set<std::pair<std::string, std::string>> annotated;
  std::set<std::pair<std::string, std::string>> observed_set;

  for (const FileRecord& f : files_) {
    if (f.path.compare(0, 4, "src/") != 0) continue;

    // Annotations: `// irf-lock-order: a < b < c` declares the chain a<b,
    // b<c (checks use the transitive closure, so a<c is implied).
    std::size_t apos = 0;
    while ((apos = f.comments.find("irf-lock-order:", apos)) != std::string::npos) {
      const std::size_t tail = apos + 15;
      apos = tail;
      const std::size_t eol = f.comments.find('\n', tail);
      const std::string rest = f.comments.substr(
          tail, eol == std::string::npos ? std::string::npos : eol - tail);
      const int line = lex::line_of(f.content, tail);
      std::vector<std::string> chain;
      bool ok = true;
      // split on '<'
      std::size_t start = 0;
      std::vector<std::string> raw_parts;
      for (std::size_t i = 0; i <= rest.size(); ++i) {
        if (i == rest.size() || rest[i] == '<') {
          raw_parts.push_back(rest.substr(start, i - start));
          start = i + 1;
        }
      }
      for (const std::string& rp : raw_parts) {
        const std::string name = trim(rp);
        if (!valid_lock_name(name) || name.find('.') == std::string::npos) {
          ok = false;
          break;
        }
        chain.push_back(name);
      }
      if (!ok || chain.size() < 2) {
        report({f.path, line, "lock-order",
                "malformed irf-lock-order annotation; expected "
                "`irf-lock-order: <file.mutex> < <file.mutex> [< ...]`",
                "annotation"});
        continue;
      }
      for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
        if (annotated.emplace(chain[i], chain[i + 1]).second) {
          lock_annotations_.emplace_back(chain[i], chain[i + 1]);
        }
      }
    }

    // Lock sites: std::lock_guard / unique_lock / scoped_lock declarations.
    std::vector<LockSite> sites;
    for (const char* token : kLockTokens) {
      const std::string tk = token;
      std::size_t pos = 0;
      while ((pos = f.code.find(tk, pos)) != std::string::npos) {
        const std::size_t tok_at = pos;
        pos += tk.size();
        if (tok_at > 0 && identifier_char(f.code[tok_at - 1])) continue;
        std::size_t j = pos;
        // Optional template argument list.
        if (j < f.code.size() && f.code[j] == '<') {
          int angle = 0;
          while (j < f.code.size()) {
            if (f.code[j] == '<') ++angle;
            else if (f.code[j] == '>' && --angle == 0) { ++j; break; }
            ++j;
          }
        }
        while (j < f.code.size() && std::isspace(static_cast<unsigned char>(f.code[j]))) ++j;
        // Variable name (required for a declaration; skips using-decls etc).
        std::size_t name_len = 0;
        while (j + name_len < f.code.size() && identifier_char(f.code[j + name_len])) {
          ++name_len;
        }
        if (name_len == 0) continue;
        j += name_len;
        while (j < f.code.size() && std::isspace(static_cast<unsigned char>(f.code[j]))) ++j;
        if (j >= f.code.size() || (f.code[j] != '(' && f.code[j] != '{')) continue;
        const char open = f.code[j];
        const char close = open == '(' ? ')' : '}';
        const std::size_t args_begin = j + 1;
        int paren = 1;
        std::size_t k = args_begin;
        std::vector<std::string> args;
        std::size_t arg_start = args_begin;
        while (k < f.code.size() && paren > 0) {
          const char c = f.code[k];
          if (c == open) ++paren;
          else if (c == close) {
            if (--paren == 0) {
              args.push_back(f.code.substr(arg_start, k - arg_start));
              break;
            }
          } else if (c == ',' && paren == 1) {
            args.push_back(f.code.substr(arg_start, k - arg_start));
            arg_start = k + 1;
          }
          ++k;
        }
        if (args.empty()) continue;
        LockSite site;
        site.pos = tok_at;
        site.line = lex::line_of(f.content, tok_at);
        const std::size_t take = tk == "scoped_lock" ? args.size() : std::size_t{1};
        for (std::size_t a = 0; a < take && a < args.size(); ++a) {
          const std::string id = final_identifier(args[a]);
          if (id.empty() || is_tag_arg(id)) continue;
          site.names.push_back(f.stem + "." + id);
        }
        if (!site.names.empty()) sites.push_back(std::move(site));
      }
    }
    if (sites.empty()) continue;
    std::sort(sites.begin(), sites.end(),
              [](const LockSite& a, const LockSite& b) { return a.pos < b.pos; });

    // ---- lexical scope replay: a guard lives until its block closes ----
    // A guard declared at brace depth d dies as soon as the depth dips below
    // d, so between consecutive sites we pop every guard deeper than the
    // minimum depth reached in the interval. This keeps sibling blocks at
    // equal depth from appearing nested.
    const std::vector<int> depth = brace_depths(f.code);
    struct Held {
      std::string name;
      int depth;
    };
    std::vector<Held> held;
    std::size_t prev_pos = 0;
    for (LockSite& site : sites) {
      site.depth = depth[site.pos];
      int min_depth = site.depth;
      for (std::size_t i = prev_pos; i <= site.pos; ++i) {
        min_depth = std::min(min_depth, depth[i]);
      }
      prev_pos = site.pos;
      while (!held.empty() && held.back().depth > min_depth) held.pop_back();
      for (const Held& h : held) {
        for (const std::string& name : site.names) {
          if (h.name == name) continue;
          if (observed_set.emplace(h.name, name).second) {
            lock_edges_.push_back({h.name, name, f.path, site.line, true});
          }
        }
      }
      for (const std::string& name : site.names) {
        held.push_back({name, site.depth});
      }
    }
  }

  for (const auto& [from, to] : annotated) {
    lock_edges_.push_back({from, to, config_.layers_path, 0, false});
  }

  // ---- transitive closure of the annotation graph ----
  std::map<std::string, std::set<std::string>> ann_adj;
  for (const auto& [from, to] : annotated) ann_adj[from].insert(to);
  auto reachable = [&ann_adj](const std::string& from, const std::string& to) {
    std::set<std::string> seen{from};
    std::queue<std::string> q;
    q.push(from);
    while (!q.empty()) {
      const std::string v = q.front();
      q.pop();
      if (v == to) return true;
      auto it = ann_adj.find(v);
      if (it == ann_adj.end()) continue;
      for (const std::string& w : it->second) {
        if (seen.insert(w).second) q.push(w);
      }
    }
    return false;
  };

  // ---- classify observed edges ----
  for (const LockEdge& e : lock_edges_) {
    if (!e.observed) continue;
    if (reachable(e.from, e.to)) continue;  // matches the declared order
    const auto raw_line = [&]() -> const FileRecord* {
      for (const FileRecord& f : files_) {
        if (f.path == e.file) return &f;
      }
      return nullptr;
    }();
    if (raw_line != nullptr &&
        lex::line_allows(raw_line->content, e.line, "lock-order")) {
      continue;
    }
    if (reachable(e.to, e.from)) {
      report({e.file, e.line, "lock-order",
              "acquires " + e.to + " while holding " + e.from +
                  ", but the declared order is " + e.to + " < " + e.from,
              e.from + "->" + e.to});
    } else {
      report({e.file, e.line, "lock-unannotated",
              "nested locking " + e.from + " -> " + e.to +
                  " has no `// irf-lock-order: " + e.from + " < " + e.to +
                  "` annotation",
              e.from + "->" + e.to});
    }
  }

  // ---- cycle check over annotation ∪ observed edges ----
  std::map<std::string, std::set<std::string>> all_adj;
  for (const LockEdge& e : lock_edges_) all_adj[e.from].insert(e.to);
  // (Tarjan, duplicated from include_graph to keep the passes standalone.)
  std::map<std::string, int> index, low;
  std::map<std::string, bool> on_stack;
  std::vector<std::string> stack;
  int next = 0;
  std::vector<std::vector<std::string>> cycles;
  std::function<void(const std::string&)> strongconnect = [&](const std::string& v) {
    index[v] = low[v] = next++;
    stack.push_back(v);
    on_stack[v] = true;
    auto it = all_adj.find(v);
    if (it != all_adj.end()) {
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
          comp.size() == 1 && all_adj.count(v) > 0 && all_adj.at(v).count(v) > 0;
      if (comp.size() > 1 || self_loop) {
        std::sort(comp.begin(), comp.end());
        cycles.push_back(std::move(comp));
      }
    }
  };
  for (const auto& [v, _] : all_adj) {
    if (index.find(v) == index.end()) strongconnect(v);
  }
  std::sort(cycles.begin(), cycles.end());
  for (const std::vector<std::string>& cycle : cycles) {
    // Anchor the report at the first observed edge inside the cycle.
    std::string file = config_.layers_path;
    int line = 0;
    for (const LockEdge& e : lock_edges_) {
      if (e.observed && std::find(cycle.begin(), cycle.end(), e.from) != cycle.end() &&
          std::find(cycle.begin(), cycle.end(), e.to) != cycle.end()) {
        file = e.file;
        line = e.line;
        break;
      }
    }
    std::string joined;
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      if (i) joined += " -> ";
      joined += cycle[i];
    }
    std::string key;
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      if (i) key += "+";
      key += cycle[i];
    }
    report({file, line, "lock-cycle",
            "lock-order cycle (potential deadlock): " + joined + " -> " + cycle.front(),
            key});
  }
}

}  // namespace irf::analyze
