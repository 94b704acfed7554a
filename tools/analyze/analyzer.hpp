#pragma once

/// \file analyzer.hpp
/// irf_analyze — the project's multi-pass semantic static analyzer. It
/// subsumes the old token-level linter (whose rules it still runs via
/// lint.{hpp,cpp}) and adds four semantic passes that keep the
/// architecture sound the way the sanitizer presets keep the runtime sound:
///
///   1. include-graph + layering DAG   rules: layering, layer-cycle,
///                                            layer-table, private-include
///   2. env-var contract               rules: env-undocumented,
///                                            env-raw-parse, env-doc-stale
///   3. obs-name registry              rule:  obs-name (from the lint
///                                            engine) + obs_names.json
///   4. lock-order analysis            rules: lock-unannotated, lock-order,
///                                            lock-cycle
///
/// The class is file-system free: callers feed it file contents (the
/// tools/analyze/main.cpp driver does the IO), which is what makes the
/// gtest suite in tests/test_analyze.cpp possible. See docs/ANALYSIS.md for
/// the rule catalogue, the annotation syntax, and the baseline workflow.

#include <map>
#include <set>
#include <string>
#include <vector>

namespace irf::analyze {

/// One violation. `key` is the line-number-free identity used for baseline
/// matching (e.g. "common->obs", "IRF_FOO", "engine.mutex_->engine.cache_mutex_"),
/// so a committed baseline survives unrelated edits to the flagged file.
struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
  std::string key;

  std::string str() const;  // "file:line: rule: message"
};

/// Parsed layering table (tools/analyze/layers.conf). Plain text:
///
///   [layers]
///   common =                      # bottom: may depend on nothing
///   obs    = common
///   serve  = *                    # top: may depend on anything
///
///   [private]
///   module/impl.inc               # only includable from inside module/
struct LayerTable {
  struct Entry {
    std::vector<std::string> deps;
    bool any = false;  // '*'
    int line = 0;      // declaration line in the table file
  };
  std::map<std::string, Entry> modules;
  std::map<std::string, int> private_headers;  // "module/header" -> table line
  std::vector<std::string> errors;             // parse problems, with line info
};

LayerTable parse_layer_table(const std::string& text);

/// Maps a path to its layering module: ".../src/<m>/..." -> "<m>", a file
/// directly under src/ -> "irf" (the public facade), and the tool/test trees
/// ("tools", "tests", "bench", "examples") to like-named pseudo-modules that
/// may include anything. Everything else -> "" (outside the model).
std::string module_of(const std::string& path);

/// True for modules the layering/env/lock passes govern (declared in the
/// table), false for the wildcard pseudo-modules and unknown paths.
bool is_declared_module(const LayerTable& table, const std::string& module);

struct Config {
  std::string layers_text;    // layering table content (required)
  std::string layers_path = "tools/analyze/layers.conf";  // for reporting
  std::string env_doc_text;   // env-contract doc; empty disables doc checks
  std::string env_doc_path = "docs/OBSERVABILITY.md";
  std::string baseline_text;  // committed baseline; empty = none
};

class Analyzer {
 public:
  explicit Analyzer(Config config);

  /// Scan one file. `path` should already be repo-relative (the driver
  /// relativizes) — it is used for module resolution, reporting, and
  /// baseline matching.
  void add_file(const std::string& path, const std::string& content);

  /// Run the cross-file passes. Call once, after the last add_file.
  void finish();

  /// Findings that survived suppressions and the baseline, sorted.
  const std::vector<Finding>& findings() const { return findings_; }
  /// Findings matched (and swallowed) by the committed baseline.
  const std::vector<Finding>& baselined() const { return baselined_; }
  int files_scanned() const { return files_scanned_; }

  /// Machine-readable exports (call after finish()).
  std::string findings_json() const;
  std::string obs_registry_json() const;
  /// Markdown skeleton of the env-contract table from the extracted getenv
  /// sites — the authoring aid for docs/OBSERVABILITY.md.
  std::string env_table_markdown() const;
  /// Baseline lines for the current findings (the --write-baseline output).
  std::string baseline_lines() const;

 private:
  struct FileRecord {
    std::string path;
    std::string module;  // per module_of()
    std::string stem;    // basename without extension (lock-site naming)
    std::string content;
    std::string code;     // code-only view
    std::string comments; // comment-only view (lock annotations live here)
  };

  struct EnvSite {
    std::string var;
    std::string file;
    int line = 0;
  };

  struct LockEdge {
    std::string from;
    std::string to;
    std::string file;  // first site observed
    int line = 0;
    bool observed = false;  // false = annotation-only edge
  };

  void run_layering();
  void run_env_contract();
  void run_lock_order();
  void report(Finding finding);

  Config config_;
  LayerTable table_;
  std::vector<FileRecord> files_;
  int files_scanned_ = 0;

  // Collected by the passes.
  std::vector<EnvSite> env_sites_;
  std::vector<LockEdge> lock_edges_;
  std::vector<std::pair<std::string, std::string>> lock_annotations_;
  // name -> (kind, sites) in first-seen order, from the lint engine.
  std::vector<std::pair<std::string, std::string>> obs_names_;  // name -> kind
  std::map<std::string, std::vector<std::pair<std::string, int>>> obs_sites_;

  std::set<std::string> baseline_keys_;  // "rule|file|key"
  std::vector<Finding> findings_;
  std::vector<Finding> baselined_;
};

/// Parses baseline text into match keys ("rule|file|key"). Lines are
/// `<rule> <file> <key>` with optional trailing `# justification`; '#' lines
/// and blanks are skipped.
std::set<std::string> parse_baseline(const std::string& text);

}  // namespace irf::analyze
