// Unit tests for the irf_analyze semantic analyzer (tools/analyze) and its
// token lint rules. The Analyzer is filesystem-free, so every scenario here
// feeds an in-memory project; the on-disk fixture trees under
// tools/analyze/fixtures/ cover the driver end-to-end via the
// analyze_fixture_* ctests.
#include "analyze/analyzer.hpp"
#include "analyze/lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace {

using irf::analyze::Analyzer;
using irf::analyze::Config;
using irf::analyze::Finding;
using irf::analyze::LayerTable;
using irf::analyze::parse_baseline;
using irf::analyze::parse_layer_table;

int count_rule(const std::vector<Finding>& findings, const std::string& rule) {
  return static_cast<int>(std::count_if(findings.begin(), findings.end(),
                                        [&](const Finding& f) { return f.rule == rule; }));
}

const Finding* find_rule(const std::vector<Finding>& findings, const std::string& rule) {
  for (const Finding& f : findings) {
    if (f.rule == rule) return &f;
  }
  return nullptr;
}

constexpr const char* kTwoLayerTable =
    "[layers]\n"
    "base =\n"
    "top  = base\n";

Config two_layer_config() {
  Config config;
  config.layers_text = kTwoLayerTable;
  return config;
}

TEST(LayerTableTest, ParsesSectionsDepsAndWildcard) {
  const LayerTable table = parse_layer_table(
      "# comment\n"
      "[layers]\n"
      "base =\n"
      "mid  = base   # trailing comment\n"
      "top  = *\n"
      "\n"
      "[private]\n"
      "mid/impl.inc\n");
  ASSERT_TRUE(table.errors.empty());
  ASSERT_EQ(table.modules.size(), 3u);
  EXPECT_TRUE(table.modules.at("base").deps.empty());
  EXPECT_FALSE(table.modules.at("base").any);
  ASSERT_EQ(table.modules.at("mid").deps.size(), 1u);
  EXPECT_EQ(table.modules.at("mid").deps[0], "base");
  EXPECT_TRUE(table.modules.at("top").any);
  EXPECT_EQ(table.private_headers.count("mid/impl.inc"), 1u);
}

TEST(LayerTableTest, ReportsDuplicateUndeclaredAndDeclaredCycle) {
  const LayerTable dup = parse_layer_table("[layers]\na =\na =\n");
  ASSERT_EQ(dup.errors.size(), 1u);
  EXPECT_NE(dup.errors[0].find("declared twice"), std::string::npos);

  const LayerTable undeclared = parse_layer_table("[layers]\na = ghost\n");
  ASSERT_EQ(undeclared.errors.size(), 1u);
  EXPECT_NE(undeclared.errors[0].find("undeclared"), std::string::npos);

  const LayerTable cyclic = parse_layer_table("[layers]\na = b\nb = a\n");
  ASSERT_EQ(cyclic.errors.size(), 1u);
  EXPECT_NE(cyclic.errors[0].find("cycle"), std::string::npos);
}

TEST(LayerTableTest, ModuleOfMapsTrees) {
  EXPECT_EQ(irf::analyze::module_of("src/solver/amg_pcg.cpp"), "solver");
  EXPECT_EQ(irf::analyze::module_of("src/irf.hpp"), "irf");
  EXPECT_EQ(irf::analyze::module_of("tools/analyze/main.cpp"), "tools");
  EXPECT_EQ(irf::analyze::module_of("tests/test_common.cpp"), "tests");
  EXPECT_EQ(irf::analyze::module_of("README.md"), "");
}

TEST(LayeringTest, FlagsBackEdgeWithStableKey) {
  Analyzer analyzer(two_layer_config());
  analyzer.add_file("src/base/impl.cpp", "#include \"top/top.hpp\"\n");
  analyzer.finish();
  const Finding* f = find_rule(analyzer.findings(), "layering");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->file, "src/base/impl.cpp");
  EXPECT_EQ(f->line, 1);
  EXPECT_EQ(f->key, "base->top");
}

TEST(LayeringTest, AllowedDepAndWildcardAreClean) {
  Config config;
  config.layers_text = "[layers]\nbase =\nmid = base\ntop = *\n";
  Analyzer analyzer(std::move(config));
  analyzer.add_file("src/mid/m.cpp", "#include \"base/b.hpp\"\n");
  analyzer.add_file("src/top/t.cpp", "#include \"mid/m.hpp\"\n#include \"base/b.hpp\"\n");
  // Includes inside comments and strings must not count as edges.
  analyzer.add_file("src/base/b.cpp",
                    "// #include \"top/top.hpp\"\n"
                    "const char* s = \"#include \\\"top/top.hpp\\\"\";\n");
  analyzer.finish();
  EXPECT_EQ(count_rule(analyzer.findings(), "layering"), 0);
}

TEST(LayeringTest, ObservedCycleBetweenWildcardModules) {
  Config config;
  config.layers_text = "[layers]\na = *\nb = *\n";
  Analyzer analyzer(std::move(config));
  analyzer.add_file("src/a/a.cpp", "#include \"b/b.hpp\"\n");
  analyzer.add_file("src/b/b.cpp", "#include \"a/a.hpp\"\n");
  analyzer.finish();
  const Finding* f = find_rule(analyzer.findings(), "layer-cycle");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->key, "a+b");
}

TEST(LayeringTest, UndeclaredSrcModuleIsTableError) {
  Analyzer analyzer(two_layer_config());
  analyzer.add_file("src/mystery/m.cpp", "int x;\n");
  analyzer.finish();
  const Finding* f = find_rule(analyzer.findings(), "layer-table");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->key, "mystery");
}

TEST(LayeringTest, PrivateHeaderOnlyIncludableFromOwner) {
  Config config;
  config.layers_text =
      "[layers]\na =\nb = a\n\n[private]\na/impl.inc\n";
  Analyzer analyzer(std::move(config));
  analyzer.add_file("src/a/a.cpp", "#include \"a/impl.inc\"\n");   // owner: fine
  analyzer.add_file("src/b/b.cpp", "#include \"a/impl.inc\"\n");   // outsider
  analyzer.finish();
  ASSERT_EQ(count_rule(analyzer.findings(), "private-include"), 1);
  EXPECT_EQ(find_rule(analyzer.findings(), "private-include")->file, "src/b/b.cpp");
}

TEST(EnvContractTest, UndocumentedRawParseAndStale) {
  Config config;
  config.layers_text = "[layers]\na =\n";
  config.env_doc_text =
      "| Variable | Values | Effect |\n"
      "|---|---|---|\n"
      "| `IRF_DOCUMENTED` | int | documented |\n"
      "| `IRF_STALE` | 0/1 | nothing reads this |\n";
  Analyzer analyzer(std::move(config));
  analyzer.add_file("src/a/a.cpp",
                    "#include <cstdlib>\n"
                    "int f() {\n"
                    "  const char* s = std::getenv(\"IRF_DOCUMENTED\");\n"
                    "  return s ? std::atoi(s) : 0;\n"
                    "}\n"
                    "bool g() { return std::getenv(\"IRF_MYSTERY\") != nullptr; }\n");
  analyzer.finish();
  const Finding* undoc = find_rule(analyzer.findings(), "env-undocumented");
  ASSERT_NE(undoc, nullptr);
  EXPECT_EQ(undoc->key, "IRF_MYSTERY");
  EXPECT_EQ(undoc->line, 6);
  const Finding* raw = find_rule(analyzer.findings(), "env-raw-parse");
  ASSERT_NE(raw, nullptr);
  EXPECT_EQ(raw->line, 4);
  const Finding* stale = find_rule(analyzer.findings(), "env-doc-stale");
  ASSERT_NE(stale, nullptr);
  EXPECT_EQ(stale->key, "IRF_STALE");
}

TEST(EnvContractTest, NonLiteralGetenvIsFlagged) {
  Config config;
  config.layers_text = "[layers]\na =\n";
  config.env_doc_text = "| `IRF_X` |\n";
  Analyzer analyzer(std::move(config));
  analyzer.add_file("src/a/a.cpp",
                    "#include <cstdlib>\n"
                    "const char* f(const char* v) { return std::getenv(v); }\n");
  analyzer.finish();
  const Finding* f = find_rule(analyzer.findings(), "env-undocumented");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->key, "non-literal");
}

TEST(EnvContractTest, ToolAndTestTreesAreExempt) {
  Config config;
  config.layers_text = "[layers]\na =\n";
  config.env_doc_text = "| `IRF_ONLY` |\n";
  Analyzer analyzer(std::move(config));
  analyzer.add_file("tests/test_x.cpp",
                    "#include <cstdlib>\n"
                    "bool f() { return std::getenv(\"IRF_HARNESS_KNOB\") != nullptr; }\n");
  analyzer.add_file("src/a/a.cpp",
                    "#include <cstdlib>\n"
                    "bool g() { return std::getenv(\"IRF_ONLY\") != nullptr; }\n");
  analyzer.finish();
  EXPECT_EQ(count_rule(analyzer.findings(), "env-undocumented"), 0);
  EXPECT_EQ(count_rule(analyzer.findings(), "env-doc-stale"), 0);
}

constexpr const char* kNestedLocks =
    "#include <mutex>\n"
    "struct T {\n"
    "  std::mutex outer_mu_;\n"
    "  std::mutex inner_mu_;\n"
    "  void f() {\n"
    "    std::lock_guard<std::mutex> a(outer_mu_);\n"
    "    std::lock_guard<std::mutex> b(inner_mu_);\n"
    "  }\n"
    "};\n";

TEST(LockOrderTest, NestedWithoutAnnotationIsFlagged) {
  Analyzer analyzer(two_layer_config());
  analyzer.add_file("src/base/thing.cpp", kNestedLocks);
  analyzer.finish();
  const Finding* f = find_rule(analyzer.findings(), "lock-unannotated");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->line, 7);
  EXPECT_EQ(f->key, "thing.outer_mu_->thing.inner_mu_");
}

TEST(LockOrderTest, AnnotationChainCoversTransitiveNesting) {
  Analyzer analyzer(two_layer_config());
  // a < b < c declared; the code nests a -> c directly (transitive: fine).
  analyzer.add_file("src/base/thing.cpp",
                    "// irf-lock-order: thing.a_mu_ < thing.b_mu_ < thing.c_mu_\n"
                    "#include <mutex>\n"
                    "struct T {\n"
                    "  std::mutex a_mu_;\n"
                    "  std::mutex c_mu_;\n"
                    "  void f() {\n"
                    "    std::lock_guard<std::mutex> a(a_mu_);\n"
                    "    std::lock_guard<std::mutex> c(c_mu_);\n"
                    "  }\n"
                    "};\n");
  analyzer.finish();
  EXPECT_EQ(count_rule(analyzer.findings(), "lock-unannotated"), 0);
  EXPECT_EQ(count_rule(analyzer.findings(), "lock-order"), 0);
  EXPECT_EQ(count_rule(analyzer.findings(), "lock-cycle"), 0);
}

TEST(LockOrderTest, ReversedAcquisitionAgainstAnnotationIsViolation) {
  Analyzer analyzer(two_layer_config());
  analyzer.add_file("src/base/thing.cpp",
                    "// irf-lock-order: thing.first_mu_ < thing.second_mu_\n"
                    "#include <mutex>\n"
                    "struct T {\n"
                    "  std::mutex first_mu_;\n"
                    "  std::mutex second_mu_;\n"
                    "  void f() {\n"
                    "    std::lock_guard<std::mutex> s(second_mu_);\n"
                    "    std::lock_guard<std::mutex> fst(first_mu_);\n"
                    "  }\n"
                    "};\n");
  analyzer.finish();
  const Finding* f = find_rule(analyzer.findings(), "lock-order");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->key, "thing.second_mu_->thing.first_mu_");
}

TEST(LockOrderTest, ObservedCycleAcrossFunctionsIsDeadlockRisk) {
  Analyzer analyzer(two_layer_config());
  analyzer.add_file("src/base/pool.cpp",
                    "#include <mutex>\n"
                    "struct P {\n"
                    "  std::mutex cfg_mu_;\n"
                    "  std::mutex job_mu_;\n"
                    "  void configure() {\n"
                    "    std::lock_guard<std::mutex> c(cfg_mu_);\n"
                    "    std::lock_guard<std::mutex> j(job_mu_);\n"
                    "  }\n"
                    "  void drain() {\n"
                    "    std::lock_guard<std::mutex> j(job_mu_);\n"
                    "    std::lock_guard<std::mutex> c(cfg_mu_);\n"
                    "  }\n"
                    "};\n");
  analyzer.finish();
  const Finding* f = find_rule(analyzer.findings(), "lock-cycle");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->key, "pool.cfg_mu_+pool.job_mu_");
}

TEST(LockOrderTest, SiblingScopesDoNotNest) {
  Analyzer analyzer(two_layer_config());
  analyzer.add_file("src/base/thing.cpp",
                    "#include <mutex>\n"
                    "struct T {\n"
                    "  std::mutex a_mu_;\n"
                    "  std::mutex b_mu_;\n"
                    "  void f() {\n"
                    "    { std::lock_guard<std::mutex> a(a_mu_); }\n"
                    "    { std::lock_guard<std::mutex> b(b_mu_); }\n"
                    "  }\n"
                    "  void g() {\n"
                    "    std::lock_guard<std::mutex> b(b_mu_);\n"
                    "  }\n"
                    "};\n");
  analyzer.finish();
  EXPECT_EQ(count_rule(analyzer.findings(), "lock-unannotated"), 0);
  EXPECT_EQ(count_rule(analyzer.findings(), "lock-cycle"), 0);
}

TEST(LockOrderTest, ScopedLockArgsAreAtomicNotOrdered) {
  Analyzer analyzer(two_layer_config());
  analyzer.add_file("src/base/thing.cpp",
                    "#include <mutex>\n"
                    "struct T {\n"
                    "  std::mutex a_mu_;\n"
                    "  std::mutex b_mu_;\n"
                    "  void f() {\n"
                    "    std::scoped_lock both(a_mu_, b_mu_);\n"
                    "  }\n"
                    "};\n");
  analyzer.finish();
  EXPECT_EQ(count_rule(analyzer.findings(), "lock-unannotated"), 0);
}

TEST(LockOrderTest, MalformedAnnotationIsReported) {
  Analyzer analyzer(two_layer_config());
  analyzer.add_file("src/base/thing.cpp",
                    "// irf-lock-order: not-even-close\n"
                    "int x;\n");
  analyzer.finish();
  const Finding* f = find_rule(analyzer.findings(), "lock-order");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->key, "annotation");
}

TEST(SuppressionTest, AllowCommentsSilenceBothSpellings) {
  Analyzer analyzer(two_layer_config());
  analyzer.add_file("src/base/impl.cpp",
                    "// irf-analyze: allow(layering)\n"
                    "#include \"top/top.hpp\"\n"
                    "int* p = new int(1);  // irf-lint: allow(raw-new)\n");
  analyzer.finish();
  EXPECT_EQ(count_rule(analyzer.findings(), "layering"), 0);
  EXPECT_EQ(count_rule(analyzer.findings(), "raw-new"), 0);
}

TEST(BaselineTest, RoundTripSwallowsExactlyTheOldFindings) {
  Analyzer first(two_layer_config());
  first.add_file("src/base/impl.cpp", "#include \"top/top.hpp\"\n");
  first.add_file("src/base/thing.cpp", kNestedLocks);
  first.finish();
  ASSERT_EQ(first.findings().size(), 2u);

  Config config = two_layer_config();
  config.baseline_text = first.baseline_lines();
  EXPECT_EQ(parse_baseline(config.baseline_text).size(), 2u);
  Analyzer second(std::move(config));
  second.add_file("src/base/impl.cpp", "#include \"top/top.hpp\"\n");
  second.add_file("src/base/thing.cpp", kNestedLocks);
  second.finish();
  EXPECT_TRUE(second.findings().empty());
  EXPECT_EQ(second.baselined().size(), 2u);
}

TEST(BaselineTest, KeysSurviveLineShifts) {
  Config config = two_layer_config();
  config.baseline_text = "layering src/base/impl.cpp base->top  # accepted\n";
  Analyzer analyzer(std::move(config));
  // Ten new lines above the include: the line number moved, the key did not.
  analyzer.add_file("src/base/impl.cpp",
                    "\n\n\n\n\n\n\n\n\n\n#include \"top/top.hpp\"\n");
  analyzer.finish();
  EXPECT_TRUE(analyzer.findings().empty());
  EXPECT_EQ(analyzer.baselined().size(), 1u);
}

TEST(ReportTest, JsonExportsCarrySchemas) {
  Analyzer analyzer(two_layer_config());
  analyzer.add_file("src/base/impl.cpp",
                    "#include \"top/top.hpp\"\n"
                    "namespace obs { void count(const char*); }\n"
                    "void f() { obs::count(\"base.ticks\"); }\n");
  analyzer.finish();
  const std::string findings = analyzer.findings_json();
  EXPECT_NE(findings.find("\"schema\":\"irf.analyze.v1\""), std::string::npos);
  EXPECT_NE(findings.find("\"rule\":\"layering\""), std::string::npos);
  const std::string registry = analyzer.obs_registry_json();
  EXPECT_NE(registry.find("\"schema\":\"irf.obs_names.v1\""), std::string::npos);
  EXPECT_NE(registry.find("\"name\":\"base.ticks\""), std::string::npos);
  EXPECT_NE(registry.find("\"kind\":\"counter\""), std::string::npos);
}

TEST(ReportTest, FindingStrMatchesGrepFormat) {
  const Finding f{"src/a/a.cpp", 12, "layering", "bad include", "a->b"};
  EXPECT_EQ(f.str(), "src/a/a.cpp:12: layering: bad include");
}

// ---------------------------------------------------------------------------
// Token lint rules (lint.hpp), the analyzer's carried-forward lint pass

using irf::analyze::lint::lint_content;

int count_rule(const std::vector<irf::analyze::lint::Issue>& issues, const std::string& rule) {
  int n = 0;
  for (const auto& issue : issues) {
    if (issue.rule == rule) ++n;
  }
  return n;
}

TEST(Lint, RawNewFlagged) {
  auto issues = lint_content("a.cpp", "int* p = new int(3);\n");
  EXPECT_EQ(count_rule(issues, "raw-new"), 1);
}

TEST(Lint, PlacementFreeCodeClean) {
  auto issues = lint_content(
      "a.cpp",
      "#include <memory>\n"
      "auto p = std::make_unique<int>(3);\n"
      "int new_epoch = 1; (void)new_epoch;  // identifier, not the keyword\n");
  EXPECT_TRUE(issues.empty()) << issues.front().str();
}

TEST(Lint, RawDeleteFlaggedButDeletedFunctionsAllowed) {
  auto flagged = lint_content("a.cpp", "void f(int* p) { delete p; }\n");
  EXPECT_EQ(count_rule(flagged, "raw-delete"), 1);

  auto arr = lint_content("a.cpp", "void f(int* p) { delete[] p; }\n");
  EXPECT_EQ(count_rule(arr, "raw-delete"), 1);

  auto deleted_fn = lint_content(
      "a.hpp", "#pragma once\nstruct S { S(const S&) = delete; };\n");
  EXPECT_EQ(count_rule(deleted_fn, "raw-delete"), 0);
}

TEST(Lint, ReinterpretCastFlagged) {
  auto issues =
      lint_content("a.cpp", "float f(int b) { return *reinterpret_cast<float*>(&b); }\n");
  EXPECT_EQ(count_rule(issues, "reinterpret-cast"), 1);
}

TEST(Lint, BannedTokensInsideStringsAndCommentsIgnored) {
  auto issues = lint_content(
      "a.cpp",
      "// reinterpret_cast is banned; new Foo() too\n"
      "/* delete p; */\n"
      "const char* msg = \"use new delete reinterpret_cast\";\n"
      "const char* raw = R\"(new int; delete q; reinterpret_cast<int*>(0))\";\n");
  EXPECT_TRUE(issues.empty()) << issues.front().str();
}

TEST(Lint, SuppressionCommentHonored) {
  auto issues = lint_content(
      "a.cpp", "int* p = new int(3);  // irf-lint: allow(raw-new) — pool internals\n");
  EXPECT_EQ(count_rule(issues, "raw-new"), 0);

  // A whole-line suppression comment covers the line below.
  auto above = lint_content(
      "a.cpp",
      "// irf-lint: allow(raw-new) — arena internals\n"
      "int* p = new int(3);\n");
  EXPECT_EQ(count_rule(above, "raw-new"), 0);

  // The suppression names one rule; it must not blanket others.
  auto other = lint_content(
      "a.cpp", "auto q = reinterpret_cast<int*>(0);  // irf-lint: allow(raw-new)\n");
  EXPECT_EQ(count_rule(other, "reinterpret-cast"), 1);
}

TEST(Lint, PragmaOnceRequiredInHeaders) {
  auto missing = lint_content("h.hpp", "inline int f() { return 1; }\n");
  EXPECT_EQ(count_rule(missing, "pragma-once"), 1);

  auto present = lint_content(
      "h.hpp", "#pragma once\n\ninline int f() { return 1; }\n");
  EXPECT_EQ(count_rule(present, "pragma-once"), 0);

  // Leading comments before the pragma are fine; .cpp files are exempt.
  auto commented = lint_content(
      "h.hpp", "// \\file h.hpp\n\n#pragma once\ninline int f() { return 1; }\n");
  EXPECT_EQ(count_rule(commented, "pragma-once"), 0);
  auto source = lint_content("s.cpp", "int g() { return 2; }\n");
  EXPECT_EQ(count_rule(source, "pragma-once"), 0);
}

TEST(Lint, ObsNameGrammarEnforced) {
  auto good = lint_content(
      "a.cpp",
      "#include \"obs/metrics.hpp\"\n"
      "void f() { irf::obs::count(\"solver.pcg.solves\"); }\n");
  EXPECT_EQ(count_rule(good, "obs-name"), 0);

  auto bad = lint_content(
      "a.cpp",
      "#include \"obs/metrics.hpp\"\n"
      "void f() { irf::obs::count(\"Solver PCG!\"); }\n");
  EXPECT_EQ(count_rule(bad, "obs-name"), 1);
}

TEST(Lint, ObsNameKindConflictAcrossFiles) {
  irf::analyze::lint::Linter linter;
  linter.add_file("a.cpp",
                  "void f() { irf::obs::count(\"stage.widgets\"); }\n");
  linter.add_file("b.cpp",
                  "void g() { irf::obs::set_gauge(\"stage.widgets\", 1.0); }\n");
  linter.finish();
  EXPECT_EQ(count_rule(linter.issues(), "obs-name"), 1);
  EXPECT_EQ(linter.files_scanned(), 2);
}

TEST(Lint, SpanAndTimerShareAKind) {
  // ScopedSpan records into a same-named timer, so span + record_timer on one
  // name is NOT a conflict.
  irf::analyze::lint::Linter linter;
  linter.add_file("a.cpp",
                  "void f() { irf::obs::ScopedSpan span(\"solve.step\"); }\n");
  linter.add_file("b.cpp",
                  "void g() { irf::obs::record_timer(\"solve.step\", 0.5); }\n");
  linter.finish();
  EXPECT_EQ(count_rule(linter.issues(), "obs-name"), 0);
}

TEST(Lint, RuleTableCoversTheContract) {
  const std::vector<std::string> rules = irf::analyze::lint::rule_names();
  for (const char* expected :
       {"raw-new", "raw-delete", "reinterpret-cast", "pragma-once", "obs-name"}) {
    bool found = false;
    for (const std::string& r : rules) found = found || r == expected;
    EXPECT_TRUE(found) << "missing rule " << expected;
  }
}

TEST(Lint, IssueStrNamesFileLineRule) {
  auto issues = lint_content("dir/a.cpp", "int* p = new int(3);\n");
  ASSERT_EQ(issues.size(), 1u);
  const std::string s = issues[0].str();
  EXPECT_NE(s.find("dir/a.cpp"), std::string::npos) << s;
  EXPECT_NE(s.find(":1:"), std::string::npos) << s;
  EXPECT_NE(s.find("raw-new"), std::string::npos) << s;
}

}  // namespace
