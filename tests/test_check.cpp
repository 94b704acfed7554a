// Tests for the irf::check correctness layer itself: the runtime gate, the
// invariant macros, the CSR structural validator, the pool's chunk-claim
// guard, and the project lint rules. The gate is forced on/off explicitly so these
// tests behave identically in every build configuration (default, sanitizer,
// and -DIRF_DEBUG_CHECKS=ON trees).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "check/check.hpp"
#include "check/invariants.hpp"
#include "check/lint.hpp"
#include "linalg/csr.hpp"
#include "nn/tensor.hpp"
#include "par/par.hpp"

namespace irf {
namespace {

/// Force the gate for a test and restore the pre-test state afterwards.
class ChecksOn : public ::testing::Test {
 protected:
  void SetUp() override { check::set_enabled(true); }
  void TearDown() override { check::set_enabled(false); }
};

using ChecksGate = ChecksOn;

// ---------------------------------------------------------------------------
// Gate + macros

TEST_F(ChecksGate, EnabledReflectsSetEnabled) {
  EXPECT_TRUE(check::enabled());
  check::set_enabled(false);
  EXPECT_FALSE(check::enabled());
  check::set_enabled(true);
  EXPECT_TRUE(check::enabled());
}

TEST_F(ChecksOn, IrfCheckThrowsCheckErrorWithSite) {
  try {
    IRF_CHECK(1 + 1 == 3, "arithmetic broke");
    FAIL() << "IRF_CHECK did not throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("check failed: "), std::string::npos) << what;
    EXPECT_NE(what.find("test_check.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find("arithmetic broke"), std::string::npos) << what;
  }
}

TEST_F(ChecksOn, IrfCheckIsNoOpWhenDisabled) {
  check::set_enabled(false);
  EXPECT_NO_THROW(IRF_CHECK(false, "must not fire"));
}

TEST_F(ChecksOn, CheckErrorIsAnIrfError) {
  EXPECT_THROW(IRF_CHECK(false, "boom"), Error);
}

TEST_F(ChecksOn, CheckFiniteAcceptsCleanAndFlagsPoison) {
  std::vector<float> clean{0.0f, -1.5f, 3.0e30f};
  EXPECT_NO_THROW(IRF_CHECK_FINITE(clean, "clean"));

  std::vector<float> poisoned{1.0f, std::numeric_limits<float>::quiet_NaN(), 2.0f};
  try {
    IRF_CHECK_FINITE(poisoned, "stage-x output");
    FAIL() << "poison scan did not fire";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stage-x output"), std::string::npos) << what;
    EXPECT_NE(what.find("1"), std::string::npos) << what;  // first poisoned index
  }

  std::vector<double> inf{std::numeric_limits<double>::infinity()};
  EXPECT_THROW(IRF_CHECK_FINITE(inf, "inf"), CheckError);

  check::set_enabled(false);
  EXPECT_NO_THROW(IRF_CHECK_FINITE(poisoned, "gate off"));
}

// ---------------------------------------------------------------------------
// Tensor bounds-checked access

TEST_F(ChecksOn, TensorAtInBoundsReadsAndWrites) {
  nn::Tensor t = nn::Tensor::zeros({2, 3, 4, 5});
  t.at(1, 2, 3, 4) = 7.5f;
  EXPECT_FLOAT_EQ(t.at(1, 2, 3, 4), 7.5f);
  EXPECT_FLOAT_EQ(t.at(0, 0, 0, 0), 0.0f);
}

TEST_F(ChecksOn, TensorAtOutOfBoundsTripsCheck) {
  nn::Tensor t = nn::Tensor::zeros({2, 3, 4, 5});
  EXPECT_THROW(t.at(2, 0, 0, 0), CheckError);
  EXPECT_THROW(t.at(0, 3, 0, 0), CheckError);
  EXPECT_THROW(t.at(0, 0, 4, 0), CheckError);
  EXPECT_THROW(t.at(0, 0, 0, 5), CheckError);
  EXPECT_THROW(t.at(-1, 0, 0, 0), CheckError);
}

// ---------------------------------------------------------------------------
// CSR structural validator

TEST_F(ChecksOn, CsrValidStructurePasses) {
  // 2x3: row 0 = {(0,0)=1, (0,2)=2}, row 1 = {(1,1)=3}.
  std::vector<int> row_ptr{0, 2, 3};
  std::vector<int> col_idx{0, 2, 1};
  std::vector<double> values{1.0, 2.0, 3.0};
  EXPECT_NO_THROW(check::check_csr(2, 3, row_ptr, col_idx, values));
}

TEST_F(ChecksOn, CsrBadRowPtrRejected) {
  std::vector<double> v{1.0};
  // Wrong length.
  EXPECT_THROW(check::check_csr(2, 2, {0, 1}, {0}, v), CheckError);
  // Does not start at zero.
  EXPECT_THROW(check::check_csr(1, 2, {1, 1}, {0}, v), CheckError);
  // Decreasing.
  EXPECT_THROW(check::check_csr(2, 2, {0, 1, 0}, {0}, v), CheckError);
  // Does not end at nnz.
  EXPECT_THROW(check::check_csr(1, 2, {0, 2}, {0}, v), CheckError);
}

TEST_F(ChecksOn, CsrColumnViolationsRejected) {
  std::vector<double> two{1.0, 2.0};
  // Out of range.
  EXPECT_THROW(check::check_csr(1, 2, {0, 1}, {2}, {1.0}), CheckError);
  EXPECT_THROW(check::check_csr(1, 2, {0, 1}, {-1}, {1.0}), CheckError);
  // Duplicate column within a row.
  EXPECT_THROW(check::check_csr(1, 3, {0, 2}, {1, 1}, two), CheckError);
  // Unsorted columns within a row.
  EXPECT_THROW(check::check_csr(1, 3, {0, 2}, {2, 0}, two), CheckError);
}

TEST_F(ChecksOn, CsrDiagonalAndFiniteOptions) {
  // 2x2 with no (1,1) entry.
  std::vector<int> row_ptr{0, 1, 2};
  std::vector<int> col_idx{0, 0};
  std::vector<double> values{1.0, -1.0};
  EXPECT_NO_THROW(check::check_csr(2, 2, row_ptr, col_idx, values));
  check::CsrCheckOptions need_diag;
  need_diag.require_diagonal = true;
  EXPECT_THROW(check::check_csr(2, 2, row_ptr, col_idx, values, need_diag),
               CheckError);

  std::vector<double> poisoned{1.0, std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW(check::check_csr(2, 2, row_ptr, col_idx, poisoned), CheckError);
  check::CsrCheckOptions no_finite;
  no_finite.require_finite = false;
  EXPECT_NO_THROW(check::check_csr(2, 2, row_ptr, col_idx, poisoned, no_finite));
}

TEST_F(ChecksOn, CsrCheckIsNoOpWhenDisabled) {
  check::set_enabled(false);
  EXPECT_NO_THROW(check::check_csr(1, 1, {0, 9}, {5}, {1.0}));
}

TEST_F(ChecksOn, FromTripletsRejectsPoisonedValues) {
  linalg::TripletBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(1, 1, std::numeric_limits<double>::quiet_NaN());
  EXPECT_THROW(linalg::CsrMatrix::from_triplets(b), CheckError);

  check::set_enabled(false);
  EXPECT_NO_THROW(linalg::CsrMatrix::from_triplets(b));
}

TEST_F(ChecksOn, FromTripletsAcceptsValidStamping) {
  linalg::TripletBuilder b(3, 3);
  b.stamp_conductance(0, 1, 2.0);
  b.stamp_grounded_conductance(2, 1.0);
  linalg::CsrMatrix m = linalg::CsrMatrix::from_triplets(b);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 2.0);
}

// ---------------------------------------------------------------------------
// Pool chunk-claim guard

TEST_F(ChecksOn, ParallelForRunsCleanUnderChunkClaimGuard) {
  // The pool's epoch-stamped chunk-claim guard is active because the gate is
  // on; a healthy parallel_for must not trip it, across repeated jobs (the
  // epoch bump must invalidate earlier claims).
  struct PoolGuard {
    ~PoolGuard() { par::set_num_threads(1); }
  } restore;
  par::set_num_threads(4);
  std::vector<std::int64_t> out(1000, 0);
  for (int round = 0; round < 5; ++round) {
    par::parallel_for(0, 1000, 16, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) out[i] += i;
    });
  }
  for (std::int64_t i = 0; i < 1000; ++i) EXPECT_EQ(out[i], 5 * i);
}

// ---------------------------------------------------------------------------
// Lint rules

using check::lint::lint_content;

int count_rule(const std::vector<check::lint::Issue>& issues, const std::string& rule) {
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
  check::lint::Linter linter;
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
  check::lint::Linter linter;
  linter.add_file("a.cpp",
                  "void f() { irf::obs::ScopedSpan span(\"solve.step\"); }\n");
  linter.add_file("b.cpp",
                  "void g() { irf::obs::record_timer(\"solve.step\", 0.5); }\n");
  linter.finish();
  EXPECT_EQ(count_rule(linter.issues(), "obs-name"), 0);
}

TEST(Lint, RuleTableCoversTheContract) {
  const std::vector<std::string> rules = check::lint::rule_names();
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
}  // namespace irf
