// Unit tests for irf::common: grids, RNG, string utils, image IO, env config.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/grid2d.hpp"
#include "common/image_io.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/string_util.hpp"

namespace irf {
namespace {

TEST(Grid2D, ConstructionAndAccess) {
  GridF g(3, 4, 1.5f);
  EXPECT_EQ(g.height(), 3);
  EXPECT_EQ(g.width(), 4);
  EXPECT_EQ(g.size(), 12u);
  EXPECT_FLOAT_EQ(g.at(2, 3), 1.5f);
  g.at(1, 2) = 7.0f;
  EXPECT_FLOAT_EQ(g(1, 2), 7.0f);
}

TEST(Grid2D, OutOfBoundsThrows) {
  GridF g(2, 2);
  EXPECT_THROW(g.at(2, 0), DimensionError);
  EXPECT_THROW(g.at(0, -1), DimensionError);
  EXPECT_THROW(GridF(-1, 3), DimensionError);
}

TEST(Grid2D, MinMaxSumMean) {
  GridF g(2, 2);
  g(0, 0) = 1.0f;
  g(0, 1) = -3.0f;
  g(1, 0) = 2.0f;
  g(1, 1) = 4.0f;
  EXPECT_FLOAT_EQ(g.min_value(), -3.0f);
  EXPECT_FLOAT_EQ(g.max_value(), 4.0f);
  EXPECT_DOUBLE_EQ(g.sum(), 4.0);
  EXPECT_DOUBLE_EQ(g.mean(), 1.0);
}

TEST(Grid2D, Rotate90Clockwise) {
  GridF g(2, 3);
  // 1 2 3
  // 4 5 6
  float v = 1.0f;
  for (int y = 0; y < 2; ++y)
    for (int x = 0; x < 3; ++x) g(y, x) = v++;
  GridF r = g.rotated90(1);
  ASSERT_EQ(r.height(), 3);
  ASSERT_EQ(r.width(), 2);
  // Clockwise: first row becomes last column.
  EXPECT_FLOAT_EQ(r(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(r(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(r(2, 1), 3.0f);
}

TEST(Grid2D, RotateFourTimesIsIdentity) {
  Rng rng(5);
  GridF g(5, 5);
  for (float& x : g.data()) x = static_cast<float>(rng.uniform());
  GridF r = g.rotated90(1).rotated90(1).rotated90(1).rotated90(1);
  for (std::size_t i = 0; i < g.size(); ++i) EXPECT_FLOAT_EQ(g.data()[i], r.data()[i]);
}

TEST(Grid2D, Rotate180MatchesDoubleQuarter) {
  Rng rng(6);
  GridF g(3, 4);
  for (float& x : g.data()) x = static_cast<float>(rng.uniform());
  GridF a = g.rotated90(2);
  GridF b = g.rotated90(1).rotated90(1);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a.data()[i], b.data()[i]);
}

TEST(Grid2D, ResizePreservesConstant) {
  GridF g(4, 4, 2.5f);
  GridF r = g.resized(7, 9);
  EXPECT_EQ(r.height(), 7);
  EXPECT_EQ(r.width(), 9);
  for (float v : r.data()) EXPECT_NEAR(v, 2.5f, 1e-6f);
}

TEST(Grid2D, MeanAbsDiff) {
  GridF a(2, 2, 1.0f);
  GridF b(2, 2, 3.0f);
  EXPECT_DOUBLE_EQ(mean_abs_diff(a, b), 2.0);
  GridF c(2, 3);
  EXPECT_THROW(mean_abs_diff(a, c), DimensionError);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, UniformIntRange) {
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    int v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
}

TEST(Rng, ForkDecorrelates) {
  Rng a(42);
  Rng child = a.fork();
  // The fork must not replay the parent's stream.
  Rng b(42);
  b.fork();
  EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());  // parent streams stay in sync
  EXPECT_NE(child.uniform(), a.uniform());
}

TEST(Rng, ShufflePermutes) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  hello \t"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \n "), "");
}

TEST(StringUtil, SplitWs) {
  auto t = split_ws("R1  n1   n2\t0.5");
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[0], "R1");
  EXPECT_EQ(t[3], "0.5");
}

TEST(StringUtil, SplitDelim) {
  auto t = split("a,,b", ',');
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[1], "");
}

TEST(StringUtil, StartsWithCi) {
  EXPECT_TRUE(starts_with_ci("MEGohm", "meg"));
  EXPECT_FALSE(starts_with_ci("me", "meg"));
}

TEST(ImageIo, CsvRoundTrip) {
  GridF g(3, 2);
  float v = 0.5f;
  for (float& x : g.data()) x = v += 1.25f;
  const std::string path = std::filesystem::temp_directory_path() / "irf_test_grid.csv";
  write_csv(g, path);
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), "1.75,3\n4.25,5.5\n6.75,8\n");
  std::remove(path.c_str());
}

TEST(ImageIo, PgmWritesHeader) {
  GridF g(2, 2);
  g(0, 0) = 0.0f;
  g(1, 1) = 1.0f;
  const std::string path = std::filesystem::temp_directory_path() / "irf_test.pgm";
  write_pgm(g, path);
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  in >> magic;
  EXPECT_EQ(magic, "P5");
  std::remove(path.c_str());
}

TEST(ScaleConfig, CiDefaults) {
  ScaleConfig c = make_scale_config(Scale::kCi);
  EXPECT_EQ(c.image_size % 16, 0);
  EXPECT_GT(c.num_fake_designs, 0);
  EXPECT_GE(c.num_real_designs, 2);
}

TEST(ScaleConfig, PaperPreset) {
  ScaleConfig c = make_scale_config(Scale::kPaper);
  EXPECT_EQ(c.image_size, 256);
  EXPECT_EQ(c.num_fake_designs, 100);
  EXPECT_EQ(c.num_real_designs, 20);
}

TEST(ScaleConfig, DescribeMentionsScale) {
  ScaleConfig c = make_scale_config(Scale::kCi);
  EXPECT_NE(c.describe().find("scale=ci"), std::string::npos);
}

TEST(Stopwatch, MeasuresNonNegative) {
  Stopwatch sw;
  EXPECT_GE(sw.seconds(), 0.0);
}

TEST(Parse, DoubleFullString) {
  EXPECT_DOUBLE_EQ(try_parse_double("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(try_parse_double("-2e3").value(), -2000.0);
  EXPECT_DOUBLE_EQ(try_parse_double("+.5").value(), 0.5);
  EXPECT_FALSE(try_parse_double("").has_value());
  EXPECT_FALSE(try_parse_double("12abc").has_value());  // stod would return 12
  EXPECT_FALSE(try_parse_double("abc").has_value());
  EXPECT_FALSE(try_parse_double("0x1a").has_value());  // strtod accepts hex
  EXPECT_FALSE(try_parse_double("inf").has_value());
  EXPECT_FALSE(try_parse_double("nan").has_value());
  EXPECT_FALSE(try_parse_double("1e999").has_value());  // overflow
}

TEST(Parse, DoublePrefixReportsConsumed) {
  std::size_t consumed = 0;
  EXPECT_DOUBLE_EQ(try_parse_double_prefix("4.7k", &consumed).value(), 4.7);
  EXPECT_EQ(consumed, 3u);
  EXPECT_FALSE(try_parse_double_prefix("k4.7", &consumed).has_value());
}

TEST(Parse, Int64) {
  EXPECT_EQ(try_parse_int64("-42").value(), -42);
  EXPECT_EQ(try_parse_int64("0").value(), 0);
  EXPECT_FALSE(try_parse_int64("").has_value());
  EXPECT_FALSE(try_parse_int64("12 ").has_value());
  EXPECT_FALSE(try_parse_int64(" 3").has_value());
  EXPECT_FALSE(try_parse_int64("\t7").has_value());
  EXPECT_FALSE(try_parse_int64(" -5").has_value());
  EXPECT_FALSE(try_parse_int64("9223372036854775808").has_value());  // INT64_MAX+1
}

TEST(Parse, Uint64RejectsNegativeWrap) {
  // std::stoull("-5") silently wraps to 18446744073709551611.
  EXPECT_FALSE(try_parse_uint64("-5").has_value());
  EXPECT_EQ(try_parse_uint64("18446744073709551615").value(), UINT64_MAX);
  EXPECT_FALSE(try_parse_uint64("18446744073709551616").has_value());
  EXPECT_FALSE(try_parse_uint64("7seven").has_value());
  // strtoull skips leading blanks, so " -5" used to wrap past the sign check.
  EXPECT_FALSE(try_parse_uint64(" -5").has_value());
  EXPECT_FALSE(try_parse_uint64(" 3").has_value());
  EXPECT_FALSE(try_parse_uint64("\t7").has_value());
}

TEST(ScaleConfig, SeedEnvValidation) {
  ::setenv("IRF_SEED", "77", 1);
  EXPECT_EQ(resolve_scale_from_env().seed, 77u);
  ::setenv("IRF_SEED", "12abc", 1);
  EXPECT_THROW(resolve_scale_from_env(), ConfigError);
  ::setenv("IRF_SEED", "-5", 1);
  EXPECT_THROW(resolve_scale_from_env(), ConfigError);
  ::unsetenv("IRF_SEED");
}

}  // namespace
}  // namespace irf
