// Cross-module integration tests: SPICE write -> parse -> solve equivalence,
// generator -> solver -> features -> model end-to-end, PowerRush scoring,
// and a miniature run of the experiment harness entry points.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <set>
#include <sstream>

#include "core/experiments.hpp"
#include "core/pipeline.hpp"
#include "pg/generator.hpp"
#include "pg/solve.hpp"
#include "spice/parser.hpp"
#include "spice/writer.hpp"

namespace irf {
namespace {

ScaleConfig tiny_config() {
  ScaleConfig cfg = make_scale_config(Scale::kCi);
  cfg.image_size = 32;
  cfg.num_fake_designs = 2;
  cfg.num_real_designs = 2;
  cfg.epochs = 2;
  cfg.base_channels = 4;
  cfg.rough_iters = 2;
  cfg.seed = 321;
  return cfg;
}

TEST(Integration, SpiceRoundTripPreservesSolution) {
  // Generate -> write SPICE -> parse -> solve; voltages must match the
  // original design's solution node for node.
  Rng rng(50);
  pg::PgDesign original = pg::generate_fake_design(32, rng, "rt");
  pg::PgSolution sol_a = pg::golden_solve(original);

  const std::string deck = spice::write_string(original.netlist);
  pg::PgDesign reparsed;
  reparsed.name = "rt_reparsed";
  reparsed.kind = original.kind;
  reparsed.vdd = original.vdd;
  reparsed.width_nm = original.width_nm;
  reparsed.height_nm = original.height_nm;
  reparsed.netlist = spice::parse_string(deck);
  pg::PgSolution sol_b = pg::golden_solve(reparsed);

  ASSERT_EQ(original.netlist.num_nodes(), reparsed.netlist.num_nodes());
  for (spice::NodeId id = 0; id < original.netlist.num_nodes(); ++id) {
    const auto other = reparsed.netlist.find_node(original.netlist.node_name(id));
    ASSERT_TRUE(other.has_value());
    EXPECT_NEAR(sol_a.node_voltage[id], sol_b.node_voltage[*other], 1e-9);
  }
}

TEST(Integration, PowerRushScoringImprovesWithIterations) {
  ScaleConfig cfg = tiny_config();
  train::DesignSet set = train::build_design_set(cfg);
  const train::AggregateMetrics m1 = core::evaluate_powerrush(set.test, 1, 32);
  const train::AggregateMetrics m8 = core::evaluate_powerrush(set.test, 8, 32);
  EXPECT_LT(m8.mae, m1.mae);
  EXPECT_GE(m8.f1, m1.f1 - 1e-9);
}

TEST(Integration, Table1HarnessTinyRun) {
  ScaleConfig cfg = tiny_config();
  train::DesignSet set = train::build_design_set(cfg);
  std::ostringstream log;
  std::vector<core::Table1Row> rows = core::run_table1(cfg, set, log);
  ASSERT_EQ(rows.size(), 7u);
  EXPECT_EQ(rows.back().method, "IR-Fusion");
  for (const core::Table1Row& r : rows) {
    EXPECT_TRUE(std::isfinite(r.mae)) << r.method;
    EXPECT_GE(r.f1, 0.0);
    EXPECT_LE(r.f1, 1.0);
    EXPECT_GT(r.runtime, 0.0);
  }
  // (Runtime ordering — fusion pays the numerical stage — is only
  // meaningful at bench scale; here we just require positive runtimes.)
  EXPECT_NE(log.str().find("TABLE I"), std::string::npos);
}

TEST(Integration, TradeoffHarnessTinyRun) {
  ScaleConfig cfg = tiny_config();
  cfg.epochs = 1;
  train::DesignSet set = train::build_design_set(cfg);
  std::ostringstream log;
  std::vector<core::TradeoffPoint> pts = core::run_tradeoff(cfg, set, 2, log);
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0].iterations, 1);
  EXPECT_LE(pts[1].powerrush_mae, pts[0].powerrush_mae + 1e-9);
  for (const core::TradeoffPoint& p : pts) {
    EXPECT_TRUE(std::isfinite(p.fusion_mae));
    EXPECT_TRUE(std::isfinite(p.fusion_f1));
  }
}

TEST(Integration, AblationHarnessTinyRun) {
  ScaleConfig cfg = tiny_config();
  cfg.epochs = 1;
  train::DesignSet set = train::build_design_set(cfg);
  std::ostringstream log;
  std::vector<core::AblationRow> rows = core::run_ablation(cfg, set, log);
  ASSERT_EQ(rows.size(), 6u);
  std::set<std::string> removed;
  for (const core::AblationRow& r : rows) {
    removed.insert(r.removed);
    EXPECT_TRUE(std::isfinite(r.mae_increase));
    EXPECT_TRUE(std::isfinite(r.f1_decrease));
  }
  EXPECT_TRUE(removed.count("Num. Solu."));
  EXPECT_TRUE(removed.count("Curr. Lear."));
  // The numerical solution is by far the most important ingredient: its
  // removal must cause the largest MAE increase even at tiny scale.
  double num_solu_increase = 0.0, max_other = 0.0;
  for (const core::AblationRow& r : rows) {
    if (r.removed == "Num. Solu.") {
      num_solu_increase = r.mae_increase;
    } else {
      max_other = std::max(max_other, r.mae_increase);
    }
  }
  EXPECT_GT(num_solu_increase, max_other);
}

TEST(Integration, Fig6HarnessWritesMaps) {
  ScaleConfig cfg = tiny_config();
  cfg.epochs = 1;
  train::DesignSet set = train::build_design_set(cfg);
  std::ostringstream log;
  const std::string dir =
      (std::filesystem::temp_directory_path() / "irf_fig6_test").string();
  core::Fig6Result result = core::run_fig6(cfg, set, dir, log);
  EXPECT_FALSE(result.design_name.empty());
  EXPECT_EQ(result.written_files.size(), 6u);
  for (const std::string& f : result.written_files) {
    EXPECT_TRUE(std::filesystem::exists(f)) << f;
  }
  std::filesystem::remove_all(dir);
}

TEST(Integration, RealDesignsShiftDistribution) {
  // The curriculum's premise: the real family differs structurally from the
  // fake family — damaged rails (1000x segments), perimeter-only pads and
  // resistance spread, none of which fake designs have.
  Rng rng(60);
  pg::PgDesign fake = pg::generate_fake_design(32, rng, "f");
  pg::PgDesign real = pg::generate_real_design(32, rng, "r");

  auto count_damaged = [](const pg::PgDesign& d) {
    int damaged = 0;
    for (const spice::Resistor& r : d.netlist.resistors()) {
      if (r.ohms > 100.0) ++damaged;  // 1000x a sub-ohm rail segment
    }
    return damaged;
  };
  EXPECT_EQ(count_damaged(fake), 0);
  EXPECT_GT(count_damaged(real), 0);

  // Real pads hug the die perimeter; the fake pad array has interior pads.
  auto pad_positions = [](const pg::PgDesign& d) {
    std::vector<std::pair<double, double>> out;
    for (spice::NodeId pad : d.netlist.pad_nodes()) {
      const auto& c = d.netlist.node_coords(pad);
      out.emplace_back(static_cast<double>(c->x_nm) / d.width_nm,
                       static_cast<double>(c->y_nm) / d.height_nm);
    }
    return out;
  };
  bool fake_has_interior = false;
  for (const auto& [fx, fy] : pad_positions(fake)) {
    if (fx > 0.2 && fx < 0.8 && fy > 0.2 && fy < 0.8) fake_has_interior = true;
  }
  EXPECT_TRUE(fake_has_interior);
  for (const auto& [fx, fy] : pad_positions(real)) {
    const bool near_edge = fx < 0.3 || fx > 0.7 || fy < 0.3 || fy > 0.7;
    EXPECT_TRUE(near_edge) << "real pad at (" << fx << "," << fy << ")";
  }
}

}  // namespace
}  // namespace irf
