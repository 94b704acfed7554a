// Tests for irf::features: scattering/rasterization and the hierarchical
// numerical-structural feature extractor of Section III-C.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "features/extractor.hpp"
#include "features/scatter.hpp"
#include "par/par.hpp"
#include "pg/generator.hpp"
#include "pg/solve.hpp"

namespace irf::features {
namespace {

TEST(Scatter, AverageModeSinglePoint) {
  GridF g = scatter_to_grid({{2.0, 3.0, 5.0}}, 8, 8, ScatterMode::kAverage);
  EXPECT_FLOAT_EQ(g(3, 2), 5.0f);
  // Diffusion fill propagates the lone value everywhere.
  EXPECT_FLOAT_EQ(g(7, 7), 5.0f);
}

TEST(Scatter, SumModeConservesMass) {
  std::vector<SamplePoint> pts{{1.3, 2.7, 2.0}, {4.0, 4.0, 3.0}, {6.9, 0.1, 1.5}};
  GridF g = scatter_to_grid(pts, 8, 8, ScatterMode::kSum);
  EXPECT_NEAR(g.sum(), 6.5, 1e-5);
}

TEST(Scatter, AverageOfCoincidentPoints) {
  GridF g = scatter_to_grid({{2.0, 2.0, 1.0}, {2.0, 2.0, 3.0}}, 5, 5,
                            ScatterMode::kAverage);
  EXPECT_FLOAT_EQ(g(2, 2), 2.0f);
}

TEST(Scatter, OutOfRangePointsClampToBorder) {
  GridF g = scatter_to_grid({{-5.0, -5.0, 7.0}}, 4, 4, ScatterMode::kAverage);
  EXPECT_FLOAT_EQ(g(0, 0), 7.0f);
}

TEST(Scatter, EmptyPointsGiveZeros) {
  GridF g = scatter_to_grid({}, 4, 4, ScatterMode::kAverage);
  for (float v : g.data()) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(Rasterize, HorizontalSegmentMass) {
  GridF g(8, 8, 0.0f);
  rasterize_segment(g, 1.0, 3.0, 6.0, 3.0, 10.0);
  EXPECT_NEAR(g.sum(), 10.0, 1e-4);
  // All mass on row 3.
  for (int x = 1; x <= 6; ++x) EXPECT_GT(g(3, x), 0.0f);
  EXPECT_FLOAT_EQ(g(2, 3), 0.0f);
}

TEST(Rasterize, ZeroLengthSegment) {
  GridF g(4, 4, 0.0f);
  rasterize_segment(g, 2.0, 2.0, 2.0, 2.0, 5.0);
  EXPECT_NEAR(g.sum(), 5.0, 1e-5);
}

class FeatureExtraction : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(21);
    design_ = pg::generate_fake_design(32, rng, "feat");
    solver_ = std::make_unique<pg::PgSolver>(design_);
    golden_ = solver_->solve_golden();
    rough_ = solver_->solve_rough(3);
  }
  pg::PgDesign design_;
  std::unique_ptr<pg::PgSolver> solver_;
  pg::PgSolution golden_;
  pg::PgSolution rough_;
};

TEST_F(FeatureExtraction, HierarchicalChannelInventory) {
  FeatureOptions opts;
  opts.image_size = 32;
  FeatureStack stack = extract_features(design_, &rough_, opts);
  // 4 layers: numerical x4 + current x4 + density x4 + resistance x4 +
  // sp-resistance x4 + 1 effective distance = 21 channels.
  EXPECT_EQ(stack.size(), 21);
  EXPECT_EQ(stack.channels.size(), stack.names.size());
  int num_numerical = 0;
  for (const std::string& n : stack.names) {
    if (n.rfind("num_ir", 0) == 0) ++num_numerical;
  }
  EXPECT_EQ(num_numerical, 4);
  for (const GridF& c : stack.channels) {
    EXPECT_EQ(c.height(), 32);
    EXPECT_EQ(c.width(), 32);
    for (float v : c.data()) EXPECT_TRUE(std::isfinite(v));
  }
}

TEST_F(FeatureExtraction, FlatChannelInventory) {
  FeatureOptions opts;
  opts.image_size = 32;
  opts.hierarchical = false;
  FeatureStack stack = extract_features(design_, &rough_, opts);
  // num_ir_bottom + current_all + eff_dist + pdn_density_all +
  // resistance_all + sp_resistance_all = 6.
  EXPECT_EQ(stack.size(), 6);
  EXPECT_NE(std::find(stack.names.begin(), stack.names.end(), "num_ir_bottom"),
            stack.names.end());
  EXPECT_NE(std::find(stack.names.begin(), stack.names.end(), "eff_dist"),
            stack.names.end());
}

TEST_F(FeatureExtraction, NoNumericalWithoutSolution) {
  FeatureOptions opts;
  opts.image_size = 32;
  opts.include_numerical = false;
  FeatureStack stack = extract_features(design_, nullptr, opts);
  for (const std::string& n : stack.names) EXPECT_NE(n.rfind("num_ir", 0), 0u);
  // Requesting numerical maps with no solution must throw.
  opts.include_numerical = true;
  EXPECT_THROW(extract_features(design_, nullptr, opts), ConfigError);
}

TEST_F(FeatureExtraction, LabelMapMatchesWorstDrop) {
  GridF label = label_map(design_, golden_, 32);
  double worst_node = 0.0;
  for (double v : golden_.ir_drop) worst_node = std::max(worst_node, v);
  // Pixel averaging can smooth the exact peak, but it must be close.
  EXPECT_NEAR(label.max_value(), worst_node, 0.35 * worst_node);
  EXPECT_GE(label.min_value(), -1e-6f);
}

TEST_F(FeatureExtraction, NumericalMapApproachesLabelWithIterations) {
  GridF label = label_map(design_, golden_, 32);
  GridF rough1 = label_map(design_, solver_->solve_rough(1), 32);
  GridF rough6 = label_map(design_, solver_->solve_rough(6), 32);
  EXPECT_LT(mean_abs_diff(rough6, label), mean_abs_diff(rough1, label));
}

TEST_F(FeatureExtraction, EffectiveDistanceLowNearPads) {
  FeatureOptions opts;
  opts.image_size = 32;
  opts.hierarchical = false;
  FeatureStack stack = extract_features(design_, &rough_, opts);
  const GridF* eff = nullptr;
  for (int c = 0; c < stack.size(); ++c) {
    if (stack.names[static_cast<std::size_t>(c)] == "eff_dist") {
      eff = &stack.channels[static_cast<std::size_t>(c)];
    }
  }
  ASSERT_NE(eff, nullptr);
  // Effective distance must vary and be positive.
  EXPECT_GT(eff->max_value(), eff->min_value());
  EXPECT_GE(eff->min_value(), 0.0f);
}

TEST_F(FeatureExtraction, ShortestPathResistanceProperties) {
  std::vector<double> spr = shortest_path_resistance(design_);
  for (spice::NodeId pad : design_.netlist.pad_nodes()) {
    EXPECT_DOUBLE_EQ(spr[static_cast<std::size_t>(pad)], 0.0);
  }
  for (double v : spr) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0);
  }
  // Triangle-ish sanity: any node's distance is at most a neighbour's plus
  // the wire between them, in both directions over each resistor.
  for (const spice::Resistor& r : design_.netlist.resistors()) {
    if (r.a == spice::kGround || r.b == spice::kGround) continue;
    const std::size_t a = static_cast<std::size_t>(r.a);
    const std::size_t b = static_cast<std::size_t>(r.b);
    EXPECT_LE(spr[a], spr[b] + r.ohms + 1e-9);
    EXPECT_LE(spr[b], spr[a] + r.ohms + 1e-9);
  }
}

TEST_F(FeatureExtraction, CurrentMapsScaleWithLayerConductance) {
  FeatureOptions opts;
  opts.image_size = 32;
  FeatureStack stack = extract_features(design_, &rough_, opts);
  double total_load = 0.0;
  for (const spice::CurrentSource& i : design_.netlist.current_sources()) {
    total_load += i.amps;
  }
  double mapped = 0.0;
  for (int c = 0; c < stack.size(); ++c) {
    if (stack.names[static_cast<std::size_t>(c)].rfind("current_", 0) == 0) {
      mapped += stack.channels[static_cast<std::size_t>(c)].sum();
    }
  }
  // Per-layer allocation shares sum to 1, so total mass is conserved.
  EXPECT_NEAR(mapped, total_load, 1e-6 * std::max(total_load, 1.0));
}

TEST_F(FeatureExtraction, TinyImageRejected) {
  FeatureOptions opts;
  opts.image_size = 4;
  EXPECT_THROW(extract_features(design_, &rough_, opts), DimensionError);
}

TEST(PinnedBits, FeatureStacksOfAFixedRealDesign) {
  // Pins the exact fp32 bits of both feature stacks, and the fp64 bits of the
  // pad Dijkstra, on the design the solver pin uses. Rewrites of the graph
  // walks (pad order, adjacency order, reachability) must leave these
  // constants unchanged; they hold for any pool width.
  Rng rng(2025);
  const pg::PgDesign design = pg::generate_real_design(32, rng, "pinned");
  const pg::PgSolution rough = pg::PgSolver(design).solve_rough(3);
  const int saved_threads = par::num_threads();
  for (int threads : {1, 4}) {
    SCOPED_TRACE("pool width " + std::to_string(threads));
    par::set_num_threads(threads);
    Fnv1a64 stacks;
    for (bool hierarchical : {true, false}) {
      FeatureOptions opts;
      opts.image_size = 32;
      opts.hierarchical = hierarchical;
      const FeatureStack stack = extract_features(design, &rough, opts);
      for (const GridF& channel : stack.channels) {
        stacks.update(channel.data().data(), channel.size() * sizeof(float));
      }
    }
    EXPECT_EQ(stacks.value(), 0x3299e5983c236de3ull);
    const std::vector<double> spr = shortest_path_resistance(design);
    EXPECT_EQ(fnv1a64(spr.data(), spr.size() * sizeof(double)), 0x1fd6a2cf3e4f91c7ull);
  }
  par::set_num_threads(saved_threads);
}

}  // namespace
}  // namespace irf::features
