// Tests for the dynamic-IR extension: dataset construction, envelope labels
// versus static drops, and sample plumbing.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/env.hpp"
#include "train/dynamic.hpp"
#include "train/normalizer.hpp"

namespace irf::train {
namespace {

class DynamicFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScaleConfig cfg = make_scale_config(Scale::kCi);
    cfg.image_size = 32;
    cfg.num_fake_designs = 2;
    cfg.num_real_designs = 2;
    cfg.seed = 77;
    DynamicDatasetConfig dyn;
    dyn.transient.timestep = 4e-10;
    dyn.transient.duration = 4e-9;
    dyn.rough_iterations = 2;
    set_ = std::make_unique<DynamicDesignSet>(build_dynamic_design_set(cfg, dyn));
  }
  static void TearDownTestSuite() { set_.reset(); }
  static std::unique_ptr<DynamicDesignSet> set_;
};

std::unique_ptr<DynamicDesignSet> DynamicFixture::set_;

TEST_F(DynamicFixture, SplitAndTransientElements) {
  EXPECT_EQ(set_->train.size(), 3u);
  EXPECT_EQ(set_->test.size(), 1u);
  for (const DynamicDesign& d : set_->train) {
    EXPECT_FALSE(d.design->netlist.capacitors().empty());
    EXPECT_EQ(d.worst_ir_drop.size(),
              static_cast<std::size_t>(d.design->netlist.num_nodes()));
  }
}

TEST_F(DynamicFixture, EnvelopeDominatesStaticDrop) {
  // The transient worst-case envelope can never be below the DC solution's
  // drop (the DC point is part of the window) — check per node.
  const DynamicDesign& d = set_->train.front();
  pg::PgSolution stat = d.solver->solve_golden();
  for (std::size_t n = 0; n < stat.ir_drop.size(); ++n) {
    EXPECT_GE(d.worst_ir_drop[n], stat.ir_drop[n] - 1e-6);
  }
  // And with switching activity it must exceed it somewhere.
  double max_gap = 0.0;
  for (std::size_t n = 0; n < stat.ir_drop.size(); ++n) {
    max_gap = std::max(max_gap, d.worst_ir_drop[n] - stat.ir_drop[n]);
  }
  EXPECT_GT(max_gap, 1e-4);
}

TEST_F(DynamicFixture, SampleShapesAndLabelSemantics) {
  Sample s = make_dynamic_sample(set_->test.front(), 2, 32);
  EXPECT_EQ(s.label.height(), 32);
  EXPECT_EQ(s.hier.size(), 21);
  EXPECT_EQ(s.flat.size(), 6);
  // The dynamic label generally exceeds the static rough basis.
  EXPECT_GT(s.label.max_value(), s.rough_bottom.max_value());
  for (float v : s.label.data()) EXPECT_TRUE(std::isfinite(v));
}

TEST_F(DynamicFixture, SamplesFeedNormalizerAndViews) {
  std::vector<Sample> samples = make_dynamic_samples(set_->train, 2, 32);
  Normalizer norm = Normalizer::fit(samples);
  nn::Tensor t = norm.input_tensor(samples.front(), FeatureView::kFusionHier);
  EXPECT_EQ(t.shape().c, 21);
  for (float v : t.data()) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_LE(std::abs(v), 1.0f + 1e-5f);
  }
}

TEST(DynamicConfig, RejectsBadRoughIterations) {
  DynamicDesign dummy;
  EXPECT_THROW(make_dynamic_sample(dummy, 0, 32), ConfigError);
}

}  // namespace
}  // namespace irf::train
