// Tests for the IrFusionPipeline facade — config validation, view mapping,
// fit/analyze/evaluate lifecycle, and the core fusion claim at tiny scale:
// refinement must not destroy the rough solution's accuracy, and the
// numerical head start must show up in the features.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "core/pipeline.hpp"
#include "features/extractor.hpp"
#include "par/par.hpp"
#include "train/metrics.hpp"

namespace irf::core {
namespace {

ScaleConfig tiny_config() {
  ScaleConfig cfg = make_scale_config(Scale::kCi);
  cfg.image_size = 32;
  cfg.num_fake_designs = 3;
  cfg.num_real_designs = 2;
  cfg.epochs = 3;
  cfg.base_channels = 4;
  cfg.seed = 123;
  return cfg;
}

PipelineConfig tiny_pipeline_config() {
  PipelineConfig pc;
  pc.image_size = 32;
  pc.rough_iterations = 3;
  pc.base_channels = 4;
  pc.epochs = 3;
  pc.seed = 5;
  return pc;
}

class PipelineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    set_ = std::make_unique<train::DesignSet>(build_designs());
  }
  static void TearDownTestSuite() { set_.reset(); }
  static train::DesignSet build_designs() { return train::build_design_set(tiny_config()); }
  static std::unique_ptr<train::DesignSet> set_;
};

std::unique_ptr<train::DesignSet> PipelineFixture::set_;

TEST(PipelineConfigValidation, RejectsBadGeometry) {
  PipelineConfig pc = tiny_pipeline_config();
  pc.image_size = 30;  // not divisible by 16
  EXPECT_THROW(IrFusionPipeline{pc}, ConfigError);
  pc = tiny_pipeline_config();
  pc.rough_iterations = 0;
  EXPECT_THROW(IrFusionPipeline{pc}, ConfigError);
}

TEST(PipelineViews, AblationFlagsMapToViews) {
  PipelineConfig pc = tiny_pipeline_config();
  EXPECT_EQ(IrFusionPipeline(pc).view(), train::FeatureView::kFusionHier);
  pc.use_numerical = false;
  EXPECT_EQ(IrFusionPipeline(pc).view(), train::FeatureView::kFusionNoNum);
  pc.use_hierarchical = false;
  EXPECT_EQ(IrFusionPipeline(pc).view(), train::FeatureView::kStructuralFlat);
  pc.use_numerical = true;
  EXPECT_EQ(IrFusionPipeline(pc).view(), train::FeatureView::kFusionFlat);
}

TEST(PipelineLifecycle, UnfittedCallsThrow) {
  IrFusionPipeline pipeline(tiny_pipeline_config());
  EXPECT_FALSE(pipeline.is_fitted());
  Rng rng(1);
  pg::PgDesign d = pg::generate_fake_design(32, rng, "x");
  EXPECT_THROW(pipeline.analyze(d), ConfigError);
}

TEST_F(PipelineFixture, FitEvaluateAnalyze) {
  IrFusionPipeline pipeline(tiny_pipeline_config());
  train::TrainHistory hist = pipeline.fit(set_->train);
  EXPECT_TRUE(pipeline.is_fitted());
  EXPECT_EQ(hist.epoch_loss.size(), 3u);
  EXPECT_LT(hist.epoch_loss.back(), hist.epoch_loss.front());

  train::AggregateMetrics m = pipeline.evaluate(set_->test);
  EXPECT_TRUE(std::isfinite(m.mae));
  EXPECT_GT(m.runtime_seconds, 0.0);

  // analyze() must agree with the evaluate path on the same design.
  GridF map = pipeline.analyze(*set_->test.front().design);
  EXPECT_EQ(map.height(), 32);
  EXPECT_GT(map.max_value(), 0.0f);
  for (float v : map.data()) EXPECT_TRUE(std::isfinite(v));
}

TEST_F(PipelineFixture, FusionBeatsNoNumericalAblationAtTinyScale) {
  // The central claim of the paper in miniature: with the numerical rough
  // solution among the inputs, the refined prediction tracks the golden map
  // much more closely than the same model without it.
  PipelineConfig with_num = tiny_pipeline_config();
  IrFusionPipeline fusion(with_num);
  fusion.fit(set_->train);
  const train::AggregateMetrics m_fusion = fusion.evaluate(set_->test);

  PipelineConfig without = tiny_pipeline_config();
  without.use_numerical = false;
  IrFusionPipeline no_num(without);
  no_num.fit(set_->train);
  const train::AggregateMetrics m_no_num = no_num.evaluate(set_->test);

  EXPECT_LT(m_fusion.mae, m_no_num.mae);
}

TEST_F(PipelineFixture, MoreRoughIterationsDoNotHurtFeatures) {
  // The numerical feature itself improves monotonically; checked on the
  // rough bottom map that feeds the model.
  const train::PreparedDesign& d = set_->test.front();
  train::Sample s1 = train::make_sample(d, 1, 32);
  train::Sample s8 = train::make_sample(d, 8, 32);
  EXPECT_LT(mean_abs_diff(s8.rough_bottom, s8.label),
            mean_abs_diff(s1.rough_bottom, s1.label));
}

TEST_F(PipelineFixture, DiagnosticsDecomposePrediction) {
  IrFusionPipeline pipeline(tiny_pipeline_config());
  pipeline.fit(set_->train);
  const pg::PgDesign& design = *set_->test.front().design;
  auto diag = pipeline.analyze_with_diagnostics(design);
  EXPECT_EQ(diag.rough_iterations, 3);
  EXPECT_GT(diag.solve_seconds, 0.0);
  EXPECT_GT(diag.inference_seconds, 0.0);
  ASSERT_TRUE(diag.prediction.same_shape(diag.rough));
  // correction + rough == prediction, exactly.
  for (std::size_t i = 0; i < diag.prediction.size(); ++i) {
    EXPECT_FLOAT_EQ(diag.rough.data()[i] + diag.correction.data()[i],
                    diag.prediction.data()[i]);
  }
  // And analyze() returns the same prediction.
  GridF direct = pipeline.analyze(design);
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_FLOAT_EQ(direct.data()[i], diag.prediction.data()[i]);
  }
}

TEST_F(PipelineFixture, EvaluateRejectsEmpty) {
  IrFusionPipeline pipeline(tiny_pipeline_config());
  EXPECT_THROW(pipeline.fit({}), ConfigError);
}

/// FNV-1a over every parameter, then every buffer, in registration order.
std::uint64_t weights_bits(models::IrModel& model) {
  Fnv1a64 h;
  for (const nn::Tensor& p : model.parameters()) {
    h.update(p.data().data(), p.data().size() * sizeof(float));
  }
  for (const std::vector<float>* b : model.buffers()) {
    h.update(b->data(), b->size() * sizeof(float));
  }
  return h.value();
}

TEST(PinnedBits, FitAndAnalyzeOfAFixedDataset) {
  // Pins the exact fp32 bits of a fit at the training defaults (curriculum,
  // augmentation and gradient clipping all active) and of one analyze()
  // map. Training rewrites must leave these constants unchanged; they hold
  // for any pool width because every reduction has a fixed chunk order.
  const train::DesignSet set = train::build_design_set(tiny_config());
  const int saved_threads = par::num_threads();
  for (int threads : {1, 4}) {
    SCOPED_TRACE("pool width " + std::to_string(threads));
    par::set_num_threads(threads);
    IrFusionPipeline pipeline(tiny_pipeline_config());
    pipeline.fit(set.train);
    const GridF map = pipeline.analyze(*set.test.front().design);
    EXPECT_EQ(weights_bits(pipeline.model()), 0xc7dd3a2aa46dafbdull);
    EXPECT_EQ(fnv1a64(map.data().data(), map.size() * sizeof(float)), 0xdb6624833f46b92dull);
  }
  par::set_num_threads(saved_threads);
}

}  // namespace
}  // namespace irf::core
