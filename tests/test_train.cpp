// Tests for irf::train: samples/views, rotation augmentation, normalization,
// metrics, the curriculum scheduler and the training loop.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "models/unet.hpp"
#include "train/curriculum.hpp"
#include "train/dataset.hpp"
#include "train/metrics.hpp"
#include "train/normalizer.hpp"
#include "train/trainer.hpp"

namespace irf::train {
namespace {

/// Shared tiny design set: built once for the whole test binary because
/// golden solves dominate setup time.
class TrainFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScaleConfig cfg = make_scale_config(Scale::kCi);
    cfg.image_size = 32;
    cfg.num_fake_designs = 3;
    cfg.num_real_designs = 2;
    cfg.seed = 99;
    set_ = std::make_unique<DesignSet>(build_design_set(cfg));
    samples_ = std::make_unique<std::vector<Sample>>(make_samples(set_->train, 2, 32));
  }
  static void TearDownTestSuite() {
    samples_.reset();
    set_.reset();
  }
  static std::unique_ptr<DesignSet> set_;
  static std::unique_ptr<std::vector<Sample>> samples_;
};

std::unique_ptr<DesignSet> TrainFixture::set_;
std::unique_ptr<std::vector<Sample>> TrainFixture::samples_;

TEST_F(TrainFixture, SplitFollowsContestSetup) {
  // 3 fake + 1 real train, 1 real test.
  EXPECT_EQ(set_->train.size(), 4u);
  EXPECT_EQ(set_->test.size(), 1u);
  EXPECT_EQ(set_->test.front().design->kind, pg::DesignKind::kReal);
}

TEST_F(TrainFixture, SampleShapesAndKinds) {
  ASSERT_EQ(samples_->size(), 4u);
  const Sample& s = samples_->front();
  EXPECT_EQ(s.kind, pg::DesignKind::kFake);
  EXPECT_EQ(s.label.height(), 32);
  EXPECT_EQ(s.hier.size(), 21);
  EXPECT_EQ(s.flat.size(), 6);
  EXPECT_GT(s.label.max_value(), 0.0f);
  EXPECT_GT(s.rough_bottom.max_value(), 0.0f);
}

TEST_F(TrainFixture, ViewChannelCounts) {
  const Sample& s = samples_->front();
  EXPECT_EQ(view_channel_count(s, FeatureView::kIccadTriplet), 3);
  EXPECT_EQ(view_channel_count(s, FeatureView::kStructuralFlat), 5);
  EXPECT_EQ(view_channel_count(s, FeatureView::kFusionHier), 21);
  EXPECT_EQ(view_channel_count(s, FeatureView::kFusionNoNum), 17);
  EXPECT_EQ(view_channel_count(s, FeatureView::kFusionFlat), 6);
}

TEST_F(TrainFixture, ViewsExcludeNumericalWhereRequired) {
  const Sample& s = samples_->front();
  for (FeatureView v : {FeatureView::kIccadTriplet, FeatureView::kStructuralFlat,
                        FeatureView::kFusionNoNum}) {
    for (const std::string& name : view_channels(s, v)) {
      EXPECT_EQ(name.rfind("num_ir", 0), std::string::npos)
          << "view " << static_cast<int>(v);
    }
  }
}

TEST_F(TrainFixture, RotationAugmentationFourfold) {
  std::vector<Sample> aug = augment_rotations(*samples_);
  EXPECT_EQ(aug.size(), 4 * samples_->size());
  // Rotating back must reproduce the original label.
  const Sample& rot = aug[1];  // 90 degrees of sample 0
  EXPECT_EQ(rot.rotation_quarter_turns, 1);
  GridF back = rot.label.rotated90(3);
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_FLOAT_EQ(back.data()[i], samples_->front().label.data()[i]);
  }
  // Rotation preserves per-channel mass of current maps.
  EXPECT_NEAR(rot.hier.channels[4].sum(), samples_->front().hier.channels[4].sum(),
              1e-3);
}

TEST_F(TrainFixture, NormalizerBoundsInputs) {
  Normalizer norm = Normalizer::fit(*samples_);
  for (const Sample& s : *samples_) {
    for (FeatureView v : {FeatureView::kFusionHier, FeatureView::kStructuralFlat}) {
      nn::Tensor t = norm.input_tensor(s, v);
      for (float x : t.data()) {
        EXPECT_TRUE(std::isfinite(x));
        EXPECT_LE(std::abs(x), 1.0f + 1e-5f);
      }
    }
  }
}

TEST_F(TrainFixture, LabelTensorRoundTrip) {
  const Sample& s = samples_->front();
  nn::Tensor label = Normalizer::label_tensor(s);
  const std::vector<GridF> volts = Normalizer::prediction_to_volts(label);
  ASSERT_EQ(volts.size(), 1u);
  for (std::size_t i = 0; i < volts[0].size(); ++i) {
    EXPECT_NEAR(volts[0].data()[i], s.label.data()[i], 1e-7f);
  }
}

TEST_F(TrainFixture, PredictVoltsBatchMatchesOneSampleCalls) {
  ASSERT_GE(samples_->size(), 3u);
  const Normalizer norm = Normalizer::fit(*samples_);
  Rng rng(8);
  const int ch = view_channel_count(samples_->front(), FeatureView::kFusionHier);
  auto model = models::make_ir_fusion_net(ch, 4, rng);
  const std::vector<const Sample*> batch = {&(*samples_)[0], &(*samples_)[1],
                                            &(*samples_)[2]};
  const std::vector<GridF> batched =
      predict_volts(*model, batch, FeatureView::kFusionHier, norm);
  ASSERT_EQ(batched.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::vector<GridF> single =
        predict_volts(*model, {batch[i]}, FeatureView::kFusionHier, norm);
    ASSERT_EQ(single.size(), 1u);
    EXPECT_EQ(batched[i].data(), single[0].data()) << "sample " << i;  // exact
  }
}

TEST_F(TrainFixture, TrainingStepAfterPredictVoltsGetsGradients) {
  // predict_volts runs its forward without a tape; the guard must end with
  // the call, so the next training forward records one again.
  const Normalizer norm = Normalizer::fit(*samples_);
  Rng rng(10);
  const Sample& sample = samples_->front();
  const int ch = view_channel_count(sample, FeatureView::kFusionHier);
  auto model = models::make_ir_fusion_net(ch, 4, rng);
  (void)predict_volts(*model, {&sample}, FeatureView::kFusionHier, norm);
  EXPECT_TRUE(nn::grad_enabled());
  model->set_training(true);
  const nn::Tensor pred =
      model->forward(norm.input_tensor(sample, FeatureView::kFusionHier));
  ASSERT_TRUE(pred.requires_grad());
  model->loss(pred, Normalizer::label_tensor(sample)).backward();
  bool any_nonzero = false;
  for (const nn::Tensor& p : model->parameters()) {
    ASSERT_FALSE(p.grad().empty());
    for (float g : p.grad()) any_nonzero = any_nonzero || g != 0.0f;
  }
  EXPECT_TRUE(any_nonzero);
}

TEST_F(TrainFixture, PredictVoltsRejectsMixedShapes) {
  const Normalizer norm = Normalizer::fit(*samples_);
  Rng rng(9);
  const int ch = view_channel_count(samples_->front(), FeatureView::kFusionHier);
  auto model = models::make_ir_fusion_net(ch, 4, rng);
  const Sample large = make_sample(set_->train.front(), 2, 64);
  EXPECT_THROW(predict_volts(*model, {&samples_->front(), &large},
                             FeatureView::kFusionHier, norm),
               DimensionError);
}

TEST(Metrics, PerfectPrediction) {
  GridF g(8, 8, 0.001f);
  g(4, 4) = 0.01f;
  MapMetrics m = evaluate_map(g, g);
  EXPECT_DOUBLE_EQ(m.mae, 0.0);
  EXPECT_DOUBLE_EQ(m.mirde, 0.0);
  EXPECT_DOUBLE_EQ(m.f1, 1.0);
}

TEST(Metrics, KnownErrors) {
  GridF golden(4, 4, 0.0f);
  golden(0, 0) = 1.0f;  // single hotspot
  GridF pred(4, 4, 0.0f);
  pred(0, 1) = 1.0f;  // hotspot displaced
  MapMetrics m = evaluate_map(pred, golden);
  EXPECT_NEAR(m.mae, 2.0 / 16.0, 1e-12);
  EXPECT_DOUBLE_EQ(m.mirde, 0.0);  // same max value
  EXPECT_DOUBLE_EQ(m.f1, 0.0);     // no overlap
}

TEST(Metrics, F1PartialOverlap) {
  GridF golden(2, 2, 0.0f);
  golden(0, 0) = 1.0f;
  golden(0, 1) = 0.95f;
  GridF pred = golden;
  pred(0, 1) = 0.5f;  // miss one hotspot pixel
  MapMetrics m = evaluate_map(pred, golden);
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
  EXPECT_DOUBLE_EQ(m.recall, 0.5);
  EXPECT_NEAR(m.f1, 2.0 * 0.5 / 1.5, 1e-12);
}

TEST(Metrics, AggregateAveragesAndUnits) {
  std::vector<MapMetrics> per = {{0.001, 0.5, 1.0, 0.5, 0.002},
                                 {0.003, 1.0, 1.0, 1.0, 0.004}};
  AggregateMetrics agg = aggregate(per);
  EXPECT_NEAR(agg.mae, 0.002, 1e-12);
  EXPECT_NEAR(agg.mae_1e4(), 20.0, 1e-9);
  EXPECT_NEAR(agg.mirde_1e4(), 30.0, 1e-9);
  EXPECT_EQ(agg.num_designs, 2);
}

TEST(Curriculum, HardFractionRamps) {
  std::vector<Sample> samples(6);
  for (int i = 0; i < 6; ++i) {
    samples[static_cast<std::size_t>(i)].kind =
        i < 4 ? pg::DesignKind::kFake : pg::DesignKind::kReal;
  }
  CurriculumScheduler sched(samples, 10, /*enabled=*/true, Rng(1));
  EXPECT_LT(sched.hard_fraction(0), 0.5);
  EXPECT_DOUBLE_EQ(sched.hard_fraction(9), 1.0);
  // Epoch 0 contains fewer hard samples than the last epoch.
  auto count_hard = [&](const std::vector<int>& idx) {
    int hard = 0;
    for (int i : idx) {
      if (samples[static_cast<std::size_t>(i)].kind == pg::DesignKind::kReal) ++hard;
    }
    return hard;
  };
  CurriculumScheduler sched2(samples, 10, /*enabled=*/true, Rng(1));
  EXPECT_LT(count_hard(sched2.epoch_indices(0)), count_hard(sched2.epoch_indices(9)));
}

TEST(Curriculum, OversamplingFactors) {
  std::vector<Sample> samples(3);
  samples[0].kind = pg::DesignKind::kFake;
  samples[1].kind = pg::DesignKind::kFake;
  samples[2].kind = pg::DesignKind::kReal;
  // Disabled: all samples from epoch 0.
  CurriculumScheduler sched(samples, 1, /*enabled=*/false, Rng(2));
  std::vector<int> idx = sched.epoch_indices(0);
  // fake x2 each + real x5 = 2*2 + 5 = 9.
  EXPECT_EQ(idx.size(), 9u);
}

TEST(Curriculum, DisabledIncludesEverythingImmediately) {
  std::vector<Sample> samples(4);
  samples[3].kind = pg::DesignKind::kReal;
  CurriculumScheduler sched(samples, 5, /*enabled=*/false, Rng(3));
  EXPECT_DOUBLE_EQ(sched.hard_fraction(0), 1.0);
}

TEST_F(TrainFixture, TrainingReducesLoss) {
  Normalizer norm = Normalizer::fit(*samples_);
  Rng rng(5);
  const int ch = view_channel_count(samples_->front(), FeatureView::kFusionHier);
  auto model = models::make_ir_fusion_net(ch, 4, rng);
  TrainOptions opt;
  opt.epochs = 3;
  opt.learning_rate = 2e-3;
  TrainHistory hist = train_model(*model, *samples_, FeatureView::kFusionHier, norm, opt);
  ASSERT_EQ(hist.epoch_loss.size(), 3u);
  EXPECT_LT(hist.epoch_loss.back(), hist.epoch_loss.front());
}

TEST_F(TrainFixture, EvaluateProducesFiniteMetrics) {
  Normalizer norm = Normalizer::fit(*samples_);
  Rng rng(6);
  const int ch = view_channel_count(samples_->front(), FeatureView::kStructuralFlat);
  auto model = models::make_iredge(ch, 4, rng);
  TrainOptions opt;
  opt.epochs = 1;
  train_model(*model, *samples_, FeatureView::kStructuralFlat, norm, opt);
  std::vector<Sample> test = make_samples(set_->test, 2, 32);
  AggregateMetrics m = evaluate_model(*model, test, FeatureView::kStructuralFlat, norm);
  EXPECT_TRUE(std::isfinite(m.mae));
  EXPECT_GE(m.f1, 0.0);
  EXPECT_LE(m.f1, 1.0);
  EXPECT_GT(m.runtime_seconds, 0.0);
  EXPECT_EQ(m.num_designs, 1);
}

}  // namespace
}  // namespace irf::train
