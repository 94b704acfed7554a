// Tests for the additional training machinery: AdamW weight decay, cosine
// LR schedule, and dropout.

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/module.hpp"
#include "nn/ops.hpp"
#include "nn/optimizer.hpp"
#include "models/unet.hpp"
#include "train/trainer.hpp"

namespace irf {
namespace {

TEST(AdamW, WeightDecayShrinksUnusedDirections) {
  // With pure decay (gradient 0 via a loss independent of one parameter),
  // the decoupled term must still shrink the weights.
  nn::Tensor used = nn::Tensor::full({1, 1, 1, 1}, 1.0f, true);
  nn::Tensor unused = nn::Tensor::full({1, 1, 1, 1}, 1.0f, true);
  nn::Adam adam({used, unused}, 0.1, 0.9, 0.999, 1e-8, /*weight_decay=*/0.5);
  for (int step = 0; step < 10; ++step) {
    nn::Tensor loss = nn::mse_loss(used, nn::Tensor::zeros({1, 1, 1, 1}));
    adam.zero_grad();
    loss.backward();
    // `unused` has an (empty) grad -> skipped entirely; touch it so decay
    // applies: give it a zero grad buffer.
    unused.mutable_grad();
    adam.step();
  }
  EXPECT_LT(used.data()[0], 1.0f);
  EXPECT_LT(unused.data()[0], 1.0f);      // decay alone shrank it
  EXPECT_GT(unused.data()[0], 0.5f);      // (1 - 0.1*0.5)^10 ~ 0.60
}

TEST(Dropout, EvalIsIdentityTrainZeroes) {
  nn::Dropout drop(0.5, 7);
  nn::Tensor x = nn::Tensor::full({1, 1, 8, 8}, 1.0f);
  drop.set_training(false);
  nn::Tensor eval_out = drop.forward(x);
  for (float v : eval_out.data()) EXPECT_FLOAT_EQ(v, 1.0f);

  drop.set_training(true);
  nn::Tensor train_out = drop.forward(x);
  int zeros = 0;
  for (float v : train_out.data()) {
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(v, 2.0f);  // inverted scaling 1/(1-0.5)
    }
  }
  EXPECT_GT(zeros, 8);   // p=0.5 on 64 values
  EXPECT_LT(zeros, 56);
}

TEST(Dropout, GradientFlowsThroughKeptUnits) {
  nn::Dropout drop(0.3, 9);
  drop.set_training(true);
  nn::Tensor x = nn::Tensor::full({1, 1, 4, 4}, 1.0f, true);
  nn::Tensor y = drop.forward(x);
  nn::Tensor loss = nn::mse_loss(y, nn::Tensor::zeros({1, 1, 4, 4}));
  loss.backward();
  // Dropped units get zero grad; kept units get non-zero grad.
  for (std::size_t i = 0; i < x.data().size(); ++i) {
    if (y.data()[i] == 0.0f) {
      EXPECT_FLOAT_EQ(x.grad()[i], 0.0f);
    } else {
      EXPECT_NE(x.grad()[i], 0.0f);
    }
  }
}

TEST(Dropout, RejectsBadProbability) {
  EXPECT_THROW(nn::Dropout(1.0), ConfigError);
  EXPECT_THROW(nn::Dropout(-0.1), ConfigError);
}

TEST(Trainer, OnEpochCallbackAndCosineDecayRun) {
  // A 1-sample, 3-epoch run exercising the cosine schedule; the history
  // carries one finite mean loss per epoch.
  Rng rng(11);
  train::Sample s;
  s.design_name = "cb";
  s.kind = pg::DesignKind::kFake;
  s.label = GridF(16, 16, 0.001f);
  s.rough_bottom = GridF(16, 16, 0.0f);
  s.flat.channels = {GridF(16, 16, 1.0f), GridF(16, 16, 0.5f), GridF(16, 16, 0.25f)};
  s.flat.names = {"current_all", "eff_dist", "pdn_density_all"};

  auto model = models::make_iredge(3, 4, rng);
  train::Normalizer norm = train::Normalizer::fit({s});
  train::TrainOptions opt;
  opt.epochs = 3;
  opt.lr_min_ratio = 0.2;
  opt.curriculum = false;
  train::TrainHistory hist = train::train_model(
      *model, {s}, train::FeatureView::kIccadTriplet, norm, opt);
  EXPECT_EQ(hist.epoch_loss.size(), 3u);
  for (double loss : hist.epoch_loss) EXPECT_TRUE(std::isfinite(loss));
}

TEST(TrainOptionsValidation, BadLrRatioRejected) {
  train::TrainOptions opt;
  opt.lr_min_ratio = 0.0;
  std::vector<train::Sample> samples(1);
  samples[0].label = GridF(16, 16, 0.0f);
  // The option check fires before anything touches the samples/model.
  Rng rng(3);
  auto model = models::make_iredge(3, 4, rng);
  train::Normalizer norm;
  EXPECT_THROW(
      train::train_model(*model, samples, train::FeatureView::kIccadTriplet, norm, opt),
      ConfigError);
}

}  // namespace
}  // namespace irf
