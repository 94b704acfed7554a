// Tests for the additional training machinery: AdamW weight decay and the
// cosine LR schedule.

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
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
