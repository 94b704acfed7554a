// Tests for the model zoo: blocks (Inception, CBAM, attention gate) and the
// seven evaluated architectures — shape contracts, parameter wiring, a
// backward pass through every model, and a tiny overfit run.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "models/blocks.hpp"
#include "models/irpnet.hpp"
#include "models/unet.hpp"
#include "nn/optimizer.hpp"

namespace irf::models {
namespace {

using nn::Shape;
using nn::Tensor;

Tensor random_input(Shape s, Rng& rng) {
  std::vector<float> data(static_cast<std::size_t>(s.numel()));
  for (float& v : data) v = static_cast<float>(rng.normal(0.0, 0.5));
  return Tensor::from_data(s, std::move(data));
}

TEST(Blocks, DoubleConvShape) {
  Rng rng(1);
  DoubleConv dc(3, 8, rng);
  Tensor y = dc.forward(Tensor::zeros({1, 3, 8, 8}));
  EXPECT_EQ(y.shape(), (Shape{1, 8, 8, 8}));
}

class InceptionKindTest : public ::testing::TestWithParam<InceptionKind> {};

TEST_P(InceptionKindTest, OutputShapeAndGradFlow) {
  Rng rng(2);
  Inception block(GetParam(), 6, 8, rng);
  Tensor x = random_input({1, 6, 8, 8}, rng);
  Tensor y = block.forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 8, 8, 8}));
  Tensor loss = nn::mse_loss(y, Tensor::zeros(y.shape()));
  loss.backward();
  // Every parameter must receive a gradient (all branches wired in).
  for (const Tensor& p : block.parameters()) {
    ASSERT_FALSE(p.grad().empty());
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, InceptionKindTest,
                         ::testing::Values(InceptionKind::kA, InceptionKind::kB,
                                           InceptionKind::kC));

TEST(Blocks, InceptionRejectsIndivisibleChannels) {
  Rng rng(3);
  EXPECT_THROW(Inception(InceptionKind::kA, 4, 6, rng), ConfigError);
}

TEST(Blocks, ChannelAttentionBounds) {
  Rng rng(4);
  ChannelAttention ca(8, 4, rng);
  Tensor x = random_input({2, 8, 4, 4}, rng);
  Tensor w = ca.forward(x);
  EXPECT_EQ(w.shape(), (Shape{2, 8, 1, 1}));
  for (float v : w.data()) {
    EXPECT_GT(v, 0.0f);
    EXPECT_LT(v, 1.0f);
  }
}

TEST(Blocks, SpatialAttentionBounds) {
  Rng rng(5);
  SpatialAttention sa(rng);
  Tensor x = random_input({1, 8, 6, 6}, rng);
  Tensor w = sa.forward(x);
  EXPECT_EQ(w.shape(), (Shape{1, 1, 6, 6}));
  for (float v : w.data()) {
    EXPECT_GT(v, 0.0f);
    EXPECT_LT(v, 1.0f);
  }
}

TEST(Blocks, CbamPreservesShapeAndAttenuates) {
  Rng rng(6);
  Cbam cbam(8, rng);
  Tensor x = random_input({1, 8, 4, 4}, rng);
  Tensor y = cbam.forward(x);
  EXPECT_EQ(y.shape(), x.shape());
  // Attention weights are in (0,1), so magnitudes cannot grow.
  for (std::size_t i = 0; i < x.data().size(); ++i) {
    EXPECT_LE(std::abs(y.data()[i]), std::abs(x.data()[i]) + 1e-6f);
  }
}

TEST(Blocks, AttentionGateShape) {
  Rng rng(7);
  AttentionGate gate(8, 8, 4, rng);
  Tensor g = random_input({1, 8, 4, 4}, rng);
  Tensor s = random_input({1, 8, 4, 4}, rng);
  Tensor y = gate.forward(g, s);
  EXPECT_EQ(y.shape(), s.shape());
}

struct ZooCase {
  const char* label;
  std::function<std::unique_ptr<IrModel>(int, int, Rng&)> make;
  int in_channels;
};

class ModelZooTest : public ::testing::TestWithParam<int> {};

std::vector<ZooCase> zoo_cases() {
  return {
      {"IREDGe", [](int c, int b, Rng& r) { return make_iredge(c, b, r); }, 3},
      {"MAVIREC", [](int c, int b, Rng& r) { return make_mavirec(c, b, r); }, 5},
      {"IRPnet", [](int c, int b, Rng& r) { return make_irpnet(c, b, r); }, 5},
      {"PGAU", [](int c, int b, Rng& r) { return make_pgau(c, b, r); }, 5},
      {"MAUnet", [](int c, int b, Rng& r) { return make_maunet(c, b, r); }, 5},
      {"ContestWinner",
       [](int c, int b, Rng& r) { return make_contest_winner(c, b, r); }, 5},
      {"IR-Fusion", [](int c, int b, Rng& r) { return make_ir_fusion_net(c, b, r); }, 21},
  };
}

TEST(ModelZoo, ForwardBackwardAllModels) {
  Rng rng(8);
  for (const ZooCase& zc : zoo_cases()) {
    SCOPED_TRACE(zc.label);
    std::unique_ptr<IrModel> model = zc.make(zc.in_channels, 4, rng);
    EXPECT_EQ(model->in_channels(), zc.in_channels);
    EXPECT_GT(model->num_parameters(), 0);
    Tensor x = random_input({1, zc.in_channels, 16, 16}, rng);
    model->set_training(true);
    Tensor y = model->forward(x);
    EXPECT_EQ(y.shape(), (Shape{1, 1, 16, 16}));
    Tensor loss = model->loss(y, Tensor::zeros(y.shape()));
    EXPECT_TRUE(std::isfinite(loss.scalar()));
    loss.backward();
    int with_grad = 0;
    for (const Tensor& p : model->parameters()) {
      if (!p.grad().empty()) ++with_grad;
    }
    EXPECT_GT(with_grad, 0);
  }
}

TEST(ModelZoo, IrFusionEveryParameterReceivesGradient) {
  // Inception branches, attention gates, CBAM and the head must all be wired
  // into the graph: a single backward pass must touch every parameter.
  Rng rng(21);
  auto model = make_ir_fusion_net(9, 4, rng);
  model->set_training(true);
  Tensor x = random_input({1, 9, 16, 16}, rng);
  Tensor target = random_input({1, 1, 16, 16}, rng);
  Tensor loss = model->loss(model->forward(x), target);
  loss.backward();
  std::size_t idx = 0;
  for (const Tensor& p : model->parameters()) {
    EXPECT_FALSE(p.grad().empty()) << "parameter " << idx << " got no gradient";
    ++idx;
  }
}

TEST(ModelZoo, EvalModeIsDeterministic) {
  Rng rng(22);
  auto model = make_maunet(5, 4, rng);
  model->set_training(false);
  Tensor x = random_input({1, 5, 16, 16}, rng);
  Tensor a = model->forward(x);
  Tensor b = model->forward(x);
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    EXPECT_FLOAT_EQ(a.data()[i], b.data()[i]);
  }
}

TEST(ModelZoo, NoGradForwardIsBitIdenticalToTapedForward) {
  // The guard drops the tape and BatchNorm's cache, never a value. The head
  // starts at zero, so give it weights to make the output depend on them.
  Rng rng(23);
  auto model = make_ir_fusion_net(5, 4, rng);
  model->set_training(false);
  for (Tensor p : model->parameters()) {
    for (float& v : p.data()) {
      if (v == 0.0f) v = static_cast<float>(rng.normal(0.0, 0.1));
    }
  }
  Tensor x = random_input({2, 5, 16, 16}, rng);
  const Tensor taped = model->forward(x);
  EXPECT_TRUE(taped.requires_grad());
  const nn::NoGradGuard guard;
  const Tensor untaped = model->forward(x);
  EXPECT_FALSE(untaped.requires_grad());
  EXPECT_EQ(untaped.data(), taped.data());
}

TEST(ModelZoo, DistinctNames) {
  Rng rng(9);
  std::set<std::string> names;
  for (const ZooCase& zc : zoo_cases()) {
    names.insert(zc.make(zc.in_channels, 4, rng)->name());
  }
  EXPECT_EQ(names.size(), zoo_cases().size());
}

TEST(ModelZoo, ContestWinnerIsWider) {
  Rng rng(10);
  auto winner = make_contest_winner(5, 4, rng);
  auto iredge = make_iredge(5, 4, rng);
  EXPECT_GT(winner->num_parameters(), 2 * iredge->num_parameters());
}

TEST(ModelZoo, FusionAblationsChangeCapacity) {
  Rng rng(11);
  auto full = make_ir_fusion_net(8, 4, rng, true, true);
  auto no_cbam = make_ir_fusion_net(8, 4, rng, true, false);
  EXPECT_GT(full->num_parameters(), no_cbam->num_parameters());
}

TEST(UNetModel, RejectsWrongChannelCount) {
  Rng rng(12);
  auto model = make_iredge(3, 4, rng);
  EXPECT_THROW(model->forward(Tensor::zeros({1, 4, 16, 16})), DimensionError);
}

TEST(UNetModel, RejectsIndivisibleSpatialSize) {
  Rng rng(13);
  auto model = make_iredge(3, 4, rng);
  EXPECT_THROW(model->forward(Tensor::zeros({1, 3, 12, 12})), DimensionError);
}

TEST(IrpNetModel, PhysicsLossExceedsDataLossAlone) {
  Rng rng(14);
  IrpNet model(3, 4, rng, /*physics_weight=*/0.5);
  Tensor pred = random_input({1, 1, 16, 16}, rng);
  Tensor target = random_input({1, 1, 16, 16}, rng);
  const float with_physics = model.loss(pred, target).scalar();
  const float data_only = nn::mse_loss(pred, target).scalar();
  EXPECT_GT(with_physics, data_only);
}

TEST(UNetModel, TinyOverfit) {
  // A small U-Net must be able to memorize one sample quickly — the basic
  // sanity check that forward/backward/optimizer compose correctly.
  Rng rng(15);
  auto model = make_iredge(2, 4, rng);
  Tensor x = random_input({1, 2, 16, 16}, rng);
  Tensor target = random_input({1, 1, 16, 16}, rng);
  model->set_training(true);
  nn::Adam adam(model->parameters(), 5e-3);
  float first = 0.0f, last = 0.0f;
  for (int step = 0; step < 30; ++step) {
    Tensor loss = model->loss(model->forward(x), target);
    if (step == 0) first = loss.scalar();
    last = loss.scalar();
    adam.zero_grad();
    loss.backward();
    adam.step();
  }
  EXPECT_LT(last, 0.5f * first);
}

}  // namespace
}  // namespace irf::models
