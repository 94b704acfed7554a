// Tests for stateful layers and training machinery: Conv2d, BatchNorm2d,
// optimizers, serialization — including a gradient check through BatchNorm
// and a tiny end-to-end regression fit.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/module.hpp"
#include "nn/ops.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"

namespace irf::nn {
namespace {

TEST(Conv2dLayer, ShapesAndParams) {
  Rng rng(1);
  Conv2d conv(3, 8, 3, rng);
  Tensor x = Tensor::zeros({2, 3, 8, 8});
  Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 8, 8, 8}));
  // weight + bias
  EXPECT_EQ(conv.parameters().size(), 2u);
  EXPECT_EQ(conv.num_parameters(), 8 * 3 * 3 * 3 + 8);
}

TEST(Conv2dLayer, NoBiasVariant) {
  Rng rng(2);
  Conv2d conv(2, 4, 1, rng, /*bias=*/false);
  EXPECT_EQ(conv.parameters().size(), 1u);
}

TEST(BatchNorm, NormalizesTrainingBatch) {
  Rng rng(3);
  BatchNorm2d bn(2);
  bn.set_training(true);
  Tensor x = Tensor::zeros({2, 2, 4, 4});
  for (float& v : x.data()) v = static_cast<float>(rng.normal(5.0, 3.0));
  Tensor y = bn.forward(x);
  // Per-channel mean ~ 0, var ~ 1 after normalization (gamma=1, beta=0).
  for (int c = 0; c < 2; ++c) {
    double mean = 0.0, var = 0.0;
    int count = 0;
    for (int n = 0; n < 2; ++n) {
      for (int i = 0; i < 16; ++i) {
        mean += y.data()[(n * 2 + c) * 16 + i];
        ++count;
      }
    }
    mean /= count;
    for (int n = 0; n < 2; ++n) {
      for (int i = 0; i < 16; ++i) {
        const double d = y.data()[(n * 2 + c) * 16 + i] - mean;
        var += d * d;
      }
    }
    var /= count;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm, EvalUsesRunningStats) {
  Rng rng(4);
  BatchNorm2d bn(1);
  bn.set_training(true);
  // Feed several batches with mean 2, std 1 to build running stats.
  for (int step = 0; step < 50; ++step) {
    Tensor x = Tensor::zeros({1, 1, 4, 4});
    for (float& v : x.data()) v = static_cast<float>(rng.normal(2.0, 1.0));
    bn.forward(x);
  }
  EXPECT_NEAR(bn.running_mean()[0], 2.0, 0.3);
  EXPECT_NEAR(bn.running_var()[0], 1.0, 0.4);
  bn.set_training(false);
  Tensor x = Tensor::full({1, 1, 2, 2}, 2.0f);
  Tensor y = bn.forward(x);
  // Input at the running mean -> output near 0.
  for (float v : y.data()) EXPECT_NEAR(v, 0.0f, 0.3f);
}

TEST(BatchNorm, GradCheckThroughTrainingMode) {
  Rng rng(5);
  Tensor x = Tensor::zeros({2, 2, 3, 3}, true);
  for (float& v : x.data()) v = static_cast<float>(rng.normal(0.0, 1.0));

  BatchNorm2d bn(2);
  bn.set_training(true);
  auto loss_of = [&]() {
    Tensor y = bn.forward(x);
    return mse_loss(mul(y, y), Tensor::zeros(y.shape()));
  };
  // BatchNorm keeps running stats, so rebuild cleanly by tolerating the tiny
  // drift: compare analytic to numeric with a loose tolerance.
  Tensor loss = loss_of();
  loss.backward();
  std::vector<float> analytic = x.grad();
  const float eps = 1e-2f;
  for (std::size_t i = 0; i < x.data().size(); i += 5) {  // sample a subset
    const float saved = x.data()[i];
    x.data()[i] = saved + eps;
    const float up = loss_of().scalar();
    x.data()[i] = saved - eps;
    const float down = loss_of().scalar();
    x.data()[i] = saved;
    const float numeric = (up - down) / (2.0f * eps);
    EXPECT_NEAR(analytic[i], numeric, 5e-2f * std::max(1.0f, std::abs(numeric)));
  }
}

TEST(ConvBnReluLayer, OutputsNonNegative) {
  Rng rng(6);
  ConvBnRelu block(2, 4, 3, rng);
  Tensor x = Tensor::zeros({1, 2, 6, 6});
  for (float& v : x.data()) v = static_cast<float>(rng.normal());
  Tensor y = block.forward(x);
  for (float v : y.data()) EXPECT_GE(v, 0.0f);
}

TEST(Module, SetTrainingPropagates) {
  Rng rng(7);
  ConvBnRelu block(1, 2, 3, rng);
  block.set_training(false);
  EXPECT_FALSE(block.is_training());
}

TEST(Optimizer, SgdDescendsQuadratic) {
  // Minimize ||x - 3||^2 elementwise.
  Tensor x = Tensor::zeros({1, 1, 2, 2}, true);
  Tensor target = Tensor::full({1, 1, 2, 2}, 3.0f);
  Sgd sgd({x}, 0.5);
  for (int step = 0; step < 50; ++step) {
    Tensor loss = mse_loss(x, target);
    sgd.zero_grad();
    loss.backward();
    sgd.step();
  }
  for (float v : x.data()) EXPECT_NEAR(v, 3.0f, 1e-3f);
}

TEST(Optimizer, AdamDescendsQuadratic) {
  Tensor x = Tensor::zeros({1, 1, 2, 2}, true);
  Tensor target = Tensor::full({1, 1, 2, 2}, -1.5f);
  Adam adam({x}, 0.1);
  for (int step = 0; step < 200; ++step) {
    Tensor loss = mse_loss(x, target);
    adam.zero_grad();
    loss.backward();
    adam.step();
  }
  for (float v : x.data()) EXPECT_NEAR(v, -1.5f, 1e-2f);
}

TEST(Optimizer, ClipGradNorm) {
  Tensor x = Tensor::zeros({1, 1, 1, 2}, true);
  x.mutable_grad()[0] = 3.0f;
  x.mutable_grad()[1] = 4.0f;  // norm 5
  Adam adam({x}, 0.1);
  const double pre = adam.clip_grad_norm(1.0);
  EXPECT_NEAR(pre, 5.0, 1e-6);
  EXPECT_NEAR(x.grad()[0], 0.6f, 1e-5f);
  EXPECT_NEAR(x.grad()[1], 0.8f, 1e-5f);
}

TEST(Optimizer, RejectsNonGradParams) {
  Tensor x = Tensor::zeros({1, 1, 1, 1}, false);
  EXPECT_THROW(Sgd({x}, 0.1), ConfigError);
}

TEST(Optimizer, TinyConvRegressionConverges) {
  // Learn the identity 1x1 conv from data.
  Rng rng(8);
  Conv2d conv(1, 1, 1, rng);
  Adam adam(conv.parameters(), 0.05);
  double final_loss = 1e9;
  for (int step = 0; step < 150; ++step) {
    Tensor x = Tensor::zeros({1, 1, 3, 3});
    for (float& v : x.data()) v = static_cast<float>(rng.normal());
    Tensor y = conv.forward(x);
    Tensor loss = mse_loss(y, x);
    adam.zero_grad();
    loss.backward();
    adam.step();
    final_loss = loss.scalar();
  }
  EXPECT_LT(final_loss, 1e-3);
}

TEST(Serialize, SaveLoadRoundTrip) {
  Rng rng(9);
  Conv2d a(2, 3, 3, rng);
  Conv2d b(2, 3, 3, rng);  // different init
  std::stringstream stream;
  std::vector<Tensor> pa = a.parameters();
  save_parameters(pa, stream);
  std::vector<Tensor> pb = b.parameters();
  load_parameters(pb, stream);
  for (std::size_t t = 0; t < pa.size(); ++t) {
    for (std::size_t i = 0; i < pa[t].data().size(); ++i) {
      EXPECT_FLOAT_EQ(pa[t].data()[i], pb[t].data()[i]);
    }
  }
}

TEST(Serialize, ShapeMismatchRejected) {
  Rng rng(10);
  Conv2d a(2, 3, 3, rng);
  Conv2d b(2, 3, 5, rng);
  std::stringstream stream;
  std::vector<Tensor> pa = a.parameters();
  save_parameters(pa, stream);
  std::vector<Tensor> pb = b.parameters();
  EXPECT_THROW(load_parameters(pb, stream), DimensionError);
}

}  // namespace
}  // namespace irf::nn
