// Tests for the autograd tensor core: construction, accessors, backward
// mechanics (topological order, accumulation, reuse).

#include <gtest/gtest.h>

#include <thread>

#include "common/error.hpp"
#include "nn/ops.hpp"
#include "nn/tensor.hpp"

namespace irf::nn {
namespace {

TEST(Tensor, ZerosAndFull) {
  Tensor z = Tensor::zeros({2, 3, 4, 5});
  EXPECT_EQ(z.numel(), 2 * 3 * 4 * 5);
  for (float v : z.data()) EXPECT_FLOAT_EQ(v, 0.0f);
  Tensor f = Tensor::full({1, 1, 2, 2}, 3.5f);
  for (float v : f.data()) EXPECT_FLOAT_EQ(v, 3.5f);
}

TEST(Tensor, FromDataValidatesSize) {
  EXPECT_THROW(Tensor::from_data({1, 1, 2, 2}, {1.0f, 2.0f}), DimensionError);
  EXPECT_THROW(Tensor::zeros({0, 1, 1, 1}), DimensionError);
}

TEST(Tensor, GridRoundTrip) {
  GridF g(3, 4);
  float v = 0.0f;
  for (float& x : g.data()) x = v += 1.0f;
  Tensor t = Tensor::from_data({1, 1, 3, 4}, g.data());
  EXPECT_EQ(t.shape(), (Shape{1, 1, 3, 4}));
  GridF back = t.to_grid();
  for (std::size_t i = 0; i < g.size(); ++i) EXPECT_FLOAT_EQ(back.data()[i], g.data()[i]);
}

TEST(Tensor, ScalarAccessor) {
  Tensor t = Tensor::full({1, 1, 1, 1}, 2.0f);
  EXPECT_FLOAT_EQ(t.scalar(), 2.0f);
  Tensor big = Tensor::zeros({1, 1, 2, 2});
  EXPECT_THROW(big.scalar(), DimensionError);
}

TEST(Tensor, BackwardRequiresScalar) {
  Tensor t = Tensor::zeros({1, 1, 2, 2}, /*requires_grad=*/true);
  EXPECT_THROW(t.backward(), DimensionError);
}

TEST(Tensor, SimpleChainRule) {
  // loss = mean((2x)^2) over 4 elements -> dL/dx = 2 * (2x) * 2 / 4 = 2x.
  Tensor x = Tensor::full({1, 1, 2, 2}, 1.5f, /*requires_grad=*/true);
  Tensor y = scale(x, 2.0f);
  Tensor loss = mse_loss(y, Tensor::zeros({1, 1, 2, 2}));
  loss.backward();
  ASSERT_EQ(x.grad().size(), 4u);
  for (float g : x.grad()) EXPECT_NEAR(g, 2.0f * 1.5f, 1e-5f);
}

TEST(Tensor, GradAccumulatesWhenInputReused) {
  // y = x + x -> dy/dx = 2 for each element.
  Tensor x = Tensor::full({1, 1, 1, 2}, 1.0f, true);
  Tensor y = add(x, x);
  Tensor loss = mse_loss(y, Tensor::zeros({1, 1, 1, 2}));
  loss.backward();
  // loss = mean((2x)^2); dL/dx = 2*(2x)*2/2 = 4x = 4.
  for (float g : x.grad()) EXPECT_NEAR(g, 4.0f, 1e-5f);
}

TEST(Tensor, ZeroGradClears) {
  Tensor x = Tensor::full({1, 1, 1, 1}, 1.0f, true);
  Tensor loss = mse_loss(x, Tensor::zeros({1, 1, 1, 1}));
  loss.backward();
  EXPECT_NE(x.grad()[0], 0.0f);
  x.zero_grad();
  EXPECT_FLOAT_EQ(x.grad()[0], 0.0f);
}

TEST(Tensor, NoGradNoTape) {
  Tensor x = Tensor::full({1, 1, 1, 1}, 1.0f, /*requires_grad=*/false);
  Tensor y = scale(x, 3.0f);
  EXPECT_FALSE(y.requires_grad());
  // backward on a non-grad scalar is a no-op, not an error.
  EXPECT_NO_THROW(y.backward());
}

TEST(Tensor, DiamondGraphAccumulation) {
  // z = x*x (via two branches a = 2x, b = 3x, z = a + b = 5x).
  Tensor x = Tensor::full({1, 1, 1, 1}, 1.0f, true);
  Tensor a = scale(x, 2.0f);
  Tensor b = scale(x, 3.0f);
  Tensor z = add(a, b);
  Tensor loss = mse_loss(z, Tensor::zeros({1, 1, 1, 1}));
  loss.backward();
  // loss = (5x)^2, dL/dx = 2*5x*5 = 50x = 50.
  EXPECT_NEAR(x.grad()[0], 50.0f, 1e-4f);
}

TEST(Tensor, BackwardTwiceAccumulates) {
  Tensor x = Tensor::full({1, 1, 1, 1}, 1.0f, true);
  Tensor loss = mse_loss(x, Tensor::zeros({1, 1, 1, 1}));
  loss.backward();
  const float g1 = x.grad()[0];
  Tensor loss2 = mse_loss(x, Tensor::zeros({1, 1, 1, 1}));
  loss2.backward();
  EXPECT_NEAR(x.grad()[0], 2.0f * g1, 1e-6f);
}

TEST(Shape, EqualityAndString) {
  Shape a{1, 2, 3, 4};
  Shape b{1, 2, 3, 4};
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.str(), "[1,2,3,4]");
  EXPECT_EQ(a.numel(), 24);
}

// --- no-grad mode -------------------------------------------------------------

TEST(NoGrad, OpsOnGradWeightsRecordNoTapeWhileGuarded) {
  Tensor w = Tensor::full({1, 1, 1, 3}, 2.0f, /*requires_grad=*/true);
  Tensor x = Tensor::full({1, 1, 1, 3}, 1.0f);
  {
    const NoGradGuard guard;
    EXPECT_FALSE(grad_enabled());
    Tensor y = add(x, w);
    EXPECT_FALSE(y.requires_grad());
    EXPECT_TRUE(y.node()->parents.empty());
    EXPECT_FALSE(y.node()->backward_fn);
    EXPECT_FLOAT_EQ(y.data()[0], 3.0f);  // the values are computed as ever
  }
  EXPECT_TRUE(grad_enabled());
  Tensor y = add(x, w);
  EXPECT_TRUE(y.requires_grad());
  EXPECT_EQ(y.node()->parents.size(), 2u);
  mse_loss(y, Tensor::zeros(y.shape())).backward();
  EXPECT_FALSE(w.grad().empty());
}

TEST(NoGrad, GuardsNestAndRestoreThePreviousMode) {
  EXPECT_TRUE(grad_enabled());
  {
    const NoGradGuard outer;
    {
      const NoGradGuard inner;
      EXPECT_FALSE(grad_enabled());
    }
    EXPECT_FALSE(grad_enabled());  // the inner guard restored "off", not "on"
  }
  EXPECT_TRUE(grad_enabled());
}

TEST(NoGrad, GuardIsThreadLocal) {
  const NoGradGuard guard;
  bool other_thread_enabled = false;
  std::thread([&] { other_thread_enabled = grad_enabled(); }).join();
  EXPECT_TRUE(other_thread_enabled);
  EXPECT_FALSE(grad_enabled());
}

}  // namespace
}  // namespace irf::nn
