// Forward-semantics tests for every autograd op (shape rules, exact values,
// error handling). Gradient correctness lives in test_nn_grad.cpp.

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/init.hpp"
#include "nn/ops.hpp"

namespace irf::nn {
namespace {

Tensor iota(Shape s) {
  std::vector<float> data(static_cast<std::size_t>(s.numel()));
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<float>(i);
  return Tensor::from_data(s, std::move(data));
}

TEST(Ops, ElementwiseBasics) {
  Tensor a = Tensor::full({1, 1, 1, 3}, 2.0f);
  Tensor b = Tensor::from_data({1, 1, 1, 3}, {1.0f, -1.0f, 0.5f});
  EXPECT_FLOAT_EQ(add(a, b).data()[0], 3.0f);
  EXPECT_FLOAT_EQ(scale(a, -2.0f).data()[0], -4.0f);
  Tensor c = Tensor::zeros({1, 1, 3, 1});
  EXPECT_THROW(add(a, c), DimensionError);
}

TEST(Ops, Activations) {
  Tensor x = Tensor::from_data({1, 1, 1, 4}, {-2.0f, -0.5f, 0.0f, 3.0f});
  Tensor r = relu(x);
  EXPECT_FLOAT_EQ(r.data()[0], 0.0f);
  EXPECT_FLOAT_EQ(r.data()[3], 3.0f);
  Tensor s = sigmoid(x);
  EXPECT_NEAR(s.data()[2], 0.5f, 1e-6f);
  EXPECT_GT(s.data()[3], 0.95f);
}

TEST(Ops, Conv2dIdentityKernel) {
  Tensor x = iota({1, 1, 4, 4});
  Tensor w = Tensor::from_data({1, 1, 3, 3},
                               {0, 0, 0, 0, 1, 0, 0, 0, 0});
  Tensor y = conv2d(x, w, Tensor{});
  ASSERT_EQ(y.shape(), x.shape());
  for (std::size_t i = 0; i < y.data().size(); ++i) {
    EXPECT_FLOAT_EQ(y.data()[i], x.data()[i]);
  }
}

TEST(Ops, Conv2dKnownValues) {
  // 2x2 input, 2x2 kernel, no padding -> single output = dot product.
  Tensor x = Tensor::from_data({1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor w = Tensor::from_data({1, 1, 2, 2}, {10, 20, 30, 40});
  Tensor y = conv2d(x, w, Tensor{}, /*stride=*/1, /*pad_h=*/0, /*pad_w=*/0);
  ASSERT_EQ(y.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y.scalar(), 1 * 10 + 2 * 20 + 3 * 30 + 4 * 40);
}

TEST(Ops, Conv2dBiasAndMultiChannel) {
  Tensor x = Tensor::full({2, 3, 4, 4}, 1.0f);
  Tensor w = Tensor::full({5, 3, 1, 1}, 2.0f);
  Tensor b = Tensor::from_data({1, 5, 1, 1}, {0, 1, 2, 3, 4});
  Tensor y = conv2d(x, w, b);
  ASSERT_EQ(y.shape(), (Shape{2, 5, 4, 4}));
  // Each output = sum over 3 channels of 1*2 + bias.
  EXPECT_FLOAT_EQ(y.data()[0], 6.0f);
  const std::size_t plane = 16;
  EXPECT_FLOAT_EQ(y.data()[4 * plane], 10.0f);  // co=4: 6 + 4
}

TEST(Ops, Conv2dStride2) {
  Tensor x = iota({1, 1, 4, 4});
  Tensor w = Tensor::from_data({1, 1, 1, 1}, {1.0f});
  Tensor y = conv2d(x, w, Tensor{}, /*stride=*/2, /*pad_h=*/0, /*pad_w=*/0);
  ASSERT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y.data()[0], 0.0f);
  EXPECT_FLOAT_EQ(y.data()[1], 2.0f);
  EXPECT_FLOAT_EQ(y.data()[2], 8.0f);
}

TEST(Ops, Conv2dValidation) {
  Tensor x = Tensor::zeros({1, 2, 4, 4});
  Tensor w = Tensor::zeros({1, 3, 3, 3});
  EXPECT_THROW(conv2d(x, w, Tensor{}), DimensionError);  // channel mismatch
  Tensor w2 = Tensor::zeros({1, 2, 2, 2});
  EXPECT_THROW(conv2d(x, w2, Tensor{}), ConfigError);  // even kernel, same pad
  Tensor w3 = Tensor::zeros({1, 2, 3, 3});
  Tensor bad_bias = Tensor::zeros({1, 2, 1, 1});
  EXPECT_THROW(conv2d(x, w3, bad_bias), DimensionError);  // bias wrong channels
}

TEST(Ops, MaxPoolValuesAndShape) {
  Tensor x = Tensor::from_data({1, 1, 2, 4}, {1, 5, 2, 0, 3, 4, 8, 1});
  Tensor y = maxpool2d(x, 2);
  ASSERT_EQ(y.shape(), (Shape{1, 1, 1, 2}));
  EXPECT_FLOAT_EQ(y.data()[0], 5.0f);
  EXPECT_FLOAT_EQ(y.data()[1], 8.0f);
  EXPECT_THROW(maxpool2d(iota({1, 1, 3, 3}), 2), DimensionError);
}

TEST(Ops, AvgPoolValues) {
  Tensor x = Tensor::from_data({1, 1, 2, 2}, {1, 3, 5, 7});
  Tensor y = avgpool2d(x, 2);
  EXPECT_FLOAT_EQ(y.scalar(), 4.0f);
}

TEST(Ops, AvgPool3x3SameConstantPreserved) {
  Tensor x = Tensor::full({1, 2, 5, 5}, 3.0f);
  Tensor y = avgpool3x3_same(x);
  ASSERT_EQ(y.shape(), x.shape());
  for (float v : y.data()) EXPECT_NEAR(v, 3.0f, 1e-6f);
}

TEST(Ops, UpsampleNearest) {
  Tensor x = Tensor::from_data({1, 1, 1, 2}, {1, 2});
  Tensor y = upsample_nearest(x, 3);
  ASSERT_EQ(y.shape(), (Shape{1, 1, 3, 6}));
  EXPECT_FLOAT_EQ(y.data()[0], 1.0f);
  EXPECT_FLOAT_EQ(y.data()[2], 1.0f);
  EXPECT_FLOAT_EQ(y.data()[3], 2.0f);
  Tensor z = upsample_nearest2x(x);
  EXPECT_EQ(z.shape(), (Shape{1, 1, 2, 4}));
}

TEST(Ops, GlobalPools) {
  Tensor x = Tensor::from_data({1, 2, 1, 2}, {1, 3, -5, 7});
  Tensor avg = global_avg_pool(x);
  Tensor max = global_max_pool(x);
  ASSERT_EQ(avg.shape(), (Shape{1, 2, 1, 1}));
  EXPECT_FLOAT_EQ(avg.data()[0], 2.0f);
  EXPECT_FLOAT_EQ(avg.data()[1], 1.0f);
  EXPECT_FLOAT_EQ(max.data()[0], 3.0f);
  EXPECT_FLOAT_EQ(max.data()[1], 7.0f);
}

TEST(Ops, ConcatChannels) {
  Tensor a = Tensor::full({2, 1, 2, 2}, 1.0f);
  Tensor b = Tensor::full({2, 2, 2, 2}, 2.0f);
  Tensor y = concat_channels({a, b});
  ASSERT_EQ(y.shape(), (Shape{2, 3, 2, 2}));
  // Batch 0: first channel is a, then two channels of b.
  EXPECT_FLOAT_EQ(y.data()[0], 1.0f);
  EXPECT_FLOAT_EQ(y.data()[4], 2.0f);
  // Batch 1 offset = 3 channels * 4 pixels.
  EXPECT_FLOAT_EQ(y.data()[12], 1.0f);
  EXPECT_THROW(concat_channels({a, Tensor::zeros({1, 1, 2, 2})}), DimensionError);
  EXPECT_THROW(concat_channels({}), DimensionError);
}

TEST(Ops, ChannelAndSpatialBroadcastMul) {
  Tensor x = Tensor::full({1, 2, 2, 2}, 3.0f);
  Tensor cs = Tensor::from_data({1, 2, 1, 1}, {2.0f, 0.5f});
  Tensor y = mul_channel(x, cs);
  EXPECT_FLOAT_EQ(y.data()[0], 6.0f);
  EXPECT_FLOAT_EQ(y.data()[4], 1.5f);
  Tensor ss = Tensor::from_data({1, 1, 2, 2}, {1.0f, 0.0f, 2.0f, 1.0f});
  Tensor z = mul_spatial(x, ss);
  EXPECT_FLOAT_EQ(z.data()[0], 3.0f);
  EXPECT_FLOAT_EQ(z.data()[1], 0.0f);
  EXPECT_FLOAT_EQ(z.data()[2], 6.0f);
  EXPECT_THROW(mul_channel(x, ss), DimensionError);
  EXPECT_THROW(mul_spatial(x, cs), DimensionError);
}

TEST(Ops, ChannelReductions) {
  Tensor x = Tensor::from_data({1, 2, 1, 2}, {1, 2, 5, 4});
  Tensor mean = channel_mean(x);
  Tensor max = channel_max(x);
  ASSERT_EQ(mean.shape(), (Shape{1, 1, 1, 2}));
  EXPECT_FLOAT_EQ(mean.data()[0], 3.0f);
  EXPECT_FLOAT_EQ(mean.data()[1], 3.0f);
  EXPECT_FLOAT_EQ(max.data()[0], 5.0f);
  EXPECT_FLOAT_EQ(max.data()[1], 4.0f);
}

TEST(Ops, Losses) {
  Tensor pred = Tensor::from_data({1, 1, 1, 2}, {1.0f, 3.0f});
  Tensor target = Tensor::from_data({1, 1, 1, 2}, {0.0f, 1.0f});
  EXPECT_NEAR(mse_loss(pred, target).scalar(), (1.0f + 4.0f) / 2.0f, 1e-6f);
  Tensor w = Tensor::from_data({1, 1, 1, 2}, {0.0f, 1.0f});
  EXPECT_NEAR(weighted_mse_loss(pred, target, w).scalar(), 4.0f / 2.0f, 1e-6f);
}

TEST(Ops, KaimingInitStatistics) {
  Rng rng(33);
  Tensor w = Tensor::zeros({32, 16, 3, 3});
  kaiming_normal_(w, rng);
  double mean = 0.0, var = 0.0;
  for (float v : w.data()) mean += v;
  mean /= static_cast<double>(w.numel());
  for (float v : w.data()) var += (v - mean) * (v - mean);
  var /= static_cast<double>(w.numel());
  const double expected_var = 2.0 / (16 * 9);
  EXPECT_NEAR(mean, 0.0, 0.002);
  EXPECT_NEAR(var, expected_var, 0.3 * expected_var);
}

}  // namespace
}  // namespace irf::nn
