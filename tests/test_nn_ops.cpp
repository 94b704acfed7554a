// Forward-semantics tests for every autograd op (shape rules, exact values,
// error handling). Gradient correctness lives in test_nn_grad.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

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
  // 3x3 input, 3x3 kernel, "same" padding: the centre output sees every tap,
  // so it is the full dot product; the top-left corner sees its 2x2 window.
  Tensor x = Tensor::from_data({1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor w = Tensor::from_data({1, 1, 3, 3}, {10, 20, 30, 40, 50, 60, 70, 80, 90});
  Tensor y = conv2d(x, w, Tensor{});
  ASSERT_EQ(y.shape(), (Shape{1, 1, 3, 3}));
  EXPECT_FLOAT_EQ(y.data()[4], 1 * 10 + 2 * 20 + 3 * 30 + 4 * 40 + 5 * 50 + 6 * 60 +
                                   7 * 70 + 8 * 80 + 9 * 90);
  EXPECT_FLOAT_EQ(y.data()[0], 1 * 50 + 2 * 60 + 4 * 80 + 5 * 90);
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

TEST(Ops, Conv2dValidation) {
  Tensor x = Tensor::zeros({1, 2, 4, 4});
  Tensor w = Tensor::zeros({1, 3, 3, 3});
  EXPECT_THROW(conv2d(x, w, Tensor{}), DimensionError);  // channel mismatch
  Tensor w2 = Tensor::zeros({1, 2, 2, 2});
  EXPECT_THROW(conv2d(x, w2, Tensor{}), ConfigError);  // even kernel, same pad
  EXPECT_THROW(conv2d(x, Tensor::zeros({1, 2, 3, 2}), Tensor{}), ConfigError);
  Tensor w3 = Tensor::zeros({1, 2, 3, 3});
  Tensor bad_bias = Tensor::zeros({1, 2, 1, 1});
  EXPECT_THROW(conv2d(x, w3, bad_bias), DimensionError);  // bias wrong channels
}

// --- conv2d differentials ----------------------------------------------------

/// The bits of every element, so +0 and -0 compare unequal.
std::vector<std::uint32_t> bits(const std::vector<float>& v) {
  std::vector<std::uint32_t> out(v.size());
  std::memcpy(out.data(), v.data(), v.size() * sizeof(float));
  return out;
}

/// Normal values with about one entry in four replaced by +0 or -0.
std::vector<float> values_with_zeros(std::int64_t n, Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (float& x : v) {
    const double u = rng.uniform();
    x = u < 0.125 ? 0.0f : u < 0.25 ? -0.0f : static_cast<float>(rng.normal());
  }
  return v;
}

/// Copy of the GEMM loop conv2d ran before its register-tiled kernel: i-k-j
/// over 128 x 256 cache blocks of k x n, zero A entries skipped, each C
/// element summing a * b in ascending k. The differential reference that
/// pins the kernel bit for bit.
void gemm_rows_reference(const float* a, const float* b, float* c, int m, int k, int n) {
  constexpr int kBlockN = 256;
  constexpr int kBlockK = 128;
  for (int pc = 0; pc < k; pc += kBlockK) {
    const int pe = std::min(k, pc + kBlockK);
    for (int jc = 0; jc < n; jc += kBlockN) {
      const int je = std::min(n, jc + kBlockN);
      for (int i = 0; i < m; ++i) {
        const float* arow = a + static_cast<std::size_t>(i) * k;
        float* crow = c + static_cast<std::size_t>(i) * n;
        for (int p = pc; p < pe; ++p) {
          const float av = arow[p];
          if (av == 0.0f) continue;
          const float* brow = b + static_cast<std::size_t>(p) * n;
          for (int j = jc; j < je; ++j) crow[j] += av * brow[j];
        }
      }
    }
  }
}

/// A 1x1 conv of x [1, K, 1, N] by weight [M, K, 1, 1] is one GEMM with
/// A = weight, B = x and C starting at the bias (+0 without one), so it
/// drives the kernel on any shape through the public op.
void expect_kernel_matches_reference(int m, int k, int n, bool with_bias, Rng& rng) {
  const Tensor w = Tensor::from_data({m, k, 1, 1}, values_with_zeros(int64_t{m} * k, rng));
  const Tensor x = Tensor::from_data({1, k, 1, n}, values_with_zeros(int64_t{k} * n, rng));
  Tensor bias;
  std::vector<float> expected(static_cast<std::size_t>(m) * n, 0.0f);
  if (with_bias) {
    std::vector<float> b(static_cast<std::size_t>(m));
    for (float& v : b) v = static_cast<float>(rng.normal());
    for (int i = 0; i < m; ++i) {
      std::fill_n(expected.begin() + static_cast<std::ptrdiff_t>(i) * n, n, b[i]);
    }
    bias = Tensor::from_data({1, m, 1, 1}, std::move(b));
  }
  gemm_rows_reference(w.data().data(), x.data().data(), expected.data(), m, k, n);
  const Tensor y = conv2d(x, w, bias);
  EXPECT_EQ(bits(y.data()), bits(expected))
      << "M " << m << " K " << k << " N " << n << " bias " << with_bias;
}

TEST(Ops, Conv2dKernelMatchesRowLoopBitForBit) {
  Rng rng(2024);
  // Edge shapes: single row / column / depth, odd N, exact 4 x 8 tiles, both
  // tails at once, and one shape big enough to split strips over the pool.
  const int fixed[][3] = {{1, 1, 1},  {1, 1, 7},   {1, 70, 1},  {4, 3, 8},  {5, 1, 9},
                          {3, 9, 17}, {19, 70, 300}, {8, 16, 64}, {16, 144, 1024}};
  for (const auto& s : fixed) {
    for (bool with_bias : {false, true}) {
      expect_kernel_matches_reference(s[0], s[1], s[2], with_bias, rng);
    }
  }
  for (int trial = 0; trial < 400; ++trial) {
    const int m = rng.uniform_int(1, 19);
    const int k = rng.uniform_int(1, 70);
    const int n = rng.uniform_int(1, 300);
    expect_kernel_matches_reference(m, k, n, trial % 2 == 1, rng);
  }
}

/// Direct convolution, stride 1, "same" padding: each output starts at its
/// bias (or +0) and adds w * x over the in-bounds taps in ascending
/// (ci, ky, kx) order. conv2d also adds w * 0 for the padding taps, which
/// leaves every sum that does not start at -0 unchanged, so the biases here
/// are nonzero.
std::vector<float> direct_conv(const Tensor& x, const Tensor& w, const Tensor& bias) {
  const Shape xs = x.shape();
  const Shape ws = w.shape();
  const int ph = ws.h / 2;
  const int pw = ws.w / 2;
  std::vector<float> out(static_cast<std::size_t>(xs.n) * ws.n * xs.h * xs.w);
  std::size_t o = 0;
  for (int n = 0; n < xs.n; ++n) {
    for (int co = 0; co < ws.n; ++co) {
      for (int y = 0; y < xs.h; ++y) {
        for (int xo = 0; xo < xs.w; ++xo) {
          float acc = bias.defined() ? bias.data()[static_cast<std::size_t>(co)] : 0.0f;
          for (int ci = 0; ci < xs.c; ++ci) {
            for (int ky = 0; ky < ws.h; ++ky) {
              const int iy = y + ky - ph;
              if (iy < 0 || iy >= xs.h) continue;
              for (int kx = 0; kx < ws.w; ++kx) {
                const int ix = xo + kx - pw;
                if (ix < 0 || ix >= xs.w) continue;
                acc += w.at(co, ci, ky, kx) * x.at(n, ci, iy, ix);
              }
            }
          }
          out[o++] = acc;
        }
      }
    }
  }
  return out;
}

TEST(Ops, Conv2dMatchesDirectConvolutionBitForBit) {
  Rng rng(77);
  const int kernels[][2] = {{1, 1}, {3, 3}, {1, 7}, {7, 1}, {1, 3}, {3, 1}};
  // Planes include ones smaller than every kernel in a dimension.
  const int planes[][2] = {{1, 1}, {2, 5}, {5, 2}, {3, 3}, {8, 8}, {4, 13}};
  int trial = 0;
  for (const auto& kernel : kernels) {
    for (const auto& plane : planes) {
      ++trial;
      const int batch = 1 + trial % 3;
      const int cin = 1 + trial % 5;
      const int cout = 1 + (trial * 7) % 9;
      const Shape xs{batch, cin, plane[0], plane[1]};
      const Shape ws{cout, cin, kernel[0], kernel[1]};
      const Tensor x = Tensor::from_data(xs, values_with_zeros(xs.numel(), rng));
      const Tensor w = Tensor::from_data(ws, values_with_zeros(ws.numel(), rng));
      Tensor bias;
      if (trial % 2 == 0) {
        std::vector<float> b(static_cast<std::size_t>(cout));
        for (float& v : b) v = static_cast<float>(rng.normal());
        bias = Tensor::from_data({1, cout, 1, 1}, std::move(b));
      }
      EXPECT_EQ(bits(conv2d(x, w, bias).data()), bits(direct_conv(x, w, bias)))
          << "x " << xs.str() << " w " << ws.str() << " bias " << bias.defined();
    }
  }
  // One shape with enough work for the pool to split the GEMM's strips.
  const Tensor x =
      Tensor::from_data({2, 16, 32, 32}, values_with_zeros(2 * 16 * 32 * 32, rng));
  const Tensor w = Tensor::from_data({16, 16, 3, 3}, values_with_zeros(16 * 16 * 9, rng));
  const Tensor b = Tensor::full({1, 16, 1, 1}, 0.25f);
  EXPECT_EQ(bits(conv2d(x, w, b).data()), bits(direct_conv(x, w, b)));
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
