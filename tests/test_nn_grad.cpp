// Numerical gradient checking for the autograd ops: central finite
// differences against the tape's analytic gradients. This is the strongest
// correctness guarantee the training substrate has.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "common/rng.hpp"
#include "nn/ops.hpp"
#include "nn/tensor.hpp"

namespace irf::nn {
namespace {

std::vector<float> random_data(std::int64_t n, Rng& rng, double scale = 1.0) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (float& x : v) x = static_cast<float>(rng.normal(0.0, scale));
  return v;
}

/// Checks d(loss)/d(input i) for every input against central differences.
/// `build_loss` must construct the graph from the given leaf tensors and
/// return the scalar loss.
void grad_check(std::vector<Tensor> leaves,
                const std::function<Tensor(const std::vector<Tensor>&)>& build_loss,
                float eps = 1e-2f, float tol = 2e-2f) {
  Tensor loss = build_loss(leaves);
  loss.backward();
  for (std::size_t t = 0; t < leaves.size(); ++t) {
    if (!leaves[t].requires_grad()) continue;
    ASSERT_FALSE(leaves[t].grad().empty()) << "leaf " << t << " got no gradient";
    for (std::size_t i = 0; i < leaves[t].data().size(); ++i) {
      const float saved = leaves[t].data()[i];
      leaves[t].data()[i] = saved + eps;
      const float up = build_loss(leaves).scalar();
      leaves[t].data()[i] = saved - eps;
      const float down = build_loss(leaves).scalar();
      leaves[t].data()[i] = saved;
      const float numeric = (up - down) / (2.0f * eps);
      const float analytic = leaves[t].grad()[i];
      EXPECT_NEAR(analytic, numeric, tol * std::max(1.0f, std::abs(numeric)))
          << "leaf " << t << " index " << i;
    }
  }
}

Tensor leaf(Shape s, Rng& rng, double scale = 1.0) {
  Tensor t = Tensor::from_data(s, random_data(s.numel(), rng, scale), true);
  return t;
}

TEST(GradCheck, AddMulSub) {
  Rng rng(1);
  std::vector<Tensor> leaves{leaf({1, 2, 2, 2}, rng), leaf({1, 2, 2, 2}, rng)};
  grad_check(leaves, [](const std::vector<Tensor>& l) {
    // add(x, x) also covers both parents being one node.
    Tensor y = add(add(l[0], l[1]), add(l[0], l[0]));
    return mse_loss(y, Tensor::zeros(y.shape()));
  });
}

TEST(GradCheck, ScaleAndAddScalar) {
  Rng rng(2);
  std::vector<Tensor> leaves{leaf({1, 1, 2, 3}, rng)};
  grad_check(leaves, [](const std::vector<Tensor>& l) {
    return mse_loss(scale(l[0], -1.7f), Tensor::zeros({1, 1, 2, 3}));
  });
}

TEST(GradCheck, ActivationsSmooth) {
  Rng rng(3);
  std::vector<Tensor> leaves{leaf({1, 2, 2, 2}, rng)};
  grad_check(leaves, [](const std::vector<Tensor>& l) {
    Tensor y = sigmoid(l[0]);
    return mse_loss(y, Tensor::zeros(y.shape()));
  });
}

TEST(GradCheck, Conv2dInputWeightBias) {
  Rng rng(5);
  std::vector<Tensor> leaves{leaf({2, 2, 4, 4}, rng, 0.5), leaf({3, 2, 3, 3}, rng, 0.5),
                             leaf({1, 3, 1, 1}, rng, 0.5)};
  grad_check(leaves, [](const std::vector<Tensor>& l) {
    Tensor y = conv2d(l[0], l[1], l[2]);
    return mse_loss(y, Tensor::zeros(y.shape()));
  });
}

TEST(GradCheck, AsymmetricKernel) {
  Rng rng(7);
  std::vector<Tensor> leaves{leaf({1, 1, 5, 5}, rng, 0.5), leaf({2, 1, 1, 7}, rng, 0.5)};
  grad_check(leaves, [](const std::vector<Tensor>& l) {
    Tensor y = conv2d(l[0], l[1], Tensor{});
    return mse_loss(y, Tensor::zeros(y.shape()));
  });
}

TEST(GradCheck, MaxPool) {
  Rng rng(8);
  // Spread values so the argmax is stable under the probe eps.
  Tensor x = Tensor::zeros({1, 2, 4, 4}, true);
  float v = 0.0f;
  for (float& d : x.data()) d = (v += 0.37f);
  Rng shuffle_rng(9);
  shuffle_rng.shuffle(x.data());
  grad_check({x}, [](const std::vector<Tensor>& l) {
    Tensor y = maxpool2d(l[0], 2);
    return mse_loss(y, Tensor::zeros(y.shape()));
  });
}

TEST(GradCheck, AvgPools) {
  Rng rng(10);
  std::vector<Tensor> leaves{leaf({1, 2, 4, 4}, rng)};
  grad_check(leaves, [](const std::vector<Tensor>& l) {
    Tensor y = add(avgpool2d(l[0], 2), maxpool2d(avgpool3x3_same(l[0]), 2));
    return mse_loss(y, Tensor::zeros(y.shape()));
  });
}

TEST(GradCheck, GlobalPools) {
  Rng rng(11);
  Tensor x = Tensor::zeros({2, 3, 3, 3}, true);
  float v = 0.0f;
  for (float& d : x.data()) d = (v += 0.13f);
  Rng shuffle_rng(12);
  shuffle_rng.shuffle(x.data());
  grad_check({x}, [](const std::vector<Tensor>& l) {
    Tensor y = add(global_avg_pool(l[0]), global_max_pool(l[0]));
    return mse_loss(y, Tensor::zeros(y.shape()));
  });
}

TEST(GradCheck, Upsample) {
  Rng rng(13);
  std::vector<Tensor> leaves{leaf({1, 2, 2, 2}, rng)};
  grad_check(leaves, [](const std::vector<Tensor>& l) {
    Tensor y = upsample_nearest(l[0], 3);
    return mse_loss(y, Tensor::zeros(y.shape()));
  });
}

TEST(GradCheck, ConcatChannels) {
  Rng rng(14);
  std::vector<Tensor> leaves{leaf({1, 1, 2, 2}, rng), leaf({1, 3, 2, 2}, rng)};
  grad_check(leaves, [](const std::vector<Tensor>& l) {
    Tensor y = concat_channels({l[0], l[1]});
    return mse_loss(y, Tensor::zeros(y.shape()));
  });
}

TEST(GradCheck, MulChannelBothInputs) {
  Rng rng(15);
  std::vector<Tensor> leaves{leaf({2, 3, 2, 2}, rng), leaf({2, 3, 1, 1}, rng)};
  grad_check(leaves, [](const std::vector<Tensor>& l) {
    Tensor y = mul_channel(l[0], l[1]);
    return mse_loss(y, Tensor::zeros(y.shape()));
  });
}

TEST(GradCheck, MulSpatialBothInputs) {
  Rng rng(16);
  std::vector<Tensor> leaves{leaf({2, 2, 3, 3}, rng), leaf({2, 1, 3, 3}, rng)};
  grad_check(leaves, [](const std::vector<Tensor>& l) {
    Tensor y = mul_spatial(l[0], l[1]);
    return mse_loss(y, Tensor::zeros(y.shape()));
  });
}

TEST(GradCheck, ChannelReductions) {
  Rng rng(17);
  Tensor x = Tensor::zeros({1, 4, 2, 2}, true);
  float v = 0.0f;
  for (float& d : x.data()) d = (v += 0.29f);
  Rng shuffle_rng(18);
  shuffle_rng.shuffle(x.data());
  grad_check({x}, [](const std::vector<Tensor>& l) {
    Tensor y = add(channel_mean(l[0]), channel_max(l[0]));
    return mse_loss(y, Tensor::zeros(y.shape()));
  });
}

TEST(GradCheck, WeightedMseAgainstTarget) {
  Rng rng(19);
  Tensor pred = leaf({1, 1, 3, 3}, rng);
  Tensor target = Tensor::from_data({1, 1, 3, 3}, random_data(9, rng));
  Tensor weight = Tensor::from_data({1, 1, 3, 3}, {1, 0, 2, 1, 1, 0, 3, 1, 1});
  grad_check({pred}, [&](const std::vector<Tensor>& l) {
    return weighted_mse_loss(l[0], target, weight);
  });
}

TEST(GradCheck, ComposedCbamStylePath) {
  // The exact composition CBAM uses: channel attention then spatial attention.
  Rng rng(20);
  std::vector<Tensor> leaves{leaf({1, 4, 4, 4}, rng, 0.5)};
  grad_check(
      leaves,
      [](const std::vector<Tensor>& l) {
        Tensor mc = sigmoid(global_avg_pool(l[0]));
        Tensor after_c = mul_channel(l[0], mc);
        Tensor ms = sigmoid(channel_mean(after_c));
        Tensor y = mul_spatial(after_c, ms);
        return mse_loss(y, Tensor::zeros(y.shape()));
      },
      1e-2f, 4e-2f);
}

}  // namespace
}  // namespace irf::nn
