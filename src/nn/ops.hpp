#pragma once

/// \file ops.hpp
/// Differentiable operations over nn::Tensor. Every op records a tape entry
/// so Tensor::backward() can propagate gradients; ops with no grad-requiring
/// inputs skip the tape. Every registered module weight requires grad, so a
/// model forward records the tape even at inference (there is no no-grad
/// mode yet).

#include <vector>

#include "nn/tensor.hpp"

namespace irf::nn {

// --- Elementwise ----------------------------------------------------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor scale(const Tensor& a, float factor);

// --- Activations -----------------------------------------------------------
Tensor relu(const Tensor& a);
Tensor sigmoid(const Tensor& a);

// --- Convolution / pooling --------------------------------------------------
/// 2-D convolution (cross-correlation). `weight` is [Cout, Cin, kh, kw];
/// `bias` may be undefined or [1, Cout, 1, 1]. Padding -1 means "same"
/// (requires odd kernel, stride 1).
Tensor conv2d(const Tensor& x, const Tensor& weight, const Tensor& bias, int stride = 1,
              int pad_h = -1, int pad_w = -1);

/// Max pooling with window == stride == `k` (H, W must divide by k).
Tensor maxpool2d(const Tensor& x, int k = 2);

/// Average pooling with window == stride == `k`.
Tensor avgpool2d(const Tensor& x, int k = 2);

/// 3x3 average pooling with stride 1 and same padding (the pooling branch of
/// the Inception modules). Border pixels average over the in-bounds window.
Tensor avgpool3x3_same(const Tensor& x);

/// Nearest-neighbour integer-factor upsampling.
Tensor upsample_nearest(const Tensor& x, int factor);

/// Nearest-neighbour 2x upsampling (decoder path).
Tensor upsample_nearest2x(const Tensor& x);

/// Global pools: [N,C,H,W] -> [N,C,1,1].
Tensor global_avg_pool(const Tensor& x);
Tensor global_max_pool(const Tensor& x);

// --- Structure ---------------------------------------------------------------
/// Concatenate along the channel dimension.
Tensor concat_channels(const std::vector<Tensor>& parts);

/// Broadcast multiplies: CBAM building blocks (Equation (6)).
Tensor mul_channel(const Tensor& x, const Tensor& s);  ///< s: [N,C,1,1]
Tensor mul_spatial(const Tensor& x, const Tensor& s);  ///< s: [N,1,H,W]

/// Channel-dimension reductions -> [N,1,H,W] (CBAM spatial attention input).
Tensor channel_mean(const Tensor& x);
Tensor channel_max(const Tensor& x);

// --- Losses (scalar results) ---------------------------------------------------
Tensor mse_loss(const Tensor& pred, const Tensor& target);
/// MSE with a per-pixel weight map (same shape as pred). Used to emphasise
/// hotspot regions.
Tensor weighted_mse_loss(const Tensor& pred, const Tensor& target, const Tensor& weight);

}  // namespace irf::nn
