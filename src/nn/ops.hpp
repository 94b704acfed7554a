#pragma once

/// \file ops.hpp
/// Differentiable operations over nn::Tensor. Every op records a tape entry
/// so Tensor::backward() can propagate gradients; ops with no grad-requiring
/// inputs skip the tape, and so does every op run while an nn::NoGradGuard
/// is alive on the calling thread. Every registered module weight requires
/// grad, so inference (train::predict_volts) holds a guard: without one a
/// model forward would keep every activation alive until its output died.

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
/// 2-D convolution (cross-correlation), stride 1 with "same" zero padding,
/// so the output plane is the input plane. `weight` is [Cout, Cin, kh, kw]
/// with odd kh and kw (irf::ConfigError otherwise); `bias` may be undefined
/// or [1, Cout, 1, 1]. Each output sums bias (or 0) plus its products in
/// ascending (ci, ky, kx) order, padding taps included, one sample at a
/// time, so a batch is bit-identical to one-sample calls. Counts its
/// multiply-adds into the `nn.conv_macs` counter.
Tensor conv2d(const Tensor& x, const Tensor& weight, const Tensor& bias);

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
