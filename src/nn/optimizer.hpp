#pragma once

/// \file optimizer.hpp
/// The Adam optimizer over a parameter list. State is keyed by the
/// parameter's graph node, so the same optimizer instance follows the
/// parameters across training steps.

#include <unordered_map>
#include <vector>

#include "nn/tensor.hpp"

namespace irf::nn {

/// Adam (Kingma & Ba) with bias correction. A non-zero `weight_decay`
/// applies decoupled decay (AdamW): p -= lr * wd * p before the moment
/// update is applied.
class Adam {
 public:
  Adam(std::vector<Tensor> params, double lr, double beta1 = 0.9, double beta2 = 0.999,
       double eps = 1e-8, double weight_decay = 0.0);

  /// Apply one update from the accumulated gradients.
  void step();

  /// Clear gradients of all parameters.
  void zero_grad();

  /// Global L2 gradient-norm clipping; returns the pre-clip norm.
  double clip_grad_norm(double max_norm);

  double& lr() { return lr_; }

 private:
  std::vector<Tensor> params_;
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  double weight_decay_;
  std::int64_t t_ = 0;
  struct State {
    std::vector<float> m;
    std::vector<float> v;
  };
  std::unordered_map<const detail::Node*, State> state_;
};

}  // namespace irf::nn
