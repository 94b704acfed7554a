#include "nn/optimizer.hpp"

#include <cmath>

#include "common/error.hpp"

namespace irf::nn {

Adam::Adam(std::vector<Tensor> params, double lr, double beta1, double beta2, double eps,
           double weight_decay)
    : params_(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps),
      weight_decay_(weight_decay) {
  for (const Tensor& p : params_) {
    if (!p.defined() || !p.requires_grad()) {
      throw ConfigError("optimizer parameter must be defined and require grad");
    }
  }
}

void Adam::zero_grad() {
  for (Tensor& p : params_) p.zero_grad();
}

double Adam::clip_grad_norm(double max_norm) {
  double total = 0.0;
  for (const Tensor& p : params_) {
    for (float g : p.grad()) total += static_cast<double>(g) * g;
  }
  total = std::sqrt(total);
  if (total > max_norm && total > 0.0) {
    const float factor = static_cast<float>(max_norm / total);
    for (Tensor& p : params_) {
      for (float& g : p.mutable_grad()) g *= factor;
    }
  }
  return total;
}

void Adam::step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (Tensor& p : params_) {
    if (p.grad().empty()) continue;
    if (weight_decay_ > 0.0) {
      const float decay = static_cast<float>(1.0 - lr_ * weight_decay_);
      for (float& v : p.data()) v *= decay;
    }
    State& s = state_[p.node().get()];
    if (s.m.empty()) {
      s.m.assign(p.data().size(), 0.0f);
      s.v.assign(p.data().size(), 0.0f);
    }
    for (std::size_t i = 0; i < p.data().size(); ++i) {
      const double g = p.grad()[i];
      s.m[i] = static_cast<float>(beta1_ * s.m[i] + (1.0 - beta1_) * g);
      s.v[i] = static_cast<float>(beta2_ * s.v[i] + (1.0 - beta2_) * g * g);
      const double mhat = s.m[i] / bc1;
      const double vhat = s.v[i] / bc2;
      p.data()[i] -= static_cast<float>(lr_ * mhat / (std::sqrt(vhat) + eps_));
    }
  }
}

}  // namespace irf::nn
