#include "nn/module.hpp"

#include <cmath>

#include "common/error.hpp"
#include "nn/init.hpp"

namespace irf::nn {

std::vector<Tensor> Module::parameters() const {
  std::vector<Tensor> out = params_;
  for (const Module* child : children_) {
    std::vector<Tensor> sub = child->parameters();
    out.insert(out.end(), sub.begin(), sub.end());
  }
  return out;
}

std::vector<std::vector<float>*> Module::buffers() {
  std::vector<std::vector<float>*> out = buffers_;
  for (Module* child : children_) {
    std::vector<std::vector<float>*> sub = child->buffers();
    out.insert(out.end(), sub.begin(), sub.end());
  }
  return out;
}

void Module::register_buffer(std::vector<float>& buffer) {
  buffers_.push_back(&buffer);
}

void Module::set_training(bool training) {
  training_ = training;
  for (Module* child : children_) child->set_training(training);
}

std::int64_t Module::num_parameters() const {
  std::int64_t total = 0;
  for (const Tensor& p : parameters()) total += p.numel();
  return total;
}

Tensor Module::register_parameter(Tensor t) {
  t.node()->requires_grad = true;
  params_.push_back(t);
  return t;
}

void Module::register_child(Module* child) { children_.push_back(child); }

// --- Conv2d -----------------------------------------------------------------

Conv2d::Conv2d(int in_channels, int out_channels, int kernel_h, int kernel_w, Rng& rng,
               bool bias)
    : in_channels_(in_channels), out_channels_(out_channels) {
  if (in_channels <= 0 || out_channels <= 0 || kernel_h <= 0 || kernel_w <= 0) {
    throw ConfigError("Conv2d: all dimensions must be positive");
  }
  Tensor w = Tensor::zeros(Shape{out_channels, in_channels, kernel_h, kernel_w});
  kaiming_normal_(w, rng);
  weight_ = register_parameter(w);
  if (bias) {
    bias_ = register_parameter(Tensor::zeros(Shape{1, out_channels, 1, 1}));
  }
}

Tensor Conv2d::forward(const Tensor& x) const { return conv2d(x, weight_, bias_); }

// --- BatchNorm2d --------------------------------------------------------------

BatchNorm2d::BatchNorm2d(int channels, double momentum, double eps)
    : channels_(channels), momentum_(momentum), eps_(eps) {
  if (channels <= 0) throw ConfigError("BatchNorm2d: channels must be positive");
  gamma_ = register_parameter(Tensor::full(Shape{1, channels, 1, 1}, 1.0f));
  beta_ = register_parameter(Tensor::zeros(Shape{1, channels, 1, 1}));
  running_mean_.assign(static_cast<std::size_t>(channels), 0.0f);
  running_var_.assign(static_cast<std::size_t>(channels), 1.0f);
  register_buffer(running_mean_);
  register_buffer(running_var_);
}

Tensor BatchNorm2d::forward(const Tensor& x) {
  const Shape& xs = x.shape();
  if (xs.c != channels_) {
    throw DimensionError("BatchNorm2d: expected " + std::to_string(channels_) +
                         " channels, got " + std::to_string(xs.c));
  }
  const std::size_t plane = static_cast<std::size_t>(xs.h) * xs.w;
  const std::size_t m = static_cast<std::size_t>(xs.n) * plane;  // stats population

  std::vector<float> mean(static_cast<std::size_t>(channels_), 0.0f);
  std::vector<float> var(static_cast<std::size_t>(channels_), 0.0f);
  if (is_training()) {
    for (int c = 0; c < channels_; ++c) {
      double acc = 0.0;
      for (int n = 0; n < xs.n; ++n) {
        const std::size_t base = (static_cast<std::size_t>(n) * xs.c + c) * plane;
        for (std::size_t i = 0; i < plane; ++i) acc += x.data()[base + i];
      }
      mean[c] = static_cast<float>(acc / static_cast<double>(m));
      double vacc = 0.0;
      for (int n = 0; n < xs.n; ++n) {
        const std::size_t base = (static_cast<std::size_t>(n) * xs.c + c) * plane;
        for (std::size_t i = 0; i < plane; ++i) {
          const double d = x.data()[base + i] - mean[c];
          vacc += d * d;
        }
      }
      var[c] = static_cast<float>(vacc / static_cast<double>(m));
      running_mean_[c] = static_cast<float>((1.0 - momentum_) * running_mean_[c] +
                                            momentum_ * mean[c]);
      running_var_[c] =
          static_cast<float>((1.0 - momentum_) * running_var_[c] + momentum_ * var[c]);
    }
  } else {
    mean = running_mean_;
    var = running_var_;
  }

  std::vector<float> inv_std(static_cast<std::size_t>(channels_));
  for (int c = 0; c < channels_; ++c) {
    inv_std[c] = static_cast<float>(1.0 / std::sqrt(static_cast<double>(var[c]) + eps_));
  }

  std::vector<float> out(x.data().size());
  // Cache normalized activations for the backward pass, which a no-grad
  // forward never has.
  auto xhat = grad_enabled() ? std::make_shared<std::vector<float>>(x.data().size())
                             : nullptr;
  for (int n = 0; n < xs.n; ++n) {
    for (int c = 0; c < xs.c; ++c) {
      const float g = gamma_.data()[static_cast<std::size_t>(c)];
      const float b = beta_.data()[static_cast<std::size_t>(c)];
      const std::size_t base = (static_cast<std::size_t>(n) * xs.c + c) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        const float h = (x.data()[base + i] - mean[c]) * inv_std[c];
        if (xhat) (*xhat)[base + i] = h;
        out[base + i] = g * h + b;
      }
    }
  }

  auto xn = x.node();
  auto gn = gamma_.node();
  auto bn = beta_.node();
  const bool training = is_training();
  const int channels = channels_;
  return make_op_result(
      xs, std::move(out), {xn, gn, bn},
      [xn, gn, bn, xhat, inv_std, xs, plane, m, training, channels](detail::Node& self) {
        const bool need_x = xn->requires_grad;
        if (need_x) xn->ensure_grad();
        gn->ensure_grad();
        bn->ensure_grad();
        for (int c = 0; c < channels; ++c) {
          // Per-channel reductions of the incoming gradient.
          double sum_g = 0.0;
          double sum_gh = 0.0;
          for (int n = 0; n < xs.n; ++n) {
            const std::size_t base = (static_cast<std::size_t>(n) * xs.c + c) * plane;
            for (std::size_t i = 0; i < plane; ++i) {
              const float g = self.grad[base + i];
              sum_g += g;
              sum_gh += g * (*xhat)[base + i];
            }
          }
          gn->grad[static_cast<std::size_t>(c)] += static_cast<float>(sum_gh);
          bn->grad[static_cast<std::size_t>(c)] += static_cast<float>(sum_g);
          if (!need_x) continue;
          const float gamma = gn->data[static_cast<std::size_t>(c)];
          const float k = gamma * inv_std[c];
          if (training) {
            const float mean_g = static_cast<float>(sum_g / static_cast<double>(m));
            const float mean_gh = static_cast<float>(sum_gh / static_cast<double>(m));
            for (int n = 0; n < xs.n; ++n) {
              const std::size_t base = (static_cast<std::size_t>(n) * xs.c + c) * plane;
              for (std::size_t i = 0; i < plane; ++i) {
                xn->grad[base + i] += k * (self.grad[base + i] - mean_g -
                                           (*xhat)[base + i] * mean_gh);
              }
            }
          } else {
            for (int n = 0; n < xs.n; ++n) {
              const std::size_t base = (static_cast<std::size_t>(n) * xs.c + c) * plane;
              for (std::size_t i = 0; i < plane; ++i) {
                xn->grad[base + i] += k * self.grad[base + i];
              }
            }
          }
        }
      });
}

// --- ConvBnRelu ----------------------------------------------------------------

ConvBnRelu::ConvBnRelu(int in_channels, int out_channels, int kernel_h, int kernel_w,
                       Rng& rng)
    : conv_(in_channels, out_channels, kernel_h, kernel_w, rng, /*bias=*/false),
      bn_(out_channels) {
  register_child(&conv_);
  register_child(&bn_);
}

Tensor ConvBnRelu::forward(const Tensor& x) { return relu(bn_.forward(conv_.forward(x))); }

}  // namespace irf::nn
