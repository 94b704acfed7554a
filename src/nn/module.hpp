#pragma once

/// \file module.hpp
/// Stateful layers. Anything with trainable parameters or train/eval mode
/// lives here; stateless math stays in ops.hpp. Modules register children so
/// parameters() and set_training() reach the whole tree.

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "nn/ops.hpp"
#include "nn/tensor.hpp"

namespace irf::nn {

class Module {
 public:
  virtual ~Module() = default;

  // Modules register raw pointers to their children and buffers; copying or
  // moving would leave those pointers dangling. Construct in place and hold
  // through unique_ptr.
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

 protected:
  Module() = default;

 public:

  /// All trainable parameters of this module and its children.
  std::vector<Tensor> parameters() const;

  /// All persistent non-trainable state (BatchNorm running statistics) of
  /// this module and its children, in registration order. Checkpoints must
  /// include these alongside the parameters.
  std::vector<std::vector<float>*> buffers();

  /// Switch train/eval mode (BatchNorm behaviour) for the whole tree.
  void set_training(bool training);
  bool is_training() const { return training_; }

  /// Total parameter scalar count (for model-size logs).
  std::int64_t num_parameters() const;

 protected:
  /// Register a trainable tensor; returns it for storing in the layer.
  Tensor register_parameter(Tensor t);
  /// Register persistent non-trainable state (the vector must outlive the
  /// module registering it — i.e. be a member of that module).
  void register_buffer(std::vector<float>& buffer);
  /// Register a child module (does not own it — owner keeps the unique_ptr).
  void register_child(Module* child);

 private:
  std::vector<Tensor> params_;
  std::vector<std::vector<float>*> buffers_;
  std::vector<Module*> children_;
  bool training_ = true;
};

/// 2-D convolution layer with bias.
class Conv2d : public Module {
 public:
  Conv2d(int in_channels, int out_channels, int kernel_h, int kernel_w, Rng& rng,
         bool bias = true);
  Conv2d(int in_channels, int out_channels, int kernel, Rng& rng, bool bias = true)
      : Conv2d(in_channels, out_channels, kernel, kernel, rng, bias) {}

  Tensor forward(const Tensor& x) const;

  int in_channels() const { return in_channels_; }
  int out_channels() const { return out_channels_; }

 private:
  int in_channels_;
  int out_channels_;
  Tensor weight_;
  Tensor bias_;
};

/// Batch normalization over (N, H, W) per channel with running statistics.
class BatchNorm2d : public Module {
 public:
  BatchNorm2d(int channels, double momentum = 0.1, double eps = 1e-5);

  Tensor forward(const Tensor& x);


 private:
  int channels_;
  double momentum_;
  double eps_;
  Tensor gamma_;
  Tensor beta_;
  std::vector<float> running_mean_;
  std::vector<float> running_var_;
};

/// Conv -> BatchNorm -> ReLU, the standard U-Net building brick.
class ConvBnRelu : public Module {
 public:
  ConvBnRelu(int in_channels, int out_channels, int kernel_h, int kernel_w, Rng& rng);
  ConvBnRelu(int in_channels, int out_channels, int kernel, Rng& rng)
      : ConvBnRelu(in_channels, out_channels, kernel, kernel, rng) {}

  Tensor forward(const Tensor& x);

 private:
  Conv2d conv_;
  BatchNorm2d bn_;
};

}  // namespace irf::nn
