#pragma once

/// \file tensor.hpp
/// A small tape-based autograd engine over 4-D NCHW float tensors — the
/// training substrate for every model in this repository (the paper trains
/// with a standard deep-learning framework; we build the equivalent from
/// scratch, see DESIGN.md Section 1).
///
/// Tensor is a cheap value-semantic handle to a shared graph node. Ops in
/// ops.hpp build the tape; Tensor::backward() runs reverse-mode
/// differentiation over the recorded graph.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/grid2d.hpp"

namespace irf::nn {

/// NCHW shape. Scalars are [1,1,1,1]; per-channel vectors are [1,C,1,1].
struct Shape {
  int n = 1, c = 1, h = 1, w = 1;

  std::int64_t numel() const {
    return static_cast<std::int64_t>(n) * c * h * w;
  }
  bool operator==(const Shape&) const = default;
  std::string str() const;
};

class Tensor;

namespace detail {

/// Graph node: storage + tape edge. Not used directly by client code.
struct Node {
  Shape shape;
  std::vector<float> data;
  std::vector<float> grad;  ///< allocated lazily during backward
  bool requires_grad = false;
  std::vector<std::shared_ptr<Node>> parents;
  /// Propagates this node's grad into its parents' grads.
  std::function<void(Node&)> backward_fn;

  void ensure_grad() {
    if (grad.empty()) grad.assign(data.size(), 0.0f);
  }
};

/// Throws irf::Error for `accessor` called on an undefined tensor. Out of
/// line, so the inline accessors stay a null test and a load.
[[noreturn]] void throw_undefined(const char* accessor);

}  // namespace detail

/// Disables tape recording on the calling thread while alive: ops return
/// results with no parents, no backward closure and requires_grad() false,
/// and BatchNorm2d keeps no normalized-activation cache, so each activation
/// dies with its last handle. Guards nest; each restores the mode it found.
/// Thread-local, so inference on one thread never changes training on another.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

/// False while a NoGradGuard is alive on the calling thread.
bool grad_enabled();

/// Value-semantic handle to a graph node.
class Tensor {
 public:
  Tensor() = default;

  /// Fresh tensor of zeros.
  static Tensor zeros(Shape shape, bool requires_grad = false);
  /// Fresh tensor filled with `value`.
  static Tensor full(Shape shape, float value, bool requires_grad = false);
  /// Copy data in (size must match shape.numel()).
  static Tensor from_data(Shape shape, std::vector<float> data,
                          bool requires_grad = false);

  bool defined() const { return node_ != nullptr; }
  const Shape& shape() const;
  std::int64_t numel() const { return shape().numel(); }
  bool requires_grad() const;

  std::vector<float>& data() {
    if (!node_) detail::throw_undefined("data()");
    return node_->data;
  }
  const std::vector<float>& data() const {
    if (!node_) detail::throw_undefined("data()");
    return node_->data;
  }
  /// Gradient buffer (empty until backward() touches this node).
  const std::vector<float>& grad() const;
  std::vector<float>& mutable_grad();

  float scalar() const;  ///< value of a 1-element tensor

  /// Bounds-checked NCHW element access (debug/test helper; hot kernels
  /// index data() directly). Out-of-range indices trip IRF_CHECK when the
  /// invariant checker is on (docs/CORRECTNESS.md).
  float at(int n, int c, int h, int w) const;
  float& at(int n, int c, int h, int w);

  /// Extract channel (n, c) as a Grid2D (detached copy).
  GridF to_grid(int n = 0, int c = 0) const;

  /// Reverse-mode autodiff from this scalar tensor (numel()==1), seeding
  /// d(self)/d(self) = 1. Accumulates into .grad() of every requires_grad
  /// node reachable through the tape.
  void backward();

  /// Zero this node's grad buffer if allocated.
  void zero_grad();

  // --- Internal helpers used by ops.cpp ---------------------------------
  std::shared_ptr<detail::Node> node() const { return node_; }
  static Tensor wrap(std::shared_ptr<detail::Node> node) {
    Tensor t;
    t.node_ = std::move(node);
    return t;
  }

 private:
  std::shared_ptr<detail::Node> node_;
};

/// Create a result node for an op. `parents` that require grad make the
/// result require grad; `backward_fn` is only stored in that case, and
/// neither is while a NoGradGuard is alive.
Tensor make_op_result(Shape shape, std::vector<float> data,
                      std::vector<std::shared_ptr<detail::Node>> parents,
                      std::function<void(detail::Node&)> backward_fn);

}  // namespace irf::nn
