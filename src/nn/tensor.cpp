#include "nn/tensor.hpp"

#include <algorithm>
#include <unordered_set>

#include "check/check.hpp"
#include "common/error.hpp"

namespace irf::nn {

namespace detail {
void throw_undefined(const char* accessor) {
  throw Error(std::string(accessor) + " on undefined tensor");
}
}  // namespace detail

namespace {
thread_local bool t_grad_enabled = true;
}  // namespace

NoGradGuard::NoGradGuard() : previous_(t_grad_enabled) { t_grad_enabled = false; }
NoGradGuard::~NoGradGuard() { t_grad_enabled = previous_; }

bool grad_enabled() { return t_grad_enabled; }

std::string Shape::str() const {
  return "[" + std::to_string(n) + "," + std::to_string(c) + "," + std::to_string(h) +
         "," + std::to_string(w) + "]";
}

namespace {
void check_shape(const Shape& shape) {
  if (shape.n <= 0 || shape.c <= 0 || shape.h <= 0 || shape.w <= 0) {
    throw DimensionError("tensor shape must be positive, got " + shape.str());
  }
}
}  // namespace

Tensor Tensor::zeros(Shape shape, bool requires_grad) {
  check_shape(shape);
  auto node = std::make_shared<detail::Node>();
  node->shape = shape;
  node->data.assign(static_cast<std::size_t>(shape.numel()), 0.0f);
  node->requires_grad = requires_grad;
  return wrap(std::move(node));
}

Tensor Tensor::full(Shape shape, float value, bool requires_grad) {
  Tensor t = zeros(shape, requires_grad);
  std::fill(t.data().begin(), t.data().end(), value);
  return t;
}

Tensor Tensor::from_data(Shape shape, std::vector<float> data, bool requires_grad) {
  check_shape(shape);
  if (static_cast<std::int64_t>(data.size()) != shape.numel()) {
    throw DimensionError("from_data: " + std::to_string(data.size()) +
                         " values for shape " + shape.str());
  }
  auto node = std::make_shared<detail::Node>();
  node->shape = shape;
  node->data = std::move(data);
  node->requires_grad = requires_grad;
  return wrap(std::move(node));
}

const Shape& Tensor::shape() const {
  if (!node_) detail::throw_undefined("shape()");
  return node_->shape;
}

bool Tensor::requires_grad() const {
  if (!node_) detail::throw_undefined("requires_grad()");
  return node_->requires_grad;
}

const std::vector<float>& Tensor::grad() const {
  if (!node_) detail::throw_undefined("grad()");
  return node_->grad;
}

std::vector<float>& Tensor::mutable_grad() {
  if (!node_) detail::throw_undefined("mutable_grad()");
  node_->ensure_grad();
  return node_->grad;
}

namespace {
std::size_t checked_index(const Shape& s, int n, int c, int h, int w) {
  IRF_CHECK(n >= 0 && n < s.n && c >= 0 && c < s.c && h >= 0 && h < s.h && w >= 0 &&
                w < s.w,
            "tensor index (" + std::to_string(n) + "," + std::to_string(c) + "," +
                std::to_string(h) + "," + std::to_string(w) +
                ") out of range for shape " + s.str());
  return ((static_cast<std::size_t>(n) * static_cast<std::size_t>(s.c) + c) *
              static_cast<std::size_t>(s.h) +
          h) *
             static_cast<std::size_t>(s.w) +
         w;
}
}  // namespace

float Tensor::at(int n, int c, int h, int w) const {
  return data()[checked_index(shape(), n, c, h, w)];
}

float& Tensor::at(int n, int c, int h, int w) {
  return data()[checked_index(shape(), n, c, h, w)];
}

float Tensor::scalar() const {
  if (numel() != 1) throw DimensionError("scalar() on tensor of shape " + shape().str());
  return data()[0];
}

GridF Tensor::to_grid(int n, int c) const {
  const Shape& s = shape();
  if (n < 0 || n >= s.n || c < 0 || c >= s.c) {
    throw DimensionError("to_grid: index out of range");
  }
  GridF grid(s.h, s.w);
  const std::size_t base =
      (static_cast<std::size_t>(n) * s.c + c) * static_cast<std::size_t>(s.h) * s.w;
  std::copy(data().begin() + base, data().begin() + base + grid.size(),
            grid.data().begin());
  return grid;
}

void Tensor::zero_grad() {
  if (node_ && !node_->grad.empty()) {
    std::fill(node_->grad.begin(), node_->grad.end(), 0.0f);
  }
}

void Tensor::backward() {
  if (!node_) detail::throw_undefined("backward()");
  if (numel() != 1) {
    throw DimensionError("backward() requires a scalar loss, got " + shape().str());
  }
  if (!node_->requires_grad) return;  // nothing reachable requires grad

  // Topological order via iterative post-order DFS.
  std::vector<detail::Node*> order;
  std::unordered_set<detail::Node*> visited;
  struct Frame {
    detail::Node* node;
    std::size_t next_parent;
  };
  std::vector<Frame> stack{{node_.get(), 0}};
  visited.insert(node_.get());
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next_parent < top.node->parents.size()) {
      detail::Node* parent = top.node->parents[top.next_parent++].get();
      if (parent->requires_grad && !visited.count(parent)) {
        visited.insert(parent);
        stack.push_back({parent, 0});
      }
    } else {
      order.push_back(top.node);
      stack.pop_back();
    }
  }

  node_->ensure_grad();
  node_->grad[0] = 1.0f;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    detail::Node* node = *it;
    if (node->backward_fn && !node->grad.empty()) node->backward_fn(*node);
  }
}

Tensor make_op_result(Shape shape, std::vector<float> data,
                      std::vector<std::shared_ptr<detail::Node>> parents,
                      std::function<void(detail::Node&)> backward_fn) {
  Tensor t = Tensor::from_data(shape, std::move(data));
  if (!t_grad_enabled) return t;
  bool needs_grad = false;
  for (const auto& p : parents) {
    if (p && p->requires_grad) needs_grad = true;
  }
  if (needs_grad) {
    t.node()->requires_grad = true;
    t.node()->parents = std::move(parents);
    t.node()->backward_fn = std::move(backward_fn);
  }
  return t;
}

}  // namespace irf::nn
