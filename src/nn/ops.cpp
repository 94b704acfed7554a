#include "nn/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "par/par.hpp"

namespace irf::nn {

namespace {

using detail::Node;
using NodePtr = std::shared_ptr<Node>;

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (!(a.shape() == b.shape())) {
    throw DimensionError(std::string(op) + ": shapes " + a.shape().str() + " vs " +
                         b.shape().str());
  }
}

inline std::size_t offset(const Shape& s, int n, int c, int y, int x) {
  return ((static_cast<std::size_t>(n) * s.c + c) * s.h + y) * s.w + x;
}

/// Elementwise unary op helper; bwd receives (gout, x, y) and returns dx.
template <typename Fwd, typename Bwd>
Tensor elementwise_unary(const Tensor& a, Fwd fwd, Bwd bwd) {
  std::vector<float> out(a.data().size());
  par::parallel_for(0, static_cast<std::int64_t>(out.size()), par::kVecGrain * 8,
                    [&](std::int64_t lo, std::int64_t hi) {
                      for (std::int64_t i = lo; i < hi; ++i) out[i] = fwd(a.data()[i]);
                    });
  NodePtr an = a.node();
  return make_op_result(a.shape(), std::move(out), {an}, [an, bwd](Node& self) {
    an->ensure_grad();
    for (std::size_t i = 0; i < self.grad.size(); ++i) {
      an->grad[i] += bwd(self.grad[i], an->data[i], self.data[i]);
    }
  });
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  std::vector<float> out(a.data().size());
  par::parallel_for(0, static_cast<std::int64_t>(out.size()), par::kVecGrain * 8,
                    [&](std::int64_t lo, std::int64_t hi) {
                      for (std::int64_t i = lo; i < hi; ++i) {
                        out[i] = a.data()[i] + b.data()[i];
                      }
                    });
  NodePtr an = a.node();
  NodePtr bn = b.node();
  return make_op_result(a.shape(), std::move(out), {an, bn}, [an, bn](Node& self) {
    for (Node* parent : {an.get(), bn.get()}) {
      if (!parent->requires_grad) continue;
      parent->ensure_grad();
      for (std::size_t i = 0; i < self.grad.size(); ++i) parent->grad[i] += self.grad[i];
    }
  });
}

Tensor scale(const Tensor& a, float factor) {
  return elementwise_unary(
      a, [factor](float x) { return x * factor; },
      [factor](float g, float, float) { return g * factor; });
}

Tensor relu(const Tensor& a) {
  return elementwise_unary(
      a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float g, float x, float) { return x > 0.0f ? g : 0.0f; });
}

Tensor sigmoid(const Tensor& a) {
  return elementwise_unary(
      a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float g, float, float y) { return g * y * (1.0f - y); });
}

namespace {

/// Geometry of one conv2d call, shared by forward and backward. Every conv
/// is stride 1 with "same" padding, so the output plane is the input plane.
struct ConvGeom {
  Shape xs, ws, os;
  int pad_h, pad_w;
  int patch;  ///< Cin * kh * kw (the im2col row count)
};

/// Work in a kernel small enough that forking the pool costs more than the
/// loop itself; such calls run inline (the grain covers the whole range).
constexpr std::int64_t kParThreshold = 1 << 20;

/// Grain selector: `chunk` items per chunk for big work, inline otherwise.
std::int64_t conv_grain(std::int64_t range, std::int64_t work, std::int64_t chunk = 1) {
  return work >= kParThreshold ? chunk : range;
}

/// Output columns [lo, hi) of a row whose tap kx reads input column
/// xo + kx - pad in bounds; the columns outside read the zero padding.
std::pair<int, int> in_bounds(int kx, int pad, int width) {
  const int lo = std::min(width, std::max(0, pad - kx));
  const int hi = std::max(lo, std::min(width, width + pad - kx));
  return {lo, hi};
}

/// im2col: expand one sample's receptive fields into a [patch, h*w] matrix.
/// Each (ci, ky, kx, y) row zero-fills its padded ends and copies the
/// in-bounds span. Parallel over input channels: channel ci owns rows
/// [ci*kh*kw, (ci+1)*kh*kw) of the col matrix, so chunks write disjoint memory.
void im2col(const float* x, const ConvGeom& g, int n, float* col) {
  const int h = g.xs.h;
  const int w = g.xs.w;
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  par::parallel_for(
      0, g.xs.c, conv_grain(g.xs.c, static_cast<std::int64_t>(g.patch) * plane),
      [&](std::int64_t clo, std::int64_t chi) {
  for (int ci = static_cast<int>(clo); ci < chi; ++ci) {
    const float* xc = x + offset(g.xs, n, ci, 0, 0);
    for (int ky = 0; ky < g.ws.h; ++ky) {
      for (int kx = 0; kx < g.ws.w; ++kx) {
        float* row = col + ((ci * g.ws.h + ky) * g.ws.w + kx) * plane;
        const auto [lo, hi] = in_bounds(kx, g.pad_w, w);
        const int shift = kx - g.pad_w;
        for (int y = 0; y < h; ++y) {
          float* out = row + static_cast<std::size_t>(y) * w;
          const int iy = y + ky - g.pad_h;
          if (iy < 0 || iy >= h || lo == hi) {
            std::fill(out, out + w, 0.0f);
            continue;
          }
          const float* xrow = xc + static_cast<std::size_t>(iy) * w;
          std::fill(out, out + lo, 0.0f);
          std::copy(xrow + (lo + shift), xrow + (hi + shift), out + lo);
          std::fill(out + hi, out + w, 0.0f);
        }
      }
    }
  }
      });
}

/// The B matrix of sample n's GEMM: a 1x1 conv reads x's [Cin, plane] slice
/// as it is; any other kernel is expanded into `scratch` first.
const float* conv_columns(const float* x, const ConvGeom& g, int n,
                          std::vector<float>& scratch) {
  if (g.ws.h == 1 && g.ws.w == 1) return x + offset(g.xs, n, 0, 0, 0);
  scratch.resize(static_cast<std::size_t>(g.patch) * g.os.h * g.os.w);
  im2col(x, g, n, scratch.data());
  return scratch.data();
}

/// col2im: scatter-add a [patch, h*w] gradient matrix back into x-grad.
/// Parallel over input channels: channel ci only touches x-grad plane ci,
/// so the overlapping (ky, kx) scatter windows stay within one chunk.
void col2im_add(const float* col, const ConvGeom& g, int n, float* xg) {
  const int h = g.xs.h;
  const int w = g.xs.w;
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  par::parallel_for(
      0, g.xs.c, conv_grain(g.xs.c, static_cast<std::int64_t>(g.patch) * plane),
      [&](std::int64_t clo, std::int64_t chi) {
  for (int ci = static_cast<int>(clo); ci < chi; ++ci) {
    float* xc = xg + offset(g.xs, n, ci, 0, 0);
    for (int ky = 0; ky < g.ws.h; ++ky) {
      for (int kx = 0; kx < g.ws.w; ++kx) {
        const float* row = col + ((ci * g.ws.h + ky) * g.ws.w + kx) * plane;
        const auto [lo, hi] = in_bounds(kx, g.pad_w, w);
        const int shift = kx - g.pad_w;
        for (int y = 0; y < h; ++y) {
          const int iy = y + ky - g.pad_h;
          if (iy < 0 || iy >= h) continue;
          const float* in = row + static_cast<std::size_t>(y) * w;
          float* xrow = xc + static_cast<std::size_t>(iy) * w;
          for (int xo = lo; xo < hi; ++xo) xrow[xo + shift] += in[xo];
        }
      }
    }
  }
      });
}

// The forward GEMM kernel. B is packed one 8-column strip at a time into a
// [k, 8] panel; each 4-row tile of C then keeps its 4 x 8 outputs in eight
// 4-lane registers over all of k. Every C element still sums its products
// c += a[p] * b[p] one at a time in ascending p, a separate multiply and
// add each (the -O2 build targets baseline x86-64: SSE2 mulps/addps, no
// FMA to contract into), so the register tile only changes which elements
// are in flight, not the bits of any of them.
using Vec4 = float __attribute__((vector_size(16)));

constexpr int kTileRows = 4;          ///< rows of C per register tile
constexpr int kStripCols = 8;         ///< columns of C per packed B strip
constexpr std::int64_t kStripsPerChunk = 16;  ///< pool grain, in strips

Vec4 load4(const float* p) {
  Vec4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store4(float* p, Vec4 v) { std::memcpy(p, &v, sizeof v); }

/// C[4, 8] += A[4, k] * panel[k, 8] for a full tile (lda = k, ldc = n).
void tile_4x8(const float* a, int k, const float* panel, float* c, int n) {
  const float* a0 = a;
  const float* a1 = a0 + k;
  const float* a2 = a1 + k;
  const float* a3 = a2 + k;
  float* c0 = c;
  float* c1 = c0 + n;
  float* c2 = c1 + n;
  float* c3 = c2 + n;
  Vec4 c00 = load4(c0), c01 = load4(c0 + 4);
  Vec4 c10 = load4(c1), c11 = load4(c1 + 4);
  Vec4 c20 = load4(c2), c21 = load4(c2 + 4);
  Vec4 c30 = load4(c3), c31 = load4(c3 + 4);
  for (int p = 0; p < k; ++p) {
    const Vec4 b0 = load4(panel + static_cast<std::size_t>(p) * kStripCols);
    const Vec4 b1 = load4(panel + static_cast<std::size_t>(p) * kStripCols + 4);
    c00 += a0[p] * b0;
    c01 += a0[p] * b1;
    c10 += a1[p] * b0;
    c11 += a1[p] * b1;
    c20 += a2[p] * b0;
    c21 += a2[p] * b1;
    c30 += a3[p] * b0;
    c31 += a3[p] * b1;
  }
  store4(c0, c00);
  store4(c0 + 4, c01);
  store4(c1, c10);
  store4(c1 + 4, c11);
  store4(c2, c20);
  store4(c2 + 4, c21);
  store4(c3, c30);
  store4(c3 + 4, c31);
}

/// C[1, 8] += A[1, k] * panel[k, 8] for a row left over below the last full
/// tile. The model's 1-output convs (CBAM's 7x7 spatial attention, the gate
/// projections, the head) are all such rows.
void tile_1x8(const float* a, int k, const float* panel, float* c) {
  Vec4 c0 = load4(c), c1 = load4(c + 4);
  for (int p = 0; p < k; ++p) {
    c0 += a[p] * load4(panel + static_cast<std::size_t>(p) * kStripCols);
    c1 += a[p] * load4(panel + static_cast<std::size_t>(p) * kStripCols + 4);
  }
  store4(c, c0);
  store4(c + 4, c1);
}

/// The same sums for a strip narrower than 8 columns (the last one when n is
/// not a multiple of 8): one scalar accumulator per output, in ascending p.
void tile_scalar(const float* a, int k, const float* panel, float* c, int n, int rows,
                 int cols) {
  float acc[kTileRows][kStripCols];
  for (int r = 0; r < rows; ++r) {
    for (int j = 0; j < cols; ++j) acc[r][j] = c[static_cast<std::size_t>(r) * n + j];
  }
  for (int p = 0; p < k; ++p) {
    const float* b = panel + static_cast<std::size_t>(p) * kStripCols;
    for (int r = 0; r < rows; ++r) {
      const float av = a[static_cast<std::size_t>(r) * k + p];
      for (int j = 0; j < cols; ++j) acc[r][j] += av * b[j];
    }
  }
  for (int r = 0; r < rows; ++r) {
    for (int j = 0; j < cols; ++j) c[static_cast<std::size_t>(r) * n + j] = acc[r][j];
  }
}

/// C[m,n] += A[m,k] * B[k,n], row-major. Column strips are independent, so
/// the pool splits the strip range; each chunk packs one strip at a time and
/// sweeps every row tile of C over it.
void gemm_accumulate(const float* a, const float* b, float* c, int m, int k, int n) {
  const std::int64_t strips = (n + kStripCols - 1) / kStripCols;
  const std::int64_t work = 2ll * m * k * n;
  par::parallel_for(
      0, strips, conv_grain(strips, work, kStripsPerChunk),
      [&](std::int64_t lo, std::int64_t hi) {
        std::vector<float> panel(static_cast<std::size_t>(k) * kStripCols);
        for (std::int64_t s = lo; s < hi; ++s) {
          const int j0 = static_cast<int>(s) * kStripCols;
          const int cols = std::min(kStripCols, n - j0);
          for (int p = 0; p < k; ++p) {
            const float* brow = b + static_cast<std::size_t>(p) * n + j0;
            std::copy(brow, brow + cols,
                      panel.data() + static_cast<std::size_t>(p) * kStripCols);
          }
          const auto a_row = [&](int i) { return a + static_cast<std::size_t>(i) * k; };
          const auto c_row = [&](int i) {
            return c + static_cast<std::size_t>(i) * n + j0;
          };
          if (cols < kStripCols) {
            for (int i = 0; i < m; i += kTileRows) {
              tile_scalar(a_row(i), k, panel.data(), c_row(i), n,
                          std::min(kTileRows, m - i), cols);
            }
            continue;
          }
          int i = 0;
          for (; i + kTileRows <= m; i += kTileRows) {
            tile_4x8(a_row(i), k, panel.data(), c_row(i), n);
          }
          for (; i < m; ++i) tile_1x8(a_row(i), k, panel.data(), c_row(i));
        }
      });
}

/// C[m,n] += A^T[m,k] * B[k,n] where A is stored [k,m]. Output row i reads
/// column i of A; iterating i outermost keeps writes disjoint per chunk and
/// preserves the ascending-p accumulation order of the old kernel.
void gemm_at_b_accumulate(const float* a, const float* b, float* c, int m, int k, int n) {
  const std::int64_t work = 2ll * m * k * n;
  par::parallel_for(0, m, conv_grain(m, work), [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      float* crow = c + static_cast<std::size_t>(i) * n;
      for (int p = 0; p < k; ++p) {
        const float av = a[static_cast<std::size_t>(p) * m + i];
        if (av == 0.0f) continue;
        const float* brow = b + static_cast<std::size_t>(p) * n;
        for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  });
}

/// dW-style: dW[Cout, patch] += dY[Cout, plane] x col^T[plane, patch].
/// Each output row i belongs to one chunk, so the += into dw never races.
void gemm_b_ct_accumulate(const float* dy, const float* col, float* dw, int cout,
                          int plane, int patch) {
  const std::int64_t work = 2ll * cout * plane * patch;
  par::parallel_for(0, cout, conv_grain(cout, work),
                    [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      const float* dyrow = dy + static_cast<std::size_t>(i) * plane;
      float* dwrow = dw + static_cast<std::size_t>(i) * patch;
      for (int p = 0; p < patch; ++p) {
        const float* colrow = col + static_cast<std::size_t>(p) * plane;
        float acc = 0.0f;
        for (int j = 0; j < plane; ++j) acc += dyrow[j] * colrow[j];
        dwrow[p] += acc;
      }
    }
  });
}

}  // namespace

Tensor conv2d(const Tensor& x, const Tensor& weight, const Tensor& bias) {
  const Shape& xs = x.shape();
  const Shape& ws = weight.shape();
  if (ws.c != xs.c) {
    throw DimensionError("conv2d: weight expects " + std::to_string(ws.c) +
                         " input channels, x has " + std::to_string(xs.c));
  }
  if (ws.h % 2 == 0 || ws.w % 2 == 0) {
    throw ConfigError("conv2d: 'same' padding needs an odd kernel, got " + ws.str());
  }
  const bool has_bias = bias.defined();
  if (has_bias) {
    const Shape expected{1, ws.n, 1, 1};
    if (!(bias.shape() == expected)) {
      throw DimensionError("conv2d: bias must be [1," + std::to_string(ws.n) + ",1,1]");
    }
  }

  const ConvGeom geom{xs, ws, Shape{xs.n, ws.n, xs.h, xs.w}, (ws.h - 1) / 2,
                      (ws.w - 1) / 2, xs.c * ws.h * ws.w};
  const Shape os = geom.os;
  const int plane = os.h * os.w;
  obs::count("nn.conv_macs", static_cast<std::uint64_t>(os.numel()) * geom.patch);
  std::vector<float> out(static_cast<std::size_t>(os.numel()), 0.0f);
  std::vector<float> scratch;

  // Forward: per sample, y[Cout, plane] = W[Cout, patch] x col[patch, plane].
  for (int n = 0; n < xs.n; ++n) {
    const float* col = conv_columns(x.data().data(), geom, n, scratch);
    float* y = out.data() + offset(os, n, 0, 0, 0);
    if (has_bias) {
      for (int co = 0; co < ws.n; ++co) {
        std::fill(y + static_cast<std::size_t>(co) * plane,
                  y + static_cast<std::size_t>(co + 1) * plane,
                  bias.data()[static_cast<std::size_t>(co)]);
      }
    }
    gemm_accumulate(weight.data().data(), col, y, ws.n, geom.patch, plane);
  }

  NodePtr xn = x.node();
  NodePtr wn = weight.node();
  NodePtr bn = has_bias ? bias.node() : nullptr;
  std::vector<NodePtr> parents{xn, wn};
  if (bn) parents.push_back(bn);
  auto backward = [xn, wn, bn, geom, os, plane](Node& self) {
    const bool need_x = xn->requires_grad;
    const bool need_w = wn->requires_grad;
    const bool need_b = bn && bn->requires_grad;
    if (need_x) xn->ensure_grad();
    if (need_w) wn->ensure_grad();
    if (need_b) bn->ensure_grad();
    std::vector<float> scratch;
    std::vector<float> dcol(static_cast<std::size_t>(geom.patch) * plane);
    for (int n = 0; n < geom.xs.n; ++n) {
      const float* dy = self.grad.data() + offset(os, n, 0, 0, 0);
      if (need_b) {
        for (int co = 0; co < geom.ws.n; ++co) {
          float acc = 0.0f;
          const float* dyrow = dy + static_cast<std::size_t>(co) * plane;
          for (int j = 0; j < plane; ++j) acc += dyrow[j];
          bn->grad[static_cast<std::size_t>(co)] += acc;
        }
      }
      if (need_w) {
        // dW[Cout, patch] += dY[Cout, plane] x col^T[plane, patch].
        gemm_b_ct_accumulate(dy, conv_columns(xn->data.data(), geom, n, scratch),
                             wn->grad.data(), geom.ws.n, plane, geom.patch);
      }
      if (need_x) {
        // dcol[patch, plane] = W^T[patch, Cout] x dY[Cout, plane].
        std::fill(dcol.begin(), dcol.end(), 0.0f);
        gemm_at_b_accumulate(wn->data.data(), dy, dcol.data(), geom.patch, geom.ws.n,
                             plane);
        col2im_add(dcol.data(), geom, n, xn->grad.data());
      }
    }
  };
  return make_op_result(os, std::move(out), std::move(parents), std::move(backward));
}

Tensor maxpool2d(const Tensor& x, int k) {
  const Shape& xs = x.shape();
  if (k < 1 || xs.h % k != 0 || xs.w % k != 0) {
    throw DimensionError("maxpool2d: " + xs.str() + " not divisible by k=" +
                         std::to_string(k));
  }
  Shape os{xs.n, xs.c, xs.h / k, xs.w / k};
  std::vector<float> out(static_cast<std::size_t>(os.numel()));
  auto argmax = std::make_shared<std::vector<std::size_t>>(out.size());
  for (int n = 0; n < xs.n; ++n) {
    for (int c = 0; c < xs.c; ++c) {
      for (int y = 0; y < os.h; ++y) {
        for (int xo = 0; xo < os.w; ++xo) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (int dy = 0; dy < k; ++dy) {
            for (int dx = 0; dx < k; ++dx) {
              const std::size_t idx = offset(xs, n, c, y * k + dy, xo * k + dx);
              if (x.data()[idx] > best) {
                best = x.data()[idx];
                best_idx = idx;
              }
            }
          }
          const std::size_t o = offset(os, n, c, y, xo);
          out[o] = best;
          (*argmax)[o] = best_idx;
        }
      }
    }
  }
  NodePtr xn = x.node();
  return make_op_result(os, std::move(out), {xn}, [xn, argmax](Node& self) {
    xn->ensure_grad();
    for (std::size_t o = 0; o < self.grad.size(); ++o) {
      xn->grad[(*argmax)[o]] += self.grad[o];
    }
  });
}

Tensor avgpool2d(const Tensor& x, int k) {
  const Shape& xs = x.shape();
  if (k < 1 || xs.h % k != 0 || xs.w % k != 0) {
    throw DimensionError("avgpool2d: " + xs.str() + " not divisible by k=" +
                         std::to_string(k));
  }
  Shape os{xs.n, xs.c, xs.h / k, xs.w / k};
  std::vector<float> out(static_cast<std::size_t>(os.numel()), 0.0f);
  const float inv = 1.0f / static_cast<float>(k * k);
  for (int n = 0; n < xs.n; ++n) {
    for (int c = 0; c < xs.c; ++c) {
      for (int y = 0; y < os.h; ++y) {
        for (int xo = 0; xo < os.w; ++xo) {
          float acc = 0.0f;
          for (int dy = 0; dy < k; ++dy)
            for (int dx = 0; dx < k; ++dx)
              acc += x.data()[offset(xs, n, c, y * k + dy, xo * k + dx)];
          out[offset(os, n, c, y, xo)] = acc * inv;
        }
      }
    }
  }
  NodePtr xn = x.node();
  return make_op_result(os, std::move(out), {xn}, [xn, k, xs, os, inv](Node& self) {
    xn->ensure_grad();
    for (int n = 0; n < os.n; ++n) {
      for (int c = 0; c < os.c; ++c) {
        for (int y = 0; y < os.h; ++y) {
          for (int xo = 0; xo < os.w; ++xo) {
            const float g = self.grad[offset(os, n, c, y, xo)] * inv;
            for (int dy = 0; dy < k; ++dy)
              for (int dx = 0; dx < k; ++dx)
                xn->grad[offset(xs, n, c, y * k + dy, xo * k + dx)] += g;
          }
        }
      }
    }
  });
}

Tensor avgpool3x3_same(const Tensor& x) {
  const Shape& xs = x.shape();
  std::vector<float> out(x.data().size(), 0.0f);
  // Per-output inverse window size (borders see smaller windows).
  auto inv_count = std::make_shared<std::vector<float>>(x.data().size(), 0.0f);
  for (int n = 0; n < xs.n; ++n) {
    for (int c = 0; c < xs.c; ++c) {
      for (int y = 0; y < xs.h; ++y) {
        for (int xo = 0; xo < xs.w; ++xo) {
          float acc = 0.0f;
          int count = 0;
          for (int dy = -1; dy <= 1; ++dy) {
            const int iy = y + dy;
            if (iy < 0 || iy >= xs.h) continue;
            for (int dx = -1; dx <= 1; ++dx) {
              const int ix = xo + dx;
              if (ix < 0 || ix >= xs.w) continue;
              acc += x.data()[offset(xs, n, c, iy, ix)];
              ++count;
            }
          }
          const std::size_t o = offset(xs, n, c, y, xo);
          out[o] = acc / static_cast<float>(count);
          (*inv_count)[o] = 1.0f / static_cast<float>(count);
        }
      }
    }
  }
  NodePtr xn = x.node();
  return make_op_result(xs, std::move(out), {xn}, [xn, xs, inv_count](Node& self) {
    xn->ensure_grad();
    for (int n = 0; n < xs.n; ++n) {
      for (int c = 0; c < xs.c; ++c) {
        for (int y = 0; y < xs.h; ++y) {
          for (int xo = 0; xo < xs.w; ++xo) {
            const std::size_t o = offset(xs, n, c, y, xo);
            const float g = self.grad[o] * (*inv_count)[o];
            if (g == 0.0f) continue;
            for (int dy = -1; dy <= 1; ++dy) {
              const int iy = y + dy;
              if (iy < 0 || iy >= xs.h) continue;
              for (int dx = -1; dx <= 1; ++dx) {
                const int ix = xo + dx;
                if (ix < 0 || ix >= xs.w) continue;
                xn->grad[offset(xs, n, c, iy, ix)] += g;
              }
            }
          }
        }
      }
    }
  });
}

Tensor upsample_nearest(const Tensor& x, int factor) {
  if (factor < 1) throw ConfigError("upsample_nearest: factor must be >= 1");
  const Shape& xs = x.shape();
  Shape os{xs.n, xs.c, xs.h * factor, xs.w * factor};
  std::vector<float> out(static_cast<std::size_t>(os.numel()));
  for (int n = 0; n < xs.n; ++n) {
    for (int c = 0; c < xs.c; ++c) {
      for (int y = 0; y < os.h; ++y) {
        for (int xo = 0; xo < os.w; ++xo) {
          out[offset(os, n, c, y, xo)] =
              x.data()[offset(xs, n, c, y / factor, xo / factor)];
        }
      }
    }
  }
  NodePtr xn = x.node();
  return make_op_result(os, std::move(out), {xn}, [xn, xs, os, factor](Node& self) {
    xn->ensure_grad();
    for (int n = 0; n < os.n; ++n) {
      for (int c = 0; c < os.c; ++c) {
        for (int y = 0; y < os.h; ++y) {
          for (int xo = 0; xo < os.w; ++xo) {
            xn->grad[offset(xs, n, c, y / factor, xo / factor)] +=
                self.grad[offset(os, n, c, y, xo)];
          }
        }
      }
    }
  });
}

Tensor upsample_nearest2x(const Tensor& x) { return upsample_nearest(x, 2); }

Tensor global_avg_pool(const Tensor& x) {
  const Shape& xs = x.shape();
  Shape os{xs.n, xs.c, 1, 1};
  std::vector<float> out(static_cast<std::size_t>(os.numel()), 0.0f);
  const float inv = 1.0f / static_cast<float>(xs.h * xs.w);
  for (int n = 0; n < xs.n; ++n) {
    for (int c = 0; c < xs.c; ++c) {
      float acc = 0.0f;
      const std::size_t base = offset(xs, n, c, 0, 0);
      for (int i = 0; i < xs.h * xs.w; ++i) acc += x.data()[base + i];
      out[static_cast<std::size_t>(n) * xs.c + c] = acc * inv;
    }
  }
  NodePtr xn = x.node();
  return make_op_result(os, std::move(out), {xn}, [xn, xs, inv](Node& self) {
    xn->ensure_grad();
    for (int n = 0; n < xs.n; ++n) {
      for (int c = 0; c < xs.c; ++c) {
        const float g = self.grad[static_cast<std::size_t>(n) * xs.c + c] * inv;
        const std::size_t base = offset(xs, n, c, 0, 0);
        for (int i = 0; i < xs.h * xs.w; ++i) xn->grad[base + i] += g;
      }
    }
  });
}

Tensor global_max_pool(const Tensor& x) {
  const Shape& xs = x.shape();
  Shape os{xs.n, xs.c, 1, 1};
  std::vector<float> out(static_cast<std::size_t>(os.numel()));
  auto argmax = std::make_shared<std::vector<std::size_t>>(out.size());
  for (int n = 0; n < xs.n; ++n) {
    for (int c = 0; c < xs.c; ++c) {
      const std::size_t base = offset(xs, n, c, 0, 0);
      float best = -std::numeric_limits<float>::infinity();
      std::size_t best_idx = base;
      for (int i = 0; i < xs.h * xs.w; ++i) {
        if (x.data()[base + i] > best) {
          best = x.data()[base + i];
          best_idx = base + i;
        }
      }
      const std::size_t o = static_cast<std::size_t>(n) * xs.c + c;
      out[o] = best;
      (*argmax)[o] = best_idx;
    }
  }
  NodePtr xn = x.node();
  return make_op_result(os, std::move(out), {xn}, [xn, argmax](Node& self) {
    xn->ensure_grad();
    for (std::size_t o = 0; o < self.grad.size(); ++o) {
      xn->grad[(*argmax)[o]] += self.grad[o];
    }
  });
}

Tensor concat_channels(const std::vector<Tensor>& parts) {
  if (parts.empty()) throw DimensionError("concat_channels: no inputs");
  const Shape& first = parts.front().shape();
  int total_c = 0;
  for (const Tensor& t : parts) {
    const Shape& s = t.shape();
    if (s.n != first.n || s.h != first.h || s.w != first.w) {
      throw DimensionError("concat_channels: mismatched shapes " + first.str() + " vs " +
                           s.str());
    }
    total_c += s.c;
  }
  Shape os{first.n, total_c, first.h, first.w};
  std::vector<float> out(static_cast<std::size_t>(os.numel()));
  const std::size_t plane = static_cast<std::size_t>(first.h) * first.w;
  for (int n = 0; n < os.n; ++n) {
    int c_base = 0;
    for (const Tensor& t : parts) {
      const int tc = t.shape().c;
      std::copy(t.data().begin() + static_cast<std::size_t>(n) * tc * plane,
                t.data().begin() + static_cast<std::size_t>(n + 1) * tc * plane,
                out.begin() + (static_cast<std::size_t>(n) * total_c + c_base) * plane);
      c_base += tc;
    }
  }
  std::vector<NodePtr> parents;
  std::vector<int> channels;
  for (const Tensor& t : parts) {
    parents.push_back(t.node());
    channels.push_back(t.shape().c);
  }
  auto parents_copy = parents;
  return make_op_result(
      os, std::move(out), std::move(parents),
      [parents = std::move(parents_copy), channels, os, plane](Node& self) {
        for (int n = 0; n < os.n; ++n) {
          int c_base = 0;
          for (std::size_t p = 0; p < parents.size(); ++p) {
            const int tc = channels[p];
            if (parents[p]->requires_grad) {
              parents[p]->ensure_grad();
              const std::size_t src =
                  (static_cast<std::size_t>(n) * os.c + c_base) * plane;
              const std::size_t dst = static_cast<std::size_t>(n) * tc * plane;
              for (std::size_t i = 0; i < static_cast<std::size_t>(tc) * plane; ++i) {
                parents[p]->grad[dst + i] += self.grad[src + i];
              }
            }
            c_base += tc;
          }
        }
      });
}

Tensor mul_channel(const Tensor& x, const Tensor& s) {
  const Shape& xs = x.shape();
  const Shape expected{xs.n, xs.c, 1, 1};
  if (!(s.shape() == expected)) {
    throw DimensionError("mul_channel: scale must be " + expected.str() + ", got " +
                         s.shape().str());
  }
  std::vector<float> out(x.data().size());
  const std::size_t plane = static_cast<std::size_t>(xs.h) * xs.w;
  for (int n = 0; n < xs.n; ++n) {
    for (int c = 0; c < xs.c; ++c) {
      const float f = s.data()[static_cast<std::size_t>(n) * xs.c + c];
      const std::size_t base = (static_cast<std::size_t>(n) * xs.c + c) * plane;
      for (std::size_t i = 0; i < plane; ++i) out[base + i] = x.data()[base + i] * f;
    }
  }
  NodePtr xn = x.node();
  NodePtr sn = s.node();
  return make_op_result(xs, std::move(out), {xn, sn}, [xn, sn, xs, plane](Node& self) {
    const bool need_x = xn->requires_grad;
    const bool need_s = sn->requires_grad;
    if (need_x) xn->ensure_grad();
    if (need_s) sn->ensure_grad();
    for (int n = 0; n < xs.n; ++n) {
      for (int c = 0; c < xs.c; ++c) {
        const std::size_t si = static_cast<std::size_t>(n) * xs.c + c;
        const float f = sn->data[si];
        const std::size_t base = si * plane;
        float s_acc = 0.0f;
        for (std::size_t i = 0; i < plane; ++i) {
          const float g = self.grad[base + i];
          if (need_x) xn->grad[base + i] += g * f;
          s_acc += g * xn->data[base + i];
        }
        if (need_s) sn->grad[si] += s_acc;
      }
    }
  });
}

Tensor mul_spatial(const Tensor& x, const Tensor& s) {
  const Shape& xs = x.shape();
  const Shape expected{xs.n, 1, xs.h, xs.w};
  if (!(s.shape() == expected)) {
    throw DimensionError("mul_spatial: scale must be " + expected.str() + ", got " +
                         s.shape().str());
  }
  std::vector<float> out(x.data().size());
  const std::size_t plane = static_cast<std::size_t>(xs.h) * xs.w;
  for (int n = 0; n < xs.n; ++n) {
    const std::size_t sbase = static_cast<std::size_t>(n) * plane;
    for (int c = 0; c < xs.c; ++c) {
      const std::size_t base = (static_cast<std::size_t>(n) * xs.c + c) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        out[base + i] = x.data()[base + i] * s.data()[sbase + i];
      }
    }
  }
  NodePtr xn = x.node();
  NodePtr sn = s.node();
  return make_op_result(xs, std::move(out), {xn, sn}, [xn, sn, xs, plane](Node& self) {
    const bool need_x = xn->requires_grad;
    const bool need_s = sn->requires_grad;
    if (need_x) xn->ensure_grad();
    if (need_s) sn->ensure_grad();
    for (int n = 0; n < xs.n; ++n) {
      const std::size_t sbase = static_cast<std::size_t>(n) * plane;
      for (int c = 0; c < xs.c; ++c) {
        const std::size_t base = (static_cast<std::size_t>(n) * xs.c + c) * plane;
        for (std::size_t i = 0; i < plane; ++i) {
          const float g = self.grad[base + i];
          if (need_x) xn->grad[base + i] += g * sn->data[sbase + i];
          if (need_s) sn->grad[sbase + i] += g * xn->data[base + i];
        }
      }
    }
  });
}

Tensor channel_mean(const Tensor& x) {
  const Shape& xs = x.shape();
  Shape os{xs.n, 1, xs.h, xs.w};
  std::vector<float> out(static_cast<std::size_t>(os.numel()), 0.0f);
  const std::size_t plane = static_cast<std::size_t>(xs.h) * xs.w;
  const float inv = 1.0f / static_cast<float>(xs.c);
  for (int n = 0; n < xs.n; ++n) {
    for (int c = 0; c < xs.c; ++c) {
      const std::size_t base = (static_cast<std::size_t>(n) * xs.c + c) * plane;
      const std::size_t obase = static_cast<std::size_t>(n) * plane;
      for (std::size_t i = 0; i < plane; ++i) out[obase + i] += x.data()[base + i] * inv;
    }
  }
  NodePtr xn = x.node();
  return make_op_result(os, std::move(out), {xn}, [xn, xs, plane, inv](Node& self) {
    xn->ensure_grad();
    for (int n = 0; n < xs.n; ++n) {
      const std::size_t obase = static_cast<std::size_t>(n) * plane;
      for (int c = 0; c < xs.c; ++c) {
        const std::size_t base = (static_cast<std::size_t>(n) * xs.c + c) * plane;
        for (std::size_t i = 0; i < plane; ++i) {
          xn->grad[base + i] += self.grad[obase + i] * inv;
        }
      }
    }
  });
}

Tensor channel_max(const Tensor& x) {
  const Shape& xs = x.shape();
  Shape os{xs.n, 1, xs.h, xs.w};
  std::vector<float> out(static_cast<std::size_t>(os.numel()));
  auto argmax = std::make_shared<std::vector<int>>(out.size());
  const std::size_t plane = static_cast<std::size_t>(xs.h) * xs.w;
  for (int n = 0; n < xs.n; ++n) {
    const std::size_t obase = static_cast<std::size_t>(n) * plane;
    for (std::size_t i = 0; i < plane; ++i) {
      float best = -std::numeric_limits<float>::infinity();
      int best_c = 0;
      for (int c = 0; c < xs.c; ++c) {
        const float v = x.data()[(static_cast<std::size_t>(n) * xs.c + c) * plane + i];
        if (v > best) {
          best = v;
          best_c = c;
        }
      }
      out[obase + i] = best;
      (*argmax)[obase + i] = best_c;
    }
  }
  NodePtr xn = x.node();
  return make_op_result(os, std::move(out), {xn}, [xn, xs, plane, argmax](Node& self) {
    xn->ensure_grad();
    for (int n = 0; n < xs.n; ++n) {
      const std::size_t obase = static_cast<std::size_t>(n) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        const int c = (*argmax)[obase + i];
        xn->grad[(static_cast<std::size_t>(n) * xs.c + c) * plane + i] +=
            self.grad[obase + i];
      }
    }
  });
}

namespace {
Tensor reduction_loss(const Tensor& pred, const Tensor& target, const Tensor* weight) {
  check_same_shape(pred, target, "loss");
  if (weight) check_same_shape(pred, *weight, "loss weight");
  const std::size_t n = pred.data().size();
  // Deterministic chunked sum (see par::parallel_reduce): per-sample loss
  // accumulation parallelizes without changing bits across thread counts.
  const double acc = par::parallel_reduce(
      0, static_cast<std::int64_t>(n), par::kReduceGrain, 0.0,
      [&](std::int64_t lo, std::int64_t hi) {
        double s = 0.0;
        for (std::int64_t i = lo; i < hi; ++i) {
          const double d = static_cast<double>(pred.data()[i]) - target.data()[i];
          const double w = weight ? weight->data()[i] : 1.0;
          s += w * (d * d);
        }
        return s;
      },
      [](double x, double y) { return x + y; });
  const float inv = 1.0f / static_cast<float>(n);
  std::vector<float> out{static_cast<float>(acc / static_cast<double>(n))};
  NodePtr pn = pred.node();
  NodePtr tn = target.node();
  NodePtr wn = weight ? weight->node() : nullptr;
  std::vector<NodePtr> parents{pn, tn};
  if (wn) parents.push_back(wn);
  return make_op_result(
      Shape{1, 1, 1, 1}, std::move(out), std::move(parents),
      [pn, tn, wn, inv](Node& self) {
        // Gradient only w.r.t. pred; target/weight are labels (constants).
        if (!pn->requires_grad) return;
        pn->ensure_grad();
        const float g = self.grad[0] * inv;
        for (std::size_t i = 0; i < pn->data.size(); ++i) {
          const float d = pn->data[i] - tn->data[i];
          const float w = wn ? wn->data[i] : 1.0f;
          pn->grad[i] += g * w * (2.0f * d);
        }
      });
}
}  // namespace

Tensor mse_loss(const Tensor& pred, const Tensor& target) {
  return reduction_loss(pred, target, nullptr);
}

Tensor weighted_mse_loss(const Tensor& pred, const Tensor& target, const Tensor& weight) {
  return reduction_loss(pred, target, &weight);
}

}  // namespace irf::nn
