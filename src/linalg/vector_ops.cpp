#include "linalg/vector_ops.hpp"

#include <cmath>

#include "common/error.hpp"
#include "par/par.hpp"

namespace irf::linalg {

namespace {
void check_same_size(const Vec& a, const Vec& b, const char* op) {
  if (a.size() != b.size()) {
    throw DimensionError(std::string(op) + ": vector sizes differ (" +
                         std::to_string(a.size()) + " vs " + std::to_string(b.size()) +
                         ")");
  }
}

// Blocked dot over [0, n): accumulator l owns the elements congruent to l
// mod kDotLanes and the partials fold in ascending order. The written pattern
// (not the compiler's vectorization) defines the rounding.
constexpr int kDotLanes = 8;

double blocked_dot(const double* a, const double* b, std::int64_t n) {
  double acc[kDotLanes] = {};
  const std::int64_t nblk = n - n % kDotLanes;
  for (std::int64_t i = 0; i < nblk; i += kDotLanes) {
    for (int l = 0; l < kDotLanes; ++l) acc[l] += a[i + l] * b[i + l];
  }
  for (std::int64_t i = nblk; i < n; ++i) acc[i - nblk] += a[i] * b[i];
  double s = 0.0;
  for (int l = 0; l < kDotLanes; ++l) s += acc[l];
  return s;
}
}  // namespace

double dot(const Vec& a, const Vec& b) {
  check_same_size(a, b, "dot");
  // Chunked deterministic reduction: the partial layout depends only on the
  // grain, and each chunk runs the fixed blocked pattern, so the result is
  // bit-identical for any IRF_THREADS.
  return par::parallel_reduce(
      0, static_cast<std::int64_t>(a.size()), par::kReduceGrain, 0.0,
      [&](std::int64_t lo, std::int64_t hi) {
        return blocked_dot(a.data() + lo, b.data() + lo, hi - lo);
      },
      [](double x, double y) { return x + y; });
}

double norm2(const Vec& a) { return std::sqrt(dot(a, a)); }

double norm_inf(const Vec& a) {
  return par::parallel_reduce(
      0, static_cast<std::int64_t>(a.size()), par::kReduceGrain, 0.0,
      [&](std::int64_t lo, std::int64_t hi) {
        double m = 0.0;
        for (std::int64_t i = lo; i < hi; ++i) m = std::max(m, std::abs(a[i]));
        return m;
      },
      [](double x, double y) { return std::max(x, y); });
}

void axpy(double alpha, const Vec& x, Vec& y) {
  check_same_size(x, y, "axpy");
  par::parallel_for(0, static_cast<std::int64_t>(x.size()), par::kVecGrain,
                    [&](std::int64_t lo, std::int64_t hi) {
                      for (std::int64_t i = lo; i < hi; ++i) y[i] += alpha * x[i];
                    });
}

void xpby(const Vec& x, double beta, Vec& y) {
  check_same_size(x, y, "xpby");
  par::parallel_for(0, static_cast<std::int64_t>(x.size()), par::kVecGrain,
                    [&](std::int64_t lo, std::int64_t hi) {
                      for (std::int64_t i = lo; i < hi; ++i) y[i] = x[i] + beta * y[i];
                    });
}

void scale(Vec& a, double alpha) {
  par::parallel_for(0, static_cast<std::int64_t>(a.size()), par::kVecGrain,
                    [&](std::int64_t lo, std::int64_t hi) {
                      for (std::int64_t i = lo; i < hi; ++i) a[i] *= alpha;
                    });
}

Vec subtract(const Vec& a, const Vec& b) {
  check_same_size(a, b, "subtract");
  Vec out(a.size());
  par::parallel_for(0, static_cast<std::int64_t>(a.size()), par::kVecGrain,
                    [&](std::int64_t lo, std::int64_t hi) {
                      for (std::int64_t i = lo; i < hi; ++i) out[i] = a[i] - b[i];
                    });
  return out;
}

bool has_non_finite(const Vec& a) {
  for (double v : a) {
    if (!std::isfinite(v)) return true;
  }
  return false;
}

}  // namespace irf::linalg
