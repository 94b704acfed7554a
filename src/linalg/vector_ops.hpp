#pragma once

/// \file vector_ops.hpp
/// Dense vector kernels used by all iterative solvers. Vectors are plain
/// std::vector<double>; these helpers enforce matching lengths and keep the
/// solver code readable.

#include <vector>

namespace irf::linalg {

using Vec = std::vector<double>;

/// Dot product <a, b>.
double dot(const Vec& a, const Vec& b);

/// Euclidean norm ||a||_2.
double norm2(const Vec& a);

/// y += alpha * x.
void axpy(double alpha, const Vec& x, Vec& y);

/// y = x + beta * y  (the CG direction update).
void xpby(const Vec& x, double beta, Vec& y);

/// out = a - b.
Vec subtract(const Vec& a, const Vec& b);

}  // namespace irf::linalg
