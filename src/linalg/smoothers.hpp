#pragma once

/// \file smoothers.hpp
/// Gauss-Seidel smoothers used inside the AMG cycles (and benchmarked on
/// their own in bench_solver_micro).

#include "linalg/csr.hpp"
#include "linalg/vector_ops.hpp"

namespace irf::linalg {

/// Symmetric Gauss-Seidel: forward then backward sweep. This is the default
/// smoother of the AMG K-cycle (symmetric, so the preconditioner stays SPD).
void symmetric_gauss_seidel(const CsrMatrix& a, const Vec& b, Vec& x);

}  // namespace irf::linalg
