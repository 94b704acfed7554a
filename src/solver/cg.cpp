#include "solver/cg.hpp"

#include <cmath>
#include <string>

#include "check/check.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace irf::solver {

using linalg::Vec;

namespace {

void check_system(const linalg::CsrMatrix& a, const Vec& b) {
  if (a.rows() != a.cols()) throw DimensionError("CG needs a square matrix");
  if (static_cast<int>(b.size()) != a.rows()) throw DimensionError("CG rhs size mismatch");
}

}  // namespace

SolveResult preconditioned_cg(const linalg::CsrMatrix& a, const Vec& b,
                              Preconditioner& precond, const SolveOptions& options,
                              const Vec* x0) {
  check_system(a, b);
  if (x0 && static_cast<int>(x0->size()) != a.rows()) {
    throw DimensionError("PCG initial guess size mismatch");
  }
  obs::ScopedSpan solve_span("pcg_solve", "solver");
  const int n = a.rows();
  SolveResult result;
  if (x0) {
    result.x = *x0;
  } else {
    result.x.assign(static_cast<std::size_t>(n), 0.0);
  }

  double b_norm = linalg::norm2(b);
  if (b_norm == 0.0 && !x0) {
    result.converged = true;
    result.residual_history = {0.0};
    return result;
  }

  Vec r = x0 ? linalg::subtract(b, a.multiply(result.x)) : b;
  if (b_norm == 0.0) {
    // Zero RHS with a nonzero guess: measure convergence against the
    // initial residual instead.
    b_norm = std::max(linalg::norm2(r), 1e-300);
  }
  Vec z;
  precond.apply(r, z);
  Vec p = z;
  Vec ap;
  double rz = linalg::dot(r, z);
  double res_norm = linalg::norm2(r);
  if (options.track_residual_history) result.residual_history.push_back(res_norm);

  const bool flexible = precond.is_variable();
  Vec r_prev;  // only needed for the flexible beta

  int k = 0;
  for (; k < options.max_iterations; ++k) {
    if (res_norm / b_norm < options.rel_tolerance) {
      result.converged = true;
      break;
    }
    obs::ScopedSpan iterate_span("pcg_iterate", "solver");
    a.multiply(p, ap);
    const double pap = linalg::dot(p, ap);
    if (pap <= 0.0 || !std::isfinite(pap)) {
      throw NumericError("PCG breakdown: p^T A p = " + std::to_string(pap) +
                         " (matrix not SPD?)");
    }
    const double alpha = rz / pap;
    linalg::axpy(alpha, p, result.x);
    if (flexible) r_prev = r;
    linalg::axpy(-alpha, ap, r);
    res_norm = linalg::norm2(r);
    if (!std::isfinite(res_norm)) throw NumericError("PCG residual diverged to non-finite");
    if (options.track_residual_history) result.residual_history.push_back(res_norm);

    precond.apply(r, z);
    double rz_next = linalg::dot(r, z);
    double beta;
    if (flexible) {
      // Polak-Ribiere: immune to slight preconditioner variation (K-cycle).
      beta = (rz_next - linalg::dot(r_prev, z)) / rz;
    } else {
      beta = rz_next / rz;
    }
    if (!std::isfinite(beta)) throw NumericError("PCG beta non-finite");
    linalg::xpby(z, beta, p);
    rz = rz_next;
    if (rz <= 0.0) {
      // An exactly-converged residual makes <r, z> vanish — defer to the
      // top-of-loop convergence check instead of declaring breakdown.
      if (res_norm / b_norm < options.rel_tolerance || res_norm == 0.0) {
        continue;
      }
      // Otherwise z lost positivity against r: restart in the
      // preconditioned steepest-descent direction.
      p = z;
      rz = linalg::dot(r, z);
      if (rz <= 0.0) throw NumericError("PCG: preconditioner lost positive definiteness");
    }
  }
  result.iterations = k;
  result.final_relative_residual = res_norm / b_norm;
  if (!result.converged) result.converged = res_norm / b_norm < options.rel_tolerance;
  // Poison scan: the residual checks above bound the norm, but a NaN that
  // cancels in the norm could still hide in individual solution entries.
  IRF_CHECK_FINITE(result.x, "pcg solution");
  obs::count("solver.pcg.solves");
  obs::count("solver.pcg.iterations", static_cast<std::uint64_t>(k));
  obs::set_gauge("solver.pcg.last_relative_residual", result.final_relative_residual);
  obs::record_histogram("solver.pcg.iterations_per_solve", static_cast<double>(k));
  solve_span.add_arg("iterations", k);
  solve_span.add_arg("converged", result.converged ? 1.0 : 0.0);
  solve_span.add_arg("final_relative_residual", result.final_relative_residual);
  // Optional convergence curve (IRF_RESIDUAL_CURVES=1): at most 16 sampled
  // relative residuals as args keyed r<iteration>, plus the sampling stride,
  // so a long solve never bloats the trace buffer.
  if (obs::residual_curve_capture() && !result.residual_history.empty()) {
    constexpr std::size_t kMaxCurvePoints = 16;
    const std::size_t n_hist = result.residual_history.size();
    const std::size_t stride = (n_hist + kMaxCurvePoints - 1) / kMaxCurvePoints;
    solve_span.add_arg("res_curve_stride", static_cast<double>(stride));
    for (std::size_t i = 0; i < n_hist; i += stride) {
      solve_span.add_arg("r" + std::to_string(i), result.residual_history[i] / b_norm);
    }
    if ((n_hist - 1) % stride != 0) {
      solve_span.add_arg("r" + std::to_string(n_hist - 1),
                         result.residual_history[n_hist - 1] / b_norm);
    }
  }
  result.solve_seconds = solve_span.seconds();
  return result;
}

SolveResult conjugate_gradient(const linalg::CsrMatrix& a, const Vec& b,
                               const SolveOptions& options, const Vec* x0) {
  IdentityPreconditioner identity;
  return preconditioned_cg(a, b, identity, options, x0);
}

}  // namespace irf::solver
