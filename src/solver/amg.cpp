#include "solver/amg.hpp"

#include <cmath>

#include "check/check.hpp"
#include "check/invariants.hpp"
#include "common/error.hpp"
#include "linalg/smoothers.hpp"
#include "obs/metrics.hpp"

namespace irf::solver {

using linalg::CsrMatrix;
using linalg::Vec;

namespace {

/// Stop coarsening when a level has at most this many unknowns.
constexpr int kCoarsestSize = 64;
/// Safety cap on hierarchy depth.
constexpr int kMaxLevels = 20;
/// Strength-of-coupling threshold for pairwise aggregation.
constexpr double kStrengthThreshold = 0.25;

}  // namespace

AmgHierarchy::AmgHierarchy(const CsrMatrix& a) {
  if (a.rows() != a.cols()) throw DimensionError("AMG needs a square matrix");
  if (a.rows() == 0) throw DimensionError("AMG needs a non-empty matrix");

  levels_.push_back(AmgLevel{a, std::nullopt});
  while (static_cast<int>(levels_.size()) < kMaxLevels &&
         levels_.back().matrix.rows() > kCoarsestSize) {
    const CsrMatrix& fine = levels_.back().matrix;
    Aggregation agg = double_pairwise_aggregate(fine, kStrengthThreshold);
    if (agg.num_aggregates >= fine.rows()) break;  // stalled: stop coarsening
    CsrMatrix coarse = galerkin_coarse_matrix(fine, agg);
    levels_.back().to_coarse = std::move(agg);
    levels_.push_back(AmgLevel{std::move(coarse), std::nullopt});
  }
  if (check::enabled()) {
    // Smoothers divide by the diagonal on every level, so each operator
    // must carry an explicit, finite diagonal on top of the structural
    // contract from_triplets already proved.
    check::CsrCheckOptions opts;
    opts.require_diagonal = true;
    for (const AmgLevel& l : levels_) {
      check::check_csr(l.matrix.rows(), l.matrix.cols(), l.matrix.row_ptr(),
                       l.matrix.col_idx(), l.matrix.values(), opts,
                       "AMG level operator");
    }
  }
  coarse_solver_ = std::make_unique<linalg::CholeskyFactor>(
      linalg::DenseMatrix::from_csr(levels_.back().matrix));
  obs::count("solver.amg.hierarchies_built");
  obs::set_gauge("solver.amg.levels", num_levels());
  obs::set_gauge("solver.amg.grid_complexity", grid_complexity());
  obs::set_gauge("solver.amg.operator_complexity", operator_complexity());
}

double AmgHierarchy::grid_complexity() const {
  double total = 0.0;
  for (const AmgLevel& l : levels_) total += l.matrix.rows();
  return total / levels_.front().matrix.rows();
}

double AmgHierarchy::operator_complexity() const {
  double total = 0.0;
  for (const AmgLevel& l : levels_) total += static_cast<double>(l.matrix.nnz());
  return total / static_cast<double>(levels_.front().matrix.nnz());
}

std::size_t AmgHierarchy::memory_bytes() const {
  std::size_t bytes = 0;
  for (const AmgLevel& l : levels_) {
    bytes += l.matrix.memory_bytes();
    if (l.to_coarse) bytes += l.to_coarse->aggregate_of.capacity() * sizeof(int);
  }
  if (coarse_solver_) {
    const std::size_t n = static_cast<std::size_t>(coarse_solver_->size());
    bytes += n * n * sizeof(double);  // full row-major lower-triangle storage
  }
  return bytes;
}

void AmgHierarchy::apply(const Vec& r, Vec& z) {
  if (r.size() != static_cast<std::size_t>(levels_.front().matrix.rows())) {
    throw DimensionError("AMG apply size mismatch");
  }
  cycle(0, r, z);
}

void AmgHierarchy::cycle(int level, const Vec& r, Vec& z) {
  const CsrMatrix& a = levels_[level].matrix;
  if (!levels_[level].to_coarse.has_value()) {
    z = coarse_solver_->solve(r);
    return;
  }
  z.assign(r.size(), 0.0);
  linalg::symmetric_gauss_seidel(a, r, z);  // pre-smooth

  // Restrict the residual and recurse.
  Vec residual = linalg::subtract(r, a.multiply(z));
  const Aggregation& agg = *levels_[level].to_coarse;
  Vec rc;
  restrict_to_coarse(agg, residual, rc);
  Vec ec;
  coarse_correction(level + 1, rc, ec);
  prolongate_add(agg, ec, z);

  linalg::symmetric_gauss_seidel(a, r, z);  // post-smooth
}

void AmgHierarchy::coarse_correction(int coarse_level, const Vec& rc, Vec& ec) {
  if (levels_[coarse_level].to_coarse.has_value()) {
    kcycle_inner(coarse_level, rc, ec);
  } else {
    cycle(coarse_level, rc, ec);  // coarsest level: the direct solve
  }
}

void AmgHierarchy::kcycle_inner(int level, const Vec& rc, Vec& ec) {
  // Two steps of flexible CG on A_l e = rc, preconditioned by this level's
  // cycle. This Krylov acceleration is what distinguishes the K-cycle from a
  // W-cycle and gives the solver its robustness on irregular grids.
  const CsrMatrix& a = levels_[level].matrix;
  ec.assign(rc.size(), 0.0);

  Vec r0 = rc;
  Vec z0;
  cycle(level, r0, z0);
  Vec p = z0;
  Vec ap = a.multiply(p);
  const double pap = linalg::dot(p, ap);
  if (pap <= 0.0 || !std::isfinite(pap)) {
    // Degenerate inner step: fall back to the plain cycle correction.
    ec = z0;
    return;
  }
  const double alpha = linalg::dot(z0, r0) / pap;
  linalg::axpy(alpha, p, ec);
  Vec r1 = r0;
  linalg::axpy(-alpha, ap, r1);

  // Early exit when the first step already reduced the residual a lot.
  if (linalg::norm2(r1) < 0.25 * linalg::norm2(r0)) return;

  Vec z1;
  cycle(level, r1, z1);
  const double beta = -linalg::dot(z1, ap) / pap;  // flexible orthogonalization
  Vec p1 = z1;
  linalg::axpy(beta, p, p1);
  Vec ap1 = a.multiply(p1);
  const double p1ap1 = linalg::dot(p1, ap1);
  if (p1ap1 <= 0.0 || !std::isfinite(p1ap1)) return;
  const double alpha1 = linalg::dot(z1, r1) / p1ap1;
  linalg::axpy(alpha1, p1, ec);
}

}  // namespace irf::solver
