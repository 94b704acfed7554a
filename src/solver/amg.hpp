#pragma once

/// \file amg.hpp
/// Aggregation-based algebraic multigrid hierarchy with the K-cycle (Fig. 3
/// of the paper: Setup Stage / Preconditioning Phase): double pairwise
/// aggregation, one symmetric Gauss-Seidel sweep before and after each
/// coarse correction, a dense Cholesky solve on the coarsest level. The
/// hierarchy implements Preconditioner so it can drive the flexible PCG in
/// cg.hpp.

#include <memory>
#include <optional>
#include <vector>

#include "linalg/csr.hpp"
#include "linalg/dense.hpp"
#include "solver/aggregation.hpp"
#include "solver/preconditioner.hpp"

namespace irf::solver {

/// One level of the hierarchy. The finest level owns no aggregation-from-
/// above; the coarsest level owns a dense Cholesky factorization.
struct AmgLevel {
  linalg::CsrMatrix matrix;
  /// Aggregation mapping *this* level to the next coarser one (absent on the
  /// coarsest level).
  std::optional<Aggregation> to_coarse;
};

/// The AMG hierarchy / K-cycle preconditioner.
class AmgHierarchy final : public Preconditioner {
 public:
  /// Setup stage: recursively coarsen `a` (which is copied into level 0)
  /// until a level has at most 64 unknowns.
  explicit AmgHierarchy(const linalg::CsrMatrix& a);

  int num_levels() const { return static_cast<int>(levels_.size()); }
  const AmgLevel& level(int i) const { return levels_.at(static_cast<std::size_t>(i)); }

  /// Grid complexity: sum of unknowns across levels / fine unknowns.
  double grid_complexity() const;
  /// Operator complexity: sum of nnz across levels / fine nnz.
  double operator_complexity() const;
  /// Heap bytes retained by all level operators, aggregation maps, and the
  /// coarse Cholesky factor — what a cache keeping this hierarchy alive pays.
  std::size_t memory_bytes() const;

  /// Apply one cycle as the preconditioner: z ~= A^{-1} r.
  void apply(const linalg::Vec& r, linalg::Vec& z) override;

  /// K-cycle uses inner Krylov acceleration, so the operator is variable.
  bool is_variable() const override { return true; }

 private:
  void cycle(int level, const linalg::Vec& r, linalg::Vec& z);
  void coarse_correction(int coarse_level, const linalg::Vec& rc, linalg::Vec& ec);
  /// Two flexible-CG steps on the coarse problem, preconditioned by the
  /// coarse cycle — the "K" in K-cycle.
  void kcycle_inner(int level, const linalg::Vec& rc, linalg::Vec& ec);

  std::vector<AmgLevel> levels_;
  std::unique_ptr<linalg::CholeskyFactor> coarse_solver_;
};

}  // namespace irf::solver
