#pragma once

/// \file preconditioner.hpp
/// Preconditioner interface for the PCG solver. The AMG K-cycle implements
/// this interface, as do the trivial identity/Jacobi preconditioners used as
/// baselines in the solver benchmarks.

#include <memory>

#include "linalg/csr.hpp"
#include "linalg/vector_ops.hpp"

namespace irf::solver {

/// Applies z = M^{-1} r. Implementations may be *variable* (different linear
/// operator per call, like the K-cycle); the PCG driver therefore uses the
/// flexible (Polak-Ribiere) beta formula.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;

  /// z <- M^{-1} r. `z` is resized by the callee.
  virtual void apply(const linalg::Vec& r, linalg::Vec& z) = 0;

  /// True if the operator changes between applications (forces flexible CG).
  virtual bool is_variable() const { return false; }
};

/// M = I (turns PCG into plain CG).
class IdentityPreconditioner final : public Preconditioner {
 public:
  void apply(const linalg::Vec& r, linalg::Vec& z) override;
};

/// M = diag(A).
class JacobiPreconditioner final : public Preconditioner {
 public:
  explicit JacobiPreconditioner(const linalg::CsrMatrix& a);
  void apply(const linalg::Vec& r, linalg::Vec& z) override;

 private:
  linalg::Vec inv_diag_;
};

}  // namespace irf::solver
