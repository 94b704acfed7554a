#pragma once

/// \file solve.hpp
/// End-to-end PG solves: netlist -> MNA -> AMG-PCG -> per-node voltages and
/// IR drops. This is the numerical half of IR-Fusion; the same entry points
/// produce golden labels (tight tolerance) and rough feature solutions
/// (fixed small iteration count).

#include "pg/design.hpp"
#include "pg/mna.hpp"
#include "solver/amg_pcg.hpp"

namespace irf::pg {

/// A solved PG: voltages/IR drops indexed by netlist node id.
struct PgSolution {
  linalg::Vec node_voltage;
  linalg::Vec ir_drop;                    ///< vdd - voltage, per node
  int iterations = 0;
  bool converged = false;
  double final_relative_residual = 0.0;
  double setup_seconds = 0.0;
  double solve_seconds = 0.0;
};

/// Reusable solver context: assembles MNA and runs AMG setup once so that
/// golden and rough solves share the hierarchy (exactly how the pipeline
/// uses it). rebind() additionally lets a serve cache carry one context
/// across value-only design edits without repeating the setup stage.
class PgSolver {
 public:
  explicit PgSolver(const PgDesign& design);

  /// Solve to a tight tolerance (golden label quality).
  PgSolution solve_golden(double rel_tolerance = 1e-10) const;

  /// Run exactly `iterations` AMG-PCG iterations (rough solution mode).
  PgSolution solve_rough(int iterations) const;

  /// Warm-started solve: start PCG from a previous solution in NODE space
  /// (a PgSolution::node_voltage of a topology-identical design) and run to
  /// `rel_tolerance` against the CURRENT matrix/rhs. Capped by
  /// `max_iterations`; converges in a handful of iterations when the designs
  /// are close.
  PgSolution solve_warm(const linalg::Vec& prev_node_voltage, double rel_tolerance,
                        int max_iterations) const;

  /// Re-target this context at a topology-identical design: reassemble MNA,
  /// swap the new conductance values into the outer PCG operator, adopt the
  /// new rhs. The AMG hierarchy keeps its setup values by design: the
  /// flexible PCG tolerates the now-approximate preconditioner. Throws
  /// NumericError when the design's sparsity pattern does not match (i.e.
  /// the topology actually changed) — the caller falls back to building a
  /// fresh PgSolver. `design` must outlive this object.
  void rebind(const PgDesign& design);

  const PgDesign& design() const { return *design_; }
  const MnaSystem& system() const { return mna_; }
  const solver::AmgPcgSolver& amg_pcg() const { return *solver_; }

  /// Heap bytes retained: MNA system + setup matrix + AMG hierarchy.
  std::size_t memory_bytes() const;

 private:
  PgSolution finalize(const solver::SolveResult& result) const;
  linalg::Vec flat_supply_guess() const;

  const PgDesign* design_;
  MnaSystem mna_;
  std::unique_ptr<solver::AmgPcgSolver> solver_;
};

/// One-shot golden solve (convenience for tests/examples).
PgSolution golden_solve(const PgDesign& design, double rel_tolerance = 1e-10);

}  // namespace irf::pg
