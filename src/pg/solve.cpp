#include "pg/solve.hpp"

#include <string>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace irf::pg {

PgSolver::PgSolver(const PgDesign& design)
    : design_(&design), mna_(assemble_mna(design.netlist)) {
  solver_ = std::make_unique<solver::AmgPcgSolver>(mna_.conductance);
}

PgSolution PgSolver::finalize(const solver::SolveResult& result) const {
  PgSolution sol;
  sol.node_voltage = expand_to_node_voltages(mna_, design_->netlist, result.x);
  sol.ir_drop.resize(sol.node_voltage.size());
  for (std::size_t i = 0; i < sol.node_voltage.size(); ++i) {
    sol.ir_drop[i] = design_->vdd - sol.node_voltage[i];
  }
  sol.iterations = result.iterations;
  sol.converged = result.converged;
  sol.final_relative_residual = result.final_relative_residual;
  sol.setup_seconds = result.setup_seconds;
  sol.solve_seconds = result.solve_seconds;
  return sol;
}

PgSolution PgSolver::solve_golden(double rel_tolerance) const {
  obs::ScopedSpan span("golden_solve", "pg");
  span.add_arg("warm_start", 0);  // flat supply guess
  obs::count("pg.solves.golden");
  const linalg::Vec x0 = flat_supply_guess();
  PgSolution sol = finalize(solver_->solve_golden(mna_.rhs, rel_tolerance,
                                                  /*max_iterations=*/2000, &x0));
  span.add_arg("iterations", sol.iterations);
  span.add_arg("final_relative_residual", sol.final_relative_residual);
  return sol;
}

PgSolution PgSolver::solve_rough(int iterations) const {
  obs::ScopedSpan span("rough_solve", "pg");
  span.add_arg("iterations", iterations);
  span.add_arg("warm_start", 0);  // flat supply guess
  obs::count("pg.solves.rough");
  const linalg::Vec x0 = flat_supply_guess();
  PgSolution sol = finalize(solver_->solve_rough(mna_.rhs, iterations, &x0));
  span.add_arg("final_relative_residual", sol.final_relative_residual);
  return sol;
}

PgSolution PgSolver::solve_warm(const linalg::Vec& prev_node_voltage,
                                double rel_tolerance, int max_iterations) const {
  obs::ScopedSpan span("warm_solve", "pg");
  span.add_arg("warm_start", 1);
  span.add_arg("max_iterations", max_iterations);
  obs::count("pg.solves.warm");
  if (prev_node_voltage.size() != mna_.node_to_eq.size()) {
    throw DimensionError("solve_warm: previous solution has " +
                         std::to_string(prev_node_voltage.size()) +
                         " node voltages, design has " +
                         std::to_string(mna_.node_to_eq.size()) + " nodes");
  }
  // Compress the node-space solution to equation space (drop pad rows).
  linalg::Vec x0(mna_.eq_to_node.size());
  for (std::size_t eq = 0; eq < x0.size(); ++eq) {
    x0[eq] = prev_node_voltage[static_cast<std::size_t>(mna_.eq_to_node[eq])];
  }
  solver::SolveOptions options;
  options.rel_tolerance = rel_tolerance;
  options.max_iterations = max_iterations;
  PgSolution sol = finalize(solver_->solve_warm(mna_.rhs, x0, options));
  span.add_arg("iterations", sol.iterations);
  span.add_arg("final_relative_residual", sol.final_relative_residual);
  return sol;
}

void PgSolver::rebind(const PgDesign& design) {
  obs::ScopedSpan span("pg_rebind", "pg");
  obs::count("pg.rebinds");
  MnaSystem next = assemble_mna(design.netlist);
  if (next.eq_to_node != mna_.eq_to_node) {
    throw NumericError(
        "rebind: node/equation mapping differs from the bound design; "
        "the topology changed and this solver context cannot be reused");
  }
  // The sparsity guard inside update_matrix_values rejects any remaining
  // structural difference before the hierarchy is reused.
  solver_->update_matrix_values(next.conductance);
  mna_ = std::move(next);
  design_ = &design;
  span.add_arg("rows", mna_.conductance.rows());
}

std::size_t PgSolver::memory_bytes() const {
  std::size_t bytes = mna_.conductance.memory_bytes();
  bytes += mna_.rhs.capacity() * sizeof(double);
  bytes += mna_.node_to_eq.capacity() * sizeof(int);
  bytes += mna_.eq_to_node.capacity() * sizeof(spice::NodeId);
  if (solver_) bytes += solver_->memory_bytes();
  return bytes;
}

linalg::Vec PgSolver::flat_supply_guess() const {
  // Warm start at the nominal supply: the initial error is exactly the IR
  // drop (millivolts) rather than the full rail voltage, so even 1-2 PCG
  // iterations produce a usable rough solution.
  return linalg::Vec(mna_.eq_to_node.size(), design_->vdd);
}

PgSolution golden_solve(const PgDesign& design, double rel_tolerance) {
  PgSolver solver(design);
  return solver.solve_golden(rel_tolerance);
}

}  // namespace irf::pg
