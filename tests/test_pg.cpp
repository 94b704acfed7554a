// Tests for irf::pg: MNA assembly correctness (vs hand-solved circuits and
// dense Cholesky), generator invariants for both design families, and the
// end-to-end PG solve.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "csr_checks.hpp"
#include "linalg/dense.hpp"
#include "pg/delta.hpp"
#include "pg/generator.hpp"
#include "pg/mna.hpp"
#include "pg/solve.hpp"
#include "spice/parser.hpp"

namespace irf::pg {
namespace {

/// Pad -- 1 ohm -- node A -- 1 ohm -- node B, 1 mA drawn at B.
/// By hand: V(B) = 1.1 - 2e-3, V(A) = 1.1 - 1e-3.
constexpr const char* kVoltageDivider = R"(
V1 n1_m2_0_0 0 1.1
R1 n1_m2_0_0 n1_m1_0_0 1
R2 n1_m1_0_0 n1_m1_2000_0 1
I1 n1_m1_2000_0 0 1m
)";

TEST(Mna, HandSolvedLadder) {
  spice::Netlist net = spice::parse_string(kVoltageDivider);
  MnaSystem sys = assemble_mna(net);
  EXPECT_EQ(sys.conductance.rows(), 2);  // pad eliminated
  EXPECT_TRUE(test::is_symmetric(sys.conductance));

  linalg::CholeskyFactor chol(linalg::DenseMatrix::from_csr(sys.conductance));
  linalg::Vec x = chol.solve(sys.rhs);
  linalg::Vec v = expand_to_node_voltages(sys, x);

  const spice::NodeId a = *net.find_node("n1_m1_0_0");
  const spice::NodeId b = *net.find_node("n1_m1_2000_0");
  const spice::NodeId pad = *net.find_node("n1_m2_0_0");
  EXPECT_NEAR(v[pad], 1.1, 1e-12);
  EXPECT_NEAR(v[a], 1.1 - 1e-3, 1e-9);
  EXPECT_NEAR(v[b], 1.1 - 2e-3, 1e-9);
}

TEST(Mna, SingularWithoutPadPathThrows) {
  spice::Netlist net = spice::parse_string(
      "V1 n1_m1_0_0 0 1.1\n"
      "R1 n1_m1_0_0 n1_m1_2000_0 1\n"
      "R2 n1_m1_8000_0 n1_m1_10000_0 1\n");
  EXPECT_THROW(assemble_mna(net), NumericError);
}

TEST(Mna, CurrentConservation) {
  // Sum of pad output currents equals total load current.
  Rng rng(11);
  PgDesign design = generate_fake_design(32, rng, "cc");
  PgSolution sol = golden_solve(design);
  double total_load = 0.0;
  for (const spice::CurrentSource& i : design.netlist.current_sources()) {
    if (i.node != spice::kGround) total_load += i.amps;
  }
  std::vector<char> is_pad(static_cast<std::size_t>(design.netlist.num_nodes()), 0);
  for (spice::NodeId pad : design.netlist.pad_nodes()) is_pad[pad] = 1;
  double pad_current = 0.0;
  for (const spice::Resistor& r : design.netlist.resistors()) {
    if (r.a == spice::kGround || r.b == spice::kGround) continue;
    const double i_ab = (sol.node_voltage[r.a] - sol.node_voltage[r.b]) / r.ohms;
    if (is_pad[r.a]) pad_current += i_ab;
    if (is_pad[r.b]) pad_current -= i_ab;
  }
  EXPECT_NEAR(pad_current, total_load, 1e-6 * std::max(1.0, total_load));
}

TEST(Topology, LoadCurrentAccumulates) {
  // Two loads on one node enter its equation as one summed draw.
  spice::Netlist net = spice::parse_string(
      "V1 n1_m1_0_0 0 1.1\n"
      "R1 n1_m1_0_0 n1_m1_2000_0 1\n"
      "I1 n1_m1_2000_0 0 1m\n"
      "I2 n1_m1_2000_0 0 2m\n");
  MnaSystem sys = assemble_mna(net);
  ASSERT_EQ(sys.rhs.size(), 1u);
  EXPECT_DOUBLE_EQ(sys.rhs[0], 1.1 - 3e-3);
}

TEST(Generator, FakeDesignBasicInvariants) {
  Rng rng(1);
  PgDesign d = generate_fake_design(32, rng, "fake_t");
  EXPECT_EQ(d.kind, DesignKind::kFake);
  DesignStats s = compute_stats(d);
  EXPECT_GT(s.num_nodes, 100);
  EXPECT_GT(s.num_resistors, s.num_nodes / 2);
  EXPECT_GT(s.num_current_sources, 10);
  EXPECT_EQ(s.num_pads, 9);  // 3x3 pad array
  ASSERT_EQ(s.layers.size(), 4u);
  EXPECT_EQ(s.layers.front(), 1);
  EXPECT_EQ(s.layers.back(), 9);
  EXPECT_GT(s.total_current, 0.0);
}

TEST(Generator, RealDesignIsHarder) {
  Rng rng(2);
  PgDesign d = generate_real_design(32, rng, "real_t");
  EXPECT_EQ(d.kind, DesignKind::kReal);
  DesignStats s = compute_stats(d);
  // Perimeter pads: fewer than the fake 3x3 array is not guaranteed, but
  // they must exist and the netlist must be solvable.
  EXPECT_GE(s.num_pads, 1);
  EXPECT_NO_THROW(golden_solve(d));
}

TEST(Generator, TargetWorstIrDropIsHit) {
  Rng rng(3);
  GeneratorConfig cfg = fake_design_config(32);
  cfg.target_worst_ir_volts = 5e-3;
  PgDesign d = generate_design(cfg, rng, "target", DesignKind::kFake);
  PgSolution sol = golden_solve(d);
  double worst = 0.0;
  for (double v : sol.ir_drop) worst = std::max(worst, v);
  EXPECT_NEAR(worst, 5e-3, 1e-6);
}

TEST(Generator, IrDropNonNegativeEverywhere) {
  Rng rng(4);
  PgDesign d = generate_fake_design(32, rng, "nn");
  PgSolution sol = golden_solve(d);
  for (double v : sol.ir_drop) {
    EXPECT_GE(v, -1e-9);
    EXPECT_LT(v, d.vdd);
  }
}

TEST(Generator, DeterministicGivenSeed) {
  Rng a(77), b(77);
  PgDesign d1 = generate_fake_design(32, a, "d");
  PgDesign d2 = generate_fake_design(32, b, "d");
  EXPECT_EQ(d1.netlist.num_nodes(), d2.netlist.num_nodes());
  ASSERT_EQ(d1.netlist.resistors().size(), d2.netlist.resistors().size());
  for (std::size_t i = 0; i < d1.netlist.resistors().size(); ++i) {
    EXPECT_DOUBLE_EQ(d1.netlist.resistors()[i].ohms, d2.netlist.resistors()[i].ohms);
  }
}

TEST(Generator, ConfigValidation) {
  Rng rng(5);
  GeneratorConfig cfg = fake_design_config(32);
  cfg.layers[1].horizontal = cfg.layers[0].horizontal;  // no alternation
  EXPECT_THROW(generate_design(cfg, rng, "bad", DesignKind::kFake), ConfigError);

  cfg = fake_design_config(32);
  cfg.layers[2].stride_units = 3;  // not a multiple of layer 1 stride (2)
  EXPECT_THROW(generate_design(cfg, rng, "bad", DesignKind::kFake), ConfigError);

  EXPECT_THROW(fake_design_config(8), ConfigError);
}

TEST(PgSolver, RoughConvergesTowardGolden) {
  Rng rng(6);
  PgDesign d = generate_fake_design(32, rng, "conv");
  PgSolver solver(d);
  PgSolution golden = solver.solve_golden();
  double prev = 1e300;
  for (int k : {1, 3, 6}) {
    PgSolution rough = solver.solve_rough(k);
    double err = 0.0;
    for (std::size_t i = 0; i < golden.ir_drop.size(); ++i) {
      err = std::max(err, std::abs(rough.ir_drop[i] - golden.ir_drop[i]));
    }
    EXPECT_LT(err, prev);
    prev = err;
  }
  EXPECT_LT(prev, 1e-4);  // 6 AMG-PCG iterations get close on this size
}

TEST(PgSolver, GoldenResidualTiny) {
  Rng rng(7);
  PgDesign d = generate_real_design(32, rng, "resid");
  PgSolver solver(d);
  PgSolution sol = solver.solve_golden(1e-10);
  EXPECT_TRUE(sol.converged);
  EXPECT_LT(sol.final_relative_residual, 1e-9);
}

TEST(PgSolver, PadVoltagesExact) {
  Rng rng(8);
  PgDesign d = generate_fake_design(32, rng, "pads");
  PgSolution sol = golden_solve(d);
  for (spice::NodeId pad : d.netlist.pad_nodes()) {
    EXPECT_DOUBLE_EQ(sol.node_voltage[pad], d.vdd);
    EXPECT_DOUBLE_EQ(sol.ir_drop[pad], 0.0);
  }
}

TEST(PgSolver, RoughSolveStopsAtAnExactSolution) {
  // Two unknowns, so the AMG is a direct solve: the first PCG step lands on
  // the exact solution with a residual of exactly zero. A rough solve must
  // stop there rather than take a step along p = 0.
  PgDesign d;
  d.netlist = spice::parse_string(
      "R1 n1_m1_0_0 n1_m1_2000_0 0.01\n"
      "R2 n1_m1_2000_0 n1_m1_4000_0 0.01\n"
      "R3 n1_m1_0_0 n1_m1_0_2000 0.01\n"
      "I1 n1_m1_2000_0 0 1m\n"
      "V2 n1_m1_4000_0 0 1.1\n"
      "V1 n1_m1_0_0 0 1.1\n");
  PgSolver solver(d);
  const PgSolution rough = solver.solve_rough(3);
  const PgSolution golden = solver.solve_golden();
  EXPECT_TRUE(rough.converged);
  ASSERT_EQ(rough.node_voltage.size(), golden.node_voltage.size());
  for (std::size_t i = 0; i < rough.node_voltage.size(); ++i) {
    EXPECT_NEAR(rough.node_voltage[i], golden.node_voltage[i], 1e-15);
  }
}

// --- design-delta classification (incremental re-analysis) -----------------

TEST(DesignDelta, IdenticalDesignsAreCompatible) {
  Rng rng(21);
  PgDesign d = generate_fake_design(32, rng, "ident");
  DesignDelta delta = classify_design_delta(d, d, 8);
  EXPECT_TRUE(delta.compatible);
  EXPECT_TRUE(delta.identical());
  EXPECT_EQ(delta.describe(), "identical");
}

TEST(DesignDelta, CurrentOnlyEdit) {
  Rng rng(22);
  PgDesign d = generate_fake_design(32, rng, "cur");
  PgDesign next = d;
  next.netlist.scale_current_sources(1.3);
  DesignDelta delta = classify_design_delta(d, next, 8);
  EXPECT_TRUE(delta.compatible);
  EXPECT_TRUE(delta.currents_changed);
  EXPECT_FALSE(delta.supply_changed);
  EXPECT_EQ(delta.resistor_edits, 0);
  EXPECT_FALSE(delta.identical());
}

TEST(DesignDelta, SupplyOnlyEdit) {
  Rng rng(23);
  PgDesign d = generate_fake_design(32, rng, "sup");
  PgDesign next = d;
  next.vdd *= 0.95;
  next.netlist.scale_voltage_sources(0.95);
  DesignDelta delta = classify_design_delta(d, next, 8);
  EXPECT_TRUE(delta.compatible);
  EXPECT_TRUE(delta.supply_changed);
  EXPECT_FALSE(delta.currents_changed);
  EXPECT_EQ(delta.resistor_edits, 0);
}

TEST(DesignDelta, ResistorEditsWithinAndOverBudget) {
  Rng rng(24);
  PgDesign d = generate_fake_design(32, rng, "eco");
  PgDesign next = d;
  for (std::size_t i = 0; i < 3; ++i) {
    next.netlist.set_resistor_ohms(i, d.netlist.resistors()[i].ohms * 2.0);
  }
  DesignDelta within = classify_design_delta(d, next, 8);
  EXPECT_TRUE(within.compatible);
  EXPECT_EQ(within.resistor_edits, 3);
  DesignDelta over = classify_design_delta(d, next, 2);
  EXPECT_FALSE(over.compatible);
}

TEST(DesignDelta, StructuralChangesAreIncompatible) {
  Rng rng(25);
  PgDesign d = generate_fake_design(32, rng, "topo");

  PgDesign grown = d;
  grown.netlist.add_resistor("Rx", 0, 1, 1.0);
  EXPECT_FALSE(classify_design_delta(d, grown, 8).compatible);

  PgDesign stretched = d;
  stretched.width_nm *= 2;
  EXPECT_FALSE(classify_design_delta(d, stretched, 8).compatible);
  EXPECT_EQ(classify_design_delta(d, stretched, 8).describe(), "incompatible");
}

TEST(DesignDelta, CapacitorValueChangeIsIncompatible) {
  // Caps enter the transient system, not the static one; the serve warm path
  // treats any cap edit as structural and rebuilds cold.
  Rng rng(26);
  PgDesign base = generate_fake_design(32, rng, "cap");
  PgDesign lhs = base;
  PgDesign rhs = base;
  lhs.netlist.add_capacitor("C1", 0, 1, 1e-12);
  rhs.netlist.add_capacitor("C1", 0, 1, 1e-12);
  EXPECT_TRUE(classify_design_delta(lhs, rhs, 8).compatible);
  PgDesign retuned = base;
  retuned.netlist.add_capacitor("C1", 0, 1, 2e-12);  // same endpoints, new value
  EXPECT_FALSE(classify_design_delta(lhs, retuned, 8).compatible);
}

// --- warm-started solves over a rebound context ----------------------------

TEST(PgSolver, WarmStartOnIdenticalInputReturnsTheSeed) {
  Rng rng(27);
  PgDesign d = generate_fake_design(32, rng, "warm_id");
  PgSolver solver(d);
  PgSolution rough = solver.solve_rough(3);
  // Seeding with a solution already at the target residual converges in zero
  // iterations and returns the seed untouched.
  PgSolution warm = solver.solve_warm(
      rough.node_voltage, rough.final_relative_residual * 1.01, 8);
  EXPECT_EQ(warm.iterations, 0);
  EXPECT_EQ(warm.node_voltage, rough.node_voltage);
}

TEST(PgSolver, RebindPlusWarmMatchesColdWithinTightTolerance) {
  Rng rng(28);
  PgDesign d = generate_fake_design(32, rng, "warm_eco");
  PgSolver solver(d);
  PgSolution base = solver.solve_rough(3);

  PgDesign eco = d;
  eco.netlist.scale_current_sources(1.05);
  eco.netlist.set_resistor_ohms(0, d.netlist.resistors()[0].ohms * 1.5);

  // Warm: frozen hierarchy + rebound values + seeded PCG.
  solver.rebind(eco);
  PgSolution warm = solver.solve_warm(base.node_voltage, 1e-10, 200);
  EXPECT_TRUE(warm.converged);

  // Cold: fresh context on the edited design, same tolerance.
  PgSolver cold(eco);
  PgSolution cold_sol = cold.solve_golden(1e-10);
  ASSERT_EQ(warm.ir_drop.size(), cold_sol.ir_drop.size());
  double max_diff = 0.0;
  for (std::size_t i = 0; i < warm.ir_drop.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(warm.ir_drop[i] - cold_sol.ir_drop[i]));
  }
  EXPECT_LT(max_diff, 1e-8);
}

TEST(PgSolver, RebindRejectsTopologyChange) {
  Rng rng(29);
  PgDesign d = generate_fake_design(32, rng, "rebind_bad");
  PgSolver solver(d);
  solver.solve_rough(2);
  // A new resistor between two non-adjacent interior nodes adds an
  // off-diagonal nonzero, so the sparsity pattern no longer matches the
  // frozen hierarchy. (Between adjacent nodes it would merge into an
  // existing entry and legitimately rebind as a value edit.)
  const std::vector<int>& node_to_eq = solver.system().node_to_eq;
  spice::NodeId a = -1, b = -1;
  for (spice::NodeId n = 0; n < d.netlist.num_nodes(); ++n) {
    if (node_to_eq[n] >= 0) { a = n; break; }
  }
  for (spice::NodeId n = d.netlist.num_nodes() - 1; n >= 0; --n) {
    if (node_to_eq[n] >= 0 && n != a) { b = n; break; }
  }
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  for (const spice::Resistor& r : d.netlist.resistors()) {
    ASSERT_FALSE((r.a == a && r.b == b) || (r.a == b && r.b == a));
  }
  PgDesign grown = d;
  grown.netlist.add_resistor("Rx", a, b, 1.0);
  EXPECT_THROW(solver.rebind(grown), NumericError);
}

TEST(PgSolver, RebindTracksSupplyScaling) {
  Rng rng(30);
  PgDesign d = generate_fake_design(32, rng, "rebind_vdd");
  PgSolver solver(d);
  PgSolution base = solver.solve_rough(3);
  PgDesign corner = d;
  corner.vdd *= 1.1;
  corner.netlist.scale_voltage_sources(1.1);
  solver.rebind(corner);
  PgSolution warm = solver.solve_warm(base.node_voltage, 1e-10, 200);
  for (spice::NodeId pad : corner.netlist.pad_nodes()) {
    EXPECT_NEAR(warm.node_voltage[pad], corner.vdd, 1e-9);
  }
}

}  // namespace
}  // namespace irf::pg
