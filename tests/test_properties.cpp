// Property-based tests: parameterized sweeps asserting invariants across
// random instances — solver agreement properties, parser round-trip under
// randomized netlists, metric invariances under rotation, and model
// serialization fidelity across the zoo.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/rng.hpp"
#include "linalg/dense.hpp"
#include "models/irpnet.hpp"
#include "models/unet.hpp"
#include "nn/serialize.hpp"
#include "pg/generator.hpp"
#include "pg/mna.hpp"
#include "pg/solve.hpp"
#include "solver/amg_pcg.hpp"
#include "solver/cg.hpp"
#include "spice/parser.hpp"
#include "spice/writer.hpp"
#include "train/metrics.hpp"

namespace irf {
namespace {

// ---------------------------------------------------------------------------
// Property: every solver agrees with the dense Cholesky reference on random
// PG systems (seed-parameterized).
class SolverAgreement : public ::testing::TestWithParam<int> {};

TEST_P(SolverAgreement, AllSolversMatchCholesky) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  pg::PgDesign design = pg::generate_fake_design(24, rng, "prop");
  pg::MnaSystem sys = pg::assemble_mna(design.netlist);

  linalg::CholeskyFactor chol(linalg::DenseMatrix::from_csr(sys.conductance));
  linalg::Vec x_ref = chol.solve(sys.rhs);

  solver::SolveOptions opt;
  opt.rel_tolerance = 1e-11;
  opt.max_iterations = 50000;
  linalg::Vec x_cg = solver::conjugate_gradient(sys.conductance, sys.rhs, opt).x;
  solver::AmgPcgSolver amg(sys.conductance);
  linalg::Vec x_amg = amg.solve(sys.rhs, opt).x;

  double scale = linalg::norm_inf(x_ref);
  for (std::size_t i = 0; i < x_ref.size(); i += 7) {
    EXPECT_NEAR(x_cg[i], x_ref[i], 1e-7 * scale);
    EXPECT_NEAR(x_amg[i], x_ref[i], 1e-7 * scale);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverAgreement, ::testing::Values(11, 22, 33, 44, 55));

// ---------------------------------------------------------------------------
// Property: SPICE write -> parse is an exact element-level round trip for
// randomized generated designs (both families, several seeds).
class SpiceRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(SpiceRoundTrip, ElementsSurvive) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  pg::PgDesign design = GetParam() % 2 == 0
                            ? pg::generate_fake_design(24, rng, "rt")
                            : pg::generate_real_design(24, rng, "rt");
  spice::Netlist again = spice::parse_string(spice::write_string(design.netlist));
  ASSERT_EQ(again.num_nodes(), design.netlist.num_nodes());
  ASSERT_EQ(again.resistors().size(), design.netlist.resistors().size());
  ASSERT_EQ(again.current_sources().size(), design.netlist.current_sources().size());
  ASSERT_EQ(again.voltage_sources().size(), design.netlist.voltage_sources().size());
  for (std::size_t i = 0; i < again.resistors().size(); ++i) {
    EXPECT_DOUBLE_EQ(again.resistors()[i].ohms, design.netlist.resistors()[i].ohms);
  }
  for (std::size_t i = 0; i < again.current_sources().size(); ++i) {
    EXPECT_DOUBLE_EQ(again.current_sources()[i].amps,
                     design.netlist.current_sources()[i].amps);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpiceRoundTrip, ::testing::Range(100, 108));

// ---------------------------------------------------------------------------
// Property: the evaluation metrics are invariant under a joint rotation of
// prediction and golden map.
class MetricRotation : public ::testing::TestWithParam<int> {};

TEST_P(MetricRotation, JointRotationInvariance) {
  Rng rng(7);
  GridF golden(16, 16);
  GridF pred(16, 16);
  for (std::size_t i = 0; i < golden.size(); ++i) {
    golden.data()[i] = static_cast<float>(rng.uniform(0.0, 0.01));
    pred.data()[i] = golden.data()[i] + static_cast<float>(rng.normal(0.0, 5e-4));
  }
  const int q = GetParam();
  train::MapMetrics base = train::evaluate_map(pred, golden);
  train::MapMetrics rotated =
      train::evaluate_map(pred.rotated90(q), golden.rotated90(q));
  EXPECT_NEAR(base.mae, rotated.mae, 1e-12);
  EXPECT_NEAR(base.f1, rotated.f1, 1e-12);
  EXPECT_NEAR(base.mirde, rotated.mirde, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Quarters, MetricRotation, ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------------
// Property: checkpoint round trip reproduces the forward pass bit-for-bit
// for every model in the zoo.
struct ZooSpec {
  const char* label;
  int in_channels;
};

class ZooSerialization : public ::testing::TestWithParam<int> {};

std::unique_ptr<models::IrModel> make_by_index(int idx, int base, Rng& rng) {
  switch (idx) {
    case 0: return models::make_iredge(3, base, rng);
    case 1: return models::make_mavirec(5, base, rng);
    case 2: return models::make_irpnet(5, base, rng);
    case 3: return models::make_pgau(5, base, rng);
    case 4: return models::make_maunet(5, base, rng);
    case 5: return models::make_contest_winner(5, base, rng);
    default: return models::make_ir_fusion_net(9, base, rng);
  }
}

TEST_P(ZooSerialization, ForwardIdenticalAfterReload) {
  Rng rng(500 + GetParam());
  auto model = make_by_index(GetParam(), 4, rng);
  auto clone = make_by_index(GetParam(), 4, rng);  // different init
  model->set_training(false);
  clone->set_training(false);

  std::stringstream stream;
  std::vector<nn::Tensor> src = model->parameters();
  nn::save_parameters(src, stream);
  std::vector<nn::Tensor> dst = clone->parameters();
  nn::load_parameters(dst, stream);

  Rng data_rng(1);
  std::vector<float> data(static_cast<std::size_t>(model->in_channels()) * 16 * 16);
  for (float& v : data) v = static_cast<float>(data_rng.normal());
  nn::Tensor x =
      nn::Tensor::from_data({1, model->in_channels(), 16, 16}, std::move(data));
  nn::Tensor a = model->forward(x);
  nn::Tensor b = clone->forward(x);
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    ASSERT_FLOAT_EQ(a.data()[i], b.data()[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooSerialization, ::testing::Range(0, 7));

// ---------------------------------------------------------------------------
// Property: generated designs are linear systems — scaling all currents by c
// scales every IR drop by c (checked through the full pipeline).
class Linearity : public ::testing::TestWithParam<double> {};

TEST_P(Linearity, IrDropScalesWithCurrent) {
  Rng rng(70);
  pg::PgDesign design = pg::generate_fake_design(24, rng, "lin");
  pg::PgSolution base = pg::golden_solve(design);
  const double c = GetParam();
  design.netlist.scale_current_sources(c);
  pg::PgSolution scaled = pg::golden_solve(design);
  for (std::size_t i = 0; i < base.ir_drop.size(); i += 11) {
    EXPECT_NEAR(scaled.ir_drop[i], c * base.ir_drop[i], 1e-9 + 1e-6 * std::abs(c));
  }
}

INSTANTIATE_TEST_SUITE_P(Factors, Linearity, ::testing::Values(0.5, 2.0, 10.0));

// ---------------------------------------------------------------------------
// Property: AMG-PCG converges on *real*-family designs too (damaged rails,
// resistance spread — the robustness claim of Section III-B).
class RealFamilyConvergence : public ::testing::TestWithParam<int> {};

TEST_P(RealFamilyConvergence, GoldenSolveConverges) {
  Rng rng(static_cast<std::uint64_t>(900 + GetParam()));
  pg::PgDesign design = pg::generate_real_design(24, rng, "conv");
  pg::PgSolver solver(design);
  pg::PgSolution sol = solver.solve_golden(1e-9);
  EXPECT_TRUE(sol.converged);
  EXPECT_LE(sol.iterations, 60);
  for (double v : sol.ir_drop) EXPECT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RealFamilyConvergence, ::testing::Range(0, 5));

}  // namespace
}  // namespace irf
