// Tests for the transient extension: waveform parsing/evaluation, capacitor
// cards, backward-Euler correctness against the analytic RC response, and
// the synthetic activity generator.

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "pg/generator.hpp"
#include "pg/solve.hpp"
#include "pg/transient.hpp"
#include "spice/parser.hpp"
#include "spice/waveform.hpp"
#include "spice/writer.hpp"

namespace irf {
namespace {

TEST(Waveform, DcAndInterpolation) {
  spice::Waveform dc(3.0);
  EXPECT_TRUE(dc.is_dc());
  EXPECT_DOUBLE_EQ(dc.value_at(0.0), 3.0);
  EXPECT_DOUBLE_EQ(dc.value_at(1e9), 3.0);

  spice::Waveform pwl({0.0, 1.0, 3.0}, {0.0, 2.0, 2.0});
  EXPECT_DOUBLE_EQ(pwl.value_at(-1.0), 0.0);   // clamp left
  EXPECT_DOUBLE_EQ(pwl.value_at(0.5), 1.0);    // interpolate
  EXPECT_DOUBLE_EQ(pwl.value_at(2.0), 2.0);    // flat segment
  EXPECT_DOUBLE_EQ(pwl.value_at(10.0), 2.0);   // clamp right
  EXPECT_DOUBLE_EQ(pwl.max_abs(), 2.0);
}

TEST(Waveform, ValidatesMonotoneTimes) {
  EXPECT_THROW(spice::Waveform({1.0, 1.0}, {0.0, 1.0}), ParseError);
  EXPECT_THROW(spice::Waveform({-1.0, 1.0}, {0.0, 1.0}), ParseError);
  EXPECT_THROW(spice::Waveform({0.0}, {}), ParseError);
}

TEST(Waveform, ParsePwlTokens) {
  spice::Waveform w = spice::parse_pwl({"0", "0", "1n", "2m", "2n", "0"});
  EXPECT_DOUBLE_EQ(w.value_at(0.5e-9), 1e-3);
  EXPECT_THROW(spice::parse_pwl({"0", "0", "1n"}), ParseError);
}

TEST(ParserTransient, CapacitorAndPwlCards) {
  spice::Netlist net = spice::parse_string(
      "V1 n1_m2_0_0 0 1.1\n"
      "R1 n1_m2_0_0 n1_m1_0_0 1\n"
      "C1 n1_m1_0_0 0 1p\n"
      "I1 n1_m1_0_0 0 PWL(0 0 1n 1m 2n 0)\n");
  ASSERT_EQ(net.capacitors().size(), 1u);
  EXPECT_DOUBLE_EQ(net.capacitors()[0].farads, 1e-12);
  ASSERT_EQ(net.current_sources().size(), 1u);
  ASSERT_TRUE(net.current_sources()[0].waveform.has_value());
  EXPECT_NEAR(net.current_sources()[0].amps_at(1e-9), 1e-3, 1e-15);
  EXPECT_FALSE(net.current_sources()[0].waveform->is_dc());
}

TEST(ParserTransient, WriterRoundTripsTransientElements) {
  spice::Netlist net = spice::parse_string(
      "V1 n1_m2_0_0 0 1.1\n"
      "R1 n1_m2_0_0 n1_m1_0_0 1\n"
      "C1 n1_m1_0_0 0 2.5p\n"
      "I1 n1_m1_0_0 0 PWL(0 1m 1n 3m)\n");
  spice::Netlist again = spice::parse_string(spice::write_string(net));
  ASSERT_EQ(again.capacitors().size(), 1u);
  EXPECT_DOUBLE_EQ(again.capacitors()[0].farads, 2.5e-12);
  ASSERT_TRUE(again.current_sources()[0].waveform.has_value());
  EXPECT_DOUBLE_EQ(again.current_sources()[0].amps_at(0.5e-9), 2e-3);
}

TEST(ParserTransient, RejectsMalformedCards) {
  EXPECT_THROW(spice::parse_string("C1 0 0 1p\nV1 n1_m1_0_0 0 1.1\n"), ParseError);
  EXPECT_THROW(
      spice::parse_string("I1 n1_m1_0_0 0 PWL(0 0 1n\nV1 n1_m1_0_0 0 1.1\n"),
      ParseError);
}

/// Single RC node: pad -- R -- node, C to ground, current step I0 at t>=0.
/// Analytic: v(t) = vdd - I0*R*(1 - e^{-t/(RC)}) starting from v(0) = vdd
/// (zero current at t=0- means the DC point with the step applied at t=0
/// starts the exponential settling).
TEST(Transient, MatchesAnalyticRcStep) {
  const double r = 10.0, c = 1e-12, i0 = 1e-3, vdd = 1.0;
  const double tau = r * c;  // 10 ps
  std::ostringstream deck;
  // Current is zero until t0 = 0.1*tau, then steps (sharply) to i0: the node
  // starts at the zero-load DC point v = vdd and discharges toward
  // vdd - i0*r with time constant tau.
  deck << "V1 n1_m2_0_0 0 " << vdd << "\n"
       << "R1 n1_m2_0_0 n1_m1_0_0 " << r << "\n"
       << "C1 n1_m1_0_0 0 " << c << "\n"
       << "I1 n1_m1_0_0 0 PWL(0 0 " << 0.1 * tau << " 0 " << 0.1001 * tau << " " << i0
       << " 1 " << i0 << ")\n";
  pg::PgDesign design;
  design.name = "rc";
  design.vdd = vdd;
  design.width_nm = 1;
  design.height_nm = 1;
  design.netlist = spice::parse_string(deck.str());

  pg::TransientOptions opt;
  opt.timestep = tau / 200.0;
  opt.duration = 8.0 * tau;
  opt.probe_nodes = {*design.netlist.find_node("n1_m1_0_0")};

  pg::TransientSolver solver(design, opt);
  pg::TransientResult res = solver.run();
  ASSERT_EQ(res.probe_traces.size(), 1u);
  const linalg::Vec& trace = res.probe_traces[0];
  ASSERT_GT(trace.size(), 200u);

  // Final value: fully settled step response.
  const double v_final = vdd - i0 * r;
  EXPECT_NEAR(trace.back(), v_final, 1e-5);

  // Mid-transient value against the analytic exponential (3% of the step,
  // covering backward Euler's first-order error at h = tau/200).
  const double t0 = 0.1 * tau;
  const double t_mid = t0 + tau;
  const std::size_t k_mid = static_cast<std::size_t>(t_mid / opt.timestep);
  const double v_analytic = vdd - i0 * r * (1.0 - std::exp(-(res.times[k_mid] - t0) / tau));
  EXPECT_NEAR(trace[k_mid], v_analytic, 0.03 * i0 * r);

  // Monotone decay (single RC never rings) once the step has occurred.
  for (std::size_t k = static_cast<std::size_t>(t0 / opt.timestep) + 2;
       k < trace.size(); ++k) {
    EXPECT_LE(trace[k], trace[k - 1] + 1e-12);
    EXPECT_GE(trace[k], v_final - 1e-9);
  }
}

TEST(Transient, DcDesignStaysAtStaticSolution) {
  // No caps, DC currents: every step must reproduce the static solve.
  Rng rng(41);
  pg::PgDesign design = pg::generate_fake_design(24, rng, "dc");
  pg::PgSolution stat = pg::golden_solve(design);
  pg::TransientOptions opt;
  opt.timestep = 1e-10;
  opt.duration = 1e-9;
  pg::TransientSolver solver(design, opt);
  pg::TransientResult res = solver.run();
  for (std::size_t n = 0; n < res.worst_ir_drop.size(); ++n) {
    EXPECT_NEAR(res.worst_ir_drop[n], stat.ir_drop[n], 1e-6);
  }
}

TEST(Transient, ActivityGeneratorAddsElements) {
  Rng rng(42);
  pg::PgDesign design = pg::generate_fake_design(24, rng, "act");
  const std::size_t sources_before = design.netlist.current_sources().size();
  pg::add_transient_activity(design, rng);
  EXPECT_GT(design.netlist.capacitors().size(), 0u);
  EXPECT_GT(design.netlist.current_sources().size(), sources_before);
  // The delta pulses average to ~zero: static solve barely moves.
  pg::PgSolution stat = pg::golden_solve(design);
  for (double v : stat.ir_drop) EXPECT_LT(std::abs(v), 0.05);
}

TEST(Transient, SwitchingRaisesWorstDropAboveStatic) {
  Rng rng(43);
  pg::PgDesign design = pg::generate_fake_design(24, rng, "dyn");
  pg::PgSolution stat = pg::golden_solve(design);
  pg::TransientActivityConfig act;
  act.pulse_peak_ratio = 6.0;
  act.switching_fraction = 0.8;
  pg::add_transient_activity(design, rng, act);

  pg::TransientOptions opt;
  opt.timestep = 2e-10;
  opt.duration = 6e-9;
  pg::TransientSolver solver(design, opt);
  pg::TransientResult res = solver.run();
  double worst_dynamic = 0.0, worst_static = 0.0;
  for (std::size_t n = 0; n < res.worst_ir_drop.size(); ++n) {
    worst_dynamic = std::max(worst_dynamic, res.worst_ir_drop[n]);
    worst_static = std::max(worst_static, stat.ir_drop[n]);
  }
  // Pulsed draw above the DC average must deepen the worst-case drop.
  EXPECT_GT(worst_dynamic, worst_static);
  EXPECT_GT(res.total_pcg_iterations, 0);
}

TEST(Transient, OptionValidation) {
  Rng rng(44);
  pg::PgDesign design = pg::generate_fake_design(24, rng, "opt");
  pg::TransientOptions opt;
  opt.timestep = 0.0;
  EXPECT_THROW(pg::TransientSolver(design, opt), ConfigError);
  opt.timestep = 1e-10;
  opt.duration = 1e-12;
  EXPECT_THROW(pg::TransientSolver(design, opt), ConfigError);
  opt.duration = 1e-9;
  opt.probe_nodes = {999999};
  EXPECT_THROW(pg::TransientSolver(design, opt), ConfigError);
}

}  // namespace
}  // namespace irf
