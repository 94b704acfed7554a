#include "pg/transient.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace irf::pg {

using spice::kGround;
using spice::NodeId;

TransientSolver::TransientSolver(const PgDesign& design, TransientOptions options)
    : design_(design), options_(std::move(options)),
      static_system_(assemble_mna(design.netlist)) {
  if (options_.timestep <= 0.0 || options_.duration <= 0.0) {
    throw ConfigError("transient timestep and duration must be positive");
  }
  if (options_.duration < options_.timestep) {
    throw ConfigError("transient duration shorter than one timestep");
  }
  for (NodeId probe : options_.probe_nodes) {
    if (probe < 0 || probe >= design.netlist.num_nodes()) {
      throw ConfigError("transient probe node out of range");
    }
  }

  // Stamp C/h on top of G. Node-to-node capacitors stamp like conductances;
  // decap to ground only touches the diagonal. Capacitors on pad nodes are
  // absorbed by the fixed pad voltage and drop out of the reduced system.
  const int m = static_cast<int>(static_system_.eq_to_node.size());
  cap_over_h_.assign(static_cast<std::size_t>(m), 0.0);
  linalg::TripletBuilder builder(m, m);
  const auto& g = static_system_.conductance;
  for (int r = 0; r < g.rows(); ++r) {
    for (int k = g.row_ptr()[r]; k < g.row_ptr()[r + 1]; ++k) {
      builder.add(r, g.col_idx()[k], g.values()[k]);
    }
  }
  const double inv_h = 1.0 / options_.timestep;
  for (const spice::Capacitor& c : design.netlist.capacitors()) {
    const int eq_a = c.a == kGround ? -1 : static_system_.node_to_eq[c.a];
    const int eq_b = c.b == kGround ? -1 : static_system_.node_to_eq[c.b];
    const double stamp = c.farads * inv_h;
    if (eq_a >= 0 && eq_b >= 0) {
      builder.stamp_conductance(eq_a, eq_b, stamp);
      // Node-to-node caps couple the history term as well; we fold that in
      // by tracking per-equation totals (exact for decap, first-order for
      // the rare node-node cap).
      cap_over_h_[eq_a] += stamp;
      cap_over_h_[eq_b] += stamp;
    } else if (eq_a >= 0) {
      builder.stamp_grounded_conductance(eq_a, stamp);
      cap_over_h_[eq_a] += stamp;
    } else if (eq_b >= 0) {
      builder.stamp_grounded_conductance(eq_b, stamp);
      cap_over_h_[eq_b] += stamp;
    }
  }
  stepped_matrix_ = linalg::CsrMatrix::from_triplets(builder);
  solver_ = std::make_unique<solver::AmgPcgSolver>(stepped_matrix_);
  dc_solver_ = std::make_unique<solver::AmgPcgSolver>(static_system_.conductance);
}

TransientResult TransientSolver::run() const {
  // unique_ptr so the span can close at the setup/stepping boundary below.
  auto setup_span = std::make_unique<obs::ScopedSpan>("transient_setup", "pg");
  TransientResult result;
  const int m = static_cast<int>(static_system_.eq_to_node.size());

  // Pad contribution to the RHS is time-invariant; recompute the load part
  // each step. Start by splitting the static RHS into pad and load parts,
  // adding back each node's loads summed as assemble_mna summed them.
  linalg::Vec load(static_cast<std::size_t>(design_.netlist.num_nodes()), 0.0);
  for (const spice::CurrentSource& src : design_.netlist.current_sources()) {
    if (src.node != kGround) load[src.node] += src.amps;
  }
  linalg::Vec pad_rhs(static_cast<std::size_t>(m), 0.0);
  for (std::size_t i = 0; i < pad_rhs.size(); ++i) {
    pad_rhs[i] = static_system_.rhs[i] + load[static_system_.eq_to_node[i]];
  }

  auto load_rhs_at = [&](double t, linalg::Vec& rhs) {
    rhs = pad_rhs;
    for (const spice::CurrentSource& src : design_.netlist.current_sources()) {
      const int eq = src.node == kGround ? -1 : static_system_.node_to_eq[src.node];
      if (eq >= 0) rhs[static_cast<std::size_t>(eq)] -= src.amps_at(t);
    }
  };

  // DC operating point at t = 0 (waveforms evaluated at 0).
  linalg::Vec rhs;
  load_rhs_at(0.0, rhs);
  linalg::Vec x0(static_cast<std::size_t>(m), design_.vdd);
  solver::SolveResult dc = dc_solver_->solve_golden(rhs, 1e-10, 2000, &x0);
  linalg::Vec v = dc.x;
  result.setup_seconds = setup_span->seconds();
  setup_span.reset();

  obs::ScopedSpan steps_span("transient_steps", "pg");
  const int steps = static_cast<int>(std::ceil(options_.duration / options_.timestep));
  steps_span.add_arg("steps", steps);
  result.worst_ir_drop.assign(
      static_cast<std::size_t>(design_.netlist.num_nodes()), 0.0);
  // Pads never drop; seed worst map from the DC point for free nodes.
  {
    linalg::Vec full = expand_to_node_voltages(static_system_, v);
    for (std::size_t n = 0; n < full.size(); ++n) {
      result.worst_ir_drop[n] = std::max(result.worst_ir_drop[n], design_.vdd - full[n]);
    }
  }
  result.probe_traces.assign(options_.probe_nodes.size(), {});

  solver::SolveOptions step_opts;
  step_opts.rel_tolerance = options_.rel_tolerance;
  step_opts.max_iterations = options_.max_iterations;
  step_opts.track_residual_history = false;

  for (int k = 1; k <= steps; ++k) {
    const double t = k * options_.timestep;
    load_rhs_at(t, rhs);
    for (int i = 0; i < m; ++i) rhs[static_cast<std::size_t>(i)] += cap_over_h_[i] * v[i];
    // Warm start from the previous step's solution via the shared solver
    // entry point (same path the serve engine's incremental re-analysis uses).
    solver::SolveResult step = solver_->solve_warm(rhs, v, step_opts);
    v = step.x;
    result.total_pcg_iterations += step.iterations;
    result.times.push_back(t);

    linalg::Vec full = expand_to_node_voltages(static_system_, v);
    for (std::size_t n = 0; n < full.size(); ++n) {
      result.worst_ir_drop[n] = std::max(result.worst_ir_drop[n], design_.vdd - full[n]);
    }
    for (std::size_t p = 0; p < options_.probe_nodes.size(); ++p) {
      result.probe_traces[p].push_back(full[options_.probe_nodes[p]]);
    }
  }
  obs::count("pg.transient.steps", static_cast<std::uint64_t>(steps));
  obs::count("pg.transient.pcg_iterations",
             static_cast<std::uint64_t>(result.total_pcg_iterations));
  result.step_seconds = steps_span.seconds();
  return result;
}

void add_transient_activity(PgDesign& design, Rng& rng,
                            const TransientActivityConfig& config) {
  if (config.decap_farads < 0.0 || config.pulse_period <= 0.0 ||
      config.pulse_width_ratio <= 0.0 || config.pulse_width_ratio >= 1.0 ||
      config.horizon <= config.pulse_period) {
    throw ConfigError("invalid transient activity config");
  }
  spice::Netlist& net = design.netlist;
  const std::vector<int> layers = net.layers();
  const int bottom_metal = layers.front();

  // Decap at every bottom-layer node.
  int cap_count = 0;
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    const auto& c = net.node_coords(id);
    if (c && c->layer == bottom_metal && config.decap_farads > 0.0) {
      net.add_capacitor("Cd" + std::to_string(++cap_count), id, kGround,
                        config.decap_farads * rng.uniform(0.5, 1.5));
    }
  }

  // Replace a fraction of the DC loads with clock-gated pulse trains whose
  // average equals the original DC draw (so the static solution and labels
  // stay meaningful).
  std::vector<spice::CurrentSource> originals = net.current_sources();
  // Rebuild the source list: Netlist has no removal API, so we scale the
  // originals to zero and add the pulsed replacements. Simpler and exact:
  // construct waveforms whose average equals `amps` and overwrite via the
  // scale+add trick is messy — instead we add *delta* waveforms on top: a
  // pulse train with zero average. Total draw = DC + delta(t).
  int delta_count = 0;
  for (const spice::CurrentSource& src : originals) {
    if (!rng.bernoulli(config.switching_fraction)) continue;
    const double peak_delta = src.amps * (config.pulse_peak_ratio - 1.0);
    const double width = config.pulse_width_ratio * config.pulse_period;
    // Zero-average square-ish pulse: +peak_delta during the pulse, baseline
    // -peak_delta*width/(period-width) otherwise.
    const double baseline = -peak_delta * width / (config.pulse_period - width);
    std::vector<double> times, values;
    const double edge = std::min(width * 0.2, 1e-11);
    // Keep the first rising edge strictly after t=0 so PWL times increase.
    const double phase = rng.uniform(2.0 * edge, config.pulse_period - width);
    double t0 = 0.0;
    times.push_back(0.0);
    values.push_back(baseline);
    while (t0 + config.pulse_period <= config.horizon) {
      const double rise = t0 + phase;
      times.push_back(rise);
      values.push_back(baseline);
      times.push_back(rise + edge);
      values.push_back(peak_delta);
      times.push_back(rise + width);
      values.push_back(peak_delta);
      times.push_back(rise + width + edge);
      values.push_back(baseline);
      t0 += config.pulse_period;
    }
    net.add_current_source("Ipulse" + std::to_string(++delta_count), src.node,
                           spice::Waveform(std::move(times), std::move(values)));
  }
}

}  // namespace irf::pg
