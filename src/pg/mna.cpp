#include "pg/mna.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace irf::pg {

using spice::kGround;
using spice::Netlist;
using spice::NodeId;

MnaSystem assemble_mna(const Netlist& netlist) {
  if (!netlist.all_nodes_reach_pad()) {
    throw NumericError("MNA: some node has no resistive path to a pad; system singular");
  }

  MnaSystem sys;
  const int n = netlist.num_nodes();
  // The last source on a node sets its voltage.
  sys.pad_voltage.assign(static_cast<std::size_t>(n),
                         std::numeric_limits<double>::quiet_NaN());
  for (const spice::VoltageSource& v : netlist.voltage_sources()) {
    if (v.node != kGround) sys.pad_voltage[v.node] = v.volts;
  }
  auto is_pad = [&sys](NodeId node) { return !std::isnan(sys.pad_voltage[node]); };
  sys.node_to_eq.assign(static_cast<std::size_t>(n), -1);
  for (NodeId node = 0; node < n; ++node) {
    if (!is_pad(node)) {
      sys.node_to_eq[node] = static_cast<int>(sys.eq_to_node.size());
      sys.eq_to_node.push_back(node);
    }
  }
  const int m = static_cast<int>(sys.eq_to_node.size());
  linalg::TripletBuilder builder(m, m);
  sys.rhs.assign(static_cast<std::size_t>(m), 0.0);

  for (const spice::Resistor& r : netlist.resistors()) {
    const double g = 1.0 / r.ohms;
    const bool a_free = r.a != kGround && !is_pad(r.a);
    const bool b_free = r.b != kGround && !is_pad(r.b);
    if (a_free && b_free) {
      builder.stamp_conductance(sys.node_to_eq[r.a], sys.node_to_eq[r.b], g);
    } else if (a_free) {
      const int eq = sys.node_to_eq[r.a];
      builder.stamp_grounded_conductance(eq, g);
      if (r.b != kGround) sys.rhs[eq] += g * sys.pad_voltage[r.b];
    } else if (b_free) {
      const int eq = sys.node_to_eq[r.b];
      builder.stamp_grounded_conductance(eq, g);
      if (r.a != kGround) sys.rhs[eq] += g * sys.pad_voltage[r.a];
    }
    // pad-to-pad or pad-to-ground resistors do not enter the reduced system
  }
  // Sum each node's loads first, then subtract once: several sources on one
  // node round as one draw.
  linalg::Vec load(static_cast<std::size_t>(n), 0.0);
  for (const spice::CurrentSource& i : netlist.current_sources()) {
    if (i.node != kGround) load[i.node] += i.amps;
  }
  for (int eq = 0; eq < m; ++eq) sys.rhs[eq] -= load[sys.eq_to_node[eq]];
  sys.conductance = linalg::CsrMatrix::from_triplets(builder);
  return sys;
}

linalg::Vec expand_to_node_voltages(const MnaSystem& system, const linalg::Vec& x) {
  if (x.size() != system.eq_to_node.size()) {
    throw DimensionError("expand_to_node_voltages: solution size mismatch");
  }
  linalg::Vec v = system.pad_voltage;
  for (std::size_t eq = 0; eq < x.size(); ++eq) v[system.eq_to_node[eq]] = x[eq];
  return v;
}

}  // namespace irf::pg
