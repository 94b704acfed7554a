#include "serve/api.hpp"

#include "common/hash.hpp"

namespace irf::serve {

const char* status_name(ResultStatus status) {
  switch (status) {
    case ResultStatus::kOk: return "ok";
    case ResultStatus::kDegraded: return "degraded";
    case ResultStatus::kTimedOut: return "timed_out";
    case ResultStatus::kCancelled: return "cancelled";
    case ResultStatus::kFailed: return "failed";
  }
  return "unknown";
}

std::uint64_t design_content_hash(const pg::PgDesign& design) {
  Fnv1a64 h;
  h.update_pod(design.vdd);
  h.update_pod(design.width_nm);
  h.update_pod(design.height_nm);
  const spice::Netlist& nl = design.netlist;
  const std::int32_t num_nodes = nl.num_nodes();
  h.update_pod(num_nodes);
  // Node identity is positional (ids are interned in file order), so hashing
  // names pins down the id->coordinate mapping every element refers to.
  for (spice::NodeId id = 0; id < num_nodes; ++id) {
    h.update_string(nl.node_name(id));
  }
  // Each group's length goes in before its records: a current-source and a
  // voltage-source record have the same layout, so without it a card moved
  // from one group to the next would not change the hash.
  h.update_pod(std::uint64_t{nl.resistors().size()});
  for (const spice::Resistor& r : nl.resistors()) {
    h.update_pod(r.a);
    h.update_pod(r.b);
    h.update_pod(r.ohms);
  }
  h.update_pod(std::uint64_t{nl.current_sources().size()});
  for (const spice::CurrentSource& c : nl.current_sources()) {
    h.update_pod(c.node);
    h.update_pod(c.amps);
  }
  h.update_pod(std::uint64_t{nl.voltage_sources().size()});
  for (const spice::VoltageSource& v : nl.voltage_sources()) {
    h.update_pod(v.node);
    h.update_pod(v.volts);
  }
  h.update_pod(std::uint64_t{nl.capacitors().size()});
  for (const spice::Capacitor& c : nl.capacitors()) {
    h.update_pod(c.a);
    h.update_pod(c.b);
    h.update_pod(c.farads);
  }
  return h.value();
}

std::uint64_t design_topology_hash(const pg::PgDesign& design) {
  Fnv1a64 h;
  h.update_pod(design.width_nm);
  h.update_pod(design.height_nm);
  const spice::Netlist& nl = design.netlist;
  const std::int32_t num_nodes = nl.num_nodes();
  h.update_pod(num_nodes);
  for (spice::NodeId id = 0; id < num_nodes; ++id) {
    h.update_string(nl.node_name(id));
  }
  h.update_pod(std::uint64_t{nl.resistors().size()});
  for (const spice::Resistor& r : nl.resistors()) {
    h.update_pod(r.a);
    h.update_pod(r.b);
  }
  h.update_pod(std::uint64_t{nl.current_sources().size()});
  for (const spice::CurrentSource& c : nl.current_sources()) {
    h.update_pod(c.node);
  }
  h.update_pod(std::uint64_t{nl.voltage_sources().size()});
  for (const spice::VoltageSource& v : nl.voltage_sources()) {
    h.update_pod(v.node);
  }
  h.update_pod(std::uint64_t{nl.capacitors().size()});
  for (const spice::Capacitor& c : nl.capacitors()) {
    h.update_pod(c.a);
    h.update_pod(c.b);
  }
  return h.value();
}

}  // namespace irf::serve
