#include "spice/netlist.hpp"

#include <algorithm>
#include <numeric>
#include <set>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace irf::spice {

NodeId Netlist::intern_node(std::string_view name) {
  std::string key(name);
  std::string lower = to_lower(key);
  if (lower == "0" || lower == "gnd") return kGround;
  auto [it, inserted] = node_table_.try_emplace(key, static_cast<NodeId>(node_names_.size()));
  if (inserted) {
    node_names_.push_back(key);
    if (is_coordinate_name(key)) {
      node_coords_.push_back(parse_node_name(key));
    } else {
      node_coords_.push_back(std::nullopt);
    }
  }
  return it->second;
}

std::optional<NodeId> Netlist::find_node(std::string_view name) const {
  auto it = node_table_.find(std::string(name));
  if (it == node_table_.end()) return std::nullopt;
  return it->second;
}

const std::string& Netlist::node_name(NodeId id) const {
  if (id < 0 || id >= num_nodes()) throw DimensionError("node id out of range");
  return node_names_[static_cast<std::size_t>(id)];
}

const std::optional<NodeCoords>& Netlist::node_coords(NodeId id) const {
  if (id < 0 || id >= num_nodes()) throw DimensionError("node id out of range");
  return node_coords_[static_cast<std::size_t>(id)];
}

void Netlist::add_resistor(std::string name, NodeId a, NodeId b, double ohms) {
  if (ohms <= 0.0) throw ParseError("resistor " + name + " must be positive, got " +
                                    std::to_string(ohms));
  resistors_.push_back({std::move(name), a, b, ohms});
}

void Netlist::add_current_source(std::string name, NodeId node, double amps) {
  current_sources_.push_back({std::move(name), node, amps, std::nullopt});
}

void Netlist::add_current_source(std::string name, NodeId node, Waveform waveform) {
  // The DC value of a PWL load (used by static analysis) is its time-average
  // over the defined span — the standard static abstraction of a switching
  // current.
  double avg = 0.0;
  const auto& t = waveform.times();
  const auto& v = waveform.values();
  if (t.size() == 1) {
    avg = v[0];
  } else {
    double span = t.back() - t.front();
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      avg += 0.5 * (v[i] + v[i + 1]) * (t[i + 1] - t[i]);
    }
    avg /= span;
  }
  current_sources_.push_back({std::move(name), node, avg, std::move(waveform)});
}

void Netlist::add_voltage_source(std::string name, NodeId node, double volts) {
  voltage_sources_.push_back({std::move(name), node, volts});
}

void Netlist::add_capacitor(std::string name, NodeId a, NodeId b, double farads) {
  if (farads <= 0.0) {
    throw ParseError("capacitor " + name + " must be positive, got " +
                     std::to_string(farads));
  }
  capacitors_.push_back({std::move(name), a, b, farads});
}

std::vector<NodeId> Netlist::pad_nodes() const {
  std::vector<NodeId> pads;
  pads.reserve(voltage_sources_.size());
  for (const VoltageSource& v : voltage_sources_) {
    if (v.node != kGround) pads.push_back(v.node);
  }
  std::sort(pads.begin(), pads.end());
  pads.erase(std::unique(pads.begin(), pads.end()), pads.end());
  return pads;
}

bool Netlist::all_nodes_reach_pad() const {
  // Union-find over the node-to-node resistors (path halving); a node
  // reaches a pad when its component's root does.
  std::vector<NodeId> parent(static_cast<std::size_t>(num_nodes()));
  std::iota(parent.begin(), parent.end(), 0);
  auto root = [&parent](NodeId x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (const Resistor& r : resistors_) {
    if (r.a != kGround && r.b != kGround) parent[root(r.a)] = root(r.b);
  }
  std::vector<char> has_pad(parent.size(), 0);
  for (const VoltageSource& v : voltage_sources_) {
    if (v.node != kGround) has_pad[root(v.node)] = 1;
  }
  for (NodeId id = 0; id < num_nodes(); ++id) {
    if (!has_pad[root(id)]) return false;
  }
  return true;
}

void Netlist::scale_current_sources(double factor) {
  for (CurrentSource& i : current_sources_) {
    i.amps *= factor;
    if (i.waveform) i.waveform->scale(factor);
  }
}

void Netlist::scale_voltage_sources(double factor) {
  for (VoltageSource& v : voltage_sources_) v.volts *= factor;
}

void Netlist::set_resistor_ohms(std::size_t index, double ohms) {
  if (index >= resistors_.size()) {
    throw DimensionError("set_resistor_ohms: index " + std::to_string(index) +
                         " out of range (netlist has " +
                         std::to_string(resistors_.size()) + " resistors)");
  }
  Resistor& r = resistors_[index];
  if (ohms <= 0.0) {
    throw ParseError("resistor " + r.name + " must be positive, got " +
                     std::to_string(ohms));
  }
  r.ohms = ohms;
}

std::vector<int> Netlist::layers() const {
  std::set<int> layer_set;
  for (const auto& c : node_coords_) {
    if (c.has_value()) layer_set.insert(c->layer);
  }
  return {layer_set.begin(), layer_set.end()};
}

void Netlist::validate() const {
  auto check_node = [this](NodeId id, const std::string& element) {
    if (id != kGround && (id < 0 || id >= num_nodes())) {
      throw ParseError("element " + element + " references unknown node id " +
                       std::to_string(id));
    }
  };
  for (const Resistor& r : resistors_) {
    check_node(r.a, r.name);
    check_node(r.b, r.name);
    if (r.a == r.b) throw ParseError("resistor " + r.name + " shorts a node to itself");
  }
  for (const CurrentSource& i : current_sources_) check_node(i.node, i.name);
  for (const VoltageSource& v : voltage_sources_) {
    check_node(v.node, v.name);
    if (v.node == kGround) throw ParseError("voltage source " + v.name + " drives ground");
  }
  if (voltage_sources_.empty()) {
    throw ParseError("netlist has no voltage source: the PG system is singular");
  }
}

}  // namespace irf::spice
