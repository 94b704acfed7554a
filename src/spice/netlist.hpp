#pragma once

/// \file netlist.hpp
/// In-memory PG netlist: the node hash table plus element sets described in
/// Section III-B of the paper ("creates a hash table of circuit nodes ...
/// builds circuit elements as sets").

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "spice/node_name.hpp"
#include "spice/waveform.hpp"

namespace irf::spice {

/// Dense node identifier; ground is the sentinel kGround (never appears in
/// the node table).
using NodeId = int;
inline constexpr NodeId kGround = -1;

struct Resistor {
  std::string name;
  NodeId a = kGround;
  NodeId b = kGround;
  double ohms = 0.0;
};

/// Current drawn from `node` to ground (cell load). `amps` is the DC value
/// used by static analysis; a PWL `waveform` (when present) drives the
/// transient extension — its value at t replaces `amps` during stepping.
struct CurrentSource {
  std::string name;
  NodeId node = kGround;
  double amps = 0.0;
  std::optional<Waveform> waveform;

  double amps_at(double t) const { return waveform ? waveform->value_at(t) : amps; }
};

/// Decoupling/parasitic capacitance (farads). `b == kGround` for decap.
struct Capacitor {
  std::string name;
  NodeId a = kGround;
  NodeId b = kGround;
  double farads = 0.0;
};

/// Ideal source fixing `node` at `volts` against ground (power pad).
struct VoltageSource {
  std::string name;
  NodeId node = kGround;
  double volts = 0.0;
};

/// The netlist: node table + element sets. Nodes are interned by name; names
/// following the coordinate convention also carry parsed coordinates so the
/// feature extractor can place them on the pixel grid.
class Netlist {
 public:
  /// Intern `name`, returning its id (kGround for "0"/"gnd"/"GND").
  NodeId intern_node(std::string_view name);

  /// Lookup without interning; nullopt if the node was never seen.
  std::optional<NodeId> find_node(std::string_view name) const;

  int num_nodes() const { return static_cast<int>(node_names_.size()); }
  const std::string& node_name(NodeId id) const;

  /// Parsed coordinates for a node, if its name follows the convention.
  const std::optional<NodeCoords>& node_coords(NodeId id) const;

  void add_resistor(std::string name, NodeId a, NodeId b, double ohms);
  void add_current_source(std::string name, NodeId node, double amps);
  void add_current_source(std::string name, NodeId node, Waveform waveform);
  void add_voltage_source(std::string name, NodeId node, double volts);
  void add_capacitor(std::string name, NodeId a, NodeId b, double farads);

  /// Scale every current source by `factor`. The static PG system is linear,
  /// so this rescales all IR drops by the same factor — the generator uses it
  /// to hit a target worst-case drop exactly.
  void scale_current_sources(double factor);

  /// Scale every voltage source by `factor` — per-corner supply scaling,
  /// one of the bounded deltas the serve engine re-analyzes incrementally.
  void scale_voltage_sources(double factor);

  /// Overwrite the resistance of resistor `index` (an ECO stamp edit).
  /// Throws DimensionError when the index is out of range and ParseError
  /// when `ohms` is not positive.
  void set_resistor_ohms(std::size_t index, double ohms);

  const std::vector<Resistor>& resistors() const { return resistors_; }
  const std::vector<CurrentSource>& current_sources() const { return current_sources_; }
  const std::vector<VoltageSource>& voltage_sources() const { return voltage_sources_; }
  const std::vector<Capacitor>& capacitors() const { return capacitors_; }

  /// Nodes driven by a voltage source (the power pads), ascending and each
  /// once, whatever the order of the source cards.
  std::vector<NodeId> pad_nodes() const;

  /// True if every node can reach some pad through node-to-node resistors
  /// (required for a non-singular static solve).
  bool all_nodes_reach_pad() const;

  /// All metal layers present in coordinate-named nodes, ascending.
  std::vector<int> layers() const;

  /// Basic sanity: every element references interned nodes, resistances are
  /// positive, at least one voltage source exists. Throws on violation.
  void validate() const;

 private:
  std::unordered_map<std::string, NodeId> node_table_;
  std::vector<std::string> node_names_;
  std::vector<std::optional<NodeCoords>> node_coords_;
  std::vector<Resistor> resistors_;
  std::vector<CurrentSource> current_sources_;
  std::vector<VoltageSource> voltage_sources_;
  std::vector<Capacitor> capacitors_;
};

}  // namespace irf::spice
