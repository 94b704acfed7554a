#pragma once

/// \file mna.hpp
/// Modified nodal analysis for static PG decks (Equation (1) of the paper).
/// Ideal pad voltage sources are eliminated as Dirichlet conditions, leaving
/// a symmetric positive definite conductance system over the free nodes.

#include <vector>

#include "linalg/csr.hpp"
#include "pg/design.hpp"

namespace irf::pg {

/// The assembled system G x = b plus the node <-> equation index mapping.
struct MnaSystem {
  linalg::CsrMatrix conductance;          ///< G, SPD over free nodes
  linalg::Vec rhs;                        ///< b (pad injections minus loads)
  std::vector<int> node_to_eq;            ///< -1 for pad nodes
  std::vector<spice::NodeId> eq_to_node;
  linalg::Vec pad_voltage;                ///< per node; NaN for free nodes
};

/// Assemble the MNA system from the netlist's element sets. Throws
/// NumericError if some node cannot reach a pad (singular system).
MnaSystem assemble_mna(const spice::Netlist& netlist);

/// Expand an equation-space solution to full node voltages (pads take their
/// source value).
linalg::Vec expand_to_node_voltages(const MnaSystem& system, const linalg::Vec& x);

}  // namespace irf::pg
