#pragma once

/// \file coo.hpp
/// Triplet (COO) accumulator used while stamping the MNA conductance matrix.
/// Duplicate (row, col) entries are summed when converting to CSR, which is
/// exactly the stamping semantics MNA needs.

#include <cstddef>
#include <vector>

namespace irf::linalg {

struct Triplet {
  int row = 0;
  int col = 0;
  double value = 0.0;
};

/// Accumulates triplets for an n x m sparse matrix.
class TripletBuilder {
 public:
  TripletBuilder(int rows, int cols);

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  /// Add `value` at (row, col); duplicates accumulate.
  void add(int row, int col, double value);

  /// Stamp a 2-terminal conductance g between nodes a and b of a symmetric
  /// system (adds g to both diagonals and -g to both off-diagonals).
  void stamp_conductance(int a, int b, double g);

  /// Stamp conductance from node a to a Dirichlet (eliminated) node: only the
  /// diagonal term remains; the RHS contribution is handled by the caller.
  void stamp_grounded_conductance(int a, double g);

  const std::vector<Triplet>& triplets() const { return triplets_; }

 private:
  int rows_;
  int cols_;
  std::vector<Triplet> triplets_;
};

}  // namespace irf::linalg
