#pragma once

/// \file csr.hpp
/// Compressed sparse row matrix — the workhorse format for the MNA system
/// matrix G and every AMG level operator.

#include <vector>

#include "linalg/coo.hpp"
#include "linalg/vector_ops.hpp"

namespace irf::linalg {

/// CSR matrix with sorted column indices per row and duplicates summed; the
/// structure is fixed at construction. `from_triplets` also records each
/// row's diagonal position, which the smoothers use instead of re-searching
/// every sweep. `mutable_values()` is the only mutation door and swaps
/// values under the fixed structure, so the positions never go stale. A
/// plain value type: copies and moves are member-wise, and the row count is
/// read off `row_ptr_`, so a moved-from matrix has no rows.
class CsrMatrix {
 public:
  /// Build from a triplet accumulator; duplicate entries are summed and
  /// exact zeros produced by cancellation are kept (harmless, rare).
  static CsrMatrix from_triplets(const TripletBuilder& builder);

  int rows() const { return row_ptr_.empty() ? 0 : static_cast<int>(row_ptr_.size()) - 1; }
  int cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  const std::vector<int>& row_ptr() const { return row_ptr_; }
  const std::vector<int>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }

  /// Mutable access to the value payload (warm-start rebind swaps new
  /// conductances under a frozen sparsity).
  std::vector<double>& mutable_values() { return values_; }

  /// y = A x: the CSR row loop, each row summed in ascending column order.
  void multiply(const Vec& x, Vec& y) const;
  Vec multiply(const Vec& x) const;

  /// Position of the diagonal entry inside each row's value range (-1
  /// where structurally absent), recorded by from_triplets.
  const std::vector<int>& diag_index() const { return diag_idx_; }

  /// Entry lookup by binary search (O(log nnz_row)); 0 where absent.
  double at(int row, int col) const;

  /// Main diagonal (missing entries read as 0).
  Vec diagonal() const;

  /// Heap bytes retained by the index, value and diagonal-position arrays
  /// (capacity, not size, so cache byte budgets see what the allocator
  /// actually holds).
  std::size_t memory_bytes() const;

 private:
  int cols_ = 0;
  std::vector<int> row_ptr_;   // size rows()+1, empty in a default or moved-from matrix
  std::vector<int> col_idx_;   // size nnz
  std::vector<double> values_; // size nnz
  std::vector<int> diag_idx_;  // size rows()
};

}  // namespace irf::linalg
