#pragma once

/// \file csr.hpp
/// Compressed sparse row matrix — the workhorse format for the MNA system
/// matrix G and every AMG level operator.

#include <mutex>
#include <vector>

#include "linalg/coo.hpp"
#include "linalg/vector_ops.hpp"

namespace irf::linalg {

/// Immutable-after-construction CSR matrix with sorted column indices per row
/// and duplicates summed.
///
/// The matrix lazily caches the structural diagonal position per row plus
/// the diagonal values (mutex-guarded, so concurrent readers are safe); the
/// smoothers use them instead of re-searching every sweep.
/// `mutable_values()` is the only mutation door and invalidates the cached
/// diagonal values at call time (the structural positions survive — that is
/// what makes warm-start rebinds cheap). Copies and moves never carry caches;
/// they rebuild on demand.
class CsrMatrix {
 public:
  CsrMatrix() = default;
  ~CsrMatrix() = default;
  CsrMatrix(const CsrMatrix& other);
  CsrMatrix& operator=(const CsrMatrix& other);
  CsrMatrix(CsrMatrix&& other) noexcept;
  CsrMatrix& operator=(CsrMatrix&& other) noexcept;

  /// Build from a triplet accumulator; duplicate entries are summed and
  /// exact zeros produced by cancellation are kept (harmless, rare).
  static CsrMatrix from_triplets(const TripletBuilder& builder);

  /// Convenience: identity matrix of size n.
  static CsrMatrix identity(int n);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  const std::vector<int>& row_ptr() const { return row_ptr_; }
  const std::vector<int>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }

  /// Mutable access to the value payload (warm-start rebind swaps new
  /// conductances under a frozen sparsity). Invalidates the diagonal-value
  /// cache immediately — mutate through the returned reference right away,
  /// do not hold it across other matrix calls.
  std::vector<double>& mutable_values();

  /// y = A x: the CSR row loop, each row summed in ascending column order.
  void multiply(const Vec& x, Vec& y) const;
  Vec multiply(const Vec& x) const;

  /// Cached position of the diagonal entry inside each row's value range
  /// (-1 where structurally absent). Survives mutable_values() swaps.
  const std::vector<int>& diag_index() const;

  /// Cached diagonal values (0 where structurally absent). Rebuilt after
  /// mutable_values().
  const Vec& cached_diagonal() const;

  /// Entry lookup by binary search (test/debug helper, O(log nnz_row)).
  double at(int row, int col) const;

  /// Main diagonal (missing entries read as 0).
  Vec diagonal() const;

  /// Sum of each row (Laplacian rows with no ground hookup sum to ~0).
  Vec row_sums() const;

  /// Structural + numerical symmetry within `tol` (relative to max |value|).
  bool is_symmetric(double tol = 1e-12) const;

  /// Weak diagonal dominance check: |a_ii| >= sum_{j!=i} |a_ij| - tol.
  bool is_diagonally_dominant(double tol = 1e-9) const;

  /// A^T as a new matrix.
  CsrMatrix transposed() const;

  /// Heap bytes retained by the index/value arrays AND the diagonal caches
  /// (capacity, not size, so cache byte budgets see what the allocator
  /// actually holds).
  std::size_t memory_bytes() const;

 private:
  void reset_caches();

  int rows_ = 0;
  int cols_ = 0;
  std::vector<int> row_ptr_;   // size rows_+1
  std::vector<int> col_idx_;   // size nnz
  std::vector<double> values_; // size nnz

  // Lazily-built diagonal caches (see class comment). The mutex orders
  // build/invalidate against concurrent const readers; parallel_for bodies
  // never touch it because callers snapshot the cache before fanning out.
  // csr.cache_mu_ is the LEAF of the global lock order (engine.hpp declares
  // the full chain): no code may acquire any other lock while holding it.
  mutable std::mutex cache_mu_;
  mutable std::vector<int> diag_idx_;
  mutable Vec diag_;
  mutable bool diag_idx_built_ = false;
  mutable bool diag_vals_built_ = false;
};

}  // namespace irf::linalg
