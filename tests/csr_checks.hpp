#pragma once

// Structural checks on a CsrMatrix that only the tests ask for: symmetry of
// the MNA and AMG operators, and the row sums a Galerkin coarse operator
// must preserve.

#include <algorithm>
#include <cmath>

#include "linalg/csr.hpp"

namespace irf::test {

/// Structural + numerical symmetry within `tol` (relative to max |value|).
inline bool is_symmetric(const linalg::CsrMatrix& m, double tol = 1e-12) {
  if (m.rows() != m.cols()) return false;
  const auto& rp = m.row_ptr();
  const auto& ci = m.col_idx();
  const auto& v = m.values();
  double scale = 0.0;
  for (double x : v) scale = std::max(scale, std::abs(x));
  const double abs_tol = tol * std::max(scale, 1.0);
  for (int r = 0; r < m.rows(); ++r) {
    for (int k = rp[r]; k < rp[r + 1]; ++k) {
      if (std::abs(v[k] - m.at(ci[k], r)) > abs_tol) return false;
    }
  }
  return true;
}

/// Sum of each row (Laplacian rows with no ground hookup sum to ~0).
inline linalg::Vec row_sums(const linalg::CsrMatrix& m) {
  const auto& rp = m.row_ptr();
  const auto& v = m.values();
  linalg::Vec s(static_cast<std::size_t>(m.rows()), 0.0);
  for (int r = 0; r < m.rows(); ++r) {
    for (int k = rp[r]; k < rp[r + 1]; ++k) s[r] += v[k];
  }
  return s;
}

}  // namespace irf::test
