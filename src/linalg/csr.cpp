#include "linalg/csr.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "check/check.hpp"
#include "check/invariants.hpp"
#include "common/error.hpp"
#include "par/par.hpp"

namespace irf::linalg {

CsrMatrix CsrMatrix::from_triplets(const TripletBuilder& builder) {
  CsrMatrix m;
  const int n = builder.rows();
  m.cols_ = builder.cols();

  // Count entries per row, then bucket, then sort+dedupe each row.
  std::vector<int> counts(static_cast<std::size_t>(n) + 1, 0);
  for (const Triplet& t : builder.triplets()) ++counts[t.row + 1];
  for (int r = 0; r < n; ++r) counts[r + 1] += counts[r];

  std::vector<int> cols(builder.triplets().size());
  std::vector<double> vals(builder.triplets().size());
  {
    std::vector<int> cursor(counts.begin(), counts.end() - 1);
    for (const Triplet& t : builder.triplets()) {
      int pos = cursor[t.row]++;
      cols[pos] = t.col;
      vals[pos] = t.value;
    }
  }

  m.row_ptr_.assign(static_cast<std::size_t>(n) + 1, 0);
  m.diag_idx_.assign(static_cast<std::size_t>(n), -1);
  m.col_idx_.reserve(cols.size());
  m.values_.reserve(vals.size());
  std::vector<std::pair<int, double>> row_entries;
  for (int r = 0; r < n; ++r) {
    row_entries.clear();
    for (int k = counts[r]; k < counts[r + 1]; ++k) row_entries.emplace_back(cols[k], vals[k]);
    std::sort(row_entries.begin(), row_entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [col, value] : row_entries) {
      // Duplicate iff this row already emitted an entry with the same column
      // (entries are sorted, so only the last one can match).
      const bool row_has_prev = static_cast<int>(m.col_idx_.size()) > m.row_ptr_[r];
      if (row_has_prev && m.col_idx_.back() == col) {
        m.values_.back() += value;
      } else {
        if (col == r) m.diag_idx_[r] = static_cast<int>(m.col_idx_.size());
        m.col_idx_.push_back(col);
        m.values_.push_back(value);
      }
    }
    m.row_ptr_[r + 1] = static_cast<int>(m.col_idx_.size());
  }
  if (check::enabled()) {
    // Every CSR in the process is born here, so this one call site proves
    // the sorted-unique-in-range structural contract system-wide.
    check::check_csr(n, m.cols_, m.row_ptr_, m.col_idx_, m.values_, {},
                     "CsrMatrix::from_triplets");
  }
  return m;
}

CsrMatrix CsrMatrix::identity(int n) {
  TripletBuilder b(n, n);
  for (int i = 0; i < n; ++i) b.add(i, i, 1.0);
  return from_triplets(b);
}

void CsrMatrix::multiply(const Vec& x, Vec& y) const {
  if (static_cast<int>(x.size()) != cols_) {
    throw DimensionError("SpMV: x has " + std::to_string(x.size()) + " entries, need " +
                         std::to_string(cols_));
  }
  // Every row is written exactly once below, so no zero-fill pass is needed.
  y.resize(static_cast<std::size_t>(rows()));
  par::parallel_for(0, rows(), par::kRowGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t r = lo; r < hi; ++r) {
      double s = 0.0;
      for (int k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) s += values_[k] * x[col_idx_[k]];
      y[r] = s;
    }
  });
}

std::size_t CsrMatrix::memory_bytes() const {
  return (row_ptr_.capacity() + col_idx_.capacity() + diag_idx_.capacity()) * sizeof(int) +
         values_.capacity() * sizeof(double);
}

Vec CsrMatrix::multiply(const Vec& x) const {
  Vec y;
  multiply(x, y);
  return y;
}

double CsrMatrix::at(int row, int col) const {
  if (row < 0 || row >= rows() || col < 0 || col >= cols_) {
    throw DimensionError("CsrMatrix::at out of range");
  }
  auto begin = col_idx_.begin() + row_ptr_[row];
  auto end = col_idx_.begin() + row_ptr_[row + 1];
  auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) return 0.0;
  return values_[static_cast<std::size_t>(it - col_idx_.begin())];
}

Vec CsrMatrix::diagonal() const {
  Vec d(static_cast<std::size_t>(rows()), 0.0);
  for (int r = 0; r < rows() && r < cols_; ++r) d[r] = at(r, r);
  return d;
}

Vec CsrMatrix::row_sums() const {
  Vec s(static_cast<std::size_t>(rows()), 0.0);
  for (int r = 0; r < rows(); ++r)
    for (int k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) s[r] += values_[k];
  return s;
}

bool CsrMatrix::is_symmetric(double tol) const {
  if (rows() != cols_) return false;
  double scale = 0.0;
  for (double v : values_) scale = std::max(scale, std::abs(v));
  const double abs_tol = tol * std::max(scale, 1.0);
  for (int r = 0; r < rows(); ++r) {
    for (int k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      if (std::abs(values_[k] - at(col_idx_[k], r)) > abs_tol) return false;
    }
  }
  return true;
}

bool CsrMatrix::is_diagonally_dominant(double tol) const {
  for (int r = 0; r < rows(); ++r) {
    double diag = 0.0;
    double off = 0.0;
    for (int k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      if (col_idx_[k] == r) {
        diag = std::abs(values_[k]);
      } else {
        off += std::abs(values_[k]);
      }
    }
    if (diag + tol < off) return false;
  }
  return true;
}

CsrMatrix CsrMatrix::transposed() const {
  TripletBuilder b(cols_, rows());
  for (int r = 0; r < rows(); ++r)
    for (int k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) b.add(col_idx_[k], r, values_[k]);
  return from_triplets(b);
}

}  // namespace irf::linalg
