// Unit tests for irf::linalg: vectors, COO/CSR, dense Cholesky, smoothers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "csr_checks.hpp"
#include "linalg/coo.hpp"
#include "linalg/csr.hpp"
#include "linalg/dense.hpp"
#include "linalg/smoothers.hpp"
#include "linalg/vector_ops.hpp"

namespace irf::linalg {
namespace {

/// 1-D Laplacian with Dirichlet ends: tridiag(-1, 2, -1), SPD.
CsrMatrix laplacian_1d(int n) {
  TripletBuilder b(n, n);
  for (int i = 0; i < n; ++i) {
    b.add(i, i, 2.0);
    if (i > 0) b.add(i, i - 1, -1.0);
    if (i + 1 < n) b.add(i, i + 1, -1.0);
  }
  return CsrMatrix::from_triplets(b);
}

TEST(VectorOps, DotAndNorm) {
  Vec a{1.0, 2.0, 3.0};
  Vec b{4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 12.0);
  EXPECT_DOUBLE_EQ(norm2(Vec{3.0, 4.0}), 5.0);
}

TEST(VectorOps, SizeMismatchThrows) {
  Vec a{1.0};
  Vec b{1.0, 2.0};
  EXPECT_THROW(dot(a, b), DimensionError);
  EXPECT_THROW(axpy(1.0, a, b), DimensionError);
}

TEST(VectorOps, AxpyXpby) {
  Vec x{1.0, 2.0};
  Vec y{10.0, 20.0};
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[1], 24.0);
  xpby(x, 0.5, y);  // y = x + 0.5 y
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 14.0);
}

TEST(TripletBuilder, RejectsOutOfRange) {
  TripletBuilder b(2, 2);
  EXPECT_THROW(b.add(2, 0, 1.0), DimensionError);
  EXPECT_THROW(b.add(0, -1, 1.0), DimensionError);
}

TEST(CsrMatrix, DuplicatesAccumulate) {
  TripletBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(0, 0, 2.5);
  b.add(1, 0, -1.0);
  CsrMatrix m = CsrMatrix::from_triplets(b);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(m.at(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
  EXPECT_EQ(m.nnz(), 2u);
}

TEST(CsrMatrix, DuplicateTripletsInFirstAndLastRows) {
  TripletBuilder b(3, 3);
  // First row: duplicates at its very first entry (the merge test must not
  // rely on a previous row existing).
  b.add(0, 1, 1.0);
  b.add(0, 1, 4.0);
  b.add(0, 2, 2.0);
  // Last row: duplicates at the final entry of the matrix.
  b.add(2, 0, -1.0);
  b.add(2, 2, 3.0);
  b.add(2, 2, 7.0);
  CsrMatrix m = CsrMatrix::from_triplets(b);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(m.at(2, 0), -1.0);
  EXPECT_DOUBLE_EQ(m.at(2, 2), 10.0);
  EXPECT_EQ(m.nnz(), 4u);
  EXPECT_EQ(m.row_ptr()[1], 2);  // row 0 merged to two entries
  EXPECT_EQ(m.row_ptr()[2], 2);  // row 1 is empty
  EXPECT_EQ(m.row_ptr()[3], 4);
}

TEST(CsrMatrix, SameColumnAcrossAdjacentRowsDoesNotMerge) {
  // Row 0 ends with column 2 and row 1 starts with column 2: these are
  // adjacent in CSR storage but belong to different rows, so they must stay
  // separate entries.
  TripletBuilder b(2, 3);
  b.add(0, 2, 5.0);
  b.add(1, 2, 7.0);
  CsrMatrix m = CsrMatrix::from_triplets(b);
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 5.0);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 7.0);
}

TEST(CsrMatrix, SpMvMatchesDense) {
  Rng rng(3);
  const int n = 12;
  TripletBuilder b(n, n);
  for (int k = 0; k < 50; ++k) {
    b.add(rng.uniform_int(0, n - 1), rng.uniform_int(0, n - 1), rng.normal());
  }
  CsrMatrix sparse = CsrMatrix::from_triplets(b);
  DenseMatrix dense = DenseMatrix::from_csr(sparse);
  Vec x(n);
  for (double& v : x) v = rng.normal();
  Vec ys = sparse.multiply(x);
  Vec yd = dense.multiply(x);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(ys[i], yd[i], 1e-12);
}

TEST(CsrMatrix, StampConductanceSymmetric) {
  TripletBuilder b(3, 3);
  b.stamp_conductance(0, 1, 2.0);
  b.stamp_conductance(1, 2, 3.0);
  b.stamp_grounded_conductance(0, 1.0);
  CsrMatrix m = CsrMatrix::from_triplets(b);
  EXPECT_TRUE(test::is_symmetric(m));
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), -2.0);
}

TEST(CsrMatrix, RowSumsOfLaplacianInterior) {
  CsrMatrix m = laplacian_1d(5);
  Vec s = test::row_sums(m);
  // Interior rows sum to 0; boundary rows to +1 (Dirichlet).
  EXPECT_DOUBLE_EQ(s[2], 0.0);
  EXPECT_DOUBLE_EQ(s[0], 1.0);
  EXPECT_DOUBLE_EQ(s[4], 1.0);
}

TEST(CsrMatrix, DiagIndexMatchesAtAfterValueSwapAndCopy) {
  // Row 0 sums a duplicate diagonal entry; row 2 has no diagonal entry.
  TripletBuilder b(4, 4);
  b.add(0, 1, -1.0);
  b.add(0, 0, 3.0);
  b.add(0, 0, 1.0);
  b.add(1, 0, -1.0);
  b.add(1, 1, 2.0);
  b.add(1, 2, -0.5);
  b.add(2, 1, -0.5);
  b.add(2, 3, 1.0);
  b.add(3, 3, 5.0);
  CsrMatrix a = CsrMatrix::from_triplets(b);
  const auto expect_positions = [](const CsrMatrix& m) {
    ASSERT_EQ(m.diag_index().size(), static_cast<std::size_t>(m.rows()));
    for (int r = 0; r < m.rows(); ++r) {
      const int k = m.diag_index()[static_cast<std::size_t>(r)];
      const auto row_begin = m.col_idx().begin() + m.row_ptr()[r];
      const auto row_end = m.col_idx().begin() + m.row_ptr()[r + 1];
      if (k < 0) {
        EXPECT_FALSE(std::binary_search(row_begin, row_end, r)) << "row " << r;
        continue;
      }
      EXPECT_EQ(m.col_idx()[static_cast<std::size_t>(k)], r);
      EXPECT_EQ(m.values()[static_cast<std::size_t>(k)], m.at(r, r)) << "row " << r;
    }
  };
  expect_positions(a);
  EXPECT_EQ(a.diag_index()[2], -1);
  EXPECT_EQ(a.at(0, 0), 4.0);

  for (double& v : a.mutable_values()) v *= 2.0;  // values change, structure stays
  expect_positions(a);
  EXPECT_EQ(a.at(0, 0), 8.0);

  const CsrMatrix copy = a;
  expect_positions(copy);
  EXPECT_EQ(copy.diag_index(), a.diag_index());
}

/// The diagonal as the smoothers read it: through the recorded positions.
Vec diagonal_via_index(const CsrMatrix& m) {
  Vec d(m.diag_index().size(), 0.0);
  for (std::size_t r = 0; r < d.size(); ++r) {
    const int k = m.diag_index()[r];
    if (k >= 0) d[r] = m.values()[static_cast<std::size_t>(k)];
  }
  return d;
}

TEST(CsrCache, MutableValuesInvalidatesCachedDiagonal) {
  CsrMatrix a = laplacian_1d(30);
  const Vec before = diagonal_via_index(a);
  for (double& v : a.mutable_values()) v *= 2.0;  // the recorded positions must still hold
  const Vec after = diagonal_via_index(a);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) EXPECT_EQ(after[i], 2.0 * before[i]);
  EXPECT_EQ(after, a.diagonal());
}

TEST(CsrCache, CopyAndMoveDropCaches) {
  CsrMatrix a = laplacian_1d(200);
  const Vec diag = diagonal_via_index(a);

  CsrMatrix copy = a;
  EXPECT_EQ(diagonal_via_index(copy), diag);

  CsrMatrix moved = std::move(copy);
  EXPECT_EQ(diagonal_via_index(moved), diag);
  EXPECT_EQ(copy.rows(), 0);  // the moved-from source keeps no arrays
  EXPECT_TRUE(diagonal_via_index(copy).empty());
  EXPECT_TRUE(copy.diagonal().empty());
}

TEST(Cholesky, SolvesSpdSystem) {
  CsrMatrix a = laplacian_1d(10);
  CholeskyFactor chol(DenseMatrix::from_csr(a));
  Rng rng(8);
  Vec x_true(10);
  for (double& v : x_true) v = rng.normal();
  Vec b = a.multiply(x_true);
  Vec x = chol.solve(b);
  for (int i = 0; i < 10; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-10);
}

TEST(Cholesky, RejectsIndefinite) {
  DenseMatrix m(2, 2);
  m.at(0, 0) = 1.0;
  m.at(1, 1) = -1.0;
  EXPECT_THROW(CholeskyFactor{m}, NumericError);
}

TEST(Cholesky, RejectsNonSquare) {
  DenseMatrix m(2, 3);
  EXPECT_THROW(CholeskyFactor{m}, DimensionError);
}

TEST(Smoothers, GaussSeidelConvergesOnSmallSystem) {
  CsrMatrix a = laplacian_1d(8);
  CholeskyFactor chol(DenseMatrix::from_csr(a));
  Vec b(8, 1.0);
  Vec x_exact = chol.solve(b);
  Vec x(8, 0.0);
  for (int s = 0; s < 150; ++s) symmetric_gauss_seidel(a, b, x);
  for (int i = 0; i < 8; ++i) EXPECT_NEAR(x[i], x_exact[i], 1e-8);
}

TEST(Smoothers, ZeroDiagonalThrows) {
  TripletBuilder builder(2, 2);
  builder.add(0, 1, 1.0);
  builder.add(1, 0, 1.0);
  builder.add(1, 1, 1.0);
  CsrMatrix a = CsrMatrix::from_triplets(builder);
  Vec b(2, 1.0), x(2, 0.0);
  EXPECT_THROW(symmetric_gauss_seidel(a, b, x), NumericError);
}

}  // namespace
}  // namespace irf::linalg
