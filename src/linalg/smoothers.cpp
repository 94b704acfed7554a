#include "linalg/smoothers.hpp"

#include <string>

#include "common/error.hpp"

namespace irf::linalg {

namespace {
void check_sizes(const CsrMatrix& a, const Vec& b, const Vec& x) {
  if (a.rows() != a.cols()) throw DimensionError("smoother needs square matrix");
  if (static_cast<int>(b.size()) != a.rows() || static_cast<int>(x.size()) != a.rows()) {
    throw DimensionError("smoother vector size mismatch");
  }
}

void gs_sweep(const CsrMatrix& a, const Vec& b, Vec& x, bool forward) {
  check_sizes(a, b, x);
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& v = a.values();
  const auto& di = a.diag_index();
  const int n = a.rows();
  for (int step = 0; step < n; ++step) {
    const int i = forward ? step : n - 1 - step;
    // The recorded diagonal position splits each row into two branch-free
    // spans around the diagonal entry; the subtraction order (ascending
    // column, diagonal skipped) is exactly the reference loop's.
    const int dk = di[i];
    if (dk < 0 || v[dk] == 0.0) {
      throw NumericError("gauss-seidel: zero diagonal at row " + std::to_string(i));
    }
    double s = b[i];
    for (int k = rp[i]; k < dk; ++k) s -= v[k] * x[ci[k]];
    for (int k = dk + 1; k < rp[i + 1]; ++k) s -= v[k] * x[ci[k]];
    x[i] = s / v[dk];
  }
}
}  // namespace

void gauss_seidel_forward(const CsrMatrix& a, const Vec& b, Vec& x) {
  gs_sweep(a, b, x, /*forward=*/true);
}

void gauss_seidel_backward(const CsrMatrix& a, const Vec& b, Vec& x) {
  gs_sweep(a, b, x, /*forward=*/false);
}

void symmetric_gauss_seidel(const CsrMatrix& a, const Vec& b, Vec& x) {
  gs_sweep(a, b, x, /*forward=*/true);
  gs_sweep(a, b, x, /*forward=*/false);
}

}  // namespace irf::linalg
