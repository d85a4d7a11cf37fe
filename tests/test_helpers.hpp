// Shared helpers for the GESP test suite.
#pragma once

#include <cmath>
#include <complex>
#include <cstring>
#include <vector>

#include "common/types.hpp"
#include "sparse/csc.hpp"
#include "sparse/ops.hpp"

namespace gesp::testing {

/// Byte equality of two value arrays (memcmp, so ±0.0 and NaN payloads
/// count). Empty arrays may have no data pointer, which memcmp must not see.
template <class T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// Dense copy of a sparse matrix (column major), for small-matrix oracles.
template <class T>
std::vector<T> to_dense(const sparse::CscMatrix<T>& A) {
  std::vector<T> d(static_cast<std::size_t>(A.nrows) * A.ncols, T{});
  for (index_t j = 0; j < A.ncols; ++j)
    for (index_t p = A.colptr[j]; p < A.colptr[j + 1]; ++p)
      d[A.rowind[p] + static_cast<std::size_t>(j) * A.nrows] = A.values[p];
  return d;
}

/// max_ij |A - B| over the union pattern, via dense difference.
template <class T>
double max_abs_diff(const sparse::CscMatrix<T>& A,
                    const sparse::CscMatrix<T>& B) {
  using std::abs;
  auto da = to_dense(A);
  auto db = to_dense(B);
  double m = 0;
  for (std::size_t k = 0; k < da.size(); ++k)
    m = std::max<double>(m, abs(da[k] - db[k]));
  return m;
}

/// C = A·B for sparse matrices (small sizes; dense intermediate).
template <class T>
sparse::CscMatrix<T> multiply(const sparse::CscMatrix<T>& A,
                              const sparse::CscMatrix<T>& B) {
  sparse::CscMatrix<T> C;
  C.nrows = A.nrows;
  C.ncols = B.ncols;
  C.colptr.assign(static_cast<std::size_t>(B.ncols) + 1, 0);
  std::vector<T> col(static_cast<std::size_t>(A.nrows));
  std::vector<T> vals;
  std::vector<index_t> rows;
  for (index_t j = 0; j < B.ncols; ++j) {
    std::fill(col.begin(), col.end(), T{});
    for (index_t p = B.colptr[j]; p < B.colptr[j + 1]; ++p) {
      const T bkj = B.values[p];
      const index_t k = B.rowind[p];
      for (index_t q = A.colptr[k]; q < A.colptr[k + 1]; ++q)
        col[A.rowind[q]] += A.values[q] * bkj;
    }
    for (index_t i = 0; i < A.nrows; ++i)
      if (col[i] != T{}) {
        rows.push_back(i);
        vals.push_back(col[i]);
      }
    C.colptr[j + 1] = static_cast<index_t>(rows.size());
  }
  C.rowind = std::move(rows);
  C.values = std::move(vals);
  return C;
}

/// ||A - L·U||_max / ||A||_max — factorization residual check.
template <class T>
double factorization_residual(const sparse::CscMatrix<T>& A,
                              const sparse::CscMatrix<T>& L,
                              const sparse::CscMatrix<T>& U) {
  const auto LU = multiply(L, U);
  const double diff = max_abs_diff(A, LU);
  const double base = sparse::norm_max(A);
  return base > 0 ? diff / base : diff;
}

}  // namespace gesp::testing
