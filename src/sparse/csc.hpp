// Compressed sparse column matrix — the library's working format.
//
// Invariants after construction through CooMatrix::to_csc or any library
// routine: colptr has ncols+1 entries with colptr[0] == 0, row indices within
// each column are strictly increasing (no duplicates), and
// colptr[ncols] == rowind.size() == values.size().
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace gesp::sparse {

template <class T>
struct CscMatrix {
  index_t nrows = 0;
  index_t ncols = 0;
  std::vector<index_t> colptr;  ///< size ncols + 1
  std::vector<index_t> rowind;  ///< size nnz, sorted within each column
  std::vector<T> values;        ///< size nnz

  count_t nnz() const { return static_cast<count_t>(rowind.size()); }

  /// Row indices of column j.
  std::span<const index_t> col_rows(index_t j) const {
    return {rowind.data() + colptr[j],
            static_cast<std::size_t>(colptr[j + 1] - colptr[j])};
  }
  /// Values of column j (parallel to col_rows).
  std::span<const T> col_values(index_t j) const {
    return {values.data() + colptr[j],
            static_cast<std::size_t>(colptr[j + 1] - colptr[j])};
  }
  std::span<T> col_values(index_t j) {
    return {values.data() + colptr[j],
            static_cast<std::size_t>(colptr[j + 1] - colptr[j])};
  }

  /// Value at (i, j); zero when not stored. O(log nnz(column)).
  T at(index_t i, index_t j) const {
    auto rows = col_rows(j);
    auto it = std::lower_bound(rows.begin(), rows.end(), i);
    if (it == rows.end() || *it != i) return T{};
    return values[colptr[j] + static_cast<index_t>(it - rows.begin())];
  }

  /// Sort row indices (and values) within each column.
  void sort_columns() {
    std::vector<std::pair<index_t, T>> buf;
    for (index_t j = 0; j < ncols; ++j) {
      const index_t lo = colptr[j], hi = colptr[j + 1];
      if (std::is_sorted(rowind.begin() + lo, rowind.begin() + hi)) continue;
      buf.clear();
      for (index_t p = lo; p < hi; ++p) buf.emplace_back(rowind[p], values[p]);
      std::sort(buf.begin(), buf.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (index_t p = lo; p < hi; ++p) {
        rowind[p] = buf[p - lo].first;
        values[p] = buf[p - lo].second;
      }
    }
  }

  /// Merge equal row indices within each column by summation. Requires
  /// sorted columns.
  void sum_duplicates() {
    index_t out = 0;
    index_t col_start = 0;
    for (index_t j = 0; j < ncols; ++j) {
      const index_t lo = col_start, hi = colptr[j + 1];
      col_start = hi;  // save before overwriting colptr[j+1]
      colptr[j] = out;
      for (index_t p = lo; p < hi;) {
        index_t q = p + 1;
        T sum = values[p];
        while (q < hi && rowind[q] == rowind[p]) sum += values[q++];
        rowind[out] = rowind[p];
        values[out] = sum;
        ++out;
        p = q;
      }
    }
    colptr[ncols] = out;
    rowind.resize(out);
    values.resize(out);
  }

  /// Drop stored entries with |value| == 0 exactly.
  void drop_zeros() {
    index_t out = 0;
    index_t col_start = 0;
    for (index_t j = 0; j < ncols; ++j) {
      const index_t lo = col_start, hi = colptr[j + 1];
      col_start = hi;
      colptr[j] = out;
      for (index_t p = lo; p < hi; ++p) {
        if (values[p] == T{}) continue;
        rowind[out] = rowind[p];
        values[out] = values[p];
        ++out;
      }
    }
    colptr[ncols] = out;
    rowind.resize(out);
    values.resize(out);
  }

  /// Structural validity check (used by tests and debug assertions).
  bool valid() const {
    if (nrows < 0 || ncols < 0) return false;
    if (colptr.size() != static_cast<std::size_t>(ncols) + 1) return false;
    if (colptr[0] != 0) return false;
    if (colptr[ncols] != static_cast<index_t>(rowind.size())) return false;
    if (rowind.size() != values.size()) return false;
    for (index_t j = 0; j < ncols; ++j) {
      if (colptr[j] > colptr[j + 1]) return false;
      for (index_t p = colptr[j]; p < colptr[j + 1]; ++p) {
        if (rowind[p] < 0 || rowind[p] >= nrows) return false;
        if (p > colptr[j] && rowind[p] <= rowind[p - 1]) return false;
      }
    }
    return true;
  }
};

/// Compressed sparse row view of the same data layout conventions (used for
/// row-wise traversals, e.g. U storage and symmetry metrics).
template <class T>
struct CsrMatrix {
  index_t nrows = 0;
  index_t ncols = 0;
  std::vector<index_t> rowptr;  ///< size nrows + 1
  std::vector<index_t> colind;  ///< sorted within each row
  std::vector<T> values;

  count_t nnz() const { return static_cast<count_t>(colind.size()); }

  std::span<const index_t> row_cols(index_t i) const {
    return {colind.data() + rowptr[i],
            static_cast<std::size_t>(rowptr[i + 1] - rowptr[i])};
  }
  std::span<const T> row_values(index_t i) const {
    return {values.data() + rowptr[i],
            static_cast<std::size_t>(rowptr[i + 1] - rowptr[i])};
  }
};

/// CSC -> CSR conversion (bucket transpose; output rows sorted by column).
template <class T>
CsrMatrix<T> to_csr(const CscMatrix<T>& A) {
  CsrMatrix<T> R;
  R.nrows = A.nrows;
  R.ncols = A.ncols;
  R.rowptr.assign(static_cast<std::size_t>(A.nrows) + 1, 0);
  for (index_t r : A.rowind) R.rowptr[r + 1]++;
  for (index_t i = 0; i < A.nrows; ++i) R.rowptr[i + 1] += R.rowptr[i];
  std::vector<index_t> next(R.rowptr.begin(), R.rowptr.end() - 1);
  R.colind.resize(A.rowind.size());
  R.values.resize(A.values.size());
  for (index_t j = 0; j < A.ncols; ++j) {
    for (index_t p = A.colptr[j]; p < A.colptr[j + 1]; ++p) {
      const index_t i = A.rowind[p];
      const index_t q = next[i]++;
      R.colind[q] = j;
      R.values[q] = A.values[p];
    }
  }
  return R;
}

/// B = Aᵀ as CSC.
template <class T>
CscMatrix<T> transpose(const CscMatrix<T>& A) {
  CsrMatrix<T> R = to_csr(A);
  CscMatrix<T> B;
  B.nrows = A.ncols;
  B.ncols = A.nrows;
  B.colptr = std::move(R.rowptr);
  B.rowind = std::move(R.colind);
  B.values = std::move(R.values);
  return B;
}

/// 64-bit fingerprint of a byte range, chained through `seed` so several
/// ranges fold into one hash (pattern arrays, value arrays). Word-wise over
/// four independent multiply-rotate lanes, so it runs at memory speed
/// rather than one byte per multiply, with a final avalanche that also
/// mixes in the length. Every step is a bijection of its lane, so two
/// ranges of equal length that differ in a single 8-byte word always hash
/// differently. Not cryptographic: callers that must not be fooled compare
/// the bytes as well.
std::uint64_t hash_bytes(const void* data, std::size_t size,
                         std::uint64_t seed = 0);

/// Structural fingerprint of a sparse matrix: dimensions, nnz and a
/// hash_bytes fingerprint of the colptr/rowind arrays. Two matrices with equal keys almost
/// certainly share a sparsity pattern (the hash is 64-bit; collision-exact
/// callers such as the serve-layer factorization cache additionally compare
/// the index arrays byte for byte). Values do not enter the key — that is
/// the point: a key identifies everything the *analysis* (scalings aside)
/// and symbolic structure are reusable for.
struct PatternKey {
  index_t n = 0;
  count_t nnz = 0;
  std::uint64_t hash = 0;
  friend bool operator==(const PatternKey&, const PatternKey&) = default;
};

/// Hasher for unordered containers keyed by PatternKey. The stored hash
/// already mixes n/nnz/arrays; n is folded back in so a pathological
/// all-equal-hash input still spreads by size.
struct PatternKeyHash {
  std::size_t operator()(const PatternKey& k) const noexcept {
    return static_cast<std::size_t>(k.hash ^
                                    (static_cast<std::uint64_t>(k.n) << 32));
  }
};

template <class T>
PatternKey pattern_key(const CscMatrix<T>& A) {
  PatternKey k;
  k.n = A.ncols;
  k.nnz = A.nnz();
  k.hash = hash_bytes(&A.nrows, sizeof A.nrows);
  k.hash = hash_bytes(A.colptr.data(), A.colptr.size() * sizeof(index_t),
                      k.hash);
  k.hash = hash_bytes(A.rowind.data(), A.rowind.size() * sizeof(index_t),
                      k.hash);
  return k;
}

/// hash_bytes over the stored value bytes (bitwise: +0.0 and -0.0 differ).
/// Combined with a PatternKey this identifies a (pattern, values) pair —
/// the level at which triangular solves are reusable with no refactorize.
template <class T>
std::uint64_t value_hash(const CscMatrix<T>& A) {
  return hash_bytes(A.values.data(), A.values.size() * sizeof(T));
}

/// Inverse of a permutation given as a new-from-old map (p[old] = new).
std::vector<index_t> inverse_permutation(std::span<const index_t> p);

/// True iff p is a permutation of 0..n-1.
bool is_permutation(std::span<const index_t> p);

/// B(p_row[i], p_col[j]) = A(i, j). Either permutation may be empty,
/// meaning identity. Permutations are new-from-old maps. B's columns come
/// out sorted without a comparison sort: the entries are first bucketed by
/// destination row, then the rows are walked in ascending order and dealt
/// into their destination columns (a counting transpose, twice).
/// Duplicate entries keep their input order. A non-null `dest` receives
/// the position in B of every stored entry of A (B.values[(*dest)[p]] ==
/// A.values[p]): refilling B from a same-pattern matrix is then one
/// scatter, with no permutation work.
template <class T>
CscMatrix<T> permute(const CscMatrix<T>& A, std::span<const index_t> p_row,
                     std::span<const index_t> p_col,
                     std::vector<index_t>* dest = nullptr) {
  GESP_CHECK(p_row.empty() ||
                 p_row.size() == static_cast<std::size_t>(A.nrows),
             Errc::invalid_argument, "row permutation size mismatch");
  GESP_CHECK(p_col.empty() ||
                 p_col.size() == static_cast<std::size_t>(A.ncols),
             Errc::invalid_argument, "column permutation size mismatch");
  auto new_row = [&](index_t i) { return p_row.empty() ? i : p_row[i]; };
  auto new_col = [&](index_t j) { return p_col.empty() ? j : p_col[j]; };
  const std::size_t nnz = A.rowind.size();
  // Pass 1: every entry's destination column and source position, bucketed
  // by destination row.
  std::vector<index_t> rowptr(static_cast<std::size_t>(A.nrows) + 1, 0);
  for (const index_t i : A.rowind) ++rowptr[new_row(i) + 1];
  for (index_t i = 0; i < A.nrows; ++i) rowptr[i + 1] += rowptr[i];
  std::vector<index_t> dest_col(nnz), src(nnz);
  for (index_t j = 0; j < A.ncols; ++j) {
    const index_t jd = new_col(j);
    for (index_t p = A.colptr[j]; p < A.colptr[j + 1]; ++p) {
      const index_t q = rowptr[new_row(A.rowind[p])]++;
      dest_col[q] = jd;
      src[q] = p;
    }
  }
  // rowptr[i] now ends row i, i.e. starts row i+1.
  // Pass 2: deal the rows, ascending, into their destination columns.
  CscMatrix<T> B;
  B.nrows = A.nrows;
  B.ncols = A.ncols;
  B.colptr.assign(static_cast<std::size_t>(A.ncols) + 1, 0);
  B.rowind.resize(nnz);
  B.values.resize(A.values.size());
  for (index_t j = 0; j < A.ncols; ++j)
    B.colptr[new_col(j) + 1] = A.colptr[j + 1] - A.colptr[j];
  for (index_t j = 0; j < A.ncols; ++j) B.colptr[j + 1] += B.colptr[j];
  std::vector<index_t> next(B.colptr.begin(), B.colptr.end() - 1);
  if (dest) dest->resize(nnz);
  for (index_t i = 0, q = 0; i < A.nrows; ++i)
    for (; q < rowptr[i]; ++q) {
      const index_t d = next[dest_col[q]]++;
      B.rowind[d] = i;
      B.values[d] = A.values[src[q]];
      if (dest) (*dest)[src[q]] = d;
    }
  return B;
}

/// Elementwise-magnitude copy: |A| as a real matrix. Used by matching and
/// ordering, which only care about magnitudes.
template <class T>
CscMatrix<real_t<T>> abs_matrix(const CscMatrix<T>& A) {
  using std::abs;
  CscMatrix<real_t<T>> B;
  B.nrows = A.nrows;
  B.ncols = A.ncols;
  B.colptr = A.colptr;
  B.rowind = A.rowind;
  B.values.resize(A.values.size());
  for (std::size_t k = 0; k < A.values.size(); ++k)
    B.values[k] = abs(A.values[k]);
  return B;
}

}  // namespace gesp::sparse
