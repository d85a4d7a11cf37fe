// Sparse container and kernel tests: COO assembly, CSC invariants,
// conversions, permutations, mat-vec products, norms, equilibration,
// symmetry metrics and the error measures used throughout the paper's
// evaluation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sparse/coo.hpp"
#include "sparse/csc.hpp"
#include "sparse/equilibrate.hpp"
#include "sparse/generators.hpp"
#include "sparse/ops.hpp"
#include "sparse/symmetry.hpp"
#include "test_helpers.hpp"

namespace gesp::sparse {
namespace {

CscMatrix<double> small_example() {
  // [ 2  0  1 ]
  // [ 0  3  0 ]
  // [ 4  0  5 ]
  CooMatrix<double> A(3, 3);
  A.add(0, 0, 2);
  A.add(2, 0, 4);
  A.add(1, 1, 3);
  A.add(0, 2, 1);
  A.add(2, 2, 5);
  return A.to_csc();
}

TEST(Coo, DuplicatesAreSummed) {
  CooMatrix<double> A(2, 2);
  A.add(0, 0, 1.0);
  A.add(0, 0, 2.5);
  A.add(1, 0, -1.0);
  const auto B = A.to_csc();
  EXPECT_EQ(B.nnz(), 2);
  EXPECT_DOUBLE_EQ(B.at(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(B.at(1, 0), -1.0);
  EXPECT_TRUE(B.valid());
}

TEST(Coo, UnsortedInputProducesSortedColumns) {
  Rng rng(3);
  CooMatrix<double> A(50, 50);
  for (int k = 0; k < 400; ++k)
    A.add(rng.next_index(50), rng.next_index(50), rng.uniform(-1, 1));
  const auto B = A.to_csc();
  EXPECT_TRUE(B.valid());
}

TEST(Csc, AtReturnsZeroForMissing) {
  const auto A = small_example();
  EXPECT_DOUBLE_EQ(A.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(A.at(2, 0), 4.0);
}

TEST(Csc, TransposeTwiceIsIdentity) {
  const auto A = random_unsymmetric({});
  const auto B = transpose(transpose(A));
  EXPECT_EQ(testing::max_abs_diff(A, B), 0.0);
}

TEST(Csc, TransposeMovesEntries) {
  const auto A = small_example();
  const auto B = transpose(A);
  EXPECT_DOUBLE_EQ(B.at(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(B.at(2, 0), 1.0);
}

TEST(Csc, CsrRoundTrip) {
  const auto A = small_example();
  const auto R = to_csr(A);
  EXPECT_EQ(R.nnz(), A.nnz());
  // Row 2 holds (2,0)=4 and (2,2)=5.
  const auto cols = R.row_cols(2);
  ASSERT_EQ(cols.size(), 2u);
  EXPECT_EQ(cols[0], 0);
  EXPECT_EQ(cols[1], 2);
}

TEST(Csc, PermuteMovesEntriesToNewPositions) {
  const auto A = small_example();
  // Swap rows 0<->2 and columns 1<->2.
  const std::vector<index_t> pr{2, 1, 0};
  const std::vector<index_t> pc{0, 2, 1};
  const auto B = permute(A, pr, pc);
  EXPECT_TRUE(B.valid());
  EXPECT_DOUBLE_EQ(B.at(2, 0), 2.0);   // was (0,0)
  EXPECT_DOUBLE_EQ(B.at(1, 2), 3.0);   // was (1,1)
  EXPECT_DOUBLE_EQ(B.at(0, 0), 4.0);   // was (2,0)
}

TEST(Csc, PermuteMatchesCooReassembly) {
  // permute's counting transpose against the same entries re-assembled
  // through COO (which sorts every column), on square and rectangular
  // matrices, with row-only, column-only and two-sided permutations.
  Rng rng(11);
  auto shuffled = [&](index_t n) {
    std::vector<index_t> p(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) p[i] = i;
    for (index_t i = n - 1; i > 0; --i)
      std::swap(p[i], p[rng.next_index(i + 1)]);
    return p;
  };
  for (const auto& [m, n] : {std::pair<index_t, index_t>{300, 300},
                             std::pair<index_t, index_t>{120, 80},
                             std::pair<index_t, index_t>{50, 90}}) {
    CooMatrix<double> coo(m, n);
    for (index_t k = 0; k < 6 * std::max(m, n); ++k)
      coo.add(rng.next_index(m), rng.next_index(n), rng.uniform(-1.0, 1.0));
    const CscMatrix<double> A = coo.to_csc();
    const std::vector<index_t> pr = shuffled(m), pc = shuffled(n);
    for (int sides = 1; sides <= 3; ++sides) {
      const std::span<const index_t> r =
          sides & 1 ? std::span<const index_t>(pr) : std::span<const index_t>();
      const std::span<const index_t> c =
          sides & 2 ? std::span<const index_t>(pc) : std::span<const index_t>();
      CooMatrix<double> expect(m, n);
      for (index_t j = 0; j < n; ++j)
        for (index_t p = A.colptr[j]; p < A.colptr[j + 1]; ++p)
          expect.add(r.empty() ? A.rowind[p] : r[A.rowind[p]],
                     c.empty() ? j : c[j], A.values[p]);
      const CscMatrix<double> E = expect.to_csc();
      const CscMatrix<double> B = permute(A, r, c);
      EXPECT_EQ(B.colptr, E.colptr) << m << "x" << n << " sides " << sides;
      EXPECT_EQ(B.rowind, E.rowind) << m << "x" << n << " sides " << sides;
      EXPECT_EQ(B.values, E.values) << m << "x" << n << " sides " << sides;
    }
  }
}

TEST(Csc, PermuteReportsEntryPositions) {
  // dest[p] is where A's p-th stored entry lands in B, and every position
  // of B is some entry's destination.
  Rng rng(12);
  CooMatrix<double> coo(90, 90);
  for (index_t k = 0; k < 500; ++k)
    coo.add(rng.next_index(90), rng.next_index(90), rng.uniform(-1.0, 1.0));
  const CscMatrix<double> A = coo.to_csc();
  std::vector<index_t> pr(90), pc(90);
  for (index_t i = 0; i < 90; ++i) {
    pr[i] = (7 * i + 3) % 90;
    pc[i] = 89 - i;
  }
  std::vector<index_t> dest;
  const CscMatrix<double> B = permute(A, pr, pc, &dest);
  EXPECT_EQ(B.colptr, permute(A, pr, pc).colptr);
  ASSERT_EQ(dest.size(), A.rowind.size());
  std::vector<char> hit(dest.size(), 0);
  for (index_t j = 0; j < A.ncols; ++j)
    for (index_t p = A.colptr[j]; p < A.colptr[j + 1]; ++p) {
      const index_t d = dest[p];
      ASSERT_GE(d, B.colptr[pc[j]]);
      ASSERT_LT(d, B.colptr[pc[j] + 1]);
      EXPECT_EQ(B.rowind[d], pr[A.rowind[p]]);
      EXPECT_EQ(B.values[d], A.values[p]);
      hit[d] = 1;
    }
  EXPECT_EQ(std::count(hit.begin(), hit.end(), 1),
            static_cast<std::ptrdiff_t>(hit.size()));
}

TEST(Csc, InversePermutation) {
  const std::vector<index_t> p{2, 0, 3, 1};
  const auto inv = inverse_permutation(p);
  for (index_t i = 0; i < 4; ++i) EXPECT_EQ(inv[p[i]], i);
  EXPECT_TRUE(is_permutation(p));
  const std::vector<index_t> bad{0, 0, 1, 2};
  EXPECT_FALSE(is_permutation(bad));
}

TEST(Csc, DropZeros) {
  CooMatrix<double> A(2, 2);
  A.add(0, 0, 1.0);
  A.add(1, 0, 0.0);
  A.add(1, 1, 2.0);
  auto B = A.to_csc();
  B.drop_zeros();
  EXPECT_EQ(B.nnz(), 2);
  EXPECT_TRUE(B.valid());
}

TEST(Ops, SpmvMatchesDense) {
  const auto A = random_unsymmetric({});
  const index_t n = A.ncols;
  Rng rng(7);
  std::vector<double> x(n), y(n), yref(n, 0.0);
  for (auto& v : x) v = rng.uniform(-1, 1);
  spmv<double>(A, x, y);
  const auto D = testing::to_dense(A);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) yref[i] += D[i + j * n] * x[j];
  for (index_t i = 0; i < n; ++i) EXPECT_NEAR(y[i], yref[i], 1e-12);
}

TEST(Ops, SpmvTransposedMatchesTransposeSpmv) {
  const auto A = random_unsymmetric({});
  const auto At = transpose(A);
  const index_t n = A.ncols;
  Rng rng(9);
  std::vector<double> x(n), y1(n), y2(n);
  for (auto& v : x) v = rng.uniform(-1, 1);
  spmv_transposed<double>(A, x, y1);
  spmv<double>(At, x, y2);
  for (index_t i = 0; i < n; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-13);
}

TEST(Ops, NormsOnKnownMatrix) {
  const auto A = small_example();
  EXPECT_DOUBLE_EQ(norm_max(A), 5.0);
  EXPECT_DOUBLE_EQ(norm_one(A), 6.0);   // max column sum: col 0 or 2 -> 6
  EXPECT_DOUBLE_EQ(norm_inf(A), 9.0);   // row 2: 4 + 5
}

TEST(Ops, ResidualIsZeroForExactSolution) {
  const auto A = laplacian2d(6, 6);
  const index_t n = A.ncols;
  std::vector<double> x(n, 2.0), b(n), r(n);
  spmv<double>(A, x, b);
  residual<double>(A, x, b, r);
  EXPECT_DOUBLE_EQ(vec_norm_inf<double>(r), 0.0);
}

TEST(Ops, CompensatedResidualAtLeastAsAccurate) {
  // Cancellation-heavy case: large opposing entries.
  const index_t n = 200;
  CooMatrix<double> coo(n, n);
  Rng rng(11);
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, 1.0);
    coo.add(i, (i + 1) % n, 1e14);
    coo.add(i, (i + 2) % n, -1e14);
  }
  const auto A = coo.to_csc();
  std::vector<double> x(n, 1.0), b(n), r1(n), r2(n);
  spmv<double>(A, x, b);
  // Perturb x so the residual is tiny but nonzero.
  x[0] += 1e-13;
  residual<double>(A, x, b, r1);
  residual_compensated<double>(A, x, b, r2);
  // Reference: long double accumulation.
  std::vector<long double> rl(b.begin(), b.end());
  const auto D = testing::to_dense(A);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i)
      rl[i] -= static_cast<long double>(D[i + j * n]) * x[j];
  double e1 = 0, e2 = 0;
  for (index_t i = 0; i < n; ++i) {
    e1 = std::max(e1, std::abs(r1[i] - static_cast<double>(rl[i])));
    e2 = std::max(e2, std::abs(r2[i] - static_cast<double>(rl[i])));
  }
  EXPECT_LE(e2, e1 + 1e-30);
}

TEST(Ops, BackwardErrorZeroForConsistentSystem) {
  const auto A = convdiff2d(7, 7, 1.0, 0.0);
  const index_t n = A.ncols;
  std::vector<double> x(n, 1.0), b(n), r(n);
  spmv<double>(A, x, b);
  residual<double>(A, x, b, r);
  EXPECT_LE(componentwise_backward_error<double>(A, x, b, r), 1e-16);
}

TEST(Equilibrate, UnitRowAndColumnMaxima) {
  const auto A = chemical_like(10, 12, 8.0, 13);
  const auto s = equilibrate(A);
  const auto B = apply_scaling(A, s.row, s.col);
  // Every column max must be exactly <= 1 and close to 1.
  for (index_t j = 0; j < B.ncols; ++j) {
    double cmax = 0;
    for (index_t p = B.colptr[j]; p < B.colptr[j + 1]; ++p)
      cmax = std::max(cmax, std::abs(B.values[p]));
    EXPECT_LE(cmax, 1.0 + 1e-12);
    EXPECT_GT(cmax, 0.3);  // DGEEQU guarantees the max is ~1
  }
}

TEST(Symmetry, PerfectlySymmetric) {
  const auto A = laplacian2d(8, 8);
  const auto m = symmetry_metrics(A);
  EXPECT_DOUBLE_EQ(m.structural, 1.0);
  EXPECT_DOUBLE_EQ(m.numerical, 1.0);
}

TEST(Symmetry, UpwindConvectionBreaksNumericalSymmetryOnly) {
  const auto A = convdiff2d(8, 8, 2.0, 0.0);
  const auto m = symmetry_metrics(A);
  EXPECT_DOUBLE_EQ(m.structural, 1.0);
  EXPECT_LT(m.numerical, 1.0);
}

TEST(Symmetry, TriangularHasLowStructuralSymmetry) {
  CooMatrix<double> coo(100, 100);
  for (index_t i = 0; i < 100; ++i) {
    coo.add(i, i, 1.0);
    if (i > 0) coo.add(i, i - 1, 1.0);
    if (i > 1) coo.add(i, i - 2, 1.0);
  }
  const auto m = symmetry_metrics(coo.to_csc());
  // Only the 100 diagonal entries match among 297 nonzeros.
  EXPECT_NEAR(m.structural, 100.0 / 297.0, 1e-12);
}

TEST(Generators, GridSizes) {
  EXPECT_EQ(laplacian2d(7, 9).ncols, 63);
  EXPECT_EQ(laplacian3d(3, 4, 5).ncols, 60);
  EXPECT_EQ(convdiff3d(4, 4, 4, 1, 1, 1).nnz(), 64 * 7 - 3 * 2 * 16);
}

TEST(Generators, ZeroDiagonalInjection) {
  const auto A = circuit_like(1000, 5, 10, 17);
  const auto B = with_zero_diagonal(A, 0.3, 18);
  index_t zero_diags = 0;
  for (index_t j = 0; j < B.ncols; ++j)
    if (B.at(j, j) == 0.0) ++zero_diags;
  EXPECT_GE(zero_diags, 290);
  EXPECT_LE(zero_diags, 310);
}

TEST(Generators, CancellationMatrixHasFullDiagonal) {
  const auto A = cancellation_matrix(100, 30, 19);
  for (index_t j = 0; j < A.ncols; ++j) EXPECT_NE(A.at(j, j), 0.0);
}

TEST(Generators, GrowthAdversaryStructure) {
  const auto A = growth_adversary(10);
  EXPECT_DOUBLE_EQ(A.at(9, 0), -1.0);
  EXPECT_DOUBLE_EQ(A.at(0, 9), 1.0);
  EXPECT_DOUBLE_EQ(A.at(5, 5), 1.0);
}

TEST(Generators, DeterministicAcrossCalls) {
  const auto A = circuit_like(500, 5, 10, 42);
  const auto B = circuit_like(500, 5, 10, 42);
  EXPECT_EQ(A.rowind, B.rowind);
  EXPECT_EQ(A.values, B.values);
}

TEST(Generators, PhaseRandomizationPreservesMagnitudes) {
  const auto A = convdiff2d(6, 6, 1.0, 0.5);
  const auto C = randomize_phases(A, 5);
  ASSERT_EQ(C.nnz(), A.nnz());
  for (std::size_t k = 0; k < A.values.size(); ++k)
    EXPECT_NEAR(std::abs(C.values[k]), std::abs(A.values[k]), 1e-14);
}

TEST(Generators, PerturbKeepsPattern) {
  const auto A = convdiff2d(6, 6, 1.0, 0.5);
  const auto B = perturb_values(A, 0.5, 21);
  EXPECT_EQ(A.rowind, B.rowind);
  EXPECT_EQ(A.colptr, B.colptr);
  bool changed = false;
  for (std::size_t k = 0; k < A.values.size(); ++k)
    if (A.values[k] != B.values[k]) changed = true;
  EXPECT_TRUE(changed);
}

// ---------------------------------------------------------------------------
// Fingerprints: hash_bytes behind pattern_key and value_hash.

TEST(Fingerprint, EqualArraysHashEqual) {
  const auto A = convdiff2d(9, 7, 1.0, 0.5);
  const CscMatrix<double> B = A;  // separate storage, same bytes
  EXPECT_EQ(pattern_key(A), pattern_key(B));
  EXPECT_EQ(value_hash(A), value_hash(B));
  std::vector<unsigned char> x(97), y(97);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = y[i] = static_cast<unsigned char>(i * 37 + 11);
  for (std::size_t len = 0; len <= x.size(); ++len)
    EXPECT_EQ(hash_bytes(x.data(), len), hash_bytes(y.data(), len)) << len;
}

TEST(Fingerprint, TailBytesAndLengthCount) {
  // Lengths on and off the 8-byte word and 32-byte lane-round boundaries:
  // every byte of the tail counts, and so does the length itself (a
  // trailing zero byte is not padding).
  std::vector<unsigned char> x(80, 0x5A);
  for (std::size_t len = 1; len < x.size(); ++len) {
    const std::uint64_t h = hash_bytes(x.data(), len);
    EXPECT_NE(h, hash_bytes(x.data(), len + 1)) << len;
    for (const std::size_t at : {std::size_t{0}, len / 2, len - 1}) {
      x[at] ^= 0x01;
      EXPECT_NE(h, hash_bytes(x.data(), len)) << len << " @" << at;
      x[at] ^= 0x01;
    }
  }
  x.assign(x.size(), 0);
  for (std::size_t len = 1; len < x.size(); ++len)
    EXPECT_NE(hash_bytes(x.data(), len), hash_bytes(x.data(), len - 1)) << len;
  // value_hash of arrays whose byte length is not a multiple of the lane
  // round (nnz = 3n - 2 doubles): the last entry is in the tail.
  for (index_t n = 1; n <= 9; ++n) {
    const auto A = laplacian2d(n, 1);
    auto B = A;
    B.values.back() += 1.0;
    EXPECT_NE(value_hash(A), value_hash(B)) << "nnz " << A.nnz();
  }
}

TEST(Fingerprint, SignedZeroAndOneEntryChangesCount) {
  const auto A = convdiff2d(9, 7, 1.0, 0.5);
  const std::uint64_t h = value_hash(A);
  const std::size_t nnz = A.values.size();
  for (const std::size_t at : {std::size_t{0}, nnz / 2, nnz - 1}) {
    auto B = A;
    B.values[at] = std::nextafter(B.values[at], 1e300);
    EXPECT_NE(value_hash(B), h) << "entry " << at;
    auto Z = A;
    Z.values[at] = 0.0;
    auto N = A;
    N.values[at] = -0.0;
    EXPECT_NE(value_hash(Z), value_hash(N)) << "±0.0 at entry " << at;
  }
}

}  // namespace
}  // namespace gesp::sparse
