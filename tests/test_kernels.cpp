// Kernel-equivalence suite: the tiled/blocked GEMM, TRSM and GETRF paths
// against the naive reference loops, for double and Complex, across the
// awkward shapes around the microtile and blocking boundaries (fringes,
// sub-tile sizes, lda > m), plus the exact guarantees the factorization
// relies on: gemm_minus dispatch depends only on shape, and
// gemm_minus_scatter is bitwise equal to zero-fill + gemm_minus + one add
// per destination position.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "dense/kernels.hpp"

namespace gesp::dense {
namespace {

constexpr index_t kShapes[] = {1, 3, 7, 8, 9, 23, 24, 25, 33};

template <class T>
T random_value(Rng& rng) {
  if constexpr (is_complex_v<T>)
    return T{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  else
    return rng.uniform(-1.0, 1.0);
}

template <class T>
std::vector<T> random_buffer(std::size_t len, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> v(len);
  for (auto& x : v) x = random_value<T>(rng);
  return v;
}

template <class T>
double max_abs_diff(const std::vector<T>& a, const std::vector<T>& b) {
  using std::abs;
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max<double>(worst, abs(a[i] - b[i]));
  return worst;
}

// The tiled path reorders the k-summation, so equivalence is up to
// rounding; entries are O(k) sums of O(1) terms.
double tol(index_t k) { return 1e-13 * (k + 1); }

template <class T>
void check_gemm_all_shapes() {
  for (index_t m : kShapes)
    for (index_t n : kShapes)
      for (index_t k : kShapes) {
        const index_t lda = m + 3, ldb = k + 2, ldc = m + 5;
        const auto A =
            random_buffer<T>(static_cast<std::size_t>(lda) * k, 11);
        const auto B =
            random_buffer<T>(static_cast<std::size_t>(ldb) * n, 22);
        const auto C0 =
            random_buffer<T>(static_cast<std::size_t>(ldc) * n, 33);
        auto c_tiled = C0;
        auto c_ref = C0;
        gemm_minus(m, n, k, A.data(), lda, B.data(), ldb, c_tiled.data(),
                   ldc);
        ref::gemm_minus(m, n, k, A.data(), lda, B.data(), ldb, c_ref.data(),
                        ldc);
        ASSERT_LT(max_abs_diff(c_tiled, c_ref), tol(k))
            << "m=" << m << " n=" << n << " k=" << k;
      }
}

TEST(GemmEquivalence, DoubleAllShapes) { check_gemm_all_shapes<double>(); }
TEST(GemmEquivalence, ComplexAllShapes) { check_gemm_all_shapes<Complex>(); }

// gemm_minus_scatter must be *bitwise* equal to its reference: zero-fill
// a dense C, run gemm_minus, then add each C(i, j) once into
// D(r(i), c(j)). Every factorization engine and the multi-RHS forward solve
// rely on it. The shapes straddle gemm_is_small (register path on one side,
// tiled path on the other), and the positions are either the identity or a
// shuffled subset of a larger destination. B holds exact +0 and -0 where A
// holds inf, so a kernel that drops gemm_minus's zero-skip turns a finite
// entry into NaN and fails; NaN equals NaN only where both sides have one.
template <class T>
bool same_entry(const T& x, const T& y) {
  using std::isnan;
  if constexpr (is_complex_v<T>)
    return same_entry(x.real(), y.real()) && same_entry(x.imag(), y.imag());
  else
    return std::memcmp(&x, &y, sizeof(T)) == 0 || (isnan(x) && isnan(y));
}

// `count` distinct positions of [0, range): shuffled, or 0..count-1.
std::vector<index_t> shuffled_subset(index_t count, index_t range, Rng& rng,
                                     bool shuffle) {
  std::vector<index_t> all(static_cast<std::size_t>(range));
  for (index_t x = 0; x < range; ++x) all[x] = x;
  if (shuffle)
    for (index_t x = range - 1; x > 0; --x)
      std::swap(all[x], all[rng.next_index(x + 1)]);
  all.resize(static_cast<std::size_t>(count));
  return all;
}

// One shape: A is m-by-k (lda = m + pad), B k-by-n (ldb = k + 2·pad); the
// positions are the identity or a shuffled subset of a larger destination.
template <class T>
void check_scatter_case(index_t m, index_t n, index_t k, index_t pad,
                        bool shuffled, Rng& prng) {
  const double inf = std::numeric_limits<double>::infinity();
  const index_t lda = m + pad, ldb = k + 2 * pad;
  auto A = random_buffer<T>(static_cast<std::size_t>(lda) * k, 44);
  auto B = random_buffer<T>(static_cast<std::size_t>(ldb) * n, 55);
  for (index_t p = 0; p < k; ++p) {
    for (index_t i = 0; i < m; ++i)
      if ((i + 3 * p) % 4 == 0) A[i + p * lda] = static_cast<T>(inf);
    for (index_t j = 0; j < n; ++j) {
      if ((p + 2 * j) % 5 == 0) B[p + j * ldb] = static_cast<T>(0.0);
      if ((p + 2 * j) % 5 == 1) B[p + j * ldb] = static_cast<T>(-0.0);
    }
  }
  const index_t dm = shuffled ? m + 5 : m, dn = shuffled ? n + 3 : n;
  const index_t ldd = dm + 2;
  // Identity positions are spelled out for the reference and passed to
  // the kernel as nullptr.
  const auto rpos = shuffled_subset(m, dm, prng, shuffled);
  const auto cpos = shuffled_subset(n, dn, prng, shuffled);
  const auto D0 = random_buffer<T>(static_cast<std::size_t>(ldd) * dn, 66);
  auto d_ref = D0;
  std::vector<T> c(static_cast<std::size_t>(m) * n, T{});
  gemm_minus(m, n, k, A.data(), lda, B.data(), ldb, c.data(), m);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i)
      d_ref[rpos[i] + cpos[j] * static_cast<std::size_t>(ldd)] +=
          c[i + j * static_cast<std::size_t>(m)];
  auto d = D0;
  gemm_minus_scatter(m, n, k, A.data(), lda, B.data(), ldb, d.data(), ldd,
                     shuffled ? rpos.data() : nullptr,
                     shuffled ? cpos.data() : nullptr);
  for (std::size_t x = 0; x < d.size(); ++x)
    ASSERT_TRUE(same_entry(d[x], d_ref[x]))
        << "m=" << m << " n=" << n << " k=" << k << " pad=" << pad
        << " shuffled=" << shuffled << " at " << x;
}

template <class T>
void check_scatter_bitwise() {
  Rng prng(77);
  for (index_t m = 1; m <= 20; ++m)
    for (index_t n = 1; n <= 8; ++n)
      for (index_t k = 0; k <= 12; ++k)
        for (const index_t pad : {0, 3})
          for (const bool shuffled : {false, true}) {
            check_scatter_case<T>(m, n, k, pad, shuffled, prng);
            if (::testing::Test::HasFatalFailure()) return;
          }
}

TEST(GemmScatter, BitwiseEqualsZeroFillGemmAddDouble) {
  check_scatter_bitwise<double>();
}
TEST(GemmScatter, BitwiseEqualsZeroFillGemmAddFloat) {
  check_scatter_bitwise<float>();
}
TEST(GemmScatter, BitwiseEqualsZeroFillGemmAddComplex) {
  check_scatter_bitwise<Complex>();
}

template <class T>
void check_trsm_left() {
  for (index_t b : kShapes)
    for (index_t ncols : kShapes) {
      const index_t lda = b + 2, ldb = b + 3;
      auto L = random_buffer<T>(static_cast<std::size_t>(lda) * b, 77);
      // Unit diagonal is implicit; keep the strict lower part modest.
      const auto B0 =
          random_buffer<T>(static_cast<std::size_t>(ldb) * ncols, 88);
      auto x_blk = B0;
      auto x_ref = B0;
      trsm_left_lower_unit(L.data(), b, lda, x_blk.data(), ncols, ldb);
      ref::trsm_left_lower_unit(L.data(), b, lda, x_ref.data(), ncols, ldb);
      ASSERT_LT(max_abs_diff(x_blk, x_ref), tol(b) * 100)
          << "b=" << b << " ncols=" << ncols;
    }
}

template <class T>
void check_trsm_right() {
  for (index_t b : kShapes)
    for (index_t mrows : kShapes) {
      const index_t lda = b + 1, ldb = mrows + 2;
      auto U = random_buffer<T>(static_cast<std::size_t>(lda) * b, 99);
      for (index_t k = 0; k < b; ++k)
        U[k + k * static_cast<std::size_t>(lda)] += T{4.0};
      const auto B0 =
          random_buffer<T>(static_cast<std::size_t>(ldb) * b, 111);
      auto x_blk = B0;
      auto x_ref = B0;
      trsm_right_upper(U.data(), b, lda, x_blk.data(), mrows, ldb);
      ref::trsm_right_upper(U.data(), b, lda, x_ref.data(), mrows, ldb);
      ASSERT_LT(max_abs_diff(x_blk, x_ref), tol(b) * 100)
          << "b=" << b << " mrows=" << mrows;
    }
}

TEST(TrsmEquivalence, LeftLowerUnitDouble) { check_trsm_left<double>(); }
TEST(TrsmEquivalence, LeftLowerUnitComplex) { check_trsm_left<Complex>(); }
TEST(TrsmEquivalence, RightUpperDouble) { check_trsm_right<double>(); }
TEST(TrsmEquivalence, RightUpperComplex) { check_trsm_right<Complex>(); }

template <class T>
void check_getrf(index_t b) {
  const index_t lda = b + 3;
  auto base = random_buffer<T>(static_cast<std::size_t>(lda) * b, 123);
  for (index_t k = 0; k < b; ++k)
    base[k + k * static_cast<std::size_t>(lda)] += T{static_cast<double>(b)};
  PivotPolicy policy;
  policy.tiny_threshold = 1e-30;
  auto lu_blk = base;
  auto lu_ref = base;
  PivotStats s_blk, s_ref;
  getrf(lu_blk.data(), b, lda, policy, s_blk);
  ref::getrf(lu_ref.data(), b, lda, policy, s_ref);
  EXPECT_EQ(s_blk.replaced, s_ref.replaced);
  ASSERT_LT(max_abs_diff(lu_blk, lu_ref), tol(b) * 100) << "b=" << b;
}

TEST(GetrfEquivalence, BlockedMatchesReferenceDouble) {
  for (index_t b : {index_t{24}, index_t{33}, index_t{48}, index_t{64}})
    check_getrf<double>(b);
}
TEST(GetrfEquivalence, BlockedMatchesReferenceComplex) {
  for (index_t b : {index_t{24}, index_t{33}, index_t{48}, index_t{64}})
    check_getrf<Complex>(b);
}

// Tiny pivots must be detected and counted identically on the blocked path
// (the panel sees the same leading columns as the unblocked elimination).
TEST(GetrfEquivalence, TinyPivotStatsMatchOnBlockedPath) {
  const index_t b = 48;
  auto base = random_buffer<double>(static_cast<std::size_t>(b) * b, 321);
  for (index_t k = 0; k < b; ++k) base[k + k * static_cast<std::size_t>(b)] += b;
  // Zero a column so elimination produces a tiny pivot mid-factorization.
  for (index_t r = 0; r < b; ++r) base[r + 40 * static_cast<std::size_t>(b)] = 0.0;
  PivotPolicy policy;
  policy.tiny_threshold = 1e-8;
  auto lu_blk = base;
  auto lu_ref = base;
  PivotStats s_blk, s_ref;
  std::vector<PivotReplacement<double>> r_blk, r_ref;
  getrf(lu_blk.data(), b, b, policy, s_blk, {}, &r_blk);
  ref::getrf(lu_ref.data(), b, b, policy, s_ref, &r_ref);
  EXPECT_GE(s_blk.replaced, 1);
  EXPECT_EQ(s_blk.replaced, s_ref.replaced);
  ASSERT_EQ(r_blk.size(), r_ref.size());
  for (std::size_t i = 0; i < r_blk.size(); ++i)
    EXPECT_EQ(r_blk[i].col, r_ref[i].col);
}

}  // namespace
}  // namespace gesp::dense
