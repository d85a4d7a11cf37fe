// Mixed-precision suite: the float instantiations of the tiled dense
// kernels against the reference loops, the Precision::mixed driver contract
// (float factors + double-accumulating refinement must land on the double
// path's berr, promoting to a double factorization when they cannot), the
// serving cache's half-cost accounting for single-precision factors, and
// bitwise serial-vs-threaded determinism of the float numeric phase (the
// task-DAG case runs under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "core/solver.hpp"
#include "dense/kernels.hpp"
#include "numeric/lu_factors.hpp"
#include "serve/service.hpp"
#include "sparse/generators.hpp"
#include "sparse/ops.hpp"
#include "sparse/testbed.hpp"
#include "symbolic/symbolic.hpp"
#include "test_helpers.hpp"

namespace gesp {
namespace {

constexpr index_t kShapes[] = {1, 3, 7, 8, 9, 15, 16, 17, 23, 24, 33};

std::vector<float> random_buffer_f(std::size_t len, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(len);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

double max_abs_diff_f(const std::vector<float>& a,
                      const std::vector<float>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max<double>(worst, std::abs(double(a[i]) - double(b[i])));
  return worst;
}

// The tiled path reorders the k-summation, so equivalence is up to float
// rounding; entries are O(k) sums of O(1) terms.
double ftol(index_t k) { return 1e-5 * (k + 1); }

/// Cast a double matrix's values to float, structure unchanged — the same
/// conversion the mixed driver applies after scaling.
sparse::CscMatrix<float> to_single(const sparse::CscMatrix<double>& A) {
  sparse::CscMatrix<float> B;
  B.nrows = A.nrows;
  B.ncols = A.ncols;
  B.colptr = A.colptr;
  B.rowind = A.rowind;
  B.values.reserve(A.values.size());
  for (double v : A.values) B.values.push_back(static_cast<float>(v));
  return B;
}

std::vector<double> rhs_for(const sparse::CscMatrix<double>& A) {
  std::vector<double> ones(static_cast<std::size_t>(A.ncols), 1.0);
  std::vector<double> b(ones.size());
  sparse::spmv<double>(A, ones, b);
  return b;
}

// ---------------------------------------------------------------------------
// Float kernels against the reference loops (the shapes test_kernels runs
// for double/Complex, including the 16-wide float microtile boundary).

TEST(FloatKernels, GemmEquivalenceAllShapes) {
  for (index_t m : kShapes)
    for (index_t n : kShapes)
      for (index_t k : kShapes) {
        const index_t lda = m + 3, ldb = k + 2, ldc = m + 5;
        const auto A = random_buffer_f(static_cast<std::size_t>(lda) * k, 11);
        const auto B = random_buffer_f(static_cast<std::size_t>(ldb) * n, 22);
        const auto C0 =
            random_buffer_f(static_cast<std::size_t>(ldc) * n, 33);
        auto c_tiled = C0;
        auto c_ref = C0;
        dense::gemm_minus(m, n, k, A.data(), lda, B.data(), ldb,
                          c_tiled.data(), ldc);
        dense::ref::gemm_minus(m, n, k, A.data(), lda, B.data(), ldb,
                               c_ref.data(), ldc);
        ASSERT_LT(max_abs_diff_f(c_tiled, c_ref), ftol(k))
            << "m=" << m << " n=" << n << " k=" << k;
      }
}

TEST(FloatKernels, TrsmLeftLowerUnitEquivalence) {
  for (index_t b : kShapes)
    for (index_t ncols : kShapes) {
      const index_t lda = b + 2, ldb = b + 3;
      const auto L = random_buffer_f(static_cast<std::size_t>(lda) * b, 77);
      const auto B0 =
          random_buffer_f(static_cast<std::size_t>(ldb) * ncols, 88);
      auto x_blk = B0;
      auto x_ref = B0;
      dense::trsm_left_lower_unit(L.data(), b, lda, x_blk.data(), ncols,
                                  ldb);
      dense::ref::trsm_left_lower_unit(L.data(), b, lda, x_ref.data(), ncols,
                                       ldb);
      ASSERT_LT(max_abs_diff_f(x_blk, x_ref), ftol(b) * 100)
          << "b=" << b << " ncols=" << ncols;
    }
}

TEST(FloatKernels, TrsmRightUpperEquivalence) {
  for (index_t b : kShapes)
    for (index_t mrows : kShapes) {
      const index_t lda = b + 1, ldb = mrows + 2;
      auto U = random_buffer_f(static_cast<std::size_t>(lda) * b, 99);
      for (index_t k = 0; k < b; ++k)
        U[k + k * static_cast<std::size_t>(lda)] += 4.0f;
      const auto B0 = random_buffer_f(static_cast<std::size_t>(ldb) * b, 111);
      auto x_blk = B0;
      auto x_ref = B0;
      dense::trsm_right_upper(U.data(), b, lda, x_blk.data(), mrows, ldb);
      dense::ref::trsm_right_upper(U.data(), b, lda, x_ref.data(), mrows,
                                   ldb);
      ASSERT_LT(max_abs_diff_f(x_blk, x_ref), ftol(b) * 100)
          << "b=" << b << " mrows=" << mrows;
    }
}

TEST(FloatKernels, GetrfBlockedMatchesReference) {
  for (index_t b : {index_t{24}, index_t{33}, index_t{48}, index_t{64}}) {
    const index_t lda = b + 3;
    auto base = random_buffer_f(static_cast<std::size_t>(lda) * b, 123);
    for (index_t k = 0; k < b; ++k)
      base[k + k * static_cast<std::size_t>(lda)] += static_cast<float>(b);
    dense::PivotPolicy policy;
    policy.tiny_threshold = 1e-30;
    auto lu_blk = base;
    auto lu_ref = base;
    dense::PivotStats s_blk, s_ref;
    dense::getrf(lu_blk.data(), b, lda, policy, s_blk);
    dense::ref::getrf(lu_ref.data(), b, lda, policy, s_ref);
    EXPECT_EQ(s_blk.replaced, s_ref.replaced);
    ASSERT_LT(max_abs_diff_f(lu_blk, lu_ref), ftol(b) * 100) << "b=" << b;
  }
}

// ---------------------------------------------------------------------------
// The Precision::mixed driver contract: float factors + double-carrying
// refinement must land on the double path's componentwise berr. The
// solver's own post-solve guarantee is promotion_target() — 100x the
// double refinement target — so that is the bound a caller may rely on.

TEST(MixedPrecision, HitsDoubleTargetOnTestbed) {
  const double bound =
      100.0 * std::numeric_limits<double>::epsilon();
  for (const char* name :
       {"west0497-s", "orsirr-s", "saylr-s", "jpwh991-s", "add32-s"}) {
    SCOPED_TRACE(name);
    const auto A = sparse::testbed_entry(name).make();
    const auto b = rhs_for(A);
    std::vector<double> x(b.size());
    SolverOptions opt;
    opt.precision = Precision::mixed;
    Solver<double> s(A, opt);
    s.solve(b, x);
    const auto& st = s.stats();
    EXPECT_LE(st.berr, bound);
    // These matrices are easy: the float factorization itself must have
    // produced the answer, not a silent fallback to double.
    EXPECT_EQ(st.promotions, 0);
    EXPECT_EQ(st.factor_precision, Precision::single);
  }
}

TEST(MixedPrecision, SingleStopsAtFloatTarget) {
  // Precision::single never promotes: berr is judged against the float
  // target, and the factors stay single even though it is loose.
  const auto A = sparse::testbed_entry("orsirr-s").make();
  const auto b = rhs_for(A);
  std::vector<double> x(b.size());
  SolverOptions opt;
  opt.precision = Precision::single;
  Solver<double> s(A, opt);
  s.solve(b, x);
  EXPECT_EQ(s.stats().promotions, 0);
  EXPECT_EQ(s.stats().factor_precision, Precision::single);
  EXPECT_LE(s.stats().berr,
            100.0 * std::numeric_limits<float>::epsilon());
}

TEST(MixedPrecision, PromotesOnAdversarialGrowth) {
  // The precision-gap pairs defeat the float factorization: it must
  // replace every cancelled pivot (they sit below the float tiny-pivot
  // threshold but above the double one), so refinement against
  // single-precision factors stalls above the double target and the solver
  // must refactor in double. (Not every adversary promotes — wilkinson-
  // block's growth is rescued by double-accumulating refinement — but this
  // one cannot be, whatever the partition or the kernels' rounding.)
  const auto A = sparse::adversarial_entry("deficient-gap").make();
  const auto b = rhs_for(A);
  std::vector<double> x(b.size());
  SolverOptions opt;
  opt.precision = Precision::mixed;
  Solver<double> s(A, opt);
  s.solve(b, x);
  EXPECT_GE(s.stats().promotions, 1);
  EXPECT_EQ(s.stats().factor_precision, Precision::double_);
}

TEST(MixedPrecision, LadderTrailRecordsPromotionRung) {
  // Same matrix with the recovery ladder armed: the trail must show the
  // precision_promote rung was attempted before any stronger escalation —
  // the "adversarial ones may promote, and the trail must say so" contract.
  const auto A = sparse::adversarial_entry("deficient-gap").make();
  const auto b = rhs_for(A);
  std::vector<double> x(b.size());
  SolverOptions opt;
  opt.precision = Precision::mixed;
  opt.recovery.enabled = true;
  Solver<double> s(A, opt);
  s.solve(b, x);
  const auto& trail = s.stats().recovery;
  EXPECT_TRUE(trail.recovered);
  const bool promoted_in_trail = std::any_of(
      trail.attempts.begin(), trail.attempts.end(), [](const auto& a) {
        return a.rung == RecoveryRung::precision_promote;
      });
  EXPECT_TRUE(promoted_in_trail);
  EXPECT_EQ(s.stats().factor_precision, Precision::double_);
}

// ---------------------------------------------------------------------------
// Serving cache: single-precision factors are charged at half the dominant
// term, so one byte budget holds roughly twice the entries.

TEST(ServeCache, SingleEntriesCostHalfUnderOneBudget) {
  // Grid problems whose factors (the halved term) dominate the entry
  // footprint; different shapes so the patterns are distinct cache keys.
  const auto A1 = sparse::convdiff2d(60, 60, 1.0, 0.5);
  const auto A2 = sparse::convdiff2d(61, 59, 1.0, 0.5);

  // Probe pass (effectively unlimited budget): per-mode footprint of both
  // patterns.
  std::size_t bytes_double = 0, bytes_mixed = 0;
  {
    serve::ServiceOptions popt;
    popt.num_workers = 1;
    serve::SolverService<double> probe(popt);
    probe.warm(A1);
    probe.warm(A2);
    ASSERT_EQ(probe.cache_entries(), 2u);
    bytes_double = probe.cache_bytes();
    EXPECT_EQ(probe.cache_single_bytes(), 0u);
  }
  {
    serve::ServiceOptions popt;
    popt.num_workers = 1;
    popt.solver.precision = Precision::mixed;
    serve::SolverService<double> probe(popt);
    probe.warm(A1);
    probe.warm(A2);
    ASSERT_EQ(probe.cache_entries(), 2u);
    bytes_mixed = probe.cache_bytes();
    // Every entry's factors are single precision, and the halved value
    // arrays dominate the footprint.
    EXPECT_EQ(probe.cache_single_bytes(), bytes_mixed);
    EXPECT_LT(bytes_mixed, (bytes_double * 3) / 4);
  }

  // One budget that fits both single-precision factorizations but only one
  // double one: mixed keeps ~2x the entries. The estimate is deterministic
  // for a given (matrix, options), so the midpoint splits the two modes.
  const std::size_t budget = (bytes_mixed + bytes_double) / 2;
  {
    serve::ServiceOptions opt;
    opt.num_workers = 1;
    opt.cache_max_bytes = budget;
    serve::SolverService<double> svc(opt);
    svc.warm(A1);
    svc.warm(A2);
    EXPECT_EQ(svc.cache_entries(), 1u);
  }
  {
    serve::ServiceOptions opt;
    opt.num_workers = 1;
    opt.cache_max_bytes = budget;
    opt.solver.precision = Precision::mixed;
    serve::SolverService<double> svc(opt);
    svc.warm(A1);
    svc.warm(A2);
    EXPECT_EQ(svc.cache_entries(), 2u);
    EXPECT_LE(svc.cache_bytes(), budget);
  }
}

// ---------------------------------------------------------------------------
// Serial-vs-threaded bitwise determinism for the float numeric phase: the
// update accumulation order (including the scatter fast paths and the
// FTZ/DAZ mode the float path runs under) must not depend on scheduling.

void expect_bitwise_equal_float_factors(const sparse::CscMatrix<double>& Ad,
                                        int threads) {
  const auto A = to_single(Ad);
  // Pattern-only analysis runs on the double matrix, exactly as the mixed
  // driver does before handing the symbolic structure to float numerics.
  auto sym = std::make_shared<const symbolic::SymbolicLU>(
      symbolic::analyze(Ad, {}));
  numeric::NumericOptions serial;
  numeric::NumericOptions smp;
  smp.num_threads = threads;
  numeric::LUFactors<float> F1(sym, A, serial);
  numeric::LUFactors<float> F2(sym, A, smp);
  EXPECT_EQ(testing::max_abs_diff(F1.l_matrix(), F2.l_matrix()), 0.0);
  EXPECT_EQ(testing::max_abs_diff(F1.u_matrix(), F2.u_matrix()), 0.0);
}

TEST(FloatSmpLU, BitwiseEqualGrid4Threads) {
  expect_bitwise_equal_float_factors(sparse::convdiff2d(16, 14, 1.0, 0.5), 4);
}

TEST(FloatSmpLU, TaskDagBitwiseEqualCircuit4Threads) {
  expect_bitwise_equal_float_factors(sparse::circuit_like(500, 5, 12, 4), 4);
}

TEST(FloatSmpLU, TaskDagBitwiseEqualDevice8Threads) {
  expect_bitwise_equal_float_factors(sparse::device_like(12, 16, 100, 3), 8);
}

}  // namespace
}  // namespace gesp
