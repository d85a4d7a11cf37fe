// Delta-refactorization tests: the central guarantee (refactorize_delta is
// bitwise identical to a full refactorize on every schedule, whichever route
// absorbs the change), the stats contract of the partial route, the
// float-path variant, and the validation and fallback edges. Runs under
// ASan/UBSan and TSan in CI, so matrices are kept small and every
// assertion is deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/solver.hpp"
#include "numeric/lu_factors.hpp"
#include "sparse/equilibrate.hpp"
#include "sparse/generators.hpp"
#include "sparse/ops.hpp"
#include "sparse/testbed.hpp"
#include "symbolic/symbolic.hpp"
#include "test_helpers.hpp"

namespace {

using namespace gesp;

std::vector<double> rhs_for(const sparse::CscMatrix<double>& A) {
  std::vector<double> ones(static_cast<std::size_t>(A.ncols), 1.0);
  std::vector<double> b(ones.size());
  sparse::spmv<double>(A, ones, b);
  return b;
}

/// Bitwise equality of two factorizations, supernode store by supernode
/// store (memcmp, so ±0.0 and NaN payloads count — the same comparison the
/// serve layer's value-hit path uses).
template <class T>
void expect_factors_bitwise(const numeric::LUFactors<T>& Fa,
                            const numeric::LUFactors<T>& Fb, index_t nsup,
                            const std::string& what) {
  for (index_t K = 0; K < nsup; ++K) {
    const auto& la = Fa.l_store(K);
    const auto& lb = Fb.l_store(K);
    ASSERT_EQ(la.size(), lb.size()) << what << " L store size, K=" << K;
    EXPECT_TRUE(gesp::testing::same_bytes(la, lb))
        << what << " L store bytes differ, K=" << K;
    const auto& ua = Fa.u_store(K);
    const auto& ub = Fb.u_store(K);
    ASSERT_EQ(ua.size(), ub.size()) << what << " U store size, K=" << K;
    EXPECT_TRUE(gesp::testing::same_bytes(ua, ub))
        << what << " U store bytes differ, K=" << K;
  }
}

/// Walk a drift sequence with two solvers sharing one analysis
/// configuration — one full refactorize, one through the delta router that
/// never bails to full (so value changes exercise the partial
/// re-elimination) — and require bitwise-equal factors after every step.
void expect_delta_bitwise(const sparse::CscMatrix<double>& A0,
                          SolverOptions opt, const std::string& what) {
  opt.delta.max_dirty_fraction = 1.0;
  Solver<double> full(A0, opt);
  Solver<double> delta(A0, opt);
  auto A = A0;
  for (int step = 1; step <= 2; ++step) {
    A = sparse::perturb_columns(A, 0.03, 0.2, 40 + step);
    full.refactorize(A);
    delta.refactorize_delta(A);
    EXPECT_GT(delta.stats().delta.partial, 0) << what;
    expect_factors_bitwise(full.factors(), delta.factors(),
                           full.stats().nsup,
                           what + " step " + std::to_string(step));
    // Bitwise factors must yield bitwise solutions.
    const auto b = rhs_for(A);
    std::vector<double> xf(b.size()), xd(b.size());
    full.solve(b, xf);
    delta.solve(b, xd);
    EXPECT_EQ(std::memcmp(xf.data(), xd.data(), xf.size() * sizeof(double)),
              0)
        << what << " solutions diverge, step " << step;
  }
}

SolverOptions thread_opts(int threads) {
  SolverOptions opt;
  opt.num_threads = threads;
  if (threads > 1) opt.backend = Backend::threaded;
  return opt;
}

// ---------------------------------------------------------------------------
// The tentpole guarantee: partial == full, bitwise, at every thread count.

TEST(DeltaBitwise, PartialEqualsFullSerial) {
  const auto opt = thread_opts(1);
  expect_delta_bitwise(sparse::circuit_like(1200, 6, 12, 3), opt,
                       "circuit/serial");
  expect_delta_bitwise(
      sparse::with_zero_diagonal(sparse::circuit_like(1000, 5, 10, 5), 0.12,
                                 7),
      opt, "circuit-vsrc/serial");
  expect_delta_bitwise(sparse::convdiff2d(24, 22, 1.0, 0.5), opt,
                       "convdiff/serial");
  expect_delta_bitwise(sparse::device_like(24, 10, 4, 9), opt,
                       "device/serial");
}

TEST(DeltaBitwise, PartialEqualsFullTaskDag) {
  const auto opt = thread_opts(4);
  expect_delta_bitwise(sparse::circuit_like(1200, 6, 12, 3), opt,
                       "circuit/taskdag");
  expect_delta_bitwise(sparse::device_like(24, 10, 4, 9), opt,
                       "device/taskdag");
}

TEST(DeltaBitwise, TestbedEntries) {
  const auto opt = thread_opts(1);
  for (const char* name : {"west0497-s", "orsirr-s", "add20-s"})
    expect_delta_bitwise(sparse::testbed_entry(name).make(), opt,
                         std::string("testbed:") + name);
}

TEST(DeltaBitwise, RefillMatchesScaleAndPermute) {
  // A refactorization scales each new value straight into its Â position
  // (the transform's at_pos map) instead of permuting. That must be
  // bitwise apply_scaling + permute with the analysis' scalings and
  // permutations, on both the full and the delta path.
  for (const char* name : {"west0497-s", "add20-s"}) {
    const auto A0 = sparse::testbed_entry(name).make();
    const auto opt = thread_opts(1);
    const TransformResult<double> tr = compute_transform(A0, opt);
    Solver<double> full(A0, opt), delta(A0, opt);
    ASSERT_TRUE(gesp::testing::same_bytes(full.transformed_matrix().values,
                                          tr.At.values))
        << name;
    for (int step = 1; step <= 3; ++step) {
      const auto A = sparse::perturb_column_window(A0, 0.05, 0.05, 40 + step);
      full.refactorize(A);
      delta.refactorize_delta(A);
      const auto E = sparse::permute(
          sparse::apply_scaling(A, tr.row_scale, tr.col_scale), tr.row_perm,
          tr.col_perm);
      for (const Solver<double>* s : {&full, &delta}) {
        const auto& R = s->transformed_matrix();
        EXPECT_EQ(R.colptr, E.colptr) << name << " step " << step;
        EXPECT_EQ(R.rowind, E.rowind) << name << " step " << step;
        EXPECT_TRUE(gesp::testing::same_bytes(R.values, E.values))
            << name << " step " << step;
      }
    }
  }
}

TEST(DeltaBitwise, AdversarialEntries) {
  // On hostile matrices the delta router must stay comparable to a full
  // refactorize even when the recovery ladder escalates mid-sequence: an
  // escalated rung falls back to full, a failed partial restarts the
  // ladder exactly as refactorize() would. The observable contract is a
  // bitwise-identical solution, whatever rung produced it.
  for (const auto& e : sparse::adversarial_testbed()) {
    if (e.expect_fail) continue;  // no rung converges; nothing to compare
    SolverOptions opt;
    opt.recovery.enabled = true;
    if (e.natural_order) opt.col_order = ColOrderOption::natural;
    if (e.max_block > 0) opt.symbolic.max_block = e.max_block;
    opt.delta.max_dirty_fraction = 1.0;
    const auto A0 = e.make();
    Solver<double> full(A0, opt);
    Solver<double> delta(A0, opt);
    const auto A = sparse::perturb_columns(A0, 0.02, 0.05, 11);
    full.refactorize(A);
    delta.refactorize_delta(A);
    const auto b = rhs_for(A);
    std::vector<double> xf(b.size()), xd(b.size());
    full.solve(b, xf);
    delta.solve(b, xd);
    EXPECT_EQ(std::memcmp(xf.data(), xd.data(), xf.size() * sizeof(double)),
              0)
        << "adv:" << e.name;
  }
}

// A clean source K replays into a dirty owner O through an owner group
// with both parts: the row part (row block O of K against U blocks J >= O,
// including the diagonal pair) and the column part (column block O against
// L blocks I > O). Only O's own entries change, so K stays clean while the
// whole group must be replayed into re-scattered storage.
TEST(DeltaBitwise, CleanSourceFeedsDirtyOwnerThroughBothParts) {
  const auto A = sparse::convdiff2d(24, 22, 1.0, 0.5);
  auto sym = std::make_shared<const symbolic::SymbolicLU>(
      symbolic::analyze(A, {}));
  const symbolic::SymbolicLU& S = *sym;
  // Find K and O < max(L[K]), O < max(U[K]) with blocks L(O,K) and U(K,O).
  index_t src = -1, owner = -1;
  for (index_t K = 0; K < S.nsup && owner < 0; ++K) {
    if (S.L[K].size() < 2 || S.U[K].size() < 2) continue;
    for (const auto& lb : S.L[K]) {
      if (lb.I >= S.L[K].back().I || lb.I >= S.U[K].back().J) break;
      const bool has_col =
          std::any_of(S.U[K].begin(), S.U[K].end(),
                      [&](const symbolic::UBlock& ub) { return ub.J == lb.I; });
      if (has_col) {
        src = K;
        owner = lb.I;
        break;
      }
    }
  }
  ASSERT_GE(owner, 0) << "no owner group with a row and a column part";
  std::vector<char> dirty(static_cast<std::size_t>(S.nsup), 0);
  dirty[owner] = 1;
  symbolic::close_update_reachable(S, dirty);
  ASSERT_FALSE(dirty[src]);
  // New values only in entries owned by `owner` (its diagonal block).
  auto A2 = A;
  for (index_t j = S.sn_start[owner]; j < S.sn_start[owner + 1]; ++j)
    for (index_t p = A2.colptr[j]; p < A2.colptr[j + 1]; ++p)
      if (S.col_to_sn[A2.rowind[p]] == owner) A2.values[p] *= 1.25;
  for (const int threads : {1, 4}) {
    numeric::NumericOptions opt;
    opt.num_threads = threads;
    numeric::LUFactors<double> partial(sym, A, opt);
    partial.refactorize_partial(A2, dirty, opt);
    const numeric::LUFactors<double> fresh(sym, A2, opt);
    expect_factors_bitwise(partial, fresh, S.nsup,
                           "threads " + std::to_string(threads));
  }
}

TEST(DeltaBitwise, FloatPathPartialEqualsFull) {
  SolverOptions opt;
  opt.precision = Precision::single;
  opt.delta.max_dirty_fraction = 1.0;
  const auto A0 = sparse::circuit_like(1000, 5, 10, 13);
  Solver<double> full(A0, opt);
  Solver<double> delta(A0, opt);
  auto A = A0;
  for (int step = 1; step <= 2; ++step) {
    A = sparse::perturb_columns(A, 0.03, 0.2, 60 + step);
    full.refactorize(A);
    delta.refactorize_delta(A);
    ASSERT_NE(full.factors_single(), nullptr);
    ASSERT_NE(delta.factors_single(), nullptr);
    expect_factors_bitwise(*full.factors_single(), *delta.factors_single(),
                           full.stats().nsup,
                           "float step " + std::to_string(step));
  }
}

/// Bitwise equality of the factors each solver answers with: the float
/// ones on the single-precision path, the double ones otherwise.
void expect_active_factors_bitwise(const Solver<double>& a,
                                   const Solver<double>& b,
                                   const std::string& what) {
  ASSERT_EQ(a.active_precision(), b.active_precision()) << what;
  if (a.factors_single())
    expect_factors_bitwise(*a.factors_single(), *b.factors_single(),
                           a.stats().nsup, what);
  else
    expect_factors_bitwise(a.factors(), b.factors(), a.stats().nsup, what);
}

TEST(DeltaBitwise, EveryRouteEqualsFullRefactorize) {
  // Under the default delta policy, whatever route refactorize_delta takes
  // (noop, partial or full), its factors and answers are those of
  // refactorize(A_new): a handful of changed entries, a column window and
  // identical values alike, at every thread count and on the float path.
  const auto A0 = sparse::circuit_like(900, 5, 10, 21);
  SolverOptions single;
  single.precision = Precision::single;
  const std::pair<const char*, SolverOptions> configs[] = {
      {"double/1 thread", thread_opts(1)},
      {"double/4 threads", thread_opts(4)},
      {"single", single}};
  for (const auto& [name, opt] : configs) {
    const auto step = [&](Solver<double>& full, Solver<double>& delta,
                          const sparse::CscMatrix<double>& A,
                          const std::string& what) {
      full.refactorize(A);
      delta.refactorize_delta(A);
      expect_active_factors_bitwise(full, delta, what);
      const auto b = rhs_for(A);
      std::vector<double> xf(b.size()), xd(b.size());
      full.solve(b, xf);
      delta.solve(b, xd);
      EXPECT_TRUE(gesp::testing::same_bytes(xf, xd))
          << what << ": solutions differ";
    };
    for (const std::size_t k : {1u, 3u, 16u, 17u}) {
      // Fresh twins per size, so the diff is exactly these k entries,
      // spread over the whole matrix.
      Solver<double> full(A0, opt);
      Solver<double> delta(A0, opt);
      auto A = A0;
      const std::size_t stride = A.values.size() / k;
      for (std::size_t e = 0; e < k; ++e) A.values[e * stride + k] *= 1.25;
      step(full, delta, A,
           std::string(name) + ", " + std::to_string(k) + " entries");
      EXPECT_EQ(delta.stats().delta.changed_entries, k) << name;
    }
    Solver<double> full(A0, opt);
    Solver<double> delta(A0, opt);
    const auto A = sparse::perturb_column_window(A0, 0.03, 0.2, 77);
    step(full, delta, A, std::string(name) + ", 3% column window");
    step(full, delta, A, std::string(name) + ", identical values");
    EXPECT_EQ(delta.stats().delta.noop, 1) << name;
  }
}

// ---------------------------------------------------------------------------
// The in-place full route: refactorize_partial with every supernode dirty is
// the one elimination entry of the constructor and of every refactorization
// over an unchanged analysis, so its factors must be a fresh construction's.

/// The same matrix with its values cast to float.
sparse::CscMatrix<float> to_float(const sparse::CscMatrix<double>& A) {
  sparse::CscMatrix<float> B;
  B.nrows = A.nrows;
  B.ncols = A.ncols;
  B.colptr = A.colptr;
  B.rowind = A.rowind;
  B.values.assign(A.values.begin(), A.values.end());
  return B;
}

/// Factor A0, refactorize in place for A1 with every supernode dirty, and
/// require the factors, growth and replacement count of a fresh LUFactors
/// built from A1.
template <class T>
void expect_in_place_equals_fresh(
    const std::shared_ptr<const symbolic::SymbolicLU>& sym,
    const sparse::CscMatrix<T>& A0, const sparse::CscMatrix<T>& A1,
    int threads, const std::string& what) {
  numeric::NumericOptions nopt;
  nopt.num_threads = threads;
  nopt.tiny_threshold = 1e-8 * sparse::norm_max(A0);
  numeric::LUFactors<T> F(sym, A0, nopt);
  F.refactorize_partial(
      A1, std::vector<char>(static_cast<std::size_t>(sym->nsup), 1), nopt);
  const numeric::LUFactors<T> G(sym, A1, nopt);
  expect_factors_bitwise(F, G, sym->nsup, what);
  EXPECT_EQ(F.pivot_growth(), G.pivot_growth()) << what;
  EXPECT_EQ(F.pivots_replaced(), G.pivots_replaced()) << what;
}

TEST(InPlaceBitwise, FullRouteEqualsFreshFactors) {
  const auto base = sparse::circuit_like(900, 5, 10, 23);
  const auto A0 = compute_transform(base, SolverOptions{}).At;
  const auto A1 = sparse::perturb_values(A0, 0.2, 5);
  const auto Z = sparse::randomize_phases(A0, 7);
  const auto Z1 = sparse::perturb_values(Z, 0.2, 5);
  // The analysis depends on the pattern only: one serves every scalar.
  const auto sym = std::make_shared<const symbolic::SymbolicLU>(
      symbolic::analyze(A0, {}));
  for (const int threads : {1, 4}) {
    const std::string t = std::to_string(threads) + " thread(s)";
    expect_in_place_equals_fresh(sym, A0, A1, threads, "double, " + t);
    expect_in_place_equals_fresh(sym, to_float(A0), to_float(A1), threads,
                                 "float, " + t);
    expect_in_place_equals_fresh(sym, Z, Z1, threads, "complex, " + t);
  }
}

TEST(InPlaceBitwise, FullRouteAfterAGrowthAbortEqualsFresh) {
  // A sweep stopped by the growth monitor leaves blocks half eliminated;
  // the next full in-place sweep must not see any of them.
  const auto A = sparse::sparse_growth_adversary(300, 45, 9);
  auto sym =
      std::make_shared<const symbolic::SymbolicLU>(symbolic::analyze(A, {}));
  const std::vector<char> all(static_cast<std::size_t>(sym->nsup), 1);
  for (const int threads : {1, 4}) {
    numeric::NumericOptions nopt;
    nopt.num_threads = threads;
    numeric::NumericOptions abort_opt = nopt;
    abort_opt.growth_abort = 1e3;
    const std::string what = std::to_string(threads) + " thread(s)";
    numeric::LUFactors<double> F(sym, sparse::perturb_values(A, 0.05, 3),
                                 nopt);
    try {
      F.refactorize_partial(A, all, abort_opt);
      FAIL() << what << ": the growth monitor did not abort";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), Errc::unstable) << what;
    }
    // Nothing is left to answer with, nor to refactorize partially from.
    std::vector<double> x(static_cast<std::size_t>(A.ncols), 1.0);
    EXPECT_THROW(F.solve(x), Error) << what;
    std::vector<char> some(all.size(), 0);
    some.back() = 1;
    EXPECT_THROW(F.refactorize_partial(A, some, nopt), Error) << what;

    const auto A2 = sparse::perturb_values(A, 0.05, 11);
    F.refactorize_partial(A2, all, nopt);
    const numeric::LUFactors<double> G(sym, A2, nopt);
    expect_factors_bitwise(F, G, sym->nsup, "after abort, " + what);
    EXPECT_EQ(F.pivot_growth(), G.pivot_growth()) << what;
  }
}

// ---------------------------------------------------------------------------
// A failed refactorization leaves no factors: the next solve refuses loudly
// instead of crashing or answering from half-eliminated blocks.

/// sherman-s with column 0's values zeroed (pattern kept): under
/// tiny_pivot = fail its factorization meets a zero pivot.
sparse::CscMatrix<double> zero_first_column(sparse::CscMatrix<double> A) {
  for (index_t p = A.colptr[0]; p < A.colptr[1]; ++p) A.values[p] = 0.0;
  return A;
}

void expect_no_factorization(Solver<double>& s, const std::string& what) {
  const std::vector<double> b(static_cast<std::size_t>(s.n()), 1.0);
  std::vector<double> x(b.size());
  for (int call = 0; call < 2; ++call) {
    try {
      if (call == 0)
        s.solve(b, x);
      else
        s.solve_multi(b, x, 1);
      ADD_FAILURE() << what << ": solve answered without factors";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), Errc::invalid_argument) << what;
    }
  }
}

void expect_numerically_singular(const std::function<void()>& f,
                                  const std::string& what) {
  try {
    f();
    ADD_FAILURE() << what << ": the zero pivot did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::numerically_singular) << what;
  }
}

void expect_recovers(Solver<double>& s, const sparse::CscMatrix<double>& A) {
  s.refactorize(A);
  const auto b = rhs_for(A);
  std::vector<double> x(b.size());
  s.solve(b, x);
  const std::vector<double> ones(b.size(), 1.0);
  EXPECT_LT(sparse::relative_error_inf<double>(ones, x), 1e-8);
}

TEST(DeltaFailure, FailedRefactorizeLeavesNoFactors) {
  const auto A = sparse::testbed_entry("sherman-s").make();
  SolverOptions opt;
  opt.tiny_pivot = TinyPivotOption::fail;
  Solver<double> s(A, opt);
  expect_numerically_singular([&] { s.refactorize(zero_first_column(A)); },
                              "refactorize");
  expect_no_factorization(s, "after refactorize");
  expect_recovers(s, A);
}

TEST(DeltaFailure, FailedPartialRouteLeavesNoFactors) {
  const auto A = sparse::testbed_entry("sherman-s").make();
  SolverOptions opt;
  opt.tiny_pivot = TinyPivotOption::fail;
  Solver<double> s(A, opt);
  expect_numerically_singular(
      [&] { s.refactorize_delta(zero_first_column(A)); }, "refactorize_delta");
  // The partial route threw: the closed dirty set was a part of the
  // supernodes, and the full route never ran.
  EXPECT_GT(s.stats().delta.dirty_supernodes, 0);
  EXPECT_LT(s.stats().delta.dirty_supernodes, s.stats().nsup);
  EXPECT_EQ(s.stats().delta.full, 0);
  expect_no_factorization(s, "after refactorize_delta");
  expect_recovers(s, A);
}

// ---------------------------------------------------------------------------
// Stats contract of the partial route (satellite: refreshed SolveStats and
// a new PhaseTimes epoch, identical to what a full refactorize reports).

TEST(DeltaStatsContract, PartialRefreshesStatsLikeFull) {
  const auto A0 = sparse::circuit_like(1000, 5, 10, 17);
  SolverOptions opt;
  opt.delta.max_dirty_fraction = 1.0;
  Solver<double> full(A0, opt);
  Solver<double> delta(A0, opt);
  const auto A = sparse::perturb_columns(A0, 0.05, 0.2, 71);
  full.refactorize(A);
  delta.refactorize_delta(A);
  ASSERT_EQ(delta.stats().delta.partial, 1);

  const SolveStats& sf = full.stats();
  const SolveStats& sd = delta.stats();
  EXPECT_EQ(sd.nnz_l, sf.nnz_l);
  EXPECT_EQ(sd.nnz_u, sf.nnz_u);
  EXPECT_EQ(sd.stored_l, sf.stored_l);
  EXPECT_EQ(sd.stored_u, sf.stored_u);
  EXPECT_EQ(sd.flops, sf.flops);
  EXPECT_EQ(sd.nsup, sf.nsup);
  EXPECT_EQ(sd.pivots_replaced, sf.pivots_replaced);
  EXPECT_EQ(sd.pivot_growth, sf.pivot_growth);
  EXPECT_EQ(sd.factor_precision, sf.factor_precision);
  // New PhaseTimes epoch: get() reports THIS call's factor time, and the
  // cumulative total across both epochs is at least the last epoch.
  EXPECT_GT(sd.times.get("factor"), 0.0);
  EXPECT_GE(sd.times.total("factor"), sd.times.get("factor"));
  EXPECT_GT(sd.times.total("factor"), sd.times.get("factor"))
      << "construction epoch's factor time vanished from the total";
}

// ---------------------------------------------------------------------------
// Routing edges: noop, the dirty-fraction bail-out, and validation.

TEST(DeltaRouting, IdenticalValuesAreANoop) {
  const auto A0 = sparse::circuit_like(700, 4, 8, 29);
  Solver<double> delta(A0, {});
  delta.refactorize_delta(A0);
  EXPECT_EQ(delta.stats().delta.noop, 1);
  EXPECT_EQ(delta.stats().delta.changed_entries, 0);
  const auto b = rhs_for(A0);
  std::vector<double> x(b.size());
  const std::vector<double> ones(b.size(), 1.0);
  delta.solve(b, x);
  EXPECT_LT(sparse::relative_error_inf<double>(ones, x), 1e-8);
}

TEST(DeltaRouting, DirtyFractionZeroForcesFullAndStaysBitwise) {
  const auto A0 = sparse::circuit_like(900, 5, 10, 37);
  SolverOptions opt;
  opt.delta.max_dirty_fraction = 0.0;  // any nonzero diff bails to full
  Solver<double> full(A0, opt);
  Solver<double> delta(A0, opt);
  const auto A = sparse::perturb_columns(A0, 0.02, 0.2, 41);
  full.refactorize(A);
  delta.refactorize_delta(A);
  EXPECT_EQ(delta.stats().delta.full, 1);
  EXPECT_EQ(delta.stats().delta.partial, 0);
  expect_factors_bitwise(full.factors(), delta.factors(), full.stats().nsup,
                         "forced full fallback");
}

TEST(DeltaRouting, RejectsDimensionAndPatternMismatch) {
  const auto A0 = sparse::circuit_like(600, 4, 8, 43);
  Solver<double> delta(A0, {});
  const auto wrong_size = sparse::circuit_like(500, 4, 8, 43);
  EXPECT_THROW(
      {
        try {
          delta.refactorize_delta(wrong_size);
        } catch (const Error& e) {
          EXPECT_EQ(e.code(), Errc::invalid_argument);
          throw;
        }
      },
      Error);
  // Same dimensions, different pattern (a different seed rewires hubs).
  const auto wrong_pattern = sparse::circuit_like(600, 4, 8, 44);
  ASSERT_NE(sparse::pattern_key(wrong_pattern), sparse::pattern_key(A0));
  EXPECT_THROW(
      {
        try {
          delta.refactorize_delta(wrong_pattern);
        } catch (const Error& e) {
          EXPECT_EQ(e.code(), Errc::invalid_argument);
          throw;
        }
      },
      Error);
}

}  // namespace
