// Delta-refactorization tests: the tentpole guarantee (refactorize_delta is
// bitwise identical to a full refactorize on every schedule, whichever route
// absorbs the change), the SMW low-rank route's accuracy parity, the stats
// contract of the partial route, the float-path variant, and the validation
// and fallback edges. Runs under ASan/UBSan and TSan in CI, so matrices are
// kept small and every assertion is deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/solver.hpp"
#include "numeric/lu_factors.hpp"
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
/// configuration — one full refactorize, one through the delta router with
/// the SMW route disabled (so value changes exercise the partial
/// re-elimination) — and require bitwise-equal factors after every step.
void expect_delta_bitwise(const sparse::CscMatrix<double>& A0,
                          SolverOptions opt, const std::string& what) {
  opt.delta.smw_max_rank = 0;        // route changes to partial...
  opt.delta.max_dirty_fraction = 1.0;  // ...and never bail to full
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
    opt.delta.smw_max_rank = 0;
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
  opt.delta.smw_max_rank = 0;
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

// ---------------------------------------------------------------------------
// SMW route: tiny-rank changes absorbed without refactorization.

TEST(DeltaSmw, TinyRankMatchesFullRefactorizeAccuracy) {
  const auto A0 = sparse::circuit_like(900, 5, 10, 21);
  SolverOptions opt;
  opt.estimate_ferr = true;  // exercises the transposed correction solve
  Solver<double> full(A0, opt);
  Solver<double> delta(A0, opt);
  // Change three existing entries (pattern untouched, rank 3 <= 16).
  auto A = A0;
  A.values[0] *= 1.5;
  A.values[A.values.size() / 3] *= 0.8;
  A.values[A.values.size() / 2] *= 1.2;
  full.refactorize(A);
  delta.refactorize_delta(A);
  EXPECT_EQ(delta.stats().delta.smw, 1);
  EXPECT_EQ(delta.stats().delta.changed_entries, 3);
  EXPECT_EQ(delta.stats().delta.smw_rank, 3);

  const auto b = rhs_for(A);
  std::vector<double> xf(b.size()), xd(b.size());
  const std::vector<double> ones(b.size(), 1.0);
  full.solve(b, xf);
  delta.solve(b, xd);
  // Parity, not bitwise: the SMW route answers through a different (exact)
  // formula, so it must match the full refactorize in *converged* quality.
  EXPECT_LT(sparse::relative_error_inf<double>(ones, xf), 1e-8);
  EXPECT_LT(sparse::relative_error_inf<double>(ones, xd), 1e-8);
  EXPECT_LT(full.stats().berr, 1e-13);
  EXPECT_LT(delta.stats().berr, 1e-13);
}

TEST(DeltaSmw, ChainsAgainstTheFactoredBaseAndRetiresOnNoop) {
  const auto A0 = sparse::circuit_like(800, 4, 8, 33);
  Solver<double> delta(A0, {});
  auto A = A0;
  A.values[5] *= 1.3;
  delta.refactorize_delta(A);
  EXPECT_EQ(delta.stats().delta.smw, 1);
  // Second drift on top of the first: the diff is against the values the
  // factors CONSUMED (A0), so the correction re-absorbs both changes.
  A.values[11] *= 0.7;
  delta.refactorize_delta(A);
  EXPECT_EQ(delta.stats().delta.smw, 2);
  EXPECT_EQ(delta.stats().delta.smw_rank, 2);
  const auto b = rhs_for(A);
  std::vector<double> x(b.size());
  const std::vector<double> ones(b.size(), 1.0);
  delta.solve(b, x);
  EXPECT_LT(sparse::relative_error_inf<double>(ones, x), 1e-8);

  // The diff is always against the values the factors consumed, so
  // resubmitting the current target re-absorbs the same rank-2 change
  // (not a noop) and resubmitting the BASE is the noop that retires the
  // correction outright.
  delta.refactorize_delta(A);
  EXPECT_EQ(delta.stats().delta.smw, 3);
  EXPECT_EQ(delta.stats().delta.smw_rank, 2);
  delta.refactorize_delta(A0);
  EXPECT_EQ(delta.stats().delta.noop, 1);
  EXPECT_EQ(delta.stats().delta.smw_rank, 0);
  const auto b0 = rhs_for(A0);
  delta.solve(b0, x);
  EXPECT_LT(sparse::relative_error_inf<double>(ones, x), 1e-8);
}

// ---------------------------------------------------------------------------
// Stats contract of the partial route (satellite: refreshed SolveStats and
// a new PhaseTimes epoch, identical to what a full refactorize reports).

TEST(DeltaStatsContract, PartialRefreshesStatsLikeFull) {
  const auto A0 = sparse::circuit_like(1000, 5, 10, 17);
  SolverOptions opt;
  opt.delta.smw_max_rank = 0;
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
  opt.delta.smw_max_rank = 0;
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
