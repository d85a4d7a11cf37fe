// Recovery-ladder tests: the graceful-degradation path of core/solver.
// The adversarial-growth testbed matrix (av41092-s, the paper's GESP
// failure case) must be solved to berr <= sqrt(eps) by escalating through
// the ladder, with SolveStats::recovery recording every rung attempted.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "dist/dist_solver.hpp"
#include "sparse/generators.hpp"
#include "sparse/ops.hpp"
#include "sparse/testbed.hpp"
#include "test_helpers.hpp"

namespace gesp {
namespace {

double sqrt_eps() {
  return std::sqrt(std::numeric_limits<double>::epsilon());
}

/// Adversarial options: pin the pivot order the growth matrix was built
/// for (as the testbed failure-case test does) and arm the ladder.
SolverOptions adversarial_options() {
  SolverOptions opt;
  opt.col_order = ColOrderOption::natural;
  opt.recovery.enabled = true;
  return opt;
}

TEST(Recovery, LadderRescuesTheGespFailureCase) {
  const auto& e = sparse::testbed_entry("av41092-s");
  ASSERT_TRUE(e.expect_fail);
  const auto A = e.make();
  const index_t n = A.ncols;
  std::vector<double> x_true(static_cast<std::size_t>(n), 1.0),
      b(x_true.size()), x(x_true.size());
  sparse::spmv<double>(A, x_true, b);

  // The paper's block size: at the default max_block the widened in-block
  // window lets panel_rrp rescue it first
  // (DefaultBlockRescuesAv41092InBlock).
  SolverOptions opt = adversarial_options();
  opt.symbolic.max_block = 24;
  Solver<double> solver(A, opt);
  solver.solve(b, x);

  const RecoveryTrail& trail = solver.stats().recovery;
  EXPECT_TRUE(trail.recovered);
  EXPECT_LE(solver.stats().berr, sqrt_eps());
  EXPECT_LT(sparse::relative_error_inf<double>(x_true, x), 1e-6);

  // The trail records every rung, in escalation order, ending in success.
  ASSERT_GE(trail.attempts.size(), 2u);
  EXPECT_EQ(trail.attempts.front().rung, RecoveryRung::gesp);
  EXPECT_FALSE(trail.attempts.front().success);
  EXPECT_FALSE(trail.attempts.front().detail.empty());
  for (std::size_t k = 1; k < trail.attempts.size(); ++k)
    EXPECT_GT(static_cast<int>(trail.attempts[k].rung),
              static_cast<int>(trail.attempts[k - 1].rung));
  const RecoveryAttempt& last = trail.attempts.back();
  EXPECT_TRUE(last.success);
  EXPECT_EQ(last.rung, trail.final_rung);
  EXPECT_LE(last.berr, sqrt_eps());
  // 2^55 growth defeats every static rung: only GEPP survives.
  EXPECT_EQ(trail.final_rung, RecoveryRung::gepp);
}

// At the default max_block (48) av41092-s's supernodes are wide enough
// for the panel rank-revealing rung to break its growth chains inside the
// diagonal blocks, so the ladder stops there, before GEPP.
TEST(Recovery, DefaultBlockRescuesAv41092InBlock) {
  const auto A = sparse::testbed_entry("av41092-s").make();
  ASSERT_EQ(symbolic::SymbolicOptions{}.max_block, 48);
  const index_t n = A.ncols;
  std::vector<double> x_true(static_cast<std::size_t>(n), 1.0),
      b(x_true.size()), x(x_true.size());
  sparse::spmv<double>(A, x_true, b);

  Solver<double> solver(A, adversarial_options());
  solver.solve(b, x);

  const RecoveryTrail& trail = solver.stats().recovery;
  EXPECT_TRUE(trail.recovered);
  EXPECT_EQ(trail.final_rung, RecoveryRung::panel_rrp);
  EXPECT_LE(solver.stats().berr, sqrt_eps());
  EXPECT_LT(sparse::relative_error_inf<double>(x_true, x), 1e-6);
}

TEST(Recovery, ConstructorEscalatesPastAFailingFactorization) {
  // tiny_pivot = fail turns the mid-elimination cancellation into a
  // numerically_singular throw at the gesp rung; the ladder's next rung
  // (aggressive SMW pivots) must absorb it.
  const auto A = sparse::cancellation_matrix(800, 400, 140);
  SolverOptions opt;
  opt.equilibrate = false;
  opt.row_perm = RowPermOption::none;
  opt.col_order = ColOrderOption::natural;
  opt.tiny_pivot = TinyPivotOption::fail;
  opt.recovery.enabled = true;

  const index_t n = A.ncols;
  std::vector<double> x_true(static_cast<std::size_t>(n), 1.0),
      b(x_true.size()), x(x_true.size());
  sparse::spmv<double>(A, x_true, b);

  Solver<double> solver(A, opt);  // would throw without recovery
  const RecoveryTrail& after_factor = solver.stats().recovery;
  ASSERT_EQ(after_factor.attempts.size(), 1u);
  EXPECT_EQ(after_factor.attempts[0].rung, RecoveryRung::gesp);
  EXPECT_FALSE(after_factor.attempts[0].detail.empty());

  solver.solve(b, x);
  const RecoveryTrail& trail = solver.stats().recovery;
  EXPECT_TRUE(trail.recovered);
  EXPECT_EQ(trail.final_rung, RecoveryRung::aggressive_smw);
  EXPECT_LE(solver.stats().berr, sqrt_eps());
  EXPECT_LT(sparse::relative_error_inf<double>(x_true, x), 1e-6);
}

TEST(Recovery, SameOptionsWithoutRecoveryThrow) {
  const auto A = sparse::cancellation_matrix(800, 400, 140);
  SolverOptions opt;
  opt.equilibrate = false;
  opt.row_perm = RowPermOption::none;
  opt.col_order = ColOrderOption::natural;
  opt.tiny_pivot = TinyPivotOption::fail;
  try {
    Solver<double> solver(A, opt);
    FAIL() << "expected numerically_singular";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::numerically_singular);
  }
}

TEST(Recovery, HealthyMatrixStaysOnTheFirstRung) {
  const auto A = sparse::convdiff2d(10, 10, 1.0, 0.5);
  SolverOptions opt;
  opt.recovery.enabled = true;
  const index_t n = A.ncols;
  std::vector<double> x_true(static_cast<std::size_t>(n), 1.0),
      b(x_true.size()), x(x_true.size());
  sparse::spmv<double>(A, x_true, b);
  Solver<double> solver(A, opt);
  solver.solve(b, x);
  const RecoveryTrail& trail = solver.stats().recovery;
  ASSERT_EQ(trail.attempts.size(), 1u);
  EXPECT_TRUE(trail.attempts[0].success);
  EXPECT_EQ(trail.final_rung, RecoveryRung::gesp);
  EXPECT_TRUE(trail.recovered);
  EXPECT_LT(sparse::relative_error_inf<double>(x_true, x), 1e-10);
}

TEST(Recovery, DisabledLeavesTheTrailEmpty) {
  const auto A = sparse::convdiff2d(10, 10, 1.0, 0.5);
  const index_t n = A.ncols;
  std::vector<double> x_true(static_cast<std::size_t>(n), 1.0),
      b(x_true.size()), x(x_true.size());
  sparse::spmv<double>(A, x_true, b);
  Solver<double> solver(A, {});
  solver.solve(b, x);
  EXPECT_TRUE(solver.stats().recovery.attempts.empty());
}

TEST(Recovery, MultiRhsEscalatesPerColumn) {
  const auto A = sparse::sparse_growth_adversary(300, 45, 9);
  const index_t n = A.ncols;
  const index_t nrhs = 2;
  std::vector<double> X_true(static_cast<std::size_t>(n) * nrhs),
      B(X_true.size()), X(X_true.size());
  for (index_t j = 0; j < nrhs; ++j)
    for (index_t i = 0; i < n; ++i)
      X_true[static_cast<std::size_t>(j) * n + i] = 1.0 + j;
  for (index_t j = 0; j < nrhs; ++j) {
    std::span<const double> xc(X_true.data() + static_cast<std::size_t>(j) * n,
                               static_cast<std::size_t>(n));
    std::span<double> bc(B.data() + static_cast<std::size_t>(j) * n,
                         static_cast<std::size_t>(n));
    sparse::spmv<double>(A, xc, bc);
  }
  Solver<double> solver(A, adversarial_options());
  solver.solve_multi(B, X, nrhs);
  EXPECT_TRUE(solver.stats().recovery.recovered);
  for (index_t j = 0; j < nrhs; ++j) {
    std::span<const double> xt(X_true.data() + static_cast<std::size_t>(j) * n,
                               static_cast<std::size_t>(n));
    std::span<const double> xc(X.data() + static_cast<std::size_t>(j) * n,
                               static_cast<std::size_t>(n));
    EXPECT_LT(sparse::relative_error_inf<double>(xt, xc), 1e-6) << "col " << j;
  }
}

/// Run one adversarial entry on the given backend/threads; returns x and
/// copies the trail out.
std::vector<double> solve_adversarial(const sparse::AdversarialEntry& e,
                                      Backend backend, int threads,
                                      RecoveryTrail& trail_out) {
  const auto A = e.make();
  const index_t n = A.ncols;
  std::vector<double> x_true(static_cast<std::size_t>(n), 1.0),
      b(x_true.size()), x(x_true.size());
  sparse::spmv<double>(A, x_true, b);
  SolverOptions opt;
  opt.recovery.enabled = true;
  opt.backend = backend;
  opt.num_threads = threads;
  if (e.natural_order) opt.col_order = ColOrderOption::natural;
  if (e.max_block > 0) opt.symbolic.max_block = e.max_block;
  if (backend == Backend::dist) {
    SolveStats s;
    opt.dist.nprocs = 4;
    const auto xd = dist::solve<double>(A, b, opt, &s);
    trail_out = s.recovery;
    return xd;
  }
  Solver<double> solver(A, opt);
  solver.solve(b, x);
  trail_out = solver.stats().recovery;
  return x;
}

TEST(Recovery, SerialAndThreadedBackendsAgreeBitwiseOnTheLadder) {
  // The portfolio rungs stay inside the deterministic supernodal
  // factorization, so an escalated answer must be bitwise identical
  // across shared-memory backends — and the trail must tell the same
  // story attempt by attempt (same rungs, same triggers). One entry per
  // new rung.
  for (const char* name : {"nsing-cascade-a", "growth-deep-a"}) {
    const auto& e = sparse::adversarial_entry(name);
    RecoveryTrail ts, tt;
    const auto xs = solve_adversarial(e, Backend::serial, 1, ts);
    const auto xt = solve_adversarial(e, Backend::threaded, 4, tt);
    ASSERT_TRUE(ts.recovered) << name;
    EXPECT_EQ(std::string(recovery_rung_name(ts.final_rung)), e.expect_rung)
        << name;
    // Identical trail.
    ASSERT_EQ(ts.attempts.size(), tt.attempts.size()) << name;
    EXPECT_EQ(ts.final_rung, tt.final_rung) << name;
    EXPECT_EQ(ts.recovered, tt.recovered) << name;
    for (std::size_t k = 0; k < ts.attempts.size(); ++k) {
      EXPECT_EQ(ts.attempts[k].rung, tt.attempts[k].rung) << name;
      EXPECT_EQ(ts.attempts[k].success, tt.attempts[k].success) << name;
      EXPECT_EQ(ts.attempts[k].trigger, tt.attempts[k].trigger) << name;
    }
    // Bitwise-identical solution.
    ASSERT_EQ(xs.size(), xt.size()) << name;
    EXPECT_EQ(std::memcmp(xs.data(), xt.data(), xs.size() * sizeof(double)),
              0)
        << name;
  }
}

TEST(Recovery, DistBackendFallsBackToTheSameLadderAnswer) {
  // The dist backend's recovery contract: a distributed factorization
  // that fails policy falls back to the in-process ladder, so the final
  // rung and the escalated answer must match the serial backend bitwise.
  const auto& e = sparse::adversarial_entry("nsing-cascade-a");
  RecoveryTrail ts, td;
  const auto xs = solve_adversarial(e, Backend::serial, 1, ts);
  const auto xd = solve_adversarial(e, Backend::dist, 1, td);
  ASSERT_TRUE(ts.recovered);
  ASSERT_TRUE(td.recovered);
  EXPECT_EQ(ts.final_rung, td.final_rung);
  EXPECT_EQ(std::string(recovery_rung_name(td.final_rung)), e.expect_rung);
  ASSERT_EQ(xs.size(), xd.size());
  EXPECT_EQ(std::memcmp(xs.data(), xd.data(), xs.size() * sizeof(double)), 0);
}

TEST(Recovery, DistTrailNamesTheMissedLimit) {
  // The distributed attempt answers within berr but past the growth limit;
  // the trail names that limit the way the in-process ladder does.
  const auto& e = sparse::adversarial_entry("nsing-cascade-a");
  RecoveryTrail td;
  solve_adversarial(e, Backend::dist, 1, td);
  ASSERT_FALSE(td.attempts.empty());
  const RecoveryAttempt& first = td.attempts.front();
  EXPECT_FALSE(first.success);
  EXPECT_EQ(first.trigger, RecoveryTrigger::pivot_growth);
  EXPECT_GT(first.pivot_growth, RecoveryPolicy::max_pivot_growth);
  EXPECT_EQ(first.detail.rfind("pivot growth ", 0), 0u) << first.detail;
  EXPECT_NE(first.detail.find(" above limit 1.000e+10"), std::string::npos)
      << first.detail;
}

TEST(Recovery, RefactorizeRestartsTheLadder) {
  const auto A = sparse::sparse_growth_adversary(300, 45, 9);
  const index_t n = A.ncols;
  std::vector<double> x_true(static_cast<std::size_t>(n), 1.0),
      b(x_true.size()), x(x_true.size());
  sparse::spmv<double>(A, x_true, b);

  Solver<double> solver(A, adversarial_options());
  solver.solve(b, x);
  ASSERT_TRUE(solver.stats().recovery.recovered);
  ASSERT_NE(solver.stats().recovery.final_rung, RecoveryRung::gesp);

  // Same pattern, benign values: make the matrix strongly diagonally
  // dominant so no rung beyond the first is needed after refactorize.
  sparse::CscMatrix<double> A2 = A;
  for (index_t j = 0; j < n; ++j)
    for (count_t p = A2.colptr[j]; p < A2.colptr[j + 1]; ++p)
      if (A2.rowind[p] == j) A2.values[static_cast<std::size_t>(p)] += 1e3;
  std::vector<double> b2(x_true.size()), x2(x_true.size());
  sparse::spmv<double>(A2, x_true, b2);

  solver.refactorize(A2);
  solver.solve(b2, x2);
  const RecoveryTrail& trail = solver.stats().recovery;
  EXPECT_TRUE(trail.recovered);
  EXPECT_EQ(trail.final_rung, RecoveryRung::gesp);  // trail was reset
  ASSERT_EQ(trail.attempts.size(), 1u);
  EXPECT_TRUE(trail.attempts[0].success);
  EXPECT_LT(sparse::relative_error_inf<double>(x_true, x2), 1e-8);
}

TEST(Recovery, UnscaledRungIsAFreshUnscaledAnalysis) {
  // The unscaled rung is the one path that replaces a Solver's analysis:
  // it re-analyses the values the ladder restarted from without the mc64
  // scalings. Started there, a Solver must match one built with
  // mc64_scaling off, byte for byte, at construction and after a
  // refactorize_delta (which restarts the ladder on the new values).
  SolverOptions rung;
  rung.recovery.enabled = true;
  rung.recovery.start_rung = RecoveryRung::unscaled;
  SolverOptions plain;
  plain.mc64_scaling = false;
  const auto answer = [](Solver<double>& s,
                         const sparse::CscMatrix<double>& A) {
    std::vector<double> ones(static_cast<std::size_t>(A.ncols), 1.0),
        b(ones.size()), x(ones.size());
    sparse::spmv<double>(A, ones, b);
    s.solve(b, x);
    return x;
  };
  const auto expect_same = [&](Solver<double>& got, Solver<double>& want,
                               const sparse::CscMatrix<double>& A,
                               const std::string& what) {
    const auto& G = got.transformed_matrix();
    const auto& W = want.transformed_matrix();
    EXPECT_EQ(G.colptr, W.colptr) << what;
    EXPECT_EQ(G.rowind, W.rowind) << what;
    EXPECT_TRUE(testing::same_bytes(G.values, W.values)) << what;
    EXPECT_TRUE(testing::same_bytes(answer(got, A), answer(want, A))) << what;
  };
  for (const std::string name :
       {"west0497-s", "orsirr-s", "add20-s", "sherman-s", "jpwh991-s"}) {
    const auto A = sparse::testbed_entry(name).make();
    const auto A2 = sparse::perturb_values(A, 0.05, 7);
    Solver<double> s(A, rung), ref(A, plain);
    expect_same(s, ref, A, name + " construct");
    s.refactorize_delta(A2);
    Solver<double> ref2(A2, plain);
    expect_same(s, ref2, A2, name + " delta");
  }
}

}  // namespace
}  // namespace gesp
