// Hostile-matrix tests: the adversarial testbed against the pivoting
// portfolio, the in-flight growth monitor, and seeded numerical fault
// injection through the ladder and the serve layer. This is the file the
// CI hostile-matrices job runs under ASan/UBSan.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "serve/service.hpp"
#include "sparse/generators.hpp"
#include "sparse/ops.hpp"
#include "sparse/testbed.hpp"

namespace gesp {
namespace {

double sqrt_eps() {
  return std::sqrt(std::numeric_limits<double>::epsilon());
}

/// Solver options for one adversarial entry: the ladder armed plus the
/// symbolic frame the entry's attack assumes.
SolverOptions options_for(const sparse::AdversarialEntry& e) {
  SolverOptions opt;
  opt.recovery.enabled = true;
  if (e.natural_order) opt.col_order = ColOrderOption::natural;
  if (e.max_block > 0) opt.symbolic.max_block = e.max_block;
  return opt;
}

std::vector<double> rhs_for(const sparse::CscMatrix<double>& A) {
  std::vector<double> ones(static_cast<std::size_t>(A.ncols), 1.0);
  std::vector<double> b(ones.size());
  sparse::spmv<double>(A, ones, b);
  return b;
}

// ---------------------------------------------------------------------------
// The adversarial testbed vs the portfolio.

TEST(Adversarial, EveryEntryResolvesAtItsExpectedRung) {
  // Each entry declares the rung expected to produce the answer; the
  // testbed is only a measurement if those stay pinned. Also the
  // acceptance gate for the portfolio itself: of the entries that defeat
  // plain GESP, at least half must be rescued by the new threshold /
  // panel-RRP rungs instead of falling all the way to GEPP.
  int escalated = 0, portfolio_rescued = 0;
  for (const auto& e : sparse::adversarial_testbed()) {
    const auto A = e.make();
    const auto b = rhs_for(A);
    std::vector<double> x(b.size());
    Solver<double> solver(A, options_for(e));
    solver.solve(b, x);
    const RecoveryTrail& trail = solver.stats().recovery;
    EXPECT_EQ(std::string(recovery_rung_name(trail.final_rung)),
              e.expect_rung)
        << e.name;
    if (e.expect_fail) {
      EXPECT_FALSE(trail.recovered) << e.name;
      continue;
    }
    // Backward error is the acceptance metric (as in the paper): several
    // entries are deliberately ill-conditioned (structural deficiency
    // drives cond to ~1e13), so the forward error is bounded only by
    // cond·berr and asserts nothing about the ladder.
    EXPECT_TRUE(trail.recovered) << e.name;
    EXPECT_LE(solver.stats().berr, sqrt_eps()) << e.name;
    if (trail.final_rung != RecoveryRung::gesp) {
      ++escalated;
      if (trail.final_rung == RecoveryRung::threshold ||
          trail.final_rung == RecoveryRung::panel_rrp)
        ++portfolio_rescued;
    }
  }
  ASSERT_GT(escalated, 0);
  EXPECT_GE(2 * portfolio_rescued, escalated)
      << portfolio_rescued << " of " << escalated
      << " escalating matrices rescued by the portfolio rungs";
}

TEST(Adversarial, EntriesAreDeterministic) {
  // Chaos tests are only reproducible if the generators are: the same
  // entry built twice must be bitwise identical.
  for (const auto& e : sparse::adversarial_testbed()) {
    const auto A = e.make(), B = e.make();
    ASSERT_EQ(A.colptr, B.colptr) << e.name;
    ASSERT_EQ(A.rowind, B.rowind) << e.name;
    ASSERT_EQ(A.values, B.values) << e.name;
  }
}

// ---------------------------------------------------------------------------
// The in-flight growth monitor.

TEST(GrowthMonitor, AbortsABlowingUpFactorizationWithUnstable) {
  // Without recovery, a growth abort is a hard Errc::unstable from the
  // constructor — the factorization fails fast instead of completing
  // garbage and waiting for refinement to notice.
  const auto A = sparse::sparse_growth_adversary(300, 45, 9);
  SolverOptions opt;
  opt.col_order = ColOrderOption::natural;
  opt.growth_abort = 1e6;  // 2^45 growth crosses this mid-factorization
  try {
    Solver<double> solver(A, opt);
    FAIL() << "expected Errc::unstable from the growth monitor";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::unstable);
  }
}

TEST(GrowthMonitor, AbortTriggerIsRecordedInTheTrail) {
  // With the ladder armed, the same abort becomes an escalation whose
  // trigger says "the growth monitor fired", not a berr stall discovered
  // after the fact.
  const auto& e = sparse::adversarial_entry("growth-deep-a");
  const auto A = e.make();
  const auto b = rhs_for(A);
  std::vector<double> x(b.size());
  Solver<double> solver(A, options_for(e));
  solver.solve(b, x);
  const RecoveryTrail& trail = solver.stats().recovery;
  ASSERT_GE(trail.attempts.size(), 2u);
  bool growth_triggered = false;
  for (const auto& a : trail.attempts)
    growth_triggered |= a.trigger == RecoveryTrigger::growth_abort;
  EXPECT_TRUE(growth_triggered);
  EXPECT_TRUE(trail.recovered);
  EXPECT_EQ(trail.final_rung, RecoveryRung::panel_rrp);
}

TEST(GrowthMonitor, NegativeThresholdDisablesTheAbort) {
  // growth_abort < 0 must complete the garbage factorization the abort
  // would otherwise stop (the opt-out documented on SolverOptions).
  const auto A = sparse::sparse_growth_adversary(300, 45, 9);
  SolverOptions opt;
  opt.col_order = ColOrderOption::natural;
  opt.growth_abort = -1.0;
  Solver<double> solver(A, opt);  // must not throw
  EXPECT_GT(solver.stats().pivot_growth, 1e10);
}

// ---------------------------------------------------------------------------
// Seeded numerical fault injection through the ladder.

TEST(FaultInjection, KeepsThePatternAndIsDeterministic) {
  const auto A = sparse::convdiff2d(20, 20, 1.0, 0.5);
  const auto F1 = sparse::inject_value_faults(A, 8, 1e8, 42);
  const auto F2 = sparse::inject_value_faults(A, 8, 1e8, 42);
  EXPECT_EQ(F1.colptr, A.colptr);
  EXPECT_EQ(F1.rowind, A.rowind);
  EXPECT_EQ(F1.values, F2.values);
  int changed = 0;
  for (std::size_t k = 0; k < F1.values.size(); ++k)
    changed += F1.values[k] != A.values[k];
  EXPECT_EQ(changed, 8);
}

TEST(FaultInjection, LadderAbsorbsValueCorruption) {
  // Chaos sweep: corrupt a benign matrix's values at several seeds and
  // magnitudes and demand a policy-meeting answer from the armed ladder
  // every time, whatever rung that takes.
  const auto A = sparse::convdiff2d(25, 25, 1.0, 0.5);
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const auto F =
        sparse::inject_value_faults(A, 12, seed % 2 ? 1e10 : 1e-10, seed);
    const auto b = rhs_for(F);
    std::vector<double> x(b.size());
    SolverOptions opt;
    opt.recovery.enabled = true;
    Solver<double> solver(F, opt);
    solver.solve(b, x);
    EXPECT_TRUE(solver.stats().recovery.recovered) << "seed " << seed;
    EXPECT_LE(solver.stats().berr, sqrt_eps()) << "seed " << seed;
    double err = 0;
    for (double xi : x) err = std::max(err, std::abs(xi - 1.0));
    EXPECT_LT(err, 1e-6) << "seed " << seed;
  }
}

TEST(FaultInjection, ServeRefactorizesFaultedValuesOnTheCachedPattern) {
  // The faulted matrix keeps the clean pattern, so the serve layer routes
  // it onto the cached analysis. With the delta policy's SMW and partial
  // routes off, that is a full refactorization — which reuses the CLEAN
  // values' equilibration and mc64 scalings on entries now 1e14 off. The
  // static factorization that falls out stalls refinement (pivot growth
  // the stale scalings can no longer damp — 40 faults at this magnitude;
  // with the replacement threshold pinned at analysis time, milder faults
  // now factor cleanly), and a robust service must be run with the ladder
  // armed so the stall escalates instead of being served. End-to-end: warm
  // clean, then serve faulted values across seeds and demand a
  // policy-meeting berr plus a trail showing the escalation.
  serve::ServiceOptions sopt;
  sopt.backend = Backend::serial;
  sopt.solver.recovery.enabled = true;
  sopt.solver.delta.smw_max_rank = 0;
  sopt.solver.delta.max_dirty_fraction = 0;
  serve::SolverService<double> svc(sopt);
  const auto A = sparse::convdiff2d(20, 20, 1.0, 0.5);
  svc.warm(A);
  bool escalated = false;
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    const auto F = sparse::inject_value_faults(A, 40, 1e14, seed);
    const auto b = rhs_for(F);
    const auto r = svc.solve(F, b);
    EXPECT_TRUE(r.pattern_hit) << "seed " << seed;
    // Faults of this magnitude leave the matrix very ill-conditioned, so
    // the guarantee is backward error, not closeness to the unfaulted x.
    EXPECT_LE(r.berr, sqrt_eps()) << "seed " << seed;
    ASSERT_FALSE(r.recovery.attempts.empty()) << "seed " << seed;
    EXPECT_TRUE(r.recovery.recovered) << "seed " << seed;
    escalated |= r.recovery.final_rung != RecoveryRung::gesp;
  }
  EXPECT_TRUE(escalated);
}

TEST(FaultInjection, ValuesDeltaAbsorbsFaultsExactlyWithoutEscalation) {
  // With the default delta policy, the same 10-entry faults never
  // reach the stale-scalings trap: the delta router absorbs them as an
  // exact rank-10 SMW correction over the clean factors, so the service
  // answers at machine-level berr with no ladder escalation at all —
  // strictly cheaper AND strictly more accurate than the refactorize path
  // above. This pins the interplay between fault injection and the delta
  // route: an exact correction is a *better* recovery than the ladder.
  serve::ServiceOptions sopt;
  sopt.backend = Backend::serial;
  sopt.solver.recovery.enabled = true;
  serve::SolverService<double> svc(sopt);
  const auto A = sparse::convdiff2d(20, 20, 1.0, 0.5);
  svc.warm(A);
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    const auto F = sparse::inject_value_faults(A, 10, 1e9, seed);
    const auto b = rhs_for(F);
    const auto r = svc.solve(F, b);
    EXPECT_TRUE(r.pattern_hit) << "seed " << seed;
    EXPECT_TRUE(r.value_delta) << "seed " << seed;
    EXPECT_LE(r.berr, sqrt_eps()) << "seed " << seed;
    EXPECT_EQ(r.recovery.final_rung, RecoveryRung::gesp) << "seed " << seed;
  }
}

}  // namespace
}  // namespace gesp
