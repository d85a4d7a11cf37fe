// End-to-end GESP driver tests: the full Figure-1 pipeline on matrices from
// every behaviour class the paper's testbed exercises — zero diagonals,
// pivots cancelling during elimination, badly scaled systems, complex
// systems, growth adversaries — plus the option interface (every knob the
// paper says can be turned on or off) and pattern-reuse refactorization.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.hpp"
#include "core/solver.hpp"
#include "sparse/coo.hpp"
#include "sparse/generators.hpp"
#include "sparse/ops.hpp"
#include "sparse/testbed.hpp"

namespace gesp {
namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();

/// Solve with x_true = all ones (the paper's experimental setup) and
/// return the relative forward error.
double solve_ones_error(const sparse::CscMatrix<double>& A,
                        const SolverOptions& opt, SolveStats* stats = nullptr) {
  const index_t n = A.ncols;
  std::vector<double> x_true(n, 1.0), b(n);
  sparse::spmv<double>(A, x_true, b);
  SolveStats s;
  const auto x = solve<double>(A, b, opt, &s);
  if (stats) *stats = s;
  return sparse::relative_error_inf<double>(x_true, x);
}

TEST(GespSolver, DiagonallyDominantGrid) {
  SolveStats s;
  EXPECT_LT(solve_ones_error(sparse::convdiff2d(20, 20, 1.0, 0.5), {}, &s),
            1e-12);
  EXPECT_LE(s.berr, 10 * kEps);
}

TEST(GespSolver, ZeroDiagonalCircuit) {
  // 30% of rows have no diagonal entry: without the matching step this
  // matrix cannot be factored with diagonal pivots at all.
  const auto A = sparse::with_zero_diagonal(
      sparse::circuit_like(500, 6, 20, 21), 0.30, 22);
  SolveStats s;
  EXPECT_LT(solve_ones_error(A, {}, &s), 1e-8);
  EXPECT_LE(s.berr, 100 * kEps);
}

TEST(GespSolver, NoPivotingFailsOnZeroDiagonal) {
  const auto A = sparse::with_zero_diagonal(
      sparse::circuit_like(300, 4, 10, 23), 0.30, 24);
  SolverOptions genp;
  genp.equilibrate = false;
  genp.row_perm = RowPermOption::none;
  genp.tiny_pivot = TinyPivotOption::fail;
  EXPECT_THROW(solve_ones_error(A, genp), Error);
}

TEST(GespSolver, CancellationRescuedByTinyPivotReplacement) {
  // A pivot cancels to zero *during* elimination; step (3) + refinement
  // must recover full accuracy.
  const auto A = sparse::cancellation_matrix(400, 100, 31);
  SolveStats s;
  EXPECT_LT(solve_ones_error(A, {}, &s), 1e-8);
  EXPECT_LE(s.berr, 100 * kEps);
}

TEST(GespSolver, CancellationFailsWithReplacementOff) {
  const auto A = sparse::cancellation_matrix(400, 100, 31);
  SolverOptions opt;
  opt.tiny_pivot = TinyPivotOption::fail;
  opt.row_perm = RowPermOption::none;  // keep the cancelling pivot order
  opt.equilibrate = false;
  opt.col_order = ColOrderOption::natural;
  EXPECT_THROW(solve_ones_error(A, opt), Error);
}

TEST(GespSolver, BadlyScaledChemicalPlant) {
  // Row scales span ~10 orders of magnitude; equilibration + matching must
  // tame them.
  const auto A = sparse::chemical_like(30, 25, 10.0, 41);
  SolveStats s;
  const double err = solve_ones_error(A, {}, &s);
  EXPECT_LT(err, 1e-6);
  EXPECT_LE(s.berr, 1e-12);
}

TEST(GespSolver, RefinementIterationCountIsSmall) {
  // The paper: most matrices take <= 3 refinement steps.
  SolveStats s;
  solve_ones_error(sparse::convdiff2d(25, 25, 2.0, 1.0), {}, &s);
  EXPECT_LE(s.refine_iterations, 3);
}

TEST(GespSolver, GrowthAdversaryReportsLargeGrowth) {
  const auto A = sparse::sparse_growth_adversary(500, 40, 51);
  SolverOptions opt;
  opt.col_order = ColOrderOption::natural;  // keep the adversarial order
  SolveStats s;
  solve_ones_error(A, opt, &s);
  EXPECT_GT(s.pivot_growth, 1e6);  // the failure is *visible* in the stats
}

TEST(GespSolver, OptionsNoMc64Scaling) {
  const auto A = sparse::chemical_like(20, 20, 4.0, 61);
  SolverOptions opt;
  opt.mc64_scaling = false;
  EXPECT_LT(solve_ones_error(A, opt), 1e-7);
}

TEST(GespSolver, OptionsBottleneckMatching) {
  const auto A = sparse::with_zero_diagonal(
      sparse::circuit_like(400, 5, 15, 62), 0.2, 63);
  SolverOptions opt;
  opt.row_perm = RowPermOption::bottleneck;
  EXPECT_LT(solve_ones_error(A, opt), 1e-8);
}

TEST(GespSolver, OptionsMc21Matching) {
  // A row-scrambled triangular matrix has exactly ONE perfect matching —
  // the original diagonal — which the structural max-transversal must
  // recover, making the system trivially solvable.
  const index_t n = 500;
  Rng rng(66);
  sparse::CooMatrix<double> coo(n, n);
  std::vector<index_t> scramble(n);
  for (index_t i = 0; i < n; ++i) scramble[i] = i;
  for (index_t i = n - 1; i > 0; --i)
    std::swap(scramble[i], scramble[rng.next_index(i + 1)]);
  for (index_t i = 0; i < n; ++i) {
    coo.add(scramble[i], i, 10.0 + rng.next_double());
    for (int k = 0; k < 3; ++k) {
      const index_t j = rng.next_index(n);
      if (j < i) coo.add(scramble[i], j, rng.uniform(-1.0, 1.0));
    }
  }
  const auto A = coo.to_csc();
  SolverOptions opt;
  opt.row_perm = RowPermOption::mc21;
  EXPECT_LT(solve_ones_error(A, opt), 1e-12);
}

TEST(GespSolver, OptionsRcmOrdering) {
  SolverOptions opt;
  opt.col_order = ColOrderOption::rcm;
  EXPECT_LT(solve_ones_error(sparse::convdiff2d(15, 15, 1.0, 0.0), opt),
            1e-12);
}

TEST(GespSolver, OptionsAmdAplusAt) {
  SolverOptions opt;
  opt.col_order = ColOrderOption::amd_aplusat;
  EXPECT_LT(solve_ones_error(sparse::convdiff2d(15, 15, 1.0, 0.0), opt),
            1e-12);
}

TEST(GespSolver, AggressiveSmwRecovery) {
  // The SMW path must give an accurate solution even though pivots were
  // promoted to the column maximum (a large perturbation).
  const auto A = sparse::cancellation_matrix(400, 100, 31);
  SolverOptions opt;
  opt.tiny_pivot = TinyPivotOption::aggressive_smw;
  // Keep the cancelling pivot order so a replacement actually happens.
  opt.row_perm = RowPermOption::none;
  opt.equilibrate = false;
  opt.col_order = ColOrderOption::natural;
  SolveStats s;
  EXPECT_LT(solve_ones_error(A, opt, &s), 1e-8);
  EXPECT_GE(s.pivots_replaced, 1);
}

TEST(GespSolver, CompensatedResidualRefinement) {
  SolverOptions opt;
  opt.refine.compensated_residual = true;
  SolveStats s;
  EXPECT_LT(solve_ones_error(sparse::chemical_like(20, 20, 6.0, 71), opt, &s),
            1e-7);
  EXPECT_LE(s.berr, 10 * kEps);
}

TEST(GespSolver, ForwardErrorBoundCoversTrueError) {
  const auto A = sparse::convdiff2d(18, 18, 1.5, 0.5);
  SolverOptions opt;
  opt.estimate_ferr = true;
  opt.estimate_rcond = true;
  SolveStats s;
  const double err = solve_ones_error(A, opt, &s);
  EXPECT_GE(s.ferr, 0.0);
  // The bound holds for the *scaled permuted* system; allow slack of 10x
  // for the transform back to original variables.
  EXPECT_LE(err, 10.0 * std::max(s.ferr, kEps));
  EXPECT_GT(s.rcond, 0.0);
  EXPECT_LE(s.rcond, 1.0);
}

TEST(GespSolver, RefactorizeSamePattern) {
  const auto A0 = sparse::circuit_like(400, 5, 15, 81);
  const index_t n = A0.ncols;
  Solver<double> solver(A0, {});
  for (int step = 1; step <= 3; ++step) {
    const auto A = sparse::perturb_values(A0, 0.3, 80 + step);
    solver.refactorize(A);
    std::vector<double> x_true(n, 1.0), b(n), x(n);
    sparse::spmv<double>(A, x_true, b);
    solver.solve(b, x);
    EXPECT_LT(sparse::relative_error_inf<double>(x_true, x), 1e-9)
        << "refactorization step " << step;
  }
}

TEST(GespSolver, ComplexQuantumChemistrySystem) {
  // The paper's flagship application is a complex unsymmetric system.
  const auto A =
      sparse::randomize_phases(sparse::device_like(20, 20, 300, 91), 92);
  const index_t n = A.ncols;
  std::vector<Complex> x_true(n, Complex(1.0, 1.0)), b(n), x(n);
  sparse::spmv<Complex>(A, x_true, b);
  SolveStats s;
  Solver<Complex> solver(A, {});
  solver.solve(b, x);
  EXPECT_LT(sparse::relative_error_inf<Complex>(x_true, x), 1e-9);
}

TEST(GespSolver, EstimateFactorBytesIsExact) {
  // estimate_factor_bytes prices the analysis alone; the serve layer prices
  // a built Solver's structure at its active precision. The serial and
  // threaded engines fill exactly the symbolic structure, so the two agree.
  for (const auto& e : sparse::testbed()) {
    if (e.large) continue;
    const auto A = e.make();
    for (Precision p : {Precision::double_, Precision::mixed}) {
      SolverOptions opt;
      opt.precision = p;
      const Solver<double> s(A, opt);
      const SolveStats& st = s.stats();
      const std::size_t factor_scalar =
          s.active_precision() == Precision::single ? sizeof(float)
                                                    : sizeof(double);
      EXPECT_EQ(estimate_factor_bytes(A, opt),
                factor_asset_bytes(st.stored_l, st.stored_u, st.nnz_l,
                                   st.nnz_u, A.ncols, A.nnz(), factor_scalar,
                                   sizeof(double)))
          << e.name << " " << precision_name(p);
    }
  }
}

TEST(GespSolver, StatsArePopulated) {
  SolveStats s;
  solve_ones_error(sparse::convdiff2d(15, 15, 1.0, 0.5), {}, &s);
  EXPECT_GT(s.nnz_l, 225);
  EXPECT_GT(s.nnz_u, 225);
  EXPECT_GT(s.flops, 0);
  EXPECT_GT(s.nsup, 0);
  EXPECT_GE(s.stored_l, s.nnz_l);  // relaxation stores extra zeros
  EXPECT_FALSE(s.berr_history.empty());
}

/// Property sweep: GESP must solve every small matrix class accurately.
struct SweepCase {
  const char* name;
  sparse::CscMatrix<double> (*make)();
  double tol;
};

class GespSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(GespSweep, SolvesAccurately) {
  const auto& c = GetParam();
  SolveStats s;
  EXPECT_LT(solve_ones_error(c.make(), {}, &s), c.tol) << c.name;
  EXPECT_LE(s.berr, 1e-10) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Classes, GespSweep,
    ::testing::Values(
        SweepCase{"laplacian", [] { return sparse::laplacian2d(17, 13); },
                  1e-11},
        SweepCase{"laplacian3d", [] { return sparse::laplacian3d(7, 8, 6); },
                  1e-11},
        SweepCase{"convdiff_strong",
                  [] { return sparse::convdiff2d(23, 19, 8.0, 4.0); }, 1e-11},
        SweepCase{"convdiff3d",
                  [] { return sparse::convdiff3d(8, 8, 8, 1.0, 1.0, 1.0); },
                  1e-11},
        SweepCase{"anisotropic",
                  [] { return sparse::anisotropic2d(21, 21, 1e-3); }, 1e-10},
        SweepCase{"random_sym",
                  [] {
                    sparse::RandomSpec r;
                    r.n = 600;
                    r.nnz_per_row = 6;
                    r.structural_symmetry = 0.9;
                    r.diag_scale = 8.0;
                    r.seed = 100;
                    return sparse::random_unsymmetric(r);
                  },
                  1e-9},
        SweepCase{"random_unsym_weakdiag",
                  [] {
                    sparse::RandomSpec r;
                    r.n = 600;
                    r.nnz_per_row = 6;
                    r.structural_symmetry = 0.1;
                    r.diag_scale = 0.01;
                    r.seed = 101;
                    return sparse::random_unsymmetric(r);
                  },
                  1e-7},
        SweepCase{"circuit",
                  [] { return sparse::circuit_like(700, 8, 25, 102); }, 1e-8},
        SweepCase{"device", [] { return sparse::device_like(25, 18, 400, 103); },
                  1e-8},
        SweepCase{"chemical",
                  [] { return sparse::chemical_like(25, 20, 6.0, 104); },
                  1e-7}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace gesp
