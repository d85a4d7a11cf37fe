// Cross-backend equivalence for the unified Solver API: the serial,
// threaded and distributed engines run the same GESP pipeline, so factors
// must be bitwise-identical and pivot-replacement counts equal on every
// grid shape; the one-shot dist::solve must agree with gesp::solve within
// refinement tolerance; and the unified tiny-pivot plumbing must give the
// dist backend the same sqrt(eps)·||Â|| rule the in-process engines use.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "dist/dist_lu.hpp"
#include "dist/dist_solver.hpp"
#include "dist/minimpi.hpp"
#include "sparse/generators.hpp"
#include "sparse/ops.hpp"
#include "test_helpers.hpp"

namespace gesp {
namespace {

using dist::DistSolver;
using dist::ProcessGrid;
using sparse::CscMatrix;

struct GridCase {
  const char* name;
  int pr, pc;
};

CscMatrix<double> test_matrix() {
  return sparse::convdiff2d(14, 13, 1.0, 0.5);
}

CscMatrix<double> diagonal_matrix(const std::vector<double>& d) {
  CscMatrix<double> A;
  A.nrows = A.ncols = static_cast<index_t>(d.size());
  A.colptr.resize(d.size() + 1);
  for (std::size_t j = 0; j < d.size(); ++j) {
    A.colptr[j] = static_cast<index_t>(j);
    A.rowind.push_back(static_cast<index_t>(j));
    A.values.push_back(d[j]);
  }
  A.colptr[d.size()] = static_cast<index_t>(d.size());
  return A;
}

/// Options that expose raw pivots: no equilibration/permutation, so the
/// factorization sees the diagonal values as-is.
SolverOptions raw_pivot_options() {
  SolverOptions opt;
  opt.equilibrate = false;
  opt.row_perm = RowPermOption::none;
  opt.mc64_scaling = false;
  opt.col_order = ColOrderOption::natural;
  return opt;
}

class BackendGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(BackendGrid, FactorsBitwiseIdenticalAcrossBackends) {
  const auto& c = GetParam();
  const auto A = test_matrix();

  SolverOptions sopt;
  sopt.backend = Backend::serial;
  Solver<double> serial(A, sopt);
  const auto Lser = serial.factors().l_matrix();
  const auto User = serial.factors().u_matrix();

  SolverOptions topt;
  topt.backend = Backend::threaded;
  topt.num_threads = 4;
  Solver<double> threaded(A, topt);
  EXPECT_EQ(testing::max_abs_diff(Lser, threaded.factors().l_matrix()), 0.0);
  EXPECT_EQ(testing::max_abs_diff(User, threaded.factors().u_matrix()), 0.0);
  EXPECT_EQ(serial.stats().pivots_replaced,
            threaded.stats().pivots_replaced);

  SolverOptions dopt;
  dopt.backend = Backend::dist;
  dopt.dist.pr = c.pr;
  dopt.dist.pc = c.pc;
  const ProcessGrid grid{c.pr, c.pc};
  minimpi::World world(grid.nprocs());
  CscMatrix<double> Ld, Ud;
  count_t dist_replaced = 0;
  double dist_growth = -1.0;
  world.run([&](minimpi::Comm& comm) {
    DistSolver<double> ds(comm, A, dopt);
    auto L = ds.lu().gather_l(comm);
    auto U = ds.lu().gather_u(comm);
    if (comm.rank() == 0) {
      Ld = std::move(L);
      Ud = std::move(U);
    }
    // stats() is reduced AND broadcast: identical on every rank.
    EXPECT_EQ(ds.stats().pivots_replaced, serial.stats().pivots_replaced);
    if (comm.rank() == 0) {
      dist_replaced = ds.stats().pivots_replaced;
      dist_growth = ds.stats().pivot_growth;
    }
  });
  EXPECT_EQ(testing::max_abs_diff(Lser, Ld), 0.0) << c.name;
  EXPECT_EQ(testing::max_abs_diff(User, Ud), 0.0) << c.name;
  EXPECT_EQ(dist_replaced, serial.stats().pivots_replaced) << c.name;
  EXPECT_DOUBLE_EQ(dist_growth, serial.stats().pivot_growth) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Grids, BackendGrid,
    ::testing::Values(GridCase{"grid_1x1", 1, 1}, GridCase{"grid_1x4", 1, 4},
                      GridCase{"grid_2x2", 2, 2}, GridCase{"grid_2x3", 2, 3},
                      GridCase{"grid_4x4", 4, 4}),
    [](const auto& info) { return info.param.name; });

TEST(Backend, Names) {
  EXPECT_STREQ(backend_name(Backend::serial), "serial");
  EXPECT_STREQ(backend_name(Backend::threaded), "threaded");
  EXPECT_STREQ(backend_name(Backend::dist), "dist");
}

TEST(Backend, SolverRejectsDistBackend) {
  const auto A = sparse::convdiff2d(6, 6, 1.0, 0.5);
  SolverOptions opt;
  opt.backend = Backend::dist;
  try {
    Solver<double> s(A, opt);
    FAIL() << "Backend::dist accepted by core::Solver";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::invalid_argument);
  }
}

TEST(Backend, SerialBackendForcesSingleThread) {
  const auto A = sparse::convdiff2d(6, 6, 1.0, 0.5);
  SolverOptions opt;
  opt.backend = Backend::serial;
  opt.num_threads = 8;
  Solver<double> s(A, opt);
  EXPECT_EQ(s.options().num_threads, 1);
}

TEST(Backend, OneShotDistMatchesGespSolve) {
  const auto A = test_matrix();
  const index_t n = A.ncols;
  std::vector<double> x_true(static_cast<std::size_t>(n), 1.0), b(x_true);
  sparse::spmv<double>(A, x_true, b);

  SolveStats ss;
  const auto xs = gesp::solve<double>(A, b, {}, &ss);

  SolverOptions dopt;
  dopt.backend = Backend::dist;
  dopt.dist.nprocs = 4;
  SolveStats sd;
  const auto xd = dist::solve<double>(A, b, dopt, &sd);

  EXPECT_LT(sparse::relative_error_inf<double>(x_true, xd), 1e-10);
  EXPECT_LT(sparse::relative_error_inf<double>(xs, xd), 1e-12);
  // Same pipeline, same refinement rule: berr and iteration counts agree
  // within refinement tolerance.
  const double sqrt_eps =
      std::sqrt(std::numeric_limits<double>::epsilon());
  EXPECT_LE(sd.berr, sqrt_eps);
  EXPECT_NEAR(sd.berr, ss.berr, sqrt_eps);
  EXPECT_NEAR(static_cast<double>(sd.refine_iterations),
              static_cast<double>(ss.refine_iterations), 1.0);
  EXPECT_EQ(sd.pivots_replaced, ss.pivots_replaced);
  EXPECT_EQ(sd.nnz_l, ss.nnz_l);
  EXPECT_EQ(sd.nnz_u, ss.nnz_u);
}

TEST(Backend, DistSolverRefactorizeSamePattern) {
  const auto A = test_matrix();
  const index_t n = A.ncols;
  std::vector<double> x_true(static_cast<std::size_t>(n), 1.0), b(x_true);
  sparse::spmv<double>(A, x_true, b);
  auto A2 = A;
  for (auto& v : A2.values) v *= 2.0;  // same pattern, new values

  SolverOptions dopt;
  dopt.backend = Backend::dist;
  dopt.dist.pr = 2;
  dopt.dist.pc = 2;
  minimpi::World world(4);
  // solve() writes x on every rank, so each rank gets its own buffers.
  std::vector<std::vector<double>> x1(4, std::vector<double>(b.size())),
      x2 = x1;
  world.run([&](minimpi::Comm& comm) {
    DistSolver<double> ds(comm, A, dopt);
    ds.solve(comm, b, x1[comm.rank()]);
    ds.refactorize(comm, A2);  // reuses transforms + symbolic + SpMV plan
    ds.solve(comm, b, x2[comm.rank()]);
    EXPECT_LE(ds.stats().berr, 1e-12);
  });
  std::vector<double> half(x_true.size(), 0.5);  // (2A)x = b  =>  x = 0.5
  for (int r = 0; r < 4; ++r) {
    EXPECT_LT(sparse::relative_error_inf<double>(x_true, x1[r]), 1e-10) << r;
    EXPECT_LT(sparse::relative_error_inf<double>(half, x2[r]), 1e-10) << r;
  }
}

TEST(Backend, DistSolverRefactorizeRejectsOtherPattern) {
  // Same size and nnz, one entry moved: column 0's last row index moves
  // one row down (rows are sorted, so the new one is absent). Like
  // Solver::refactorize, the dist driver must refuse it on every rank and
  // keep answering for the analysed matrix.
  const auto A = test_matrix();
  auto B = A;
  B.rowind[B.colptr[1] - 1] += 1;
  ASSERT_LT(B.rowind[B.colptr[1] - 1], B.nrows);
  ASSERT_FALSE(sparse::pattern_key(A) == sparse::pattern_key(B));
  std::vector<double> x_true(static_cast<std::size_t>(A.ncols), 1.0),
      b(x_true);
  sparse::spmv<double>(A, x_true, b);

  SolverOptions dopt;
  dopt.backend = Backend::dist;
  dopt.dist.pr = 2;
  dopt.dist.pc = 2;
  minimpi::World world(4);
  std::atomic<int> rejected{0};
  std::vector<std::vector<double>> x(4, std::vector<double>(b.size()));
  world.run([&](minimpi::Comm& comm) {
    DistSolver<double> ds(comm, A, dopt);
    try {
      ds.refactorize(comm, B);
    } catch (const Error& e) {
      if (e.code() == Errc::invalid_argument) ++rejected;
    }
    ds.solve(comm, b, x[comm.rank()]);
  });
  EXPECT_EQ(rejected.load(), 4);
  for (int r = 0; r < 4; ++r)
    EXPECT_LT(sparse::relative_error_inf<double>(x_true, x[r]), 1e-10) << r;
}

TEST(Backend, DistInheritsTinyPivotReplacement) {
  // The satellite bugfix: DistOptions::tiny_threshold used to default to
  // 0.0 (fail-on-zero), silently diverging from the in-process engines'
  // sqrt(eps)·||Â|| replacement rule. Through the unified options the dist
  // backend must replace the same pivots the serial engine replaces.
  std::vector<double> d(8, 1.0);
  d[3] = 1e-30;  // numerically tiny, structurally present
  const auto A = diagonal_matrix(d);

  auto opt = raw_pivot_options();
  opt.backend = Backend::serial;
  Solver<double> serial(A, opt);
  ASSERT_GE(serial.stats().pivots_replaced, 1);

  auto dopt = raw_pivot_options();
  dopt.backend = Backend::dist;
  dopt.dist.pr = 2;
  dopt.dist.pc = 2;
  minimpi::World world(4);
  world.run([&](minimpi::Comm& comm) {
    DistSolver<double> ds(comm, A, dopt);
    EXPECT_EQ(ds.stats().pivots_replaced, serial.stats().pivots_replaced);
    const auto an = build_analysis(A, ds.options()).first;
    EXPECT_GT(dist::make_dist_options(ds.options(), *an).tiny_threshold, 0.0);
  });
}

TEST(Backend, DistRefactorizeMatchesSerialRefactorize) {
  // The tiny-pivot threshold sqrt(eps)·||Â|| is a static decision pinned at
  // analysis, so a refactorization whose values move ||Â|| keeps the first
  // values' threshold on every backend. Here ||Â|| doubles and the pivot
  // 2e-8 sits between the pinned threshold (~1.5e-8, kept) and the one the
  // new values would give (~3e-8, replaced).
  std::vector<double> d(8, 1.0);
  d[3] = 1e-9;
  const auto A0 = diagonal_matrix(d);
  for (auto& v : d) v *= 2.0;
  d[3] = 2e-8;
  const auto A1 = diagonal_matrix(d);

  auto opt = raw_pivot_options();
  opt.backend = Backend::serial;
  Solver<double> serial(A0, opt);
  serial.refactorize(A1);
  const auto Lser = serial.factors().l_matrix();
  const auto User = serial.factors().u_matrix();

  auto dopt = raw_pivot_options();
  dopt.backend = Backend::dist;
  dopt.dist.pr = 2;
  dopt.dist.pc = 2;
  minimpi::World world(4);
  CscMatrix<double> Ld, Ud;
  world.run([&](minimpi::Comm& comm) {
    DistSolver<double> ds(comm, A0, dopt);
    ds.refactorize(comm, A1);
    EXPECT_EQ(ds.stats().pivots_replaced, serial.stats().pivots_replaced);
    auto L = ds.lu().gather_l(comm);
    auto U = ds.lu().gather_u(comm);
    if (comm.rank() == 0) {
      Ld = std::move(L);
      Ud = std::move(U);
    }
  });
  EXPECT_EQ(serial.stats().pivots_replaced, 0);
  EXPECT_EQ(testing::max_abs_diff(Lser, Ld), 0.0);
  EXPECT_EQ(testing::max_abs_diff(User, Ud), 0.0);
}

TEST(Backend, DistFailsOnZeroPivotWhenReplacementOff) {
  std::vector<double> d(4, 1.0);
  d[1] = 0.0;  // exact zero pivot
  const auto A = diagonal_matrix(d);

  auto opt = raw_pivot_options();
  opt.tiny_pivot = TinyPivotOption::fail;
  opt.backend = Backend::dist;
  opt.dist.pr = 1;
  opt.dist.pc = 1;
  minimpi::World world(1);
  const auto reports = world.run_report([&](minimpi::Comm& comm) {
    DistSolver<double> ds(comm, A, opt);
  });
  ASSERT_TRUE(reports[0].failed());
  EXPECT_EQ(reports[0].error_code(), Errc::numerically_singular);
  // The report carries the bare message (the code carries the category),
  // so the one-shot wrapper's rethrow names the category once.
  const std::string msg = reports[0].error_message();
  EXPECT_EQ(msg.find(errc_name(Errc::numerically_singular)), std::string::npos)
      << msg;
  try {
    dist::solve<double>(A, std::vector<double>(4, 1.0), opt);
    ADD_FAILURE() << "a zero pivot with replacement off was answered";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              std::string("numerically_singular: dist backend: ") + msg);
  }
}

}  // namespace
}  // namespace gesp
