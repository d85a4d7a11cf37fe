// Integration: GESP solves the entire testbed accurately, the large eight
// included — the paper's central stability claim as an executable test.
// The designated failure case (av41092-s) must *report* its failure
// through the stability diagnostics rather than silently returning
// garbage.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/solver.hpp"
#include "sparse/ops.hpp"
#include "sparse/testbed.hpp"

namespace gesp {
namespace {

std::vector<int> entries(bool large) {
  std::vector<int> idx;
  const auto& t = sparse::testbed();
  for (int i = 0; i < static_cast<int>(t.size()); ++i)
    if (t[i].large == large && !t[i].expect_fail) idx.push_back(i);
  return idx;
}

std::string entry_name(const ::testing::TestParamInfo<int>& info) {
  std::string n = sparse::testbed()[static_cast<std::size_t>(info.param)].name;
  for (char& c : n)
    if (c == '-') c = '_';
  return n;
}

class TestbedSolve : public ::testing::TestWithParam<int> {};

TEST_P(TestbedSolve, GespSolvesAccurately) {
  const auto& e = sparse::testbed()[static_cast<std::size_t>(GetParam())];
  const auto A = e.make();
  const index_t n = A.ncols;
  std::vector<double> x_true(n, 1.0), b(n), x(n);
  sparse::spmv<double>(A, x_true, b);
  Solver<double> solver(A, {});
  solver.solve(b, x);
  // The paper's two metrics: small forward error and berr near epsilon.
  EXPECT_LT(sparse::relative_error_inf<double>(x_true, x), 1e-6) << e.name;
  EXPECT_LE(solver.stats().berr, 1e-12) << e.name;
}

INSTANTIATE_TEST_SUITE_P(AllSmall, TestbedSolve,
                         ::testing::ValuesIn(entries(false)), entry_name);
INSTANTIATE_TEST_SUITE_P(Large, TestbedSolve,
                         ::testing::ValuesIn(entries(true)), entry_name);

TEST(TestbedSolve, FailureCaseIsDiagnosed) {
  const auto& e = sparse::testbed_entry("av41092-s");
  const auto A = e.make();
  const index_t n = A.ncols;
  std::vector<double> x_true(n, 1.0), b(n), x(n);
  sparse::spmv<double>(A, x_true, b);
  // Pin the adversarial pivot order (the matrix is built for it).
  SolverOptions opt;
  opt.col_order = ColOrderOption::natural;
  Solver<double> solver(A, opt);
  solver.solve(b, x);
  const double err = sparse::relative_error_inf<double>(x_true, x);
  // Either refinement rescued it (err small) or the diagnostics flag it:
  // enormous pivot growth and/or a berr that refused to converge.
  if (err > 1e-6) {
    EXPECT_TRUE(solver.stats().pivot_growth > 1e10 ||
                solver.stats().berr > 1e-12)
        << "failure not visible in diagnostics: growth="
        << solver.stats().pivot_growth << " berr=" << solver.stats().berr;
  }
}

}  // namespace
}  // namespace gesp
