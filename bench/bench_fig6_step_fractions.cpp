// Figure 6: "The times to factorize, solve, permute large diagonal,
// compute residual and estimate error bound" — each step's time as a
// fraction of the factorization time, per matrix, sorted by factorization
// time. Paper shape: the MC64 fraction is significant for small problems
// but drops to 1-10% for the large ones; solve < 5% for large matrices;
// the error bound is the most expensive step after factorization.
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) {
  using namespace gesp;
  std::printf(
      "Figure 6: per-step times relative to factorization (sorted by "
      "factorization time)\n\n");
  std::vector<bench::MatrixRun> runs;
  for (const auto& e : bench::select_testbed(argc, argv))
    runs.push_back(
        bench::run_gesp(e, bench::paper_options(), /*with_ferr=*/true));
  std::sort(runs.begin(), runs.end(), [](const auto& a, const auto& b) {
    return a.factor_time < b.factor_time;
  });
  Table table({"Matrix", "Factor(s)", "Solve/F", "MC64/F", "Residual/F",
               "ErrBound/F", "Symbolic/F", "ColOrder/F"});
  for (const auto& r : runs) {
    if (r.failed || r.factor_time <= 0) continue;
    const double f = r.factor_time;
    table.add_row({r.name, Table::fmt(f, 4), Table::fmt(r.solve_time / f, 3),
                   Table::fmt(r.rowperm_time / f, 3),
                   Table::fmt(r.residual_time / f, 4),
                   Table::fmt(r.ferr_time / f, 3),
                   Table::fmt(r.symbolic_time / f, 3),
                   Table::fmt(r.colorder_time / f, 3)});
  }
  table.print(std::cout);
  std::printf(
      "\nShape checks vs the paper: MC64 fraction falls into the 0.01-0.1 "
      "range for the slow-to-factor matrices; residual < solve < "
      "factorization; the error bound costs multiple solves.\n");
  return 0;
}
