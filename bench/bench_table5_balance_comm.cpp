// Table 5: "Load balance and communication on 64 processors."
//
// The load balance factor B = (sum of per-process flops) / (P * max), exact
// from the static block-to-process mapping, and the fraction of runtime
// spent communicating (modeled; the paper measured it with Apprentice).
// Paper shape: B good for most matrices, poor for TWOTONE; communication
// over 50% of factorization time and over 95% of solve time.
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "dist/perfmodel.hpp"
#include "symbolic/symbolic.hpp"

int main(int argc, char** argv) {
  using namespace gesp;
  constexpr int kP = 64;
  std::printf(
      "Table 5: load balance factor B and communication fraction on %d "
      "processors\n\n",
      kP);
  Table table({"Matrix", "B(factor)", "Comm%(factor)", "B(solve)",
               "Comm%(solve)", "Messages", "MBytes"});
  const auto grid = dist::ProcessGrid::near_square(kP);
  for (const auto& e : bench::select_large(argc, argv)) {
    const auto A = e.make();
    Solver<double> solver(A, bench::paper_options());
    const auto& S = solver.factors().sym();
    const auto fact = dist::simulate_factorization(S, grid, {}, {});
    const auto solve = dist::simulate_solve(S, grid, {});
    table.add_row({e.name, Table::fmt(fact.load_balance, 2),
                   Table::fmt_pct(fact.comm_fraction),
                   Table::fmt(solve.load_balance, 2),
                   Table::fmt_pct(solve.comm_fraction),
                   Table::fmt_int(fact.total_messages),
                   Table::fmt(static_cast<double>(fact.total_bytes) / 1e6,
                              1)});
  }
  table.print(std::cout);
  std::printf(
      "\nShape checks vs the paper: communication is the majority of the "
      "factorization time and the vast majority of the solve time; B is "
      "well below 1 and varies strongly across matrices (the paper's "
      "TWOTONE problem).\n");
  return 0;
}
