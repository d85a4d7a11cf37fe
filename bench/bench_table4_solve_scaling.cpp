// Table 4: "Triangular solves time in seconds and Megaflop rate" for
// P = 4..512. Paper shape: solve time stops improving beyond ~64
// processors; Mflop rates stay low (communication-bound), but the solve
// time remains far below the factorization time.
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "dist/perfmodel.hpp"
#include "symbolic/symbolic.hpp"

int main(int argc, char** argv) {
  using namespace gesp;
  const auto procs = bench::processor_counts(argc, argv);
  std::printf(
      "Table 4: simulated lower+upper triangular solve time (s) and Mflop "
      "rate, T3E-900-like machine model\n\n");
  std::vector<std::string> header{"Matrix"};
  for (int P : procs) header.push_back("P=" + std::to_string(P));
  header.push_back("Mflops@Pmax");
  Table table(header);

  for (const auto& e : bench::select_large(argc, argv)) {
    const auto A = e.make();
    Solver<double> solver(A, bench::paper_options());
    const auto& S = solver.factors().sym();
    std::vector<std::string> row{e.name};
    double last_mflops = 0;
    for (int P : procs) {
      const auto grid = dist::ProcessGrid::near_square(P);
      const auto res = dist::simulate_solve(S, grid, {});
      row.push_back(Table::fmt(res.time, 4));
      last_mflops = res.mflops;
    }
    row.push_back(Table::fmt(last_mflops, 1));
    table.add_row(row);
  }
  table.print(std::cout);
  std::printf(
      "\nShape checks vs the paper: solve times flatten beyond ~64 "
      "processors and Megaflop rates are far below the factorization's.\n");
  return 0;
}
