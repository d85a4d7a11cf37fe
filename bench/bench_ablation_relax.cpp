// Ablation: supernode amalgamation (Section 4) — "The uniprocessor
// performance can also be improved by amalgamating small supernodes into
// large ones." Sweeps the relaxation parameter and reports supernode
// counts, update pairs (the per-pair bookkeeping the numeric phase pays),
// stored zeros, and measured factorization time/rate. relax = 0 is the
// fundamental (T2) partition; any relax > 0 adds etree-chain amalgamation
// under the zero budget, and relax > 1 also merges leaf subtrees of up to
// `relax` columns.
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "symbolic/symbolic.hpp"

int main(int argc, char** argv) {
  using namespace gesp;
  std::printf(
      "Ablation: supernode amalgamation (relax 0 = fundamental partition; "
      "relax > 0 merges etree chains under the zero budget, plus leaf "
      "subtrees of up to relax columns)\n\n");
  Table table({"Matrix", "relax", "Supernodes", "AvgWidth", "Pairs",
               "Stored/Exact", "Factor(s)", "Mflop/s"});
  // Amalgamation matters most for tiny-supernode (circuit) matrices; use
  // those plus a grid control unless --matrices overrides.
  auto entries = bench::select_large(argc, argv);
  for (const auto& e : entries) {
    for (index_t relax : {0, 1, 4, 8, 16, 32}) {
      SolverOptions opt;
      opt.symbolic.relax = relax;
      const auto A = e.make();
      Timer t;
      Solver<double> solver(A, opt);
      const auto& s = solver.stats();
      const double ft = s.times.get("factor");
      // Update pairs: Σ_K |L[K]|·|U[K]| block pairs of the right-looking
      // elimination.
      const auto& S = solver.factors().sym();
      count_t pairs = 0;
      for (index_t K = 0; K < S.nsup; ++K)
        pairs += static_cast<count_t>(S.L[K].size()) *
                 static_cast<count_t>(S.U[K].size());
      table.add_row(
          {e.name, Table::fmt_int(relax), Table::fmt_int(s.nsup),
           Table::fmt(static_cast<double>(A.ncols) / s.nsup, 1),
           Table::fmt_int(pairs),
           Table::fmt(static_cast<double>(s.stored_l + s.stored_u) /
                          static_cast<double>(s.nnz_l + s.nnz_u),
                      2),
           Table::fmt(ft, 3),
           Table::fmt(ft > 0 ? static_cast<double>(s.flops) / ft / 1e6 : 0,
                      0)});
    }
  }
  table.print(std::cout);
  std::printf(
      "\nShape check: chain amalgamation (any relax > 0) widens the "
      "fundamental supernodes several-fold and cuts the update pairs "
      "several-fold on the tiny-supernode matrices, lifting the Mflop rate "
      "at a modest stored-zero cost; larger relax values only grow the leaf "
      "subtrees and inflate storage (and flops) for little gain.\n");
  return 0;
}
