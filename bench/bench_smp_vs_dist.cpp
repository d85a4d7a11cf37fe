// The paper's SMP reference point (Section 3): "using 4 processor DEC
// AlphaServer 8400, the factorization times of SuperLU_MT for matrices
// AF23560 and EX11 are 19 and 23 seconds, respectively, comparable to the
// 4 processor T3E timings. This indicates that our distributed data
// structure and message passing algorithm do not incur much overhead."
//
// Here: the shared-memory task-DAG factorization at P threads vs the
// modeled P-process distributed factorization, plus the distributed
// overhead factor. (On a 1-core container the SMP wall time does not
// speed up with threads; the comparison uses the model's time for the
// distributed side and reports the message-passing overhead ratio, which
// is machine-size independent.)
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "dist/perfmodel.hpp"
#include "symbolic/symbolic.hpp"

int main(int argc, char** argv) {
  using namespace gesp;
  constexpr int kP = 4;
  std::printf(
      "SMP (SuperLU_MT-style, %d threads) vs distributed (modeled %d "
      "processes): data-structure overhead check\n\n",
      kP, kP);
  Table table({"Matrix", "Serial(s)", "SMP-4(s)", "DistModel-1(s)",
               "DistModel-4(s)", "DistEff@4"});
  for (const auto& e : bench::select_large(argc, argv)) {
    const auto A = e.make();
    SolverOptions serial;
    Solver<double> s1(A, serial);
    const double t_serial = s1.stats().times.get("factor");
    SolverOptions smp;
    smp.num_threads = kP;
    Solver<double> s2(A, smp);
    const double t_smp = s2.stats().times.get("factor");
    const auto& S = s1.factors().sym();
    const auto m1 =
        dist::simulate_factorization(S, dist::ProcessGrid{1, 1}, {}, {});
    const auto m4 = dist::simulate_factorization(
        S, dist::ProcessGrid::near_square(kP), {}, {});
    // Parallel efficiency of the message-passing schedule at small P: the
    // paper's point is that this stays close to 1 (little overhead).
    const double eff = m1.time / (kP * m4.time);
    table.add_row({e.name, Table::fmt(t_serial, 2), Table::fmt(t_smp, 2),
                   Table::fmt(m1.time, 2), Table::fmt(m4.time, 2),
                   Table::fmt_pct(eff)});
  }
  table.print(std::cout);
  std::printf(
      "\nShape check vs the paper: the distributed schedule at small P "
      "stays within a small factor of the shared-memory one — the static "
      "data structures do not add much overhead.\n");
  return 0;
}
