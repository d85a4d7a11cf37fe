// Motivation experiment (Section 2 text): "Among the 53 matrices, most
// would get wrong answers or fail completely (via division by a zero
// pivot) without any pivoting or other precautions."
//
// Runs plain GENP (every GESP safeguard off) against full GESP and
// classifies each matrix: hard failure (zero pivot), wrong answer
// (error > 1e-3), or lucky.
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) {
  using namespace gesp;
  std::printf(
      "Motivation: Gaussian elimination with NO pivoting (GENP) vs GESP\n\n");
  SolverOptions genp = bench::paper_options();
  genp.equilibrate = false;
  genp.row_perm = RowPermOption::none;
  // Fill-reducing ordering stays on: the experiment isolates *pivoting*.
  genp.tiny_pivot = TinyPivotOption::fail;
  genp.refine.max_iters = 0;

  Table table({"Matrix", "GENP outcome", "GENP err", "GESP err"});
  int hard_fail = 0, wrong = 0, lucky = 0, gesp_ok = 0, total = 0;
  for (const auto& e : bench::select_testbed(argc, argv)) {
    const auto bad = bench::run_gesp(e, genp);
    const auto good = bench::run_gesp(e);
    ++total;
    std::string outcome;
    if (bad.failed) {
      outcome = "zero pivot";
      ++hard_fail;
    } else if (bad.err > 1e-3) {
      outcome = "wrong answer";
      ++wrong;
    } else {
      outcome = "ok (lucky)";
      ++lucky;
    }
    if (!good.failed && good.err < 1e-3) ++gesp_ok;
    table.add_row({e.name, outcome,
                   bad.failed ? "-" : Table::fmt_sci(bad.err, 1),
                   good.failed ? "FAILED" : Table::fmt_sci(good.err, 1)});
  }
  table.print(std::cout);
  std::printf(
      "\nGENP: %d zero-pivot failures, %d wrong answers, %d survivors "
      "(of %d).\nGESP solves %d/%d accurately. Paper: 27/53 fail "
      "completely without pivoting and most others get large errors.\n",
      hard_fail, wrong, lucky, total, gesp_ok, total);
  return 0;
}
