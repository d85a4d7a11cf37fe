// bench_hostile — the adversarial testbed vs the pivoting portfolio.
//
// For every adversarial entry: run the armed recovery ladder and report
// the rung that produced the answer, the berr it achieved, the total
// ladder wall time (every attempted factorization included), and the
// GEPP-only baseline time on the same matrix — the price the portfolio is
// trying to undercut.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/solver.hpp"
#include "numeric/gepp.hpp"
#include "sparse/ops.hpp"
#include "sparse/testbed.hpp"

namespace {

using namespace gesp;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct HostileRun {
  std::string name, expect_rung, final_rung;
  index_t n = 0;
  double berr = -1.0;
  std::size_t attempts = 0;
  double ladder_s = 0.0;  ///< armed solve, all attempted rungs included
  double gepp_s = 0.0;    ///< GEPP factorization alone on the same matrix
  bool failed = false;
  std::string fail_reason;
};

}  // namespace

int main() {
  std::vector<HostileRun> runs;
  for (const auto& e : sparse::adversarial_testbed()) {
    HostileRun r;
    r.name = e.name;
    r.expect_rung = e.expect_rung;
    const auto A = e.make();
    r.n = A.ncols;
    std::vector<double> ones(static_cast<std::size_t>(A.ncols), 1.0),
        b(ones.size()), x(ones.size());
    sparse::spmv<double>(A, ones, b);

    SolverOptions opt;
    opt.recovery.enabled = true;
    if (e.natural_order) opt.col_order = ColOrderOption::natural;
    if (e.max_block > 0) opt.symbolic.max_block = e.max_block;
    try {
      const double t0 = now_s();
      Solver<double> solver(A, opt);
      solver.solve(b, x);
      r.ladder_s = now_s() - t0;
      const RecoveryTrail& trail = solver.stats().recovery;
      r.final_rung = recovery_rung_name(trail.final_rung);
      r.berr = solver.stats().berr;
      r.attempts = trail.attempts.size();
    } catch (const Error& err) {
      r.failed = true;
      r.fail_reason = err.what();
    }
    try {
      const double t0 = now_s();
      numeric::GeppLU<double> gepp(A, {});
      r.gepp_s = now_s() - t0;
    } catch (const Error&) {
      r.gepp_s = -1.0;  // GEPP itself rejected the matrix
    }
    runs.push_back(std::move(r));
  }

  Table table({"Matrix", "n", "Expect", "Reached", "Attempts", "Berr",
               "Ladder(s)", "GEPP(s)"});
  for (const auto& r : runs)
    table.add_row({r.name, Table::fmt_int(r.n), r.expect_rung,
                   r.failed ? "FAILED" : r.final_rung,
                   Table::fmt_int(static_cast<long long>(r.attempts)),
                   r.failed ? "-" : Table::fmt_sci(r.berr),
                   Table::fmt(r.ladder_s, 4),
                   r.gepp_s < 0 ? "-" : Table::fmt(r.gepp_s, 4)});
  std::printf("bench_hostile: adversarial testbed vs the recovery ladder\n\n");
  table.print(std::cout);

  int escalated = 0, portfolio = 0;
  for (const auto& r : runs)
    if (!r.failed && r.final_rung != "gesp") {
      ++escalated;
      if (r.final_rung == "threshold" || r.final_rung == "panel_rrp")
        ++portfolio;
    }
  std::printf("\nportfolio rescues: %d of %d escalating matrices resolved "
              "before the GEPP rung\n",
              portfolio, escalated);
  return 0;
}
