// gesp_solve — command-line GESP driver.
//
//   gesp_solve MATRIX [options]
//
//   MATRIX                MatrixMarket (.mtx) or Harwell-Boeing file; use
//                         testbed:NAME to pull a matrix from the built-in
//                         synthetic testbed, or adv:NAME for the
//                         adversarial testbed (see --list). An adv: entry
//                         also applies the column-order / max-block
//                         overrides its attack assumes.
//   --rhs=ones            b = A*ones (default; reports the true error)
//   --rhs=random          deterministic random right-hand side
//   --rowperm=mc64|mc21|bottleneck|none
//   --colorder=amd-apa|amd|rcm|nd|natural
//                         fill-reducing column order: amd-apa is AMD on
//                         A+Aᵀ (default), amd is AMD on AᵀA (the paper's)
//   --no-equil            skip DGEEQU equilibration
//   --no-mc64-scaling     keep the matching but drop the Dr/Dc scalings
//   --tiny=replace|fail|smw
//   --precision=double|single|mixed
//                         numeric compute precision: single factors and
//                         solves in float (refinement targets float eps);
//                         mixed factors in float but refines toward the
//                         double target, promoting to a double
//                         refactorization when refinement stalls above it
//   --max-block=N         supernode splitting width (default 24)
//   --relax=N             supernode amalgamation size (default 8)
//   --ferr                estimate the forward error bound (extra solves)
//   --rcond               estimate the reciprocal condition number
//   --recover             arm the graceful-degradation ladder (GESP ->
//                         aggressive SMW -> unscaled -> threshold ->
//                         panel-RRP -> GEPP) and print the recovery trail
//   --threads=N           shared-memory factorization threads (default 1;
//                         > 1 is a usage error under --backend=serial)
//   --backend=serial|threaded|dist
//                         execution engine; every other flag (--recover,
//                         --repeat, --tiny, ...) means the same thing on
//                         each backend and the exit codes match
//   --repeat=N            call solve() N times on the same system; the
//                         report then shows per-call AND cumulative phase
//                         times (they differ: factorization is amortized)
//   --delta[=FRAC]        after the initial solve, run --repeat transient
//                         steps: perturb a contiguous window of ~FRAC·n
//                         columns (default 0.05, values only) and
//                         refactorize through the delta router
//                         (noop/partial/full), printing the route and
//                         per-step cost (in-process backends only)
//   --dist=P              shorthand for --backend=dist with P simulated
//                         MiniMPI ranks (near-square grid); comm spans and
//                         dist.* counters land in the trace
//   --grid=RxC            explicit process grid for the dist backend
//   --no-pipeline         dist backend: strict per-K schedule (no
//                         look-ahead) instead of the pipelined default
//   --no-edag             dist backend: broadcast panels to every process
//                         row/column instead of EDAG-pruned destinations
//   --trace=FILE          write a chrome://tracing JSON capture of the run
//   --metrics-json=FILE   write the metrics registry as JSON; if FILE is
//                         the same as --trace, metrics embed in the trace
//                         object under a top-level "metrics" key
//   --list                print the testbed inventory and exit
//   --help, -h            print the usage to stdout and exit 0
//
// Exit codes map the library's failure categories so scripts can react
// without parsing stderr:
//   0 solved (static path, or recovered via a portfolio rung)
//   2 usage error   3 invalid argument
//   4 io error      5 structurally singular  6 numerically singular
//   7 unstable (incl. --recover runs whose final answer missed the policy
//     thresholds — the report prints the best-effort trail either way)
//   8 transport fault (comm)  9 internal error
//   10 overloaded (serving layer shed the request)
//   11 recovered, but only by falling all the way to the GEPP rung — the
//      answer is good, the static portfolio was defeated
//   12 solved, but --precision=mixed promoted to a double refactorization —
//      the answer meets the double target, the float factors did not hold
//   70 unexpected non-library exception
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "core/solver.hpp"
#include "dist/dist_solver.hpp"
#include "dist/grid.hpp"
#include "dist/minimpi.hpp"
#include "io/harwell_boeing.hpp"
#include "io/matrix_market.hpp"
#include "sparse/generators.hpp"
#include "sparse/ops.hpp"
#include "sparse/testbed.hpp"
#include "symbolic/symbolic.hpp"

namespace {

using namespace gesp;

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: gesp_solve MATRIX [--rhs=ones|random] "
               "[--rowperm=mc64|mc21|bottleneck|none]\n"
               "       [--colorder=amd-apa(default)|amd|rcm|nd|natural] "
               "[--no-equil] [--no-mc64-scaling]\n"
               "       [--tiny=replace|fail|smw] "
               "[--precision=double|single|mixed] [--max-block=N] "
               "[--relax=N] [--ferr] [--rcond] [--recover]\n"
               "       [--backend=serial|threaded|dist] [--threads=N] "
               "[--repeat=N] [--delta[=FRAC]] [--dist=P] [--grid=RxC]\n"
               "       [--no-pipeline] [--no-edag] "
               "[--trace=FILE] [--metrics-json=FILE] [--list] [--help]\n"
               "exit codes: 0 solved, 2 usage, 3 invalid argument, 4 io,\n"
               "            5/6 structurally/numerically singular, "
               "7 unstable/not recovered, 8 comm, 9 internal,\n"
               "            10 overloaded (serve layer shed the request),\n"
               "            11 recovered only by the GEPP fallback rung,\n"
               "            12 mixed precision promoted to double\n");
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "error: %s\n\n", msg);
  print_usage(stderr);
  std::exit(2);
}

/// Distinct exit code per failure category (documented in usage()).
int exit_code_for(Errc c) {
  switch (c) {
    case Errc::invalid_argument:
      return 3;
    case Errc::io:
      return 4;
    case Errc::structurally_singular:
      return 5;
    case Errc::numerically_singular:
      return 6;
    case Errc::unstable:
      return 7;
    case Errc::comm:
      return 8;
    case Errc::overloaded:
      return 10;
    case Errc::internal:
      return 9;
  }
  return 9;
}

/// Load MATRIX. An adv: entry also applies the symbolic frame its attack
/// assumes (natural column order / max_block) onto `opt` — the gadgets are
/// placed for a specific supernode partition.
sparse::CscMatrix<double> load_matrix(const std::string& path,
                                      SolverOptions& opt) {
  const std::string prefix = "testbed:";
  if (path.rfind(prefix, 0) == 0)
    return sparse::testbed_entry(path.substr(prefix.size())).make();
  const std::string adv = "adv:";
  if (path.rfind(adv, 0) == 0) {
    const auto& e = sparse::adversarial_entry(path.substr(adv.size()));
    if (e.natural_order) opt.col_order = ColOrderOption::natural;
    if (e.max_block > 0) opt.symbolic.max_block = e.max_block;
    return e.make();
  }
  if (path.size() > 4 && path.substr(path.size() - 4) == ".mtx")
    return io::read_matrix_market(path);
  // Try Harwell-Boeing, then MatrixMarket.
  try {
    return io::read_harwell_boeing(path);
  } catch (const Error&) {
    return io::read_matrix_market(path);
  }
}

const char* value_of(const char* arg, const char* key) {
  const std::size_t len = std::strlen(key);
  if (std::strncmp(arg, key, len) == 0 && arg[len] == '=') return arg + len + 1;
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string rhs_mode = "ones";
  std::string trace_path, metrics_path;
  int repeat = 1;
  int dist_p = 0;
  double delta_frac = 0.0;
  SolverOptions opt;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      print_usage(stdout);
      return 0;
    } else if (std::strcmp(a, "--list") == 0) {
      for (const auto& e : sparse::testbed())
        std::printf("%-14s %s\n", e.name.c_str(), e.discipline.c_str());
      for (const auto& e : sparse::adversarial_testbed())
        std::printf("adv:%-18s expects %-9s %s\n", e.name.c_str(),
                    e.expect_rung.c_str(), e.attack.c_str());
      return 0;
    } else if (std::strcmp(a, "--no-equil") == 0) {
      opt.equilibrate = false;
    } else if (std::strcmp(a, "--no-mc64-scaling") == 0) {
      opt.mc64_scaling = false;
    } else if (std::strcmp(a, "--ferr") == 0) {
      opt.estimate_ferr = true;
    } else if (std::strcmp(a, "--rcond") == 0) {
      opt.estimate_rcond = true;
    } else if (std::strcmp(a, "--recover") == 0) {
      opt.recovery.enabled = true;
    } else if (const char* v = value_of(a, "--rhs")) {
      rhs_mode = v;
    } else if (const char* v2 = value_of(a, "--rowperm")) {
      const std::string s = v2;
      if (s == "mc64")
        opt.row_perm = RowPermOption::mc64;
      else if (s == "mc21")
        opt.row_perm = RowPermOption::mc21;
      else if (s == "bottleneck")
        opt.row_perm = RowPermOption::bottleneck;
      else if (s == "none")
        opt.row_perm = RowPermOption::none;
      else
        usage("unknown --rowperm value");
    } else if (const char* v3 = value_of(a, "--colorder")) {
      const std::string s = v3;
      if (s == "amd")
        opt.col_order = ColOrderOption::amd_ata;
      else if (s == "amd-apa")
        opt.col_order = ColOrderOption::amd_aplusat;
      else if (s == "rcm")
        opt.col_order = ColOrderOption::rcm;
      else if (s == "nd")
        opt.col_order = ColOrderOption::nested_dissection;
      else if (s == "natural")
        opt.col_order = ColOrderOption::natural;
      else
        usage("unknown --colorder value");
    } else if (const char* v4 = value_of(a, "--tiny")) {
      const std::string s = v4;
      if (s == "replace")
        opt.tiny_pivot = TinyPivotOption::replace;
      else if (s == "fail")
        opt.tiny_pivot = TinyPivotOption::fail;
      else if (s == "smw")
        opt.tiny_pivot = TinyPivotOption::aggressive_smw;
      else
        usage("unknown --tiny value");
    } else if (const char* vp = value_of(a, "--precision")) {
      const std::string s = vp;
      if (s == "double")
        opt.precision = Precision::double_;
      else if (s == "single")
        opt.precision = Precision::single;
      else if (s == "mixed")
        opt.precision = Precision::mixed;
      else
        usage("unknown --precision value");
    } else if (const char* v5 = value_of(a, "--max-block")) {
      opt.symbolic.max_block = std::atoi(v5);
    } else if (const char* v6 = value_of(a, "--relax")) {
      opt.symbolic.relax = std::atoi(v6);
    } else if (const char* v7 = value_of(a, "--threads")) {
      opt.num_threads = std::atoi(v7);
      if (opt.num_threads < 1) usage("--threads must be >= 1");
    } else if (const char* v8 = value_of(a, "--repeat")) {
      repeat = std::atoi(v8);
      if (repeat < 1) usage("--repeat must be >= 1");
    } else if (std::strcmp(a, "--delta") == 0) {
      delta_frac = 0.05;
    } else if (const char* vd = value_of(a, "--delta")) {
      delta_frac = std::atof(vd);
      if (delta_frac <= 0.0 || delta_frac > 1.0)
        usage("--delta fraction must be in (0,1]");
    } else if (const char* v9 = value_of(a, "--dist")) {
      dist_p = std::atoi(v9);
      if (dist_p < 1) usage("--dist must be >= 1");
      opt.backend = Backend::dist;
      opt.dist.nprocs = dist_p;
    } else if (const char* vb = value_of(a, "--backend")) {
      const std::string s = vb;
      if (s == "serial")
        opt.backend = Backend::serial;
      else if (s == "threaded")
        opt.backend = Backend::threaded;
      else if (s == "dist")
        opt.backend = Backend::dist;
      else
        usage("unknown --backend value");
    } else if (const char* vg = value_of(a, "--grid")) {
      int pr = 0, pc = 0;
      if (std::sscanf(vg, "%dx%d", &pr, &pc) != 2 || pr < 1 || pc < 1)
        usage("--grid must be RxC with R,C >= 1");
      opt.backend = Backend::dist;
      opt.dist.pr = pr;
      opt.dist.pc = pc;
    } else if (std::strcmp(a, "--no-pipeline") == 0) {
      opt.dist.pipelined = false;
    } else if (std::strcmp(a, "--no-edag") == 0) {
      opt.dist.edag_pruning = false;
    } else if (const char* v10 = value_of(a, "--trace")) {
      trace_path = v10;
    } else if (const char* v11 = value_of(a, "--metrics-json")) {
      metrics_path = v11;
    } else if (a[0] == '-') {
      usage((std::string("unknown option ") + a).c_str());
    } else if (path.empty()) {
      path = a;
    } else {
      usage("more than one matrix argument");
    }
  }
  if (path.empty()) usage("no matrix given");
  if (opt.backend == Backend::dist && opt.precision != Precision::double_)
    usage("--precision=single|mixed is not available on the dist backend");
  if (opt.backend == Backend::dist && delta_frac > 0.0)
    usage("--delta is not available on the dist backend");
  if (opt.backend == Backend::serial && opt.num_threads > 1)
    usage("--threads > 1 needs --backend=threaded; the serial backend runs "
          "one thread");

  if (!trace_path.empty()) trace::start();

  try {
    Timer total;
    const auto A = load_matrix(path, opt);
    GESP_CHECK(A.nrows == A.ncols, Errc::invalid_argument,
               "matrix is not square");
    std::printf("matrix %s: n = %d, nnz = %lld\n", path.c_str(), A.ncols,
                static_cast<long long>(A.nnz()));

    const index_t n = A.ncols;
    std::vector<double> x_true(static_cast<std::size_t>(n), 1.0);
    std::vector<double> b(x_true.size()), x(x_true.size());
    bool know_truth = true;
    if (rhs_mode == "ones") {
      sparse::spmv<double>(A, x_true, b);
    } else if (rhs_mode == "random") {
      Rng rng(7);
      for (auto& v : b) v = rng.uniform(-1.0, 1.0);
      know_truth = false;
    } else {
      usage("unknown --rhs value");
    }

    SolveStats s;
    if (opt.backend == Backend::dist) {
      const dist::ProcessGrid grid = dist::grid_from(opt.dist);
      std::printf("backend     dist, %dx%d grid%s%s\n", grid.pr, grid.pc,
                  opt.dist.pipelined ? ", pipelined" : ", strict order",
                  opt.dist.edag_pruning ? "" : ", no EDAG pruning");
      if (opt.recovery.enabled) {
        // The one-shot wrapper owns the fallback-to-in-process ladder and
        // its recovery trail; each call spins its own world.
        for (int r = 0; r < repeat; ++r) {
          const auto xr = dist::solve<double>(A, b, opt, &s);
          std::copy(xr.begin(), xr.end(), x.begin());
        }
      } else {
        // One world, one factorization, `repeat` collective solves — the
        // same amortization --repeat shows on the in-process backends.
        minimpi::World world(grid.nprocs());
        long long msgs = 0, bytes = 0;
        const auto reports = world.run_report([&](minimpi::Comm& comm) {
          dist::DistSolver<double> solver(comm, A, opt);
          std::vector<double> xl(static_cast<std::size_t>(n));
          for (int r = 0; r < repeat; ++r) solver.solve(comm, b, xl);
          if (comm.rank() == 0) {
            std::copy(xl.begin(), xl.end(), x.begin());
            s = solver.stats();
          }
        });
        // Root-cause any rank failure: peers of a dead rank report
        // Errc::comm, so surface the non-comm code when one exists.
        Errc code = Errc::comm;
        std::string msg;
        bool failed = false;
        for (const auto& rep : reports) {
          if (!rep.failed()) continue;
          failed = true;
          if (msg.empty() ||
              (code == Errc::comm && rep.error_code() != Errc::comm)) {
            code = rep.error_code();
            msg = rep.error_message();
          }
        }
        if (failed) throw_error(code, "dist backend: " + msg);
        for (const auto& rep : reports) {
          msgs += static_cast<long long>(rep.stats.messages_sent);
          bytes += static_cast<long long>(rep.stats.bytes_sent);
        }
        std::printf("dist comm   %lld msgs, %lld bytes\n", msgs, bytes);
      }
    } else {
      Solver<double> solver(A, opt);
      for (int r = 0; r < repeat; ++r) solver.solve(b, x);
      if (delta_frac > 0.0) {
        // Transient drift: each of `repeat` steps perturbs one contiguous
        // window of ~delta_frac·n columns of the previous step's matrix
        // (values only — the pattern is fixed) and refactorizes through
        // the delta router, reporting which route absorbed the change.
        auto Ad = A;
        for (int step = 1; step <= repeat; ++step) {
          Ad = sparse::perturb_column_window(Ad, delta_frac, 0.2,
                                             9000 + step);
          if (know_truth) sparse::spmv<double>(Ad, x_true, b);
          const DeltaStats before = solver.stats().delta;
          Timer td;
          solver.refactorize_delta(Ad);
          const double refactor_s = td.seconds();
          solver.solve(b, x);
          const DeltaStats& d = solver.stats().delta;
          const char* route = d.partial > before.partial ? "partial"
                              : d.noop > before.noop       ? "noop"
                                                           : "full";
          std::printf("delta step %d: %s route, %lld changed entries, "
                      "%d/%d dirty supernodes, refactor %.3f s, berr %.3e\n",
                      step, route,
                      static_cast<long long>(d.changed_entries),
                      d.dirty_supernodes, solver.stats().nsup, refactor_s,
                      solver.stats().berr);
        }
      }
      s = solver.stats();
    }

    const bool recovered_ok =
        s.recovery.attempts.empty() || s.recovery.recovered;
    std::printf("status      %s in %.3f s total\n",
                recovered_ok ? "solved" : "NOT RECOVERED (best effort)",
                total.seconds());
    if (know_truth)
      std::printf("error       %.3e (vs known solution)\n",
                  sparse::relative_error_inf<double>(x_true, x));
    std::printf("berr        %.3e after %d refinement steps\n", s.berr,
                s.refine_iterations);
    if (opt.precision != Precision::double_)
      std::printf("precision   %s requested; factors %s, %lld promotion%s\n",
                  precision_name(opt.precision),
                  precision_name(s.factor_precision),
                  static_cast<long long>(s.promotions),
                  s.promotions == 1 ? "" : "s");
    if (s.ferr >= 0) std::printf("ferr bound  %.3e\n", s.ferr);
    if (s.rcond >= 0) std::printf("rcond       %.3e\n", s.rcond);
    std::printf("factors     nnz(L+U) = %lld (fill %.1fx), %d supernodes\n",
                static_cast<long long>(s.nnz_l + s.nnz_u - n),
                static_cast<double>(s.nnz_l + s.nnz_u - n) /
                    static_cast<double>(A.nnz()),
                s.nsup);
    std::printf("pivoting    growth %.2e, %lld tiny pivots replaced\n",
                s.pivot_growth, static_cast<long long>(s.pivots_replaced));
    for (const auto& att : s.recovery.attempts)
      std::printf("recovery    rung %-14s %s%s%s\n",
                  recovery_rung_name(att.rung),
                  att.success ? "ok" : "failed",
                  att.detail.empty() ? "" : ": ", att.detail.c_str());
    if (!s.recovery.attempts.empty())
      std::printf("recovery    final rung %s (%s)\n",
                  recovery_rung_name(s.recovery.final_rung),
                  s.recovery.recovered ? "recovered" : "NOT recovered");
    // Which ladder rung actually produced x. With the ladder off (or never
    // triggered) that is the configured GESP pipeline itself.
    const RecoveryRung produced = s.recovery.attempts.empty()
                                      ? RecoveryRung::gesp
                                      : s.recovery.final_rung;
    std::printf("produced by rung %s\n", recovery_rung_name(produced));
    // Readable --metrics-json key for the same fact: exactly one
    // solver.produced_by.* gauge is 1 (the numeric twin is the
    // solver.recovery_final_rung gauge the solver itself exports).
    metrics::global()
        .gauge(std::string("solver.produced_by.") +
               recovery_rung_name(produced))
        .set(1.0);
    std::printf("flops       %.3f Gflop (%.1f Mflop/s in factorization)\n",
                static_cast<double>(s.flops) / 1e9,
                s.times.get("factor") > 0
                    ? static_cast<double>(s.flops) / s.times.get("factor") /
                          1e6
                    : 0.0);
    // Wall latency vs phase times: solve_wall_seconds wraps the whole last
    // solve() call, so it is >= the sum of that call's phase entries below
    // (see SolveStats); the same number lands in --metrics-json as the
    // "solver.solve_wall_seconds" gauge.
    if (s.solve_calls > 0)
      std::printf("latency     %.3f ms wall (last solve call; %.3f ms mean "
                  "over %lld calls)\n",
                  s.solve_wall_seconds * 1e3,
                  s.solve_wall_total_seconds * 1e3 /
                      static_cast<double>(s.solve_calls),
                  static_cast<long long>(s.solve_calls));
    std::printf("phases      ");
    for (const auto& [phase, t] : s.times.all())
      std::printf("%s %.3fs  ", phase.c_str(), t);
    std::printf("%s\n", repeat > 1 ? "(last call)" : "");
    if (repeat > 1) {
      std::printf("phases all  ");
      for (const auto& [phase, t] : s.times.all_totals())
        std::printf("%s %.3fs  ", phase.c_str(), t);
      std::printf("(cumulative over %d calls)\n", repeat);
    }

    if (!trace_path.empty()) {
      trace::stop();
      // Same file for both flags → one combined JSON object; Chrome's
      // viewer ignores the extra top-level "metrics" member.
      std::string extra;
      if (metrics_path == trace_path)
        extra = "\"metrics\":" + metrics::global().to_json();
      trace::write_chrome_json(trace_path, extra);
      std::fprintf(stderr, "trace       %zu events -> %s\n",
                   trace::event_count(), trace_path.c_str());
    }
    if (!metrics_path.empty() && metrics_path != trace_path) {
      const std::string json = metrics::global().to_json();
      std::FILE* f = std::fopen(metrics_path.c_str(), "w");
      GESP_CHECK(f != nullptr, Errc::io,
                 "cannot open metrics file " + metrics_path);
      std::fwrite(json.data(), 1, json.size(), f);
      GESP_CHECK(std::fclose(f) == 0, Errc::io,
                 "short write to metrics file " + metrics_path);
    }
    // A --recover run that exhausted the ladder still printed its best
    // effort above, but scripts must see the failure category. A run the
    // pivoting portfolio could not hold — only the GEPP fallback converged
    // — is a correct answer but a defeated static pipeline, and gets its
    // own code so harnesses can count portfolio rescues vs falls.
    // Same idea one layer up: a --precision=mixed run whose float factors
    // could not carry refinement to the double target promoted — a correct
    // answer, but harnesses counting "did single hold" need to know.
    if (!recovered_ok) return 7;
    if (!s.recovery.attempts.empty() &&
        s.recovery.final_rung == RecoveryRung::gepp)
      return 11;
    if (s.promotions > 0) return 12;
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "gesp_solve: %s\n", e.what());
    return exit_code_for(e.code());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gesp_solve: unexpected: %s\n", e.what());
    return 70;
  }
}
