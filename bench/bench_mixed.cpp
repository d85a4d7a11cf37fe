// bench_mixed — the mixed-precision performance table behind INTERNALS §16:
//
//   * kernel sweep: float vs double tiled GEMM throughput (GF/s) at the
//     paper's block sizes — the raw lane advantage of the 16×6 microtile;
//   * end-to-end sweep: --precision=mixed vs double over the testbed,
//     comparing factor+solve+refine time, final berr, and whether the
//     float factorization held or promotion fired.
//
// Honors the shared --quick / --matrices= subsetting flags.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/solver.hpp"
#include "dense/kernels.hpp"
#include "sparse/ops.hpp"
#include "sparse/testbed.hpp"

namespace {

using namespace gesp;

template <class T>
std::vector<T> random_block(index_t rows, index_t cols, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> v(static_cast<std::size_t>(rows) * cols);
  for (auto& x : v) x = static_cast<T>(rng.uniform(-1.0, 1.0));
  return v;
}

/// GF/s of the tiled gemm_minus at block size b (m=4b, k=b, n=2b — the
/// trailing-update shape BM_GemmMinus uses). Self-calibrating repeat count.
template <class T>
double gemm_gflops(index_t b) {
  const index_t m = 4 * b, c = 2 * b;
  const auto A = random_block<T>(m, b, 1);
  const auto B = random_block<T>(b, c, 2);
  auto C = random_block<T>(m, c, 3);
  const double flops_per_call =
      2.0 * static_cast<double>(m) * static_cast<double>(b) *
      static_cast<double>(c);
  // Warm up (page in the pack buffers), then time enough calls to fill
  // ~50 ms so the measurement dwarfs timer noise. Best of three windows:
  // a single window is at the mercy of whatever else the machine runs.
  dense::gemm_minus(m, c, b, A.data(), m, B.data(), b, C.data(), m);
  double best = 0.0;
  for (int window = 0; window < 3; ++window) {
    long calls = 0;
    Timer t;
    do {
      for (int i = 0; i < 64; ++i)
        dense::gemm_minus(m, c, b, A.data(), m, B.data(), b, C.data(), m);
      calls += 64;
    } while (t.seconds() < 0.05);
    best = std::max(
        best, flops_per_call * static_cast<double>(calls) / t.seconds() / 1e9);
  }
  return best;
}

/// One timed GESP run: construction (analysis+factor) + solve. Returns the
/// factor+solve+refine time (the phases precision changes) plus berr and
/// promotion count via the stats. Fast solves repeat and keep the minimum
/// so the table isn't at the mercy of scheduler noise.
double timed_solve(const sparse::CscMatrix<double>& A,
                   const SolverOptions& opt, SolveStats& s) {
  const auto n = static_cast<std::size_t>(A.ncols);
  std::vector<double> ones(n, 1.0), b(n), x(n);
  sparse::spmv<double>(A, ones, b);
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    Solver<double> solver(A, opt);
    solver.solve(b, x);
    s = solver.stats();
    const double t = s.times.total("factor") + s.times.total("solve") +
                     s.times.total("residual") + s.times.total("refine");
    best = rep == 0 ? t : std::min(best, t);
    if (t > 1.0) break;  // slow enough to trust a single run
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  // ---- kernel sweep -------------------------------------------------------
  const index_t blocks[] = {8, 16, 24, 32, 48};
  std::printf("%-6s %14s %14s %8s\n", "b", "double GF/s", "float GF/s",
              "ratio");
  for (index_t b : blocks) {
    const double gd = gemm_gflops<double>(b);
    const double gf = gemm_gflops<float>(b);
    std::printf("%-6d %14.2f %14.2f %7.2fx\n", b, gd, gf, gf / gd);
  }

  // ---- end-to-end sweep ---------------------------------------------------
  std::printf("\n%-16s %12s %12s %8s %11s %11s %5s\n", "matrix",
              "double s", "mixed s", "speedup", "berr dbl", "berr mix",
              "promo");
  for (const auto& entry : gesp::bench::select_testbed(argc, argv)) {
    if (entry.expect_fail) continue;
    try {
      const auto A = entry.make();
      SolveStats sd, sm;
      const double t_double = timed_solve(A, {}, sd);
      SolverOptions om;
      om.precision = Precision::mixed;
      const double t_mixed = timed_solve(A, om, sm);
      std::printf("%-16s %12.4f %12.4f %7.2fx %11.2e %11.2e %5lld\n",
                  entry.name.c_str(), t_double, t_mixed,
                  t_mixed > 0 ? t_double / t_mixed : 0.0, sd.berr, sm.berr,
                  static_cast<long long>(sm.promotions));
    } catch (const Error& e) {
      std::printf("%-16s FAILED: %s\n", entry.name.c_str(), e.what());
    }
  }
  return 0;
}
