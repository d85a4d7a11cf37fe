// bench_delta — full vs delta refactorization on transient workloads.
//
// The scenario of INTERNALS §17: a fixed-pattern matrix drifts a small
// fraction of its columns per time step (device stamps in a circuit
// transient). Each step is refactorized twice from the same predecessor
// state — once with refactorize() (full) and once with
// refactorize_delta() (noop/partial/full routing) — and the wall times are
// compared. Matrices are the TWOTONE/circuit class the delta path targets,
// plus a device-class contrast; changed-column fractions sweep 1%, 5%, 25%.
//
// After every step (outside the timed region) the two solvers' L and U
// stores must be byte-equal: every delta route is a full refactorization.
// A mismatch is reported and the run exits 1.
//
// --quick shrinks the matrices and the step count for CI smoke runs.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "core/solver.hpp"
#include "sparse/generators.hpp"

namespace {

using namespace gesp;

struct Case {
  std::string name;
  std::function<sparse::CscMatrix<double>()> make;
};

struct Row {
  std::string matrix;
  std::string model;      ///< "window" (localized) or "scattered"
  index_t n = 0;
  count_t nnz = 0;
  double full_ms = 0;     ///< mean refactorize() wall per step
  double delta_ms = 0;    ///< mean refactorize_delta() wall per step
  double speedup = 0;     ///< full / delta
  double dirty_frac = 0;  ///< mean closed dirty set / nsup (partial steps)
  count_t partial = 0, full_route = 0;  ///< route counts
};

/// The two drift shapes: a contiguous column window (localized switching
/// activity — the delta path's target workload) and uniformly scattered
/// columns (worst case for the upward closure: changes everywhere reach
/// owners everywhere).
sparse::CscMatrix<double> drift(const sparse::CscMatrix<double>& A,
                                const std::string& model, double frac,
                                std::uint64_t seed) {
  return model == "window"
             ? sparse::perturb_column_window(A, frac, 0.2, seed)
             : sparse::perturb_columns(A, frac, 0.2, seed);
}

/// Byte equality of the two solvers' L and U stores, supernode by
/// supernode.
bool same_factors(const Solver<double>& a, const Solver<double>& b) {
  const auto same = [](const std::vector<double>& x,
                       const std::vector<double>& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
  };
  const numeric::LUFactors<double>& fa = a.factors();
  const numeric::LUFactors<double>& fb = b.factors();
  for (index_t K = 0; K < a.stats().nsup; ++K)
    if (!same(fa.l_store(K), fb.l_store(K)) ||
        !same(fa.u_store(K), fb.u_store(K)))
      return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  const index_t scale = quick ? 1 : 2;
  const int steps = quick ? 3 : 5;

  std::vector<Case> cases;
  // Full-size mode scales the instance (n), not the class parameters:
  // hub count and degree stay fixed so the large run is a bigger circuit,
  // not a denser one (hubs are dense rows that land in every closure).
  cases.push_back({"circuit", [scale] {
                     return sparse::circuit_like(20000 * scale, 10, 30, 7);
                   }});
  cases.push_back({"circuit-vsrc", [scale] {
                     // TWOTONE's defining feature: voltage-source rows with
                     // no diagonal entry, forcing a nontrivial row match.
                     return sparse::with_zero_diagonal(
                         sparse::circuit_like(15000 * scale, 8, 30, 13),
                         0.1, 17);
                   }});
  cases.push_back({"device", [scale] {
                     return sparse::device_like(600 * scale, 24, 6, 11);
                   }});
  const double fracs[] = {0.01, 0.05, 0.25};
  const char* models[] = {"window", "scattered"};

  int mismatches = 0;
  std::printf("%-14s %-10s %6s %9s %6s %10s %10s %8s %7s %12s\n", "matrix",
              "model", "n", "nnz", "frac", "full ms", "delta ms", "speedup",
              "dirty", "routes p/f");
  for (const auto& c : cases) {
    const auto A0 = c.make();
    for (const char* model : models) {
      for (const double frac : fracs) {
        Row r;
        r.matrix = c.name;
        r.model = model;
        r.n = A0.ncols;
        r.nnz = A0.nnz();
        // Two solvers with identical analyses walk the same drift sequence;
        // only the refactorization routine differs.
        Solver<double> full(A0, {});
        Solver<double> delta(A0, {});
        auto A = A0;
        double dirty_sum = 0;
        int dirty_steps = 0;
        for (int s = 1; s <= steps; ++s) {
          A = drift(A, model, frac,
                    1000 * static_cast<std::uint64_t>(frac * 100) + s);
          Timer t;
          full.refactorize(A);
          r.full_ms += t.seconds() * 1e3;
          const DeltaStats before = delta.stats().delta;
          t.reset();
          delta.refactorize_delta(A);
          r.delta_ms += t.seconds() * 1e3;
          if (!same_factors(full, delta)) {
            std::fprintf(stderr,
                         "bench_delta: %s %s %.0f%% step %d: delta factors "
                         "differ from the full refactorization\n",
                         c.name.c_str(), model, frac * 100, s);
            ++mismatches;
          }
          const DeltaStats& d = delta.stats().delta;
          r.partial += d.partial - before.partial;
          r.full_route += d.full - before.full;
          if (d.partial > before.partial) {
            dirty_sum += static_cast<double>(d.dirty_supernodes) /
                         static_cast<double>(delta.stats().nsup);
            ++dirty_steps;
          }
        }
        r.full_ms /= steps;
        r.delta_ms /= steps;
        r.speedup = r.delta_ms > 0 ? r.full_ms / r.delta_ms : 0;
        r.dirty_frac = dirty_steps > 0 ? dirty_sum / dirty_steps : 0;
        std::printf("%-14s %-10s %6d %9lld %5.0f%% %10.2f %10.2f %7.2fx "
                    "%6.1f%% %9lld/%lld\n",
                    r.matrix.c_str(), r.model.c_str(), r.n,
                    static_cast<long long>(r.nnz), frac * 100, r.full_ms,
                    r.delta_ms, r.speedup, r.dirty_frac * 100,
                    static_cast<long long>(r.partial),
                    static_cast<long long>(r.full_route));
      }
    }
  }

  return mismatches > 0 ? 1 : 0;
}
