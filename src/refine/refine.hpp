// Iterative refinement — GESP step (4).
//
// Refinement both recovers the accuracy lost to static pivoting and undoes
// the sqrt(eps) tiny-pivot perturbations of step (3). The termination rule
// is the paper's: stop when the componentwise backward error `berr` drops
// to machine epsilon, or when it fails to halve between iterations
// (stagnation guard), or after max_iters.
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "common/trace.hpp"
#include "common/types.hpp"
#include "sparse/csc.hpp"
#include "sparse/ops.hpp"

namespace gesp::refine {

/// Stagnation guard: refinement keeps iterating only while
/// berr <= kStallRatio·prev — the paper's "fails to halve" rule.
inline constexpr double kStallRatio = 0.5;

struct RefineOptions {
  int max_iters = 10;
  /// Use the compensated (twice-working-precision) residual — the paper's
  /// "extra precision" enhancement.
  bool compensated_residual = false;
  /// Stop once berr <= this (default: double machine epsilon). The mixed-
  /// precision driver sets it explicitly per precision — the double target
  /// when refining a single-precision factorization toward full accuracy,
  /// float epsilon when the solve stays entirely in single.
  double target_berr = std::numeric_limits<double>::epsilon();
};

struct RefineResult {
  int iterations = 0;          ///< refinement steps actually applied
  double final_berr = 0.0;     ///< componentwise backward error at exit
  bool converged = false;      ///< final_berr <= target
  std::vector<double> berr_history;  ///< berr after each step (incl. initial)
};

/// Refine x (in place) toward the solution of A·x = b. `solver` must apply
/// an approximate A^{-1} in place on a correction vector (e.g. the LU
/// solve, possibly SMW-corrected). A and b live in the same (permuted,
/// scaled) space as x.
template <class T, class SolveFn>
RefineResult iterative_refinement(const sparse::CscMatrix<T>& A,
                                  std::span<const T> b, std::span<T> x,
                                  SolveFn&& solver,
                                  const RefineOptions& opt = {}) {
  RefineResult res;
  const std::size_t n = x.size();
  std::vector<T> r(n), dx(n);

  auto compute_berr = [&]() {
    if (opt.compensated_residual)
      sparse::residual_compensated<T>(A, x, b, r);
    else
      sparse::residual<T>(A, x, b, r);
    return static_cast<double>(
        sparse::componentwise_backward_error<T>(A, x, b, r));
  };

  double berr = compute_berr();
  res.berr_history.push_back(berr);
  trace::instant_value("refine", "berr", berr, res.iterations);
  double prev = std::numeric_limits<double>::infinity();
  while (res.iterations < opt.max_iters && berr > opt.target_berr &&
         berr <= prev * kStallRatio) {
    prev = berr;
    std::copy(r.begin(), r.end(), dx.begin());
    solver(std::span<T>(dx));  // dx ~= A^{-1} r
    for (std::size_t i = 0; i < n; ++i) x[i] += dx[i];
    ++res.iterations;
    berr = compute_berr();
    res.berr_history.push_back(berr);
    trace::instant_value("refine", "berr", berr, res.iterations);
  }
  res.final_berr = berr;
  res.converged = berr <= opt.target_berr;
  return res;
}

}  // namespace gesp::refine
