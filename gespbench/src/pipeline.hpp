// The GESP pipeline decomposed into its public layer entry points, each call
// wrapped in a span. It makes the same calls with the same options that
// Solver<double> makes for a default configuration (no recovery ladder,
// double precision, no tuning), so its factors — and therefore its berr —
// match a Solver's bit for bit; what it leaves out is the Solver glue, which
// the traced run reports as core.unaccounted_frac.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/solver.hpp"
#include "numeric/lu_factors.hpp"
#include "spans.hpp"

namespace gespbench {

using Matrix = gesp::sparse::CscMatrix<double>;

enum class Route { noop, partial, full };

struct SolveOutcome {
  double berr = 0.0;
  int iterations = 0;
};

class Pipeline {
 public:
  /// compute_transform ("core.transform", with sparse.equilibrate /
  /// matching / ordering children), symbolic::analyze ("symbolic") and the
  /// LUFactors constructor ("numeric").
  Pipeline(const Matrix& A, const gesp::SolverOptions& opt, Tracer& tracer);

  /// Solver::refactorize_delta's routing without its SMW route: diff the
  /// transformed values ("core.delta"), re-eliminate the closed dirty set
  /// with LUFactors::refactorize_partial, or refactor in full past
  /// delta.max_dirty_fraction ("numeric" either way).
  Route refactorize_delta(const Matrix& A_new);

  /// LUFactors::solve ("refine.solve") + refine::iterative_refinement,
  /// inside one "refine" span that also holds the right-hand side and
  /// solution transforms.
  SolveOutcome solve(std::span<const double> b, std::span<double> x);

  const gesp::symbolic::SymbolicLU& sym() const { return *sym_; }
  /// Seconds of the last full numeric factorization (LUFactors constructor).
  double last_full_numeric_s() const { return last_full_s_; }

 private:
  void factor_full();

  gesp::SolverOptions opt_;
  Tracer& tracer_;
  gesp::TransformResult<double> tr_;
  gesp::numeric::NumericOptions nopt_;
  std::shared_ptr<const gesp::symbolic::SymbolicLU> sym_;
  std::unique_ptr<gesp::numeric::LUFactors<double>> factors_;
  double last_full_s_ = 0.0;
};

/// Symbolic work count: Σ_K |L[K]|·|U[K]| block update pairs.
long long update_pairs(const gesp::symbolic::SymbolicLU& S);

/// Numeric options as Solver<double> derives them for `opt` (default
/// configuration) and a transformed matrix of max-norm `at_norm`.
gesp::numeric::NumericOptions numeric_options(const gesp::SolverOptions& opt,
                                              double at_norm);

}  // namespace gespbench
