// The distributed GESP driver — Backend::dist behind the same surface as
// core::Solver.
//
// DistSolver runs the full Figure 1 pipeline on a 2-D process grid:
// steps (1)-(2) (equilibrate → row perm → column order) execute replicated
// on every rank via core::build_analysis (they are cheap, deterministic,
// and need the whole matrix anyway — the paper parallelizes only the
// numeric factorization and solves), step (3) is the pipelined
// DistributedLU factorization, and step (4) is iterative refinement over
// block-cyclic distributed vectors: distributed triangular solves feed a
// distributed SpMV/berr evaluation, so no full-length vector is formed
// until the final gather.
//
// Construct one DistSolver per rank inside minimpi::World::run; every
// public method is collective. stats() is fully populated on every rank
// (the scalar reductions are broadcast) so any rank can report.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/solver.hpp"
#include "dist/dist_lu.hpp"
#include "dist/grid.hpp"
#include "dist/minimpi.hpp"
#include "sparse/csc.hpp"

namespace gesp::dist {

/// Throw the root cause of a failed World::run_report as
/// Error(code, "dist backend: <message>"): a rank that died poisons its
/// peers with Errc::comm, so the first non-comm failure wins. Returns when
/// every rank finished.
void throw_root_cause(const std::vector<minimpi::RankReport>& reports);

/// Grid shape for the backend options: explicit pr×pc when both are set,
/// else the paper's near-square layout for nprocs.
ProcessGrid grid_from(const DistBackendOptions& opt);

/// Map the unified options onto the dist layer's factorization knobs —
/// in particular the GESP tiny-pivot rule sqrt(eps)·||Â|| with the norm
/// pinned in `an` (as core::Solver uses it), which the raw DistOptions
/// default (0.0 == fail on zero pivots) silently diverged from.
template <class T>
DistOptions make_dist_options(const SolverOptions& opt, const Analysis<T>& an);

template <class T>
class DistSolver {
 public:
  /// Collective: analysis + factorization (steps (1)-(3)).
  DistSolver(minimpi::Comm& comm, const sparse::CscMatrix<T>& A,
             const SolverOptions& opt = {});

  index_t n() const { return n_; }
  const SolverOptions& options() const { return opt_; }
  /// Identical on every rank after each collective call (reductions are
  /// broadcast back), so rank 0 — or any rank — can report.
  const SolveStats& stats() const { return stats_; }

  /// Collective solve of A·x = b with distributed refinement; b and x are
  /// replicated full-length vectors on every rank.
  void solve(minimpi::Comm& comm, std::span<const T> b, std::span<T> x);

  /// Multiple right-hand sides, column-major n-by-nrhs.
  void solve_multi(minimpi::Comm& comm, std::span<const T> B, std::span<T> X,
                   index_t nrhs);

  /// Collective re-factorization for same-pattern new values, reusing the
  /// transforms and symbolic structure (the paper's repeated-solve
  /// amortization). Throws Errc::invalid_argument on a pattern() mismatch,
  /// as core::Solver::refactorize does.
  void refactorize(minimpi::Comm& comm, const sparse::CscMatrix<T>& A_new);

  const DistributedLU<T>& lu() const { return *lu_; }
  const ProcessGrid& grid() const { return grid_; }

 private:
  using BlockVector = typename DistributedLU<T>::BlockVector;

  void reduce_factor_stats(minimpi::Comm& comm);
  /// One distributed residual + berr evaluation over my rows (diag-block
  /// ownership): exchanges the needed x̂ slices, fills rb = b̂ - Â·x̂, and
  /// returns the componentwise backward error reduced across ranks and
  /// broadcast — every rank gets the same value, so the refinement loop's
  /// control flow stays collective.
  double compute_berr_dist(minimpi::Comm& comm, const BlockVector& xb,
                           const BlockVector& bb, BlockVector& rb) const;
  /// Exchange the x̂ slices my rows' SpMV needs; xfull[J] is non-empty
  /// for every block column J appearing in my rows.
  void exchange_x(minimpi::Comm& comm, const BlockVector& xb,
                  BlockVector& xfull) const;

  SolverOptions opt_;
  SolveStats stats_;
  /// stats_'s gauges in metrics::global(), resolved at rank 0's first solve.
  std::unique_ptr<StatsGauges> gauges_;
  index_t n_ = 0;
  ProcessGrid grid_;
  int myrow_ = 0, mycol_ = 0;
  std::shared_ptr<const Analysis<T>> an_;  ///< every static decision
  sparse::CscMatrix<T> At_;  ///< Â at the values last factored (replicated)
  std::unique_ptr<DistributedLU<T>> lu_;
  /// SpMV exchange plan: needers_[J] = ranks whose rows touch block
  /// column J (pattern-static, refactorize-safe — values are re-read from
  /// At_ on every use).
  std::vector<std::vector<int>> needers_;
};

/// One-shot convenience wrapper mirroring gesp::solve: spins up a MiniMPI
/// world of opt.dist ranks, runs the collective pipeline, and returns the
/// rank-0 solution. With opt.recovery.enabled, a failed or out-of-policy
/// distributed solve falls back to the in-process ladder (the attempt is
/// recorded in stats_out->recovery).
template <class T>
std::vector<T> solve(const sparse::CscMatrix<T>& A, std::span<const T> b,
                     const SolverOptions& opt = {},
                     SolveStats* stats_out = nullptr);

extern template class DistSolver<double>;
extern template class DistSolver<Complex>;
extern template DistOptions make_dist_options(const SolverOptions&,
                                              const Analysis<double>&);
extern template DistOptions make_dist_options(const SolverOptions&,
                                              const Analysis<Complex>&);
extern template std::vector<double> solve(const sparse::CscMatrix<double>&,
                                          std::span<const double>,
                                          const SolverOptions&, SolveStats*);
extern template std::vector<Complex> solve(const sparse::CscMatrix<Complex>&,
                                           std::span<const Complex>,
                                           const SolverOptions&, SolveStats*);

}  // namespace gesp::dist
