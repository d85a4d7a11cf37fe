#include "dist/dist_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <utility>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "sparse/ops.hpp"

namespace gesp::dist {
namespace {

// DistSolver tag space, above everything DistributedLU uses (max 16N+3):
// the per-block-column SpMV exchange at [17N, 18N), scalar stat
// reductions/broadcasts at 19N+k.
int spmv_tag(index_t nsup, index_t J) {
  return static_cast<int>(nsup) * 17 + static_cast<int>(J);
}
int stat_tag(index_t nsup, int k) {
  return static_cast<int>(nsup) * 19 + k;
}

/// Reduce-to-root + broadcast so every rank returns the same scalar.
double allreduce_max(minimpi::Comm& comm, int base_tag, double v) {
  const double m = comm.reduce_max(0, base_tag, v);
  return comm.bcast<double>(0, base_tag + 1, {m})[0];
}
double allreduce_sum(minimpi::Comm& comm, int base_tag, double v) {
  const double s = comm.reduce_sum(0, base_tag, v);
  return comm.bcast<double>(0, base_tag + 1, {s})[0];
}

}  // namespace

void throw_root_cause(const std::vector<minimpi::RankReport>& reports) {
  const minimpi::RankReport* cause = nullptr;
  for (const auto& r : reports)
    if (r.failed() && (!cause || (cause->error_code() == Errc::comm &&
                                  r.error_code() != Errc::comm)))
      cause = &r;
  if (cause)
    throw_error(cause->error_code(),
                "dist backend: " + cause->error_message());
}

ProcessGrid grid_from(const DistBackendOptions& opt) {
  if (opt.pr > 0 && opt.pc > 0) return ProcessGrid{opt.pr, opt.pc};
  return ProcessGrid::near_square(opt.nprocs);
}

template <class T>
DistOptions make_dist_options(const SolverOptions& opt, const Analysis<T>& an) {
  DistOptions d;
  d.edag_pruning = opt.dist.edag_pruning;
  d.pipelined = opt.dist.pipelined;
  // The unified GESP tiny-pivot rule: replace pivots below sqrt(eps)·||Â||
  // unless the user asked for GENP-style failure. (The raw DistOptions
  // default of 0.0 silently meant "fail", diverging from the single-node
  // TinyPivotOption::replace default.)
  d.tiny_threshold = an.tiny_threshold(opt.tiny_pivot, false);
  return d;
}

template <class T>
DistSolver<T>::DistSolver(minimpi::Comm& comm, const sparse::CscMatrix<T>& A,
                          const SolverOptions& opt)
    : opt_(opt) {
  GESP_CHECK(A.nrows == A.ncols, Errc::invalid_argument,
             "GESP needs a square matrix");
  opt_.backend = Backend::dist;  // whatever backend the caller named
  validate<T>(opt_);
  n_ = A.ncols;
  grid_ = grid_from(opt_.dist);
  GESP_CHECK(grid_.nprocs() == comm.size(), Errc::invalid_argument,
             "process grid does not match communicator size");
  myrow_ = grid_.rank_row(comm.rank());
  mycol_ = grid_.rank_col(comm.rank());

  // Steps (1)-(2) and the symbolic analysis replicated on every rank:
  // cheap, deterministic, and the full matrix is available anyway.
  std::tie(an_, At_) = build_analysis(A, opt_, &stats_.times);
  const symbolic::SymbolicLU& S = *an_->sym;
  stats_.record_structure(S);

  // SpMV exchange plan (pattern-only, so refactorize can reuse it): block
  // column J is needed by every rank whose rows its entries touch.
  const index_t N = S.nsup;
  needers_.assign(static_cast<std::size_t>(N), {});
  {
    std::vector<unsigned char> mark(static_cast<std::size_t>(grid_.nprocs()));
    for (index_t J = 0; J < N; ++J) {
      std::fill(mark.begin(), mark.end(), 0);
      for (index_t j = S.sn_start[J]; j < S.sn_start[J + 1]; ++j)
        for (index_t p = At_.colptr[j]; p < At_.colptr[j + 1]; ++p) {
          const index_t M = S.col_to_sn[At_.rowind[p]];
          mark[static_cast<std::size_t>(grid_.owner(M, M))] = 1;
        }
      for (int r = 0; r < grid_.nprocs(); ++r)
        if (mark[static_cast<std::size_t>(r)]) needers_[J].push_back(r);
    }
  }

  Timer t;
  {
    GESP_TRACE_SPAN("solver", "factor");
    lu_ = std::make_unique<DistributedLU<T>>(comm, grid_, an_->sym, At_,
                                             make_dist_options(opt_, *an_));
  }
  stats_.times.add("factor", t.seconds());
  reduce_factor_stats(comm);
}

template <class T>
void DistSolver<T>::reduce_factor_stats(minimpi::Comm& comm) {
  const index_t N = an_->sym->nsup;
  const double replaced = allreduce_sum(
      comm, stat_tag(N, 0),
      static_cast<double>(lu_->pivot_stats().replaced));
  stats_.pivots_replaced = static_cast<count_t>(replaced);
  const double fmax =
      allreduce_max(comm, stat_tag(N, 2), lu_->factor_entry_max());
  // Growth against Â's current values, as numeric::LUFactors measures it.
  const double amax = static_cast<double>(sparse::norm_max(At_));
  stats_.pivot_growth = amax > 0.0 ? fmax / amax : 0.0;
  comm.barrier();
}

template <class T>
void DistSolver<T>::refactorize(minimpi::Comm& comm,
                                const sparse::CscMatrix<T>& A_new) {
  // Reuse every static decision: scalings, permutations, symbolic
  // structure, tiny-pivot threshold, distribution, and the SpMV plan
  // (pattern-unchanged). Every rank holds the same A_new, so refill's
  // pattern check throws on every rank or on none.
  At_.values = an_->refill(A_new);
  stats_.times.new_epoch();
  GESP_TRACE_SPAN("solver", "refactorize");
  Timer t;
  {
    GESP_TRACE_SPAN("solver", "factor");
    lu_->refactorize(comm, At_, make_dist_options(opt_, *an_));
  }
  stats_.times.add("factor", t.seconds());
  reduce_factor_stats(comm);
}

template <class T>
void DistSolver<T>::exchange_x(minimpi::Comm& comm, const BlockVector& xb,
                               BlockVector& xfull) const {
  const index_t N = an_->sym->nsup;
  const int me = comm.rank();
  xfull.assign(static_cast<std::size_t>(N), {});
  for (index_t J = 0; J < N; ++J) {
    if (xb[J].empty()) continue;  // not the diag owner of J
    for (int r : needers_[J]) {
      if (r == me)
        xfull[J] = xb[J];
      else
        comm.send_vec(r, spmv_tag(N, J), xb[J]);
    }
  }
  for (index_t J = 0; J < N; ++J) {
    if (!xfull[J].empty() || xb[J].size() > 0) continue;
    const auto& nd = needers_[J];
    if (std::find(nd.begin(), nd.end(), me) == nd.end()) continue;
    xfull[J] = comm.recv(grid_.owner(J, J), spmv_tag(N, J)).template as<T>();
  }
}

template <class T>
double DistSolver<T>::compute_berr_dist(minimpi::Comm& comm,
                                        const BlockVector& xb,
                                        const BlockVector& bb,
                                        BlockVector& rb) const {
  using std::abs;
  const symbolic::SymbolicLU& S = *an_->sym;
  const index_t N = S.nsup;
  BlockVector xfull;
  exchange_x(comm, xb, xfull);

  // r = b̂ - Â·x̂ and denom = |Â|·|x̂| over my rows, with the column scan
  // ascending in j so each row accumulates in exactly the serial order
  // (sparse::residual / componentwise_backward_error).
  rb = bb;
  std::vector<std::vector<double>> denom(static_cast<std::size_t>(N));
  for (index_t K = 0; K < N; ++K)
    if (!bb[K].empty()) denom[K].assign(bb[K].size(), 0.0);
  for (index_t j = 0; j < S.n; ++j) {
    const index_t J = S.col_to_sn[j];
    if (xfull[J].empty()) continue;  // none of my rows touch block col J
    const T xj = xfull[J][static_cast<std::size_t>(j - S.sn_start[J])];
    const double axj = static_cast<double>(abs(xj));
    for (index_t p = At_.colptr[j]; p < At_.colptr[j + 1]; ++p) {
      const index_t i = At_.rowind[p];
      const index_t M = S.col_to_sn[i];
      if (rb[M].empty()) continue;  // row not mine
      const std::size_t r = static_cast<std::size_t>(i - S.sn_start[M]);
      if (xj != T{}) rb[M][r] -= At_.values[p] * xj;
      if (axj != 0.0)
        denom[M][r] += static_cast<double>(abs(At_.values[p])) * axj;
    }
  }

  // Local berr over my rows, with the serial inf / NaN conventions.
  double local = 0.0;
  for (index_t K = 0; K < N && !std::isnan(local); ++K) {
    if (bb[K].empty()) continue;
    for (std::size_t r = 0; r < bb[K].size(); ++r) {
      const double d = denom[K][r] + static_cast<double>(abs(bb[K][r]));
      const double num = static_cast<double>(abs(rb[K][r]));
      if (d == 0.0) {
        if (num != 0.0) local = std::numeric_limits<double>::infinity();
        continue;
      }
      const double q = num / d;
      if (std::isnan(q)) {
        local = q;
        break;
      }
      local = std::max(local, q);
    }
  }
  return allreduce_max(comm, stat_tag(N, 4), local);
}

template <class T>
void DistSolver<T>::solve(minimpi::Comm& comm, std::span<const T> b,
                          std::span<T> x) {
  GESP_CHECK(b.size() == static_cast<std::size_t>(n_) && x.size() == b.size(),
             Errc::invalid_argument, "solve dimension mismatch");
  stats_.times.new_epoch();
  GESP_TRACE_SPAN("solver", "solve_call");
  Timer wall;

  // Transform the right-hand side into the factored space (replicated).
  std::vector<T> bhat(static_cast<std::size_t>(n_));
  an_->to_factored(b, bhat);

  BlockVector bb, xb;
  lu_->scatter_vector(std::span<const T>(bhat), bb);
  xb = bb;

  Timer t;
  {
    GESP_TRACE_SPAN("solver", "solve");
    lu_->solve_lower_dist(comm, xb);
    comm.barrier();
    lu_->solve_upper_dist(comm, xb);
    comm.barrier();
  }
  stats_.times.add("solve", t.seconds());

  // --- step (4): distributed iterative refinement, mirroring
  // refine::iterative_refinement's control flow exactly (every rank sees
  // the same broadcast berr, so the loop is collective).
  t.reset();
  BlockVector rb;
  double berr = compute_berr_dist(comm, xb, bb, rb);
  stats_.times.add("residual", t.seconds());
  t.reset();
  trace::Span refine_span("solver", "refine");
  stats_.berr_history.clear();
  stats_.berr_history.push_back(berr);
  int iterations = 0;
  if (comm.rank() == 0) trace::instant_value("refine", "berr", berr, 0);
  double prev = std::numeric_limits<double>::infinity();
  while (iterations < opt_.refine.max_iters &&
         berr > opt_.refine.target_berr &&
         berr <= prev * refine::kStallRatio) {
    prev = berr;
    BlockVector dxb = rb;
    lu_->solve_lower_dist(comm, dxb);
    comm.barrier();
    lu_->solve_upper_dist(comm, dxb);
    comm.barrier();
    for (index_t K = 0; K < an_->sym->nsup; ++K)
      for (std::size_t r = 0; r < xb[K].size(); ++r) xb[K][r] += dxb[K][r];
    ++iterations;
    berr = compute_berr_dist(comm, xb, bb, rb);
    stats_.berr_history.push_back(berr);
    if (comm.rank() == 0)
      trace::instant_value("refine", "berr", berr, iterations);
  }
  refine_span.end();
  stats_.times.add("refine", t.seconds());
  stats_.refine_iterations = iterations;
  stats_.berr = berr;

  // Gather + back-transform on every rank.
  comm.barrier();
  std::vector<T> xhat(static_cast<std::size_t>(n_));
  lu_->gather_vector(comm, xb, xhat);
  comm.barrier();
  an_->from_factored(xhat, x);
  stats_.solve_wall_seconds = wall.seconds();
  stats_.solve_wall_total_seconds += stats_.solve_wall_seconds;
  ++stats_.solve_calls;
  if (comm.rank() == 0) {
    if (!gauges_) gauges_ = std::make_unique<StatsGauges>(metrics::global());
    gauges_->publish(stats_);
  }
}

template <class T>
void DistSolver<T>::solve_multi(minimpi::Comm& comm, std::span<const T> B,
                                std::span<T> X, index_t nrhs) {
  GESP_CHECK(nrhs >= 1 && B.size() == static_cast<std::size_t>(n_) * nrhs &&
                 X.size() == B.size(),
             Errc::invalid_argument, "solve_multi dimension mismatch");
  for (index_t c = 0; c < nrhs; ++c) {
    std::span<const T> bc(B.data() + c * static_cast<std::size_t>(n_),
                          static_cast<std::size_t>(n_));
    std::span<T> xc(X.data() + c * static_cast<std::size_t>(n_),
                    static_cast<std::size_t>(n_));
    solve(comm, bc, xc);
  }
}

template <class T>
std::vector<T> solve(const sparse::CscMatrix<T>& A, std::span<const T> b,
                     const SolverOptions& opt, SolveStats* stats_out) {
  // Up front, not inside the world: a rank's rejection would read as a
  // failed solve, which the recovery fallback below would absorb.
  SolverOptions dopt = opt;
  dopt.backend = Backend::dist;
  validate<T>(dopt);
  const ProcessGrid grid = grid_from(opt.dist);
  minimpi::WorldOptions wopt;
  wopt.recv_timeout_s = opt.dist.recv_timeout_s;
  minimpi::World world(grid.nprocs(), wopt);

  std::vector<T> x(b.size());
  SolveStats st;
  const auto reports = world.run_report([&](minimpi::Comm& comm) {
    DistSolver<T> solver(comm, A, opt);
    std::vector<T> xl(b.size());
    solver.solve(comm, b, xl);
    if (comm.rank() == 0) {
      x = std::move(xl);
      st = solver.stats();
    }
  });

  if (!opt.recovery.enabled) {
    throw_root_cause(reports);
    if (stats_out) *stats_out = st;
    return x;
  }

  // Recovery: judge the distributed answer by the same policy thresholds
  // the in-process ladder uses; fall back to it when the grid fails or
  // the answer is out of policy.
  RecoveryAttempt attempt;
  attempt.rung = RecoveryRung::gesp;
  try {
    throw_root_cause(reports);
    attempt.berr = st.berr;
    attempt.pivot_growth = st.pivot_growth;
    judge_attempt(attempt, opt.precision);
  } catch (const Error& e) {
    attempt.detail = e.message();
  }
  if (attempt.success) {
    st.recovery.attempts.push_back(std::move(attempt));
    st.recovery.final_rung = RecoveryRung::gesp;
    st.recovery.recovered = true;
    if (stats_out) *stats_out = st;
    return x;
  }

  SolverOptions fallback = opt;
  fallback.backend = Backend::threaded;
  SolveStats fst;
  std::vector<T> fx = gesp::solve(A, b, fallback, &fst);
  fst.recovery.attempts.insert(fst.recovery.attempts.begin(),
                               std::move(attempt));
  if (stats_out) *stats_out = fst;
  return fx;
}

template class DistSolver<double>;
template class DistSolver<Complex>;
template DistOptions make_dist_options(const SolverOptions&,
                                       const Analysis<double>&);
template DistOptions make_dist_options(const SolverOptions&,
                                       const Analysis<Complex>&);
template std::vector<double> solve(const sparse::CscMatrix<double>&,
                                   std::span<const double>,
                                   const SolverOptions&, SolveStats*);
template std::vector<Complex> solve(const sparse::CscMatrix<Complex>&,
                                    std::span<const Complex>,
                                    const SolverOptions&, SolveStats*);

}  // namespace gesp::dist
