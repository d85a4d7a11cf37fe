#include "pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "refine/refine.hpp"
#include "sparse/equilibrate.hpp"
#include "sparse/ops.hpp"

namespace gespbench {

using gesp::index_t;

long long update_pairs(const gesp::symbolic::SymbolicLU& S) {
  long long pairs = 0;
  for (index_t K = 0; K < S.nsup; ++K)
    pairs += static_cast<long long>(S.L[K].size()) *
             static_cast<long long>(S.U[K].size());
  return pairs;
}

gesp::numeric::NumericOptions numeric_options(const gesp::SolverOptions& opt,
                                              double at_norm) {
  gesp::numeric::NumericOptions n;
  n.num_threads = opt.backend == gesp::Backend::serial ? 1 : opt.num_threads;
  n.schedule = opt.schedule;
  n.panel_pivot = opt.panel_pivot;
  n.pivot_threshold_tau = opt.pivot_threshold_tau;
  if (opt.growth_abort > 0.0) n.growth_abort = opt.growth_abort;
  if (opt.tiny_pivot != gesp::TinyPivotOption::fail)
    n.tiny_threshold =
        std::sqrt(std::numeric_limits<double>::epsilon()) * at_norm;
  return n;
}

Pipeline::Pipeline(const Matrix& A, const gesp::SolverOptions& opt,
                   Tracer& tracer)
    : opt_(opt), tracer_(tracer) {
  {
    Span s(tracer_, "core.transform");
    const std::int64_t t0 = tracer_.now_ns();
    gesp::PhaseTimes times;
    tr_ = gesp::compute_transform(A, opt_, &times);
    // compute_transform runs its phases back to back from t0.
    const double e = times.get("equilibrate"), r = times.get("rowperm");
    tracer_.add_child("sparse.equilibrate", t0, e);
    tracer_.add_child("matching", t0 + static_cast<std::int64_t>(e * 1e9), r);
    tracer_.add_child("ordering",
                      t0 + static_cast<std::int64_t>((e + r) * 1e9),
                      times.get("colorder"));
    nopt_ = numeric_options(opt_, gesp::sparse::norm_max(tr_.At));
  }
  {
    Span s(tracer_, "symbolic");
    sym_ = std::make_shared<const gesp::symbolic::SymbolicLU>(
        gesp::symbolic::analyze(tr_.At, opt_.symbolic));
  }
  factor_full();
}

void Pipeline::factor_full() {
  int span = -1;
  {
    Span s(tracer_, "numeric");
    span = s.index();
    factors_.reset();
    factors_ = std::make_unique<gesp::numeric::LUFactors<double>>(sym_, tr_.At,
                                                                  nopt_);
  }
  last_full_s_ = tracer_.seconds(span);
}

Route Pipeline::refactorize_delta(const Matrix& A_new) {
  std::vector<char> dirty;
  index_t ndirty = 0;
  {
    Span s(tracer_, "core.delta");
    Matrix At_new = gesp::sparse::permute(
        gesp::sparse::apply_scaling(A_new, tr_.row_scale, tr_.col_scale),
        tr_.row_perm, tr_.col_perm);
    const gesp::symbolic::SymbolicLU& S = *sym_;
    dirty.assign(static_cast<std::size_t>(S.nsup), 0);
    bool changed = false;
    for (index_t j = 0; j < At_new.ncols; ++j)
      for (index_t p = At_new.colptr[j]; p < At_new.colptr[j + 1]; ++p)
        if (std::memcmp(&tr_.At.values[p], &At_new.values[p],
                        sizeof(double)) != 0) {
          changed = true;
          dirty[std::min(S.col_to_sn[At_new.rowind[p]], S.col_to_sn[j])] = 1;
        }
    if (!changed) return Route::noop;
    gesp::symbolic::close_update_reachable(S, dirty);
    ndirty = static_cast<index_t>(std::count(dirty.begin(), dirty.end(), 1));
    tr_.At = std::move(At_new);
  }
  if (static_cast<double>(ndirty) >
      opt_.delta.max_dirty_fraction * static_cast<double>(sym_->nsup)) {
    factor_full();
    return Route::full;
  }
  Span s(tracer_, "numeric");
  factors_->refactorize_partial(tr_.At, dirty, nopt_);
  return Route::partial;
}

SolveOutcome Pipeline::solve(std::span<const double> b, std::span<double> x) {
  Span s(tracer_, "refine");
  const index_t n = tr_.At.ncols;
  std::vector<double> bhat(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i)
    bhat[tr_.row_perm[i]] = b[i] * tr_.row_scale[i];
  std::vector<double> xhat = bhat;
  {
    Span s2(tracer_, "refine.solve");
    factors_->solve(xhat);
  }
  const auto rr = gesp::refine::iterative_refinement<double>(
      tr_.At, bhat, xhat, [this](std::span<double> v) { factors_->solve(v); },
      opt_.refine);
  for (index_t j = 0; j < n; ++j)
    x[j] = xhat[tr_.col_perm[j]] * tr_.col_scale[j];
  return {rr.final_berr, rr.iterations};
}

}  // namespace gespbench
