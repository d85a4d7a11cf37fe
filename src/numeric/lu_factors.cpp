#include "numeric/lu_factors.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>

#include "common/denormal.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "numeric/block_index.hpp"
#include "sparse/coo.hpp"

namespace gesp::numeric {
namespace {

dense::PivotPolicy pivot_policy(const NumericOptions& opt) {
  GESP_CHECK(!(opt.record_replacements &&
               opt.panel_pivot != dense::PanelPivot::static_),
             Errc::invalid_argument,
             "SMW replacement recording assumes the unpivoted factorization; "
             "it cannot combine with an in-block pivoting strategy");
  dense::PivotPolicy policy;
  policy.tiny_threshold = opt.tiny_threshold;
  policy.aggressive = opt.aggressive_replacement;
  policy.strategy = opt.panel_pivot;
  policy.threshold_tau = opt.pivot_threshold_tau;
  return policy;
}

}  // namespace

template <class T>
LUFactors<T>::LUFactors(std::shared_ptr<const symbolic::SymbolicLU> sym,
                        const sparse::CscMatrix<T>& A,
                        const NumericOptions& opt)
    : sym_(std::move(sym)) {
  GESP_CHECK(sym_ != nullptr, Errc::invalid_argument, "null symbolic handle");
  GESP_CHECK(A.ncols == sym_->n && A.nrows == sym_->n, Errc::invalid_argument,
             "matrix does not match the symbolic structure");
  scatter_initial(A);
  eliminate(opt);
}

template <class T>
void LUFactors<T>::scatter_initial(const sparse::CscMatrix<T>& A) {
  using std::abs;
  const symbolic::SymbolicLU& S = *sym_;
  const index_t N = S.nsup;
  lnz_.resize(static_cast<std::size_t>(N));
  unz_.resize(static_cast<std::size_t>(N));
  l_off_.resize(static_cast<std::size_t>(N));
  u_off_.resize(static_cast<std::size_t>(N));
  for (index_t K = 0; K < N; ++K) {
    const std::size_t b = static_cast<std::size_t>(S.block_cols(K));
    std::size_t sz = b * b;
    l_off_[K].reserve(S.L[K].size());
    for (const auto& blk : S.L[K]) {
      l_off_[K].push_back(sz);
      sz += blk.rows.size() * b;
    }
    lnz_[K].assign(sz, T{});
    sz = 0;
    u_off_[K].reserve(S.U[K].size());
    for (const auto& blk : S.U[K]) {
      u_off_[K].push_back(sz);
      sz += b * blk.cols.size();
    }
    unz_[K].assign(sz, T{});
  }
  scatter_values(A, nullptr);
}

template <class T>
void LUFactors<T>::scatter_values(const sparse::CscMatrix<T>& A,
                                  const std::vector<char>* dirty) {
  using std::abs;
  const symbolic::SymbolicLU& S = *sym_;
  // Scatter A. Every entry (i, j) lives in the storage of its OWNER
  // supernode min(sn(i), sn(j)): the diagonal and L blocks of column
  // supernode J when sn(i) >= J, the U row of supernode I when sn(i) < J.
  // In the partial pass only dirty owners' buffers were zeroed, so only
  // their entries are (re)written; amax_ still covers the whole matrix —
  // it must match a full factorization's value bit for bit.
  amax_ = 0.0;
  for (index_t j = 0; j < S.n; ++j) {
    const index_t J = S.col_to_sn[j];
    const index_t cj = j - S.sn_start[J];
    const index_t bj = S.block_cols(J);
    for (index_t p = A.colptr[j]; p < A.colptr[j + 1]; ++p) {
      const index_t i = A.rowind[p];
      const T v = A.values[p];
      amax_ = std::max<double>(amax_, abs(v));
      const index_t I = S.col_to_sn[i];
      if (dirty && !(*dirty)[std::min(I, J)]) continue;
      if (I == J) {
        lnz_[J][(i - S.sn_start[J]) + cj * bj] = v;
      } else if (I > J) {
        const index_t bi = detail::find_block(S.L[J], I);
        GESP_ASSERT(bi >= 0, "A entry outside symbolic L structure");
        const auto& rows = S.L[J][bi].rows;
        const auto rit = std::lower_bound(rows.begin(), rows.end(), i);
        GESP_ASSERT(rit != rows.end() && *rit == i,
                    "A row missing from symbolic L block");
        const index_t r = static_cast<index_t>(rit - rows.begin());
        lnz_[J][l_off_[J][bi] + r + cj * static_cast<index_t>(rows.size())] =
            v;
      } else {
        const index_t bI = S.block_cols(I);
        const index_t bj2 = detail::find_block(S.U[I], J);
        GESP_ASSERT(bj2 >= 0, "A entry outside symbolic U structure");
        const auto& cols = S.U[I][bj2].cols;
        const auto cit = std::lower_bound(cols.begin(), cols.end(), j);
        GESP_ASSERT(cit != cols.end() && *cit == j,
                    "A column missing from symbolic U block");
        const index_t c = static_cast<index_t>(cit - cols.begin());
        unz_[I][u_off_[I][bj2] + (i - S.sn_start[I]) + c * bI] = v;
      }
    }
  }
}

// One owner group writes into owner O's storage only: the row part (row
// block I == O of K against every U block J >= O) lands in O's diagonal
// block and the U blocks of row O; the column part (column block J == O
// against every L block I > O) lands in the L blocks of column O. Both
// destination lists are sorted by block index, like L[K] and U[K], so one
// forward cursor per part finds every destination block. Each pair is one
// dense::gemm_minus_scatter call with that pair's shape, operands and
// destination positions, exactly as a lone update would issue it, so the
// factors do not depend on how the pairs are grouped.
template <class T>
void LUFactors<T>::update_owner(index_t K, const detail::OwnerGroup& g,
                                UpdateScratch& ws) {
  const symbolic::SymbolicLU& S = *sym_;
  const auto& LK = S.L[K];
  const auto& UK = S.U[K];
  const std::size_t nl = LK.size(), nu = UK.size();
  const index_t b = S.block_cols(K);
  const index_t O = g.O;
  const index_t bO = S.block_cols(O);
  const index_t base = S.sn_start[O];

  if (g.has_row) {
    // Row part: L(O,K) against U(K,J) for J >= O; the rows are the same
    // for every pair, as offsets inside O.
    const auto& rows = LK[g.li].rows;
    const index_t m = static_cast<index_t>(rows.size());
    const T* lik = lnz_[K].data() + l_off_[K][g.li];
    const index_t* rloc = detail::local_positions(rows, base, bO, ws.local);
    std::size_t uj = static_cast<std::size_t>(g.ui);
    if (g.has_col) {
      // J == O: the diagonal block of O (full storage).
      const auto& cols = UK[uj].cols;
      dense::gemm_minus_scatter(
          m, static_cast<index_t>(cols.size()), b, lik, m,
          unz_[K].data() + u_off_[K][uj], b, lnz_[O].data(), bO, rloc,
          detail::local_positions(cols, base, bO, ws.pos));
      ++uj;
    }
    // J > O: the U blocks of row O, columns a subset, rows full height.
    detail::BlockCursor<symbolic::UBlock> dest(S.U[O], nu - uj);
    for (; uj < nu; ++uj) {
      const auto& cols = UK[uj].cols;
      const std::size_t dbj = dest.seek(UK[uj].J);
      dense::gemm_minus_scatter(
          m, static_cast<index_t>(cols.size()), b, lik, m,
          unz_[K].data() + u_off_[K][uj], b, unz_[O].data() + u_off_[O][dbj],
          bO, rloc, detail::scatter_positions(cols, S.U[O][dbj].cols, ws.pos));
    }
  }

  if (g.has_col) {
    // Column part: L(I,K) for I > O against U(K,O), into the L blocks of
    // column O — rows a subset, columns the same for every pair.
    const auto& cols = UK[g.ui].cols;
    const index_t c = static_cast<index_t>(cols.size());
    const T* ukj = unz_[K].data() + u_off_[K][g.ui];
    const index_t* cloc = detail::local_positions(cols, base, bO, ws.local);
    std::size_t bi = static_cast<std::size_t>(g.li) + (g.has_row ? 1 : 0);
    detail::BlockCursor<symbolic::LBlock> dest(S.L[O], nl - bi);
    for (; bi < nl; ++bi) {
      const auto& rows = LK[bi].rows;
      const index_t m = static_cast<index_t>(rows.size());
      const std::size_t dbi = dest.seek(LK[bi].I);
      const auto& drows = S.L[O][dbi].rows;
      dense::gemm_minus_scatter(
          m, c, b, lnz_[K].data() + l_off_[K][bi], m, ukj, b,
          lnz_[O].data() + l_off_[O][dbi], static_cast<index_t>(drows.size()),
          detail::scatter_positions(rows, drows, ws.pos), cloc);
    }
  }
}

template <class T>
void LUFactors<T>::panel_lower(index_t K, index_t lo, index_t hi) {
  const symbolic::SymbolicLU& S = *sym_;
  const index_t b = S.block_cols(K);
  for (index_t bi = lo; bi < hi; ++bi) {
    const index_t m = static_cast<index_t>(S.L[K][bi].rows.size());
    dense::trsm_right_upper(lnz_[K].data(), b, b,
                            lnz_[K].data() + l_off_[K][bi], m, m);
  }
}

template <class T>
void LUFactors<T>::panel_upper(index_t K, index_t lo, index_t hi) {
  const symbolic::SymbolicLU& S = *sym_;
  const index_t b = S.block_cols(K);
  for (index_t uj = lo; uj < hi; ++uj) {
    const index_t c = static_cast<index_t>(S.U[K][uj].cols.size());
    T* blk = unz_[K].data() + u_off_[K][uj];
    if (!rowperm_[K].empty()) permute_rows(rowperm_[K], blk, b, c);
    dense::trsm_left_lower_unit(lnz_[K].data(), b, b, blk, c, b);
  }
}

template <class T>
void LUFactors<T>::eliminate(const NumericOptions& opt) {
  const dense::PivotPolicy policy = pivot_policy(opt);
  const std::size_t N = static_cast<std::size_t>(sym_->nsup);
  rowperm_.assign(N, {});
  umax_k_.assign(N, 0.0);
  stats_k_.assign(N, {});
  repl_k_.assign(N, {});
  sweep(opt, policy, nullptr);
}

template <class T>
void LUFactors<T>::merge_pivot_stats() {
  const symbolic::SymbolicLU& S = *sym_;
  stats_ = {};
  replacements_.clear();
  for (index_t K = 0; K < S.nsup; ++K) {
    stats_.replaced += stats_k_[K].replaced;
    stats_.swaps += stats_k_[K].swaps;
    for (const auto& r : repl_k_[K])
      replacements_.emplace_back(S.sn_start[K] + r.col, r.delta);
  }
}

template <class T>
void LUFactors<T>::finish_elimination(bool aborted) {
  const index_t N = sym_->nsup;
  pivoted_ = false;
  for (index_t K = 0; K < N && !pivoted_; ++K)
    pivoted_ = !rowperm_[K].empty();
  merge_pivot_stats();
  finish_growth(aborted);
  if (stats_.replaced > 0)
    metrics::global().counter("numeric.pivots_replaced").inc(stats_.replaced);
  if (stats_.swaps > 0)
    metrics::global().counter("numeric.pivot_swaps").inc(stats_.swaps);
  metrics::global().gauge("numeric.pivot_growth").set(growth_);
  if (trace::enabled()) {
    // One point event per perturbed pivot — the paper's step (3) made
    // visible on the timeline (column id; delta magnitude as the value).
    using std::abs;
    for (const auto& [col, delta] : replacements_)
      trace::instant_value("factor", "pivot_replaced",
                           static_cast<double>(abs(delta)), col);
    if (replacements_.empty() && stats_.replaced > 0)
      trace::instant("factor", "pivots_replaced_unrecorded",
                     stats_.replaced);
  }
}

// The one elimination sweep (the paper's point: static pivoting fixes the
// whole elimination before numerics begin, so its steps can be stated once
// and then scheduled). K ascends; each step of supernode K is stated with
// the earlier steps it waits for:
//   F(K)      diagonal factor, after the last update into owner K;
//   panels    up to P chunks of panel solves per side, after F(K);
//   M(K)      growth-monitor milestone, after the panels (block row K of U
//             is final here, so the running growth is known before any
//             update);
//   Upd(K,O)  one per owner group — the pairs whose destination storage
//             belongs to owner O = min(I,J) — after M(K) and after the
//             previous update into owner O.
// Every dependency points to an earlier step, so the stated order is a
// topological order: on one thread each step runs as it is stated; on more,
// each step becomes a TaskGraph task and independent etree subtrees
// pipeline with no per-supernode barrier. Grouping pairs by owner keeps the
// task count proportional to the block structure, not to the pair count.
//
// Bitwise reproducibility: the updates into one owner are chained in
// ascending source-K order — the serial accumulation order — and within
// one K each destination block receives at most one update (pairs have
// distinct (I,J)). F(K) waits on the chain of owner K, so every diagonal
// factor sees exactly the serial operand values.
//
// With `dirty` it is the partial sweep of refactorize_partial. Dirty
// supernodes run every step (the closure makes every owner of a dirty K
// dirty). Clean supernodes keep their blocks and only replay the owner
// groups whose owner is dirty — a re-scattered destination needs the
// contribution of EVERY source, clean or not, in ascending K — and those
// replays wait on nothing but the owner chain.
//
// Growth abort: M(K) lowers `stop` to K when its monitor trips, and every
// step of a supernode at or past `stop` becomes a no-op. Steps of earlier
// supernodes still run, so the first supernode over the threshold — the
// one finish_growth reports — is the same on every thread count.
template <class T>
void LUFactors<T>::sweep(const NumericOptions& opt,
                         const dense::PivotPolicy& policy,
                         const std::vector<char>* dirty) {
  using TaskId = TaskGraph::TaskId;
  const symbolic::SymbolicLU& S = *sym_;
  const index_t N = S.nsup;
  const bool record = opt.record_replacements;
  growth_abort_ = opt.growth_abort;
  // Float only: flush subnormals for the whole elimination (see
  // denormal.hpp). Placed before the pool so workers inherit the mode.
  DenormalFlushGuard ftz(std::is_same_v<T, float>);
  ThreadPool pool(opt.num_threads);
  const index_t P = pool.num_threads();
  std::atomic<index_t> stop{N};
  TaskGraph graph;

  // State one step of supernode K: run it now on one thread, else add it
  // to the graph. Returns its task id (-1 when it already ran).
  const auto step = [&](index_t K, auto fn) -> TaskId {
    const auto guarded = [K, &stop, fn] {
      if (K < stop.load()) fn();
    };
    if (P == 1) {
      guarded();
      return -1;
    }
    return graph.add_task(guarded);
  };
  const auto depend = [&](TaskId before, TaskId after) {
    if (before >= 0 && after >= 0) graph.add_dependency(before, after);
  };
  // Last step that wrote into each owner supernode's storage.
  std::vector<TaskId> last_owner(static_cast<std::size_t>(N), -1);
  const auto update = [&](index_t K, const detail::OwnerGroup& g,
                          TaskId after) {
    const TaskId t = step(K, [this, K, g] {
      GESP_TRACE_SPAN_ID("factor", "update", g.O);
      thread_local UpdateScratch ws;
      update_owner(K, g, ws);
    });
    depend(after, t);
    depend(last_owner[g.O], t);
    last_owner[g.O] = t;
  };

  std::vector<detail::OwnerGroup> groups;
  std::vector<TaskId> panels;
  for (index_t K = 0; K < N; ++K) {
    detail::owner_groups(S, K, groups);
    if (dirty != nullptr && !(*dirty)[K]) {
      for (const detail::OwnerGroup& g : groups)
        if ((*dirty)[g.O]) update(K, g, -1);
      continue;
    }
    // Pivot bookkeeping goes to the per-K sinks (merged in ascending K by
    // finish_elimination), so concurrent F(K) never touch shared state.
    const TaskId fk = step(K, [this, K, &policy, record] {
      factor_diag(K, policy, stats_k_[K], record ? &repl_k_[K] : nullptr);
    });
    depend(last_owner[K], fk);
    panels.clear();
    const index_t nl = static_cast<index_t>(S.L[K].size());
    for (index_t ch = 0, nch = std::min(P, nl); ch < nch; ++ch) {
      const index_t lo = nl * ch / nch, hi = nl * (ch + 1) / nch;
      panels.push_back(step(K, [this, K, lo, hi] {
        GESP_TRACE_SPAN_ID("factor", "panelL", K);
        panel_lower(K, lo, hi);
      }));
    }
    const index_t nu = static_cast<index_t>(S.U[K].size());
    for (index_t ch = 0, nch = std::min(P, nu); ch < nch; ++ch) {
      const index_t lo = nu * ch / nch, hi = nu * (ch + 1) / nch;
      panels.push_back(step(K, [this, K, lo, hi] {
        GESP_TRACE_SPAN_ID("factor", "panelU", K);
        panel_upper(K, lo, hi);
      }));
    }
    const TaskId mk = step(K, [this, K, &stop] {
      if (!monitor_supernode(K)) return;
      index_t cur = stop.load();
      while (K < cur && !stop.compare_exchange_weak(cur, K)) {
      }
    });
    for (const TaskId t : panels) {
      depend(fk, t);
      depend(t, mk);
    }
    if (panels.empty()) depend(fk, mk);
    for (const detail::OwnerGroup& g : groups) update(K, g, mk);
  }

  graph.run(pool);
  finish_elimination(stop.load() < N);
}

template <class T>
void LUFactors<T>::refactorize_partial(const sparse::CscMatrix<T>& A,
                                       const std::vector<char>& dirty,
                                       const NumericOptions& opt) {
  GESP_CHECK(A.ncols == sym_->n && A.nrows == sym_->n, Errc::invalid_argument,
             "matrix does not match the symbolic structure");
  GESP_CHECK(dirty.size() == static_cast<std::size_t>(sym_->nsup),
             Errc::invalid_argument,
             "dirty set size does not match the supernode count");
  const dense::PivotPolicy policy = pivot_policy(opt);
  {
    // A dirty set that is not closed would scatter-add updates into blocks
    // that were never reset — silent corruption. Verify instead of trusting.
    std::vector<char> closed(dirty.begin(), dirty.end());
    symbolic::close_update_reachable(*sym_, closed);
    GESP_CHECK(std::equal(closed.begin(), closed.end(), dirty.begin()),
               Errc::invalid_argument,
               "dirty set is not closed under update reachability");
  }
  const index_t N = sym_->nsup;
  for (index_t K = 0; K < N; ++K) {
    if (!dirty[K]) continue;
    std::fill(lnz_[K].begin(), lnz_[K].end(), T{});
    std::fill(unz_[K].begin(), unz_[K].end(), T{});
    rowperm_[K].clear();
    umax_k_[K] = 0.0;
    stats_k_[K] = {};
    repl_k_[K].clear();
  }
  scatter_values(A, &dirty);
  sweep(opt, policy, &dirty);
}

template <class T>
void LUFactors<T>::factor_diag(index_t K, const dense::PivotPolicy& policy,
                               dense::PivotStats& stats,
                               std::vector<dense::PivotReplacement<T>>* repl) {
  const index_t b = sym_->block_cols(K);
  GESP_TRACE_SPAN_ID("factor", "F", K);
  if (policy.strategy == dense::PanelPivot::static_) {
    dense::getrf(lnz_[K].data(), b, b, policy, stats, {}, repl);
    return;
  }
  auto& perm = rowperm_[K];
  perm.resize(static_cast<std::size_t>(b));
  dense::getrf(lnz_[K].data(), b, b, policy, stats,
               std::span<index_t>(perm), repl);
  // Keep the identity case cheap for the panel phase and the solves.
  bool identity = true;
  for (index_t r = 0; r < b && identity; ++r) identity = perm[r] == r;
  if (identity) perm.clear();
}

template <class T>
void LUFactors<T>::permute_rows(const std::vector<index_t>& perm, T* blk,
                                index_t b, index_t ncols) const {
  std::vector<T> tmp(static_cast<std::size_t>(b));
  for (index_t c = 0; c < ncols; ++c) {
    T* col = blk + static_cast<std::size_t>(c) * b;
    for (index_t r = 0; r < b; ++r) tmp[r] = col[perm[r]];
    std::copy(tmp.begin(), tmp.end(), col);
  }
}

template <class T>
bool LUFactors<T>::monitor_supernode(index_t K) {
  using std::abs;
  const symbolic::SymbolicLU& S = *sym_;
  const index_t b = S.block_cols(K);
  // Supernode K's contribution to max |U|: the diagonal block's upper
  // triangle plus every U(K,J) segment — all final once the panel phase of
  // K is done (later supernodes never write into block row K).
  double umax = 0.0;
  for (index_t c = 0; c < b; ++c)
    for (index_t r = 0; r <= c; ++r)
      umax = std::max<double>(umax, abs(lnz_[K][r + c * b]));
  for (const T& v : unz_[K]) umax = std::max<double>(umax, abs(v));
  umax_k_[K] = umax;
  return growth_abort_ > 0.0 && amax_ > 0.0 &&
         umax > growth_abort_ * amax_;
}

template <class T>
void LUFactors<T>::finish_growth(bool aborted) {
  double umax = 0.0;
  index_t trigger = -1;
  const index_t N = sym_->nsup;
  for (index_t K = 0; K < N; ++K) {
    umax = std::max(umax, umax_k_[K]);
    if (trigger < 0 && growth_abort_ > 0.0 && amax_ > 0.0 &&
        umax_k_[K] > growth_abort_ * amax_)
      trigger = K;
  }
  growth_ = amax_ > 0.0 ? umax / amax_ : 0.0;
  metrics::global().gauge("numeric.growth").set(growth_);
  if (trace::enabled()) {
    // Timeline of the in-flight monitor: one point per supernode where the
    // running growth doubled (coarse enough to keep traces small).
    double last = 0.0, run = 0.0;
    for (index_t K = 0; K < N; ++K) {
      run = std::max(run, umax_k_[K]);
      const double g = amax_ > 0.0 ? run / amax_ : 0.0;
      if (g > 1.0 && g > 2.0 * last) {
        trace::instant_value("factor", "growth", g, K);
        last = g;
      }
    }
  }
  if (trigger >= 0) {
    metrics::global().counter("numeric.growth_aborts").inc();
    trace::instant("factor", "growth_abort", trigger);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "element growth %.3e at supernode %d exceeds the abort "
                  "threshold %.3e%s",
                  amax_ > 0.0 ? umax_k_[trigger] / amax_ : 0.0,
                  static_cast<int>(trigger), growth_abort_,
                  aborted ? " (factorization stopped early)" : "");
    throw Error(Errc::unstable, buf);
  }
}

template <class T>
void LUFactors<T>::solve_lower(std::span<T> x) const {
  const symbolic::SymbolicLU& S = *sym_;
  GESP_CHECK(x.size() == static_cast<std::size_t>(S.n),
             Errc::invalid_argument, "solve vector size mismatch");
  std::vector<T> tmp;
  for (index_t K = 0; K < S.nsup; ++K) {
    const index_t b = S.block_cols(K);
    T* xk = x.data() + S.sn_start[K];
    // Replay supernode K's in-block row interchanges: the permuted
    // factorization solved L_KK·y = P_K·b̂_K.
    if (pivoted_ && !rowperm_[K].empty()) {
      const auto& p = rowperm_[K];
      tmp.resize(static_cast<std::size_t>(b));
      for (index_t r = 0; r < b; ++r) tmp[r] = xk[p[r]];
      std::copy(tmp.begin(), tmp.end(), xk);
    }
    dense::trsv_lower_unit(lnz_[K].data(), b, b, xk);
    for (std::size_t bi = 0; bi < S.L[K].size(); ++bi) {
      const auto& rows = S.L[K][bi].rows;
      const index_t m = static_cast<index_t>(rows.size());
      const T* blk = lnz_[K].data() + l_off_[K][bi];
      for (index_t c = 0; c < b; ++c) {
        const T xc = xk[c];
        if (xc == T{}) continue;
        const T* col = blk + c * m;
        for (index_t r = 0; r < m; ++r) x[rows[r]] -= col[r] * xc;
      }
    }
  }
}

template <class T>
void LUFactors<T>::solve_upper(std::span<T> x) const {
  const symbolic::SymbolicLU& S = *sym_;
  GESP_CHECK(x.size() == static_cast<std::size_t>(S.n),
             Errc::invalid_argument, "solve vector size mismatch");
  for (index_t K = S.nsup - 1; K >= 0; --K) {
    const index_t b = S.block_cols(K);
    T* xk = x.data() + S.sn_start[K];
    for (std::size_t uj = 0; uj < S.U[K].size(); ++uj) {
      const auto& cols = S.U[K][uj].cols;
      const T* blk = unz_[K].data() + u_off_[K][uj];
      for (std::size_t cc = 0; cc < cols.size(); ++cc) {
        const T xc = x[cols[cc]];
        if (xc == T{}) continue;
        const T* col = blk + cc * static_cast<std::size_t>(b);
        for (index_t r = 0; r < b; ++r) xk[r] -= col[r] * xc;
      }
    }
    dense::trsv_upper(lnz_[K].data(), b, b, xk);
  }
}

template <class T>
void LUFactors<T>::solve(std::span<T> x) const {
  DenormalFlushGuard ftz(std::is_same_v<T, float>);
  solve_lower(x);
  solve_upper(x);
}

template <class T>
void LUFactors<T>::solve_multi(std::span<T> X, index_t nrhs) const {
  const symbolic::SymbolicLU& S = *sym_;
  GESP_CHECK(nrhs >= 1 &&
                 X.size() == static_cast<std::size_t>(S.n) * nrhs,
             Errc::invalid_argument, "solve_multi dimension mismatch");
  DenormalFlushGuard ftz(std::is_same_v<T, float>);
  const index_t n = S.n;
  std::vector<T> tmp;
  // Forward substitution, all right-hand sides at once.
  for (index_t K = 0; K < S.nsup; ++K) {
    const index_t b = S.block_cols(K);
    const index_t base = S.sn_start[K];
    if (pivoted_ && !rowperm_[K].empty()) {
      const auto& p = rowperm_[K];
      tmp.resize(static_cast<std::size_t>(b));
      for (index_t c = 0; c < nrhs; ++c) {
        T* xk = X.data() + base + c * static_cast<std::size_t>(n);
        for (index_t r = 0; r < b; ++r) tmp[r] = xk[p[r]];
        std::copy(tmp.begin(), tmp.end(), xk);
      }
    }
    dense::trsm_left_lower_unit(lnz_[K].data(), b, b, X.data() + base, nrhs,
                                n);
    for (std::size_t bi = 0; bi < S.L[K].size(); ++bi) {
      const auto& rows = S.L[K][bi].rows;
      const index_t m = static_cast<index_t>(rows.size());
      const T* blk = lnz_[K].data() + l_off_[K][bi];
      // X(rows,:) -= L(I,K) · X(K,:), added straight into the target rows.
      dense::gemm_minus_scatter(m, nrhs, b, blk, m, X.data() + base, n,
                                X.data(), n, rows.data(), nullptr);
    }
  }
  // Backward substitution.
  std::vector<T> gath;
  for (index_t K = S.nsup - 1; K >= 0; --K) {
    const index_t b = S.block_cols(K);
    const index_t base = S.sn_start[K];
    for (std::size_t uj = 0; uj < S.U[K].size(); ++uj) {
      const auto& cols = S.U[K][uj].cols;
      const index_t m = static_cast<index_t>(cols.size());
      const T* blk = unz_[K].data() + u_off_[K][uj];
      // Gather X(cols,:) into a dense m-by-nrhs block, multiply, subtract.
      gath.resize(static_cast<std::size_t>(m) * nrhs);
      for (index_t c = 0; c < nrhs; ++c)
        for (index_t r = 0; r < m; ++r)
          gath[r + c * static_cast<std::size_t>(m)] =
              X[cols[r] + c * static_cast<std::size_t>(n)];
      dense::gemm_minus(b, nrhs, m, blk, b, gath.data(), m, X.data() + base,
                        n);
    }
    for (index_t c = 0; c < nrhs; ++c)
      dense::trsv_upper(lnz_[K].data(), b, b,
                        X.data() + base + c * static_cast<std::size_t>(n));
  }
}

template <class T>
void LUFactors<T>::solve_transposed(std::span<T> x) const {
  const symbolic::SymbolicLU& S = *sym_;
  GESP_CHECK(x.size() == static_cast<std::size_t>(S.n),
             Errc::invalid_argument, "solve vector size mismatch");
  DenormalFlushGuard ftz(std::is_same_v<T, float>);
  // Aᵀ = Uᵀ·Lᵀ. Forward pass with Uᵀ (lower triangular): after x(J) is
  // solved, push its contributions through the transposed U blocks.
  for (index_t J = 0; J < S.nsup; ++J) {
    const index_t b = S.block_cols(J);
    T* xj = x.data() + S.sn_start[J];
    dense::trsv_upper_trans(lnz_[J].data(), b, b, xj);
    for (std::size_t uj = 0; uj < S.U[J].size(); ++uj) {
      const auto& cols = S.U[J][uj].cols;
      const T* blk = unz_[J].data() + u_off_[J][uj];
      for (std::size_t cc = 0; cc < cols.size(); ++cc) {
        T sum{};
        const T* col = blk + cc * static_cast<std::size_t>(b);
        for (index_t r = 0; r < b; ++r) sum += col[r] * xj[r];
        x[cols[cc]] -= sum;
      }
    }
  }
  // Backward pass with Lᵀ (unit upper triangular): gather contributions
  // from the rows below before solving the diagonal block.
  std::vector<T> tmp;
  for (index_t K = S.nsup - 1; K >= 0; --K) {
    const index_t b = S.block_cols(K);
    T* xk = x.data() + S.sn_start[K];
    for (std::size_t bi = 0; bi < S.L[K].size(); ++bi) {
      const auto& rows = S.L[K][bi].rows;
      const index_t m = static_cast<index_t>(rows.size());
      const T* blk = lnz_[K].data() + l_off_[K][bi];
      for (index_t c = 0; c < b; ++c) {
        T sum{};
        const T* col = blk + c * m;
        for (index_t r = 0; r < m; ++r) sum += col[r] * x[rows[r]];
        xk[c] -= sum;
      }
    }
    dense::trsv_lower_unit_trans(lnz_[K].data(), b, b, xk);
    // Undo supernode K's in-block row interchanges: the factorization's
    // diagonal block is P_K-relative, so z_K = P_Kᵀ·(L_KKᵀ)⁻¹·w_K.
    if (pivoted_ && !rowperm_[K].empty()) {
      const auto& p = rowperm_[K];
      tmp.resize(static_cast<std::size_t>(b));
      for (index_t r = 0; r < b; ++r) tmp[p[r]] = xk[r];
      std::copy(tmp.begin(), tmp.end(), xk);
    }
  }
}

template <class T>
sparse::CscMatrix<T> LUFactors<T>::l_matrix() const {
  const symbolic::SymbolicLU& S = *sym_;
  sparse::CooMatrix<T> L(S.n, S.n);
  for (index_t K = 0; K < S.nsup; ++K) {
    const index_t b = S.block_cols(K);
    const index_t base = S.sn_start[K];
    for (index_t c = 0; c < b; ++c) {
      L.add(base + c, base + c, T{1});
      for (index_t r = c + 1; r < b; ++r) {
        const T v = lnz_[K][r + c * b];
        if (v != T{}) L.add(base + r, base + c, v);
      }
    }
    for (std::size_t bi = 0; bi < S.L[K].size(); ++bi) {
      const auto& rows = S.L[K][bi].rows;
      const index_t m = static_cast<index_t>(rows.size());
      const T* blk = lnz_[K].data() + l_off_[K][bi];
      for (index_t c = 0; c < b; ++c)
        for (index_t r = 0; r < m; ++r) {
          const T v = blk[r + c * m];
          if (v != T{}) L.add(rows[r], base + c, v);
        }
    }
  }
  return L.to_csc();
}

template <class T>
sparse::CscMatrix<T> LUFactors<T>::u_matrix() const {
  const symbolic::SymbolicLU& S = *sym_;
  sparse::CooMatrix<T> U(S.n, S.n);
  for (index_t K = 0; K < S.nsup; ++K) {
    const index_t b = S.block_cols(K);
    const index_t base = S.sn_start[K];
    for (index_t c = 0; c < b; ++c)
      for (index_t r = 0; r <= c; ++r) {
        const T v = lnz_[K][r + c * b];
        if (v != T{} || r == c) U.add(base + r, base + c, v);
      }
    for (std::size_t uj = 0; uj < S.U[K].size(); ++uj) {
      const auto& cols = S.U[K][uj].cols;
      const T* blk = unz_[K].data() + u_off_[K][uj];
      for (std::size_t cc = 0; cc < cols.size(); ++cc)
        for (index_t r = 0; r < b; ++r) {
          const T v = blk[r + cc * static_cast<std::size_t>(b)];
          if (v != T{}) U.add(base + r, cols[cc], v);
        }
    }
  }
  return U.to_csc();
}

template class LUFactors<double>;
template class LUFactors<float>;
template class LUFactors<Complex>;

}  // namespace gesp::numeric
