// Numeric LU factors in the supernodal 2-D block layout of the paper's
// Figure 7, plus the serial right-looking factorization (Figure 8 on a
// single process) and the block triangular solves.
//
// Static pivoting fixes every block before the numerics, so the storage is
// laid out once, at construction, and every later factorization over the
// same analysis re-eliminates it in place. There is one elimination entry,
// refactorize_partial's dirty-set sweep: the constructor and a full
// refactorization run it with every supernode dirty.
//
// Storage per block column K of L: one column-major panel, as in SuperLU —
// the full b×b diagonal block on top (its upper triangle carries U's
// diagonal block) and every off-diagonal block stacked below it in block
// order, leading dimension b + Σ rows of L[K]. Storage per block row K of
// U: one buffer of dense b-high column segments, a b × Σ cols panel. The
// rows of any run of consecutive L blocks, and the columns of any run of
// consecutive U blocks, are thus one contiguous GEMM operand each.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "dense/kernels.hpp"
#include "sparse/csc.hpp"
#include "symbolic/symbolic.hpp"

namespace gesp::numeric {

namespace detail {
struct OwnerGroup;
}

/// Kept only because callers copy SolverOptions::schedule into
/// NumericOptions::schedule; kAuto is its single value. The thread count
/// alone selects how the elimination sweep runs (see num_threads).
enum class Schedule {
  kAuto,
};

/// Options for the numeric factorization.
struct NumericOptions {
  /// Absolute tiny-pivot replacement threshold (sqrt(eps)·||A|| in the GESP
  /// driver); <= 0 means fail on zero pivots instead (plain GENP).
  double tiny_threshold = 0.0;
  /// Replace tiny pivots by the block-column maximum instead of the
  /// threshold (paper §4 "aggressive pivot size control"); meaningful
  /// together with record_replacements + SMW recovery.
  bool aggressive_replacement = false;
  /// Record each replacement (global column, delta) so the solve can be
  /// corrected by the Sherman–Morrison–Woodbury formula.
  bool record_replacements = false;
  /// Shared-memory parallel factorization: 1 runs the elimination sweep's
  /// steps in the order it states them; more runs them as a task DAG over
  /// the supernodal elimination tree on this many threads. The factors are
  /// bitwise identical at every count.
  int num_threads = 1;
  /// Single-valued (see Schedule); nothing reads it.
  Schedule schedule = Schedule::kAuto;
  /// Pivot-selection strategy inside each diagonal block. Non-static
  /// strategies confine row interchanges to the diagonal block, so the
  /// symbolic structure is untouched; the local permutations are applied
  /// to the U row during the panel phase and replayed in the triangular
  /// solves. static_ is bitwise identical to the pre-portfolio kernels.
  /// Exclusive with record_replacements (the SMW correction assumes the
  /// unpivoted factorization).
  dense::PanelPivot panel_pivot = dense::PanelPivot::static_;
  /// Threshold-pivoting tau (see dense::PivotPolicy::threshold_tau).
  double pivot_threshold_tau = 0.1;
  /// In-flight element-growth abort: when > 0, the factorization throws
  /// Errc::unstable as soon as any supernode's max |U| exceeds
  /// growth_abort·max|A| — failing fast instead of completing a garbage
  /// factorization and waiting for refinement to notice. <= 0 disables.
  double growth_abort = 0.0;
};

template <class T>
class LUFactors {
 public:
  /// Lay out the block storage of `sym` and factorize the (already permuted
  /// and scaled) matrix into it: refactorize_partial with every supernode
  /// dirty. Throws Errc::numerically_singular on a zero pivot when
  /// replacement is disabled.
  LUFactors(std::shared_ptr<const symbolic::SymbolicLU> sym,
            const sparse::CscMatrix<T>& A, const NumericOptions& opt);

  const symbolic::SymbolicLU& sym() const { return *sym_; }

  /// Solve L·U·x = b in place (b and x in the permuted ordering).
  void solve(std::span<T> x) const;
  /// Multi-RHS variant: X is n-by-nrhs column-major (leading dimension n);
  /// all right-hand sides move through each block together, so the dense
  /// kernels run at matrix-matrix rather than matrix-vector intensity.
  void solve_multi(std::span<T> X, index_t nrhs) const;
  /// Forward substitution L·y = b in place (unit lower triangular L).
  void solve_lower(std::span<T> x) const;
  /// Backward substitution U·x = y in place.
  void solve_upper(std::span<T> x) const;
  /// Solve (L·U)ᵀ·x = b in place — the Aᵀ solves needed by the
  /// Hager–Higham condition/forward-error estimator.
  void solve_transposed(std::span<T> x) const;

  /// Recorded tiny-pivot perturbations (global column, delta added to the
  /// pivot); empty unless NumericOptions::record_replacements was set.
  const std::vector<std::pair<index_t, T>>& replacements() const {
    return replacements_;
  }

  /// Number of tiny pivots replaced (paper step (3)).
  count_t pivots_replaced() const { return stats_.replaced; }

  /// Within-block row interchanges performed (non-static panel_pivot).
  count_t pivot_swaps() const { return stats_.swaps; }

  /// Pivot growth max|u_ij| / max|a_ij| — the stability diagnostic.
  /// Computed incrementally per supernode by the in-flight monitor (the
  /// final value is identical to a whole-factor scan: max is associative).
  double pivot_growth() const { return growth_; }

  /// Local row permutation of supernode K's diagonal block (empty =
  /// identity). perm[r] = original local row now in position r; used by
  /// the distributed engine's solve mirror and the tests.
  const std::vector<index_t>& row_perm(index_t K) const {
    return rowperm_[K];
  }
  /// True when any diagonal block was actually permuted.
  bool pivoted() const { return pivoted_; }

  /// Export explicit factors for testing: L with unit diagonal, U upper
  /// triangular (stored zeros dropped).
  sparse::CscMatrix<T> l_matrix() const;
  sparse::CscMatrix<T> u_matrix() const;

  /// Raw block storage: K's L panel and U row panel (layout above). The
  /// bitwise tests and the delta bench compare these byte for byte.
  const std::vector<T>& l_store(index_t K) const { return lnz_[K]; }
  const std::vector<T>& u_store(index_t K) const { return unz_[K]; }

  /// Refactorize in place for new values over the SAME pattern — the one
  /// elimination entry. `dirty[K]` marks the supernodes whose inputs
  /// changed; the set must be closed under the update dependencies
  /// (symbolic::close_update_reachable) — a clean supernode's blocks then
  /// depend only on clean supernodes, so they are reused in place, bitwise
  /// unchanged. Dirty supernodes are re-scattered from `A` and
  /// re-eliminated, receiving the updates of every source (clean sources
  /// replay their pairs from the retained panels), in the serial
  /// ascending-K accumulation order — the result is bitwise identical to
  /// constructing a fresh LUFactors from `A` at any thread count.
  ///
  /// With every supernode dirty this is the full refactorization: no
  /// allocation, and `opt` may be any configuration (a recovery rung's).
  /// With clean supernodes, `opt` must describe the same pivoting
  /// configuration (and in particular the same tiny_threshold) as the
  /// previous factorization, or the clean blocks would encode stale
  /// decisions. A call that throws (zero pivot, growth abort) leaves no
  /// valid factorization: the solves then throw Errc::invalid_argument,
  /// and only a call with every supernode dirty is accepted.
  void refactorize_partial(const sparse::CscMatrix<T>& A,
                           const std::vector<char>& dirty,
                           const NumericOptions& opt);

 private:
  /// Block offsets and the per-supernode bookkeeping for sym_; the stores
  /// themselves are sized by the first sweep that zeroes them.
  void lay_out();
  /// Leading dimension of K's L panel.
  index_t ldl(index_t K) const { return l_row_[K].back(); }
  /// Scatter A's values into the block storage of the dirty supernodes
  /// (the rest keep their factored values). Recomputes amax_ over ALL of A.
  void scatter_values(const sparse::CscMatrix<T>& A,
                      const std::vector<char>& dirty);
  /// The one elimination sweep of every shared-memory engine: states the
  /// F / panel / monitor / band steps of each K with their dependencies,
  /// and runs them in that order on one thread or as a task DAG on more.
  /// Dirty supernodes run every step, clean ones only replay the bands of
  /// their owner groups whose owner is dirty.
  void sweep(const NumericOptions& opt, const dense::PivotPolicy& policy,
             const std::vector<char>& dirty);
  /// pivoted_ scan + per-K stats merge + growth finish + metrics (the
  /// common tail of every sweep); `aborted` says the growth monitor
  /// stopped the sweep early.
  void finish_elimination(bool aborted);
  /// Rebuild stats_/replacements_ from the per-supernode sinks in
  /// ascending K — the serial recording order.
  void merge_pivot_stats();
  /// Panel solves of supernode K: L(I,K) <- L(I,K)·U(K,K)^{-1} for the L
  /// blocks [lo, hi), U(K,J) <- L(K,K)^{-1}·P_K·U(K,J) for the U blocks
  /// [lo, hi).
  void panel_lower(index_t K, index_t lo, index_t hi);
  void panel_upper(index_t K, index_t lo, index_t hi);
  /// Per-thread scratch of update_band.
  struct UpdateScratch {
    std::vector<T> v;            ///< the band's stacked product
    std::vector<index_t> pos;    ///< subset positions in a destination
    std::vector<index_t> local;  ///< shared rows/cols, local to the owner
  };
  /// Every trailing-matrix update of source supernode K into the storage
  /// of the owners of the consecutive owner groups `band` (INTERNALS §11):
  /// one stacked dense::gemm_minus forms the band's products into a zeroed
  /// buffer, and each pair's part is then scatter-added into its
  /// destination block.
  void update_band(index_t K, std::span<const detail::OwnerGroup> band,
                   UpdateScratch& ws);
  /// Diagonal-block factorization of supernode K (strategy dispatch plus
  /// the local-permutation bookkeeping); stats/replacements go to the
  /// given per-K sinks so the task DAG can run F(K) concurrently.
  void factor_diag(index_t K, const dense::PivotPolicy& policy,
                   dense::PivotStats& stats,
                   std::vector<dense::PivotReplacement<T>>* repl);
  /// Apply supernode K's local row permutation to one b-by-ncols block.
  void permute_rows(const std::vector<index_t>& perm, T* blk, index_t b,
                    index_t ncols) const;
  /// In-flight growth monitor: max |U| over supernode K's finished row
  /// (diagonal upper triangle + U blocks), recorded in umax_k_[K].
  /// Returns true when the running growth exceeds the abort threshold.
  bool monitor_supernode(index_t K);
  /// Merge umax_k_ into growth_, publish metrics/trace, throw
  /// Errc::unstable when the abort threshold fired.
  void finish_growth(bool aborted);

  std::shared_ptr<const symbolic::SymbolicLU> sym_;
  std::vector<std::vector<T>> lnz_;  ///< per block column of L (+diag)
  std::vector<std::vector<T>> unz_;  ///< per block row of U
  /// First panel row of each L block of K (the diagonal block takes rows
  /// [0, b)), plus the panel's row count — its leading dimension — last.
  std::vector<std::vector<index_t>> l_row_;
  /// First panel column of each U block of K, plus the column count last.
  std::vector<std::vector<index_t>> u_col_;
  std::vector<std::vector<index_t>> rowperm_;  ///< per-supernode local perm
  std::vector<double> umax_k_;                 ///< per-supernode max |U|
  /// Per-supernode pivot bookkeeping, kept after the factorization so a
  /// partial refactorize can reset only the dirty supernodes' entries and
  /// re-merge; stats_/replacements_ are the ascending-K merge of these.
  std::vector<dense::PivotStats> stats_k_;
  std::vector<std::vector<dense::PivotReplacement<T>>> repl_k_;
  dense::PivotStats stats_;
  std::vector<std::pair<index_t, T>> replacements_;
  double growth_ = 0.0;
  double amax_ = 0.0;
  double growth_abort_ = 0.0;
  bool pivoted_ = false;
  bool valid_ = false;  ///< the last sweep finished (nothing threw)
};

extern template class LUFactors<double>;
extern template class LUFactors<float>;
extern template class LUFactors<Complex>;

}  // namespace gesp::numeric
