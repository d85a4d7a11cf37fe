#include "symbolic/symbolic.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "ordering/etree.hpp"
#include "ordering/patterns.hpp"

namespace gesp::symbolic {
namespace {

/// Per-column Gilbert–Peierls symbolic elimination with the diagonal pivot
/// order. Fills `Lcols[j]` with the row indices >= j of L(:,j) (diagonal
/// forced in, in no particular order), accumulates the exact factor
/// counts, and records which consecutive columns have nesting structures
/// (T2 supernode joins).
///
/// Speed comes from Eisenstat–Liu symmetric pruning: once a symmetric
/// nonzero pair L(j,k) / U(k,j) exists, rows of L(:,k) beyond j are
/// reachable through column j, so the depth-first searches of later columns
/// traverse only the pruned prefix of column k. Every unpruned column k the
/// search reaches is scanned whole, so meeting row j there detects L(j,k)
/// without a lookup. Pruning only reorders a column's list, never drops a
/// row, so the T2 test compares column j's set with column j-1's through
/// the visit marks, and nothing is sorted.
template <class T>
void gp_symbolic(const sparse::CscMatrix<T>& A,
                 std::vector<std::vector<index_t>>& Lcols, count_t& nnz_L,
                 count_t& nnz_U, std::vector<char>& t2_join) {
  const index_t n = A.ncols;
  Lcols.assign(static_cast<std::size_t>(n), {});
  t2_join.assign(static_cast<std::size_t>(n), 0);
  nnz_L = 0;
  nnz_U = n;  // U diagonal (the pivots)
  std::vector<index_t> visited(static_cast<std::size_t>(n), -1);
  std::vector<index_t> dfs_len(static_cast<std::size_t>(n), 0);
  std::vector<index_t> stack, pos;  // DFS state
  std::vector<index_t> lrows, ureach, prune;

  for (index_t j = 0; j < n; ++j) {
    lrows.clear();
    ureach.clear();
    prune.clear();
    visited[j] = j;
    lrows.push_back(j);  // diagonal always stored (static pivot slot)

    auto touch_row = [&](index_t i) {
      // A row below the diagonal extends L(:,j); one above starts a DFS
      // through the columns already factored (the U part of column j).
      if (visited[i] == j) return;
      visited[i] = j;
      if (i > j) {
        lrows.push_back(i);
        return;
      }
      // DFS from column i over the (pruned) graph of L.
      stack.assign(1, i);
      pos.assign(1, 0);
      ureach.push_back(i);
      while (!stack.empty()) {
        const std::size_t lvl = stack.size() - 1;
        const index_t k = stack[lvl];
        bool descended = false;
        // Indexed access: push_back below may reallocate pos.
        index_t q = pos[lvl];
        while (q < dfs_len[k]) {
          const index_t r = Lcols[k][q];
          ++q;
          if (visited[r] == j) {
            // A pruned prefix holds only rows <= its prune point < j, so
            // row j turns up in unpruned columns only.
            if (r == j) prune.push_back(k);
            continue;
          }
          visited[r] = j;
          if (r > j) {
            lrows.push_back(r);
          } else if (r < j) {
            ureach.push_back(r);
            pos[lvl] = q;
            stack.push_back(r);
            pos.push_back(0);
            descended = true;
            break;
          }
        }
        if (!descended) {
          stack.pop_back();
          pos.pop_back();
        }
      }
    };

    for (index_t p = A.colptr[j]; p < A.colptr[j + 1]; ++p)
      touch_row(A.rowind[p]);

    nnz_L += static_cast<count_t>(lrows.size());
    nnz_U += static_cast<count_t>(ureach.size());
    // Inline T2 test: struct(L(:,j)) == struct(L(:,j-1)) \ {j-1} ?
    if (j > 0 && Lcols[j - 1].size() == lrows.size() + 1)
      t2_join[j] = std::all_of(
          Lcols[j - 1].begin(), Lcols[j - 1].end(),
          [&](index_t r) { return r == j - 1 || visited[r] == j; });
    Lcols[j].assign(lrows.begin(), lrows.end());
    dfs_len[j] = static_cast<index_t>(lrows.size());

    // Symmetric pruning: k has U(k,j) != 0 (k in ureach) and L(j,k) != 0,
    // so rows of L(:,k) beyond j are reachable via column j.
    for (const index_t k : prune) {
      auto& col = Lcols[k];
      const auto mid = std::partition(col.begin(), col.end(),
                                      [j](index_t r) { return r <= j; });
      dfs_len[k] = static_cast<index_t>(mid - col.begin());
    }
  }
}

// Zero budget of the etree-chain amalgamation, by merged width w (CHOLMOD's
// defaults; Chen, Davis, Hager & Rajamanickam, ACM TOMS 2008): a merge
// always goes through up to kChainAlwaysWidth columns, and beyond that only
// while the estimated explicit-zero fraction of the merged L trapezoid
// stays below the bound of the first width class that holds w.
constexpr index_t kChainAlwaysWidth = 4;
constexpr index_t kChainSmallWidth = 16;
constexpr double kChainSmallZeros = 0.8;
constexpr index_t kChainMediumWidth = 48;
constexpr double kChainMediumZeros = 0.1;
constexpr double kChainLargeZeros = 0.05;

bool within_zero_budget(count_t w, double zero_frac) {
  if (w <= kChainAlwaysWidth) return true;
  if (w <= kChainSmallWidth) return zero_frac < kChainSmallZeros;
  if (w <= kChainMediumWidth) return zero_frac < kChainMediumZeros;
  return zero_frac < kChainLargeZeros;
}

/// Etree-chain amalgamation over the supernode boundaries `base` (size
/// N+1): walking left to right, supernode [a,b) absorbs the next one [b,c)
/// when b is the A+Aᵀ etree parent of b-1 and the merged supernode fits
/// the zero budget. The estimate compares the stored L trapezoid
/// w(w+1)/2 + w·r (w = c-a; r = rows >= c in the union of the merged
/// columns' L structures, gathered exactly) with Σ|L(:,j)| over them.
std::vector<index_t> amalgamate_chains(
    const std::vector<index_t>& base,
    const std::vector<std::vector<index_t>>& Lcols,
    std::span<const index_t> parent) {
  const index_t n = base.back();
  std::vector<index_t> merged;
  // mark[i] == b: row i is already gathered at the step of [b,c).
  std::vector<index_t> mark(static_cast<std::size_t>(n), -1);
  std::vector<index_t> cur, next;  // rows below [a,b); below [b,c) or [a,c)
  count_t cur_nnz = 0;
  index_t a = 0;
  for (std::size_t k = 0; k + 1 < base.size(); ++k) {
    const index_t b = base[k], c = base[k + 1];
    next.clear();
    count_t next_nnz = 0;
    for (index_t j = b; j < c; ++j) {
      next_nnz += static_cast<count_t>(Lcols[j].size());
      for (index_t i : Lcols[j])
        if (i >= c && mark[i] != b) {
          mark[i] = b;
          next.push_back(i);
        }
    }
    const std::size_t own = next.size();
    bool merge = false;
    if (k > 0 && parent[b - 1] == b) {
      for (index_t i : cur)
        if (i >= c && mark[i] != b) next.push_back(i);
      const count_t w = c - a, r = static_cast<count_t>(next.size());
      const count_t trapezoid = w * (w + 1) / 2 + w * r;
      const count_t zeros = trapezoid - cur_nnz - next_nnz;
      merge = within_zero_budget(
          w, static_cast<double>(zeros) / static_cast<double>(trapezoid));
    }
    if (merge) {
      cur_nnz += next_nnz;
    } else {
      next.resize(own);
      cur_nnz = next_nnz;
      merged.push_back(b);
      a = b;
    }
    std::swap(cur, next);
  }
  merged.push_back(n);
  return merged;
}

/// Partition columns into supernodes in three steps.
///  1. Fundamental partition: a column joins its neighbor when the L
///     structures nest exactly (T2 supernodes, flags precomputed by
///     gp_symbolic). With relax > 1, maximal etree leaf subtrees of at most
///     `relax` columns become one supernode each instead.
///  2. With relax > 0, amalgamate_chains.
///  3. Every supernode is split at max_block columns.
/// relax = 0 skips both amalgamations: the fundamental T2 partition.
std::vector<index_t> partition_supernodes(
    const std::vector<char>& t2_join,
    const std::vector<std::vector<index_t>>& Lcols,
    std::span<const index_t> parent, const SymbolicOptions& opt) {
  const index_t n = static_cast<index_t>(t2_join.size());
  if (n == 0) return {0};
  // Relaxed ranges: maximal subtrees of size <= relax. After an etree
  // postorder each subtree is the contiguous range [v-size[v]+1, v].
  const std::vector<index_t> size = ordering::subtree_sizes(parent);
  std::vector<index_t> range_id(static_cast<std::size_t>(n), -1);
  if (opt.relax > 1) {
    for (index_t v = 0; v < n; ++v) {
      if (size[v] > opt.relax) continue;
      const index_t p = parent[v];
      if (p != -1 && size[p] <= opt.relax) continue;  // not maximal
      for (index_t u = v - size[v] + 1; u <= v; ++u) range_id[u] = v;
    }
  }

  std::vector<index_t> base{0};
  for (index_t j = 1; j < n; ++j) {
    bool join;
    if (range_id[j] != -1 && range_id[j] == range_id[j - 1]) {
      join = true;  // inside a relaxed subtree
    } else if (range_id[j] != -1 || range_id[j - 1] != -1) {
      join = false;  // crossing a relaxed-range boundary
    } else {
      join = t2_join[j] != 0;
    }
    if (!join) base.push_back(j);
  }
  base.push_back(n);
  if (opt.relax > 0) base = amalgamate_chains(base, Lcols, parent);

  std::vector<index_t> sn_start;
  for (std::size_t k = 0; k + 1 < base.size(); ++k)
    for (index_t j = base[k]; j < base[k + 1]; j += opt.max_block)
      sn_start.push_back(j);
  sn_start.push_back(n);
  return sn_start;
}

/// The first supernode P with both a block L(P,O) and a block U(O,P), from
/// O's block lists (each sorted by supernode); the largest index_t when
/// there is none.
index_t first_symmetric_block(const std::vector<LBlock>& L,
                              const std::vector<UBlock>& U) {
  auto l = L.begin();
  auto u = U.begin();
  while (l != L.end() && u != U.end()) {
    if (l->I < u->J)
      ++l;
    else if (u->J < l->I)
      ++u;
    else
      return l->I;
  }
  return std::numeric_limits<index_t>::max();
}

}  // namespace

template <class T>
SymbolicLU analyze(const sparse::CscMatrix<T>& A, const SymbolicOptions& opt,
                   std::span<const index_t> etree) {
  GESP_CHECK(A.nrows == A.ncols, Errc::invalid_argument,
             "symbolic analysis needs a square matrix");
  GESP_CHECK(opt.max_block >= 1 && opt.relax >= 0, Errc::invalid_argument,
             "bad symbolic options");
  SymbolicLU S;
  S.n = A.ncols;
  if (S.n == 0) {
    S.sn_start.push_back(0);
    return S;
  }

  std::vector<index_t> own_etree;
  if (etree.empty()) {
    own_etree = elimination_tree(A);
    etree = own_etree;
  }
  GESP_CHECK(etree.size() == static_cast<std::size_t>(S.n),
             Errc::invalid_argument, "elimination tree size mismatch");

  // --- 1. exact per-column symbolic.
  std::vector<std::vector<index_t>> Lcols;
  std::vector<char> t2_join;
  gp_symbolic(A, Lcols, S.nnz_L, S.nnz_U, t2_join);

  // --- 2. supernode partition.
  S.sn_start = partition_supernodes(t2_join, Lcols, etree, opt);
  S.nsup = static_cast<index_t>(S.sn_start.size()) - 1;
  S.col_to_sn.resize(static_cast<std::size_t>(S.n));
  for (index_t K = 0; K < S.nsup; ++K)
    for (index_t j = S.sn_start[K]; j < S.sn_start[K + 1]; ++j)
      S.col_to_sn[j] = K;
  Lcols.clear();
  Lcols.shrink_to_fit();

  // --- 3. block structure by a destination-ordered gather. The block
  // right-looking elimination of Figure 8 makes block (I,O), O = min(I,J),
  // the union of A's pattern and one update per source K < O; gathering
  // those updates at O instead of pushing them at K gives the same sets
  // (INTERNALS §3). For O = 0..N-1:
  //   L(I,O) = A's rows ∪ rows(L(I,K)) for every K < O with a block U(K,O);
  //   U(O,J) = A's cols ∪ cols(U(K,J)) for every K < O with a block L(O,K).
  // Every source K < O was finalized at its own step, so O reads final
  // lists. lsrc[O] / usrc[O] collect those K as each K is finalized,
  // less the ones symmetric pruning (step 4) shows to be redundant.
  std::vector<std::vector<index_t>> Aseed_L(static_cast<std::size_t>(S.nsup));
  std::vector<std::vector<index_t>> Aseed_U(static_cast<std::size_t>(S.nsup));
  for (index_t j = 0; j < S.n; ++j) {
    const index_t J = S.col_to_sn[j];
    for (index_t p = A.colptr[j]; p < A.colptr[j + 1]; ++p) {
      const index_t i = A.rowind[p];
      const index_t I = S.col_to_sn[i];
      if (I > J)
        Aseed_L[J].push_back(i);
      else if (I < J)
        Aseed_U[I].push_back(j);
      // diagonal blocks are stored full; no pattern needed
    }
  }
  std::vector<std::vector<index_t>> lsrc(static_cast<std::size_t>(S.nsup));
  std::vector<std::vector<index_t>> usrc(static_cast<std::size_t>(S.nsup));
  // Stamped markers: rows/columns already gathered at step O hold O.
  std::vector<index_t> row_mark(static_cast<std::size_t>(S.n), -1);
  std::vector<index_t> col_mark(static_cast<std::size_t>(S.n), -1);
  std::vector<index_t> gathered;
  S.L.resize(static_cast<std::size_t>(S.nsup));
  S.U.resize(static_cast<std::size_t>(S.nsup));
  S.sn_parent.assign(static_cast<std::size_t>(S.nsup), -1);

  // Split a sorted index list into per-supernode blocks: indices of one
  // supernode are contiguous, so block order is index order.
  auto split = [&](auto& blocks) {
    std::sort(gathered.begin(), gathered.end());
    for (std::size_t p = 0; p < gathered.size();) {
      const index_t B = S.col_to_sn[gathered[p]];
      std::size_t q = p + 1;
      while (q < gathered.size() && S.col_to_sn[gathered[q]] == B) ++q;
      blocks.push_back({B, std::vector<index_t>(gathered.begin() + p,
                                                gathered.begin() + q)});
      p = q;
    }
  };

  for (index_t O = 0; O < S.nsup; ++O) {
    // L(:,O): rows below supernode O.
    gathered.clear();
    auto mark_row = [&](index_t i) {
      if (row_mark[i] == O) return;
      row_mark[i] = O;
      gathered.push_back(i);
    };
    for (index_t i : Aseed_L[O]) mark_row(i);
    for (index_t K : usrc[O]) {
      const auto& LK = S.L[K];
      auto it = std::upper_bound(
          LK.begin(), LK.end(), O,
          [](index_t v, const LBlock& blk) { return v < blk.I; });
      for (; it != LK.end(); ++it)
        for (index_t i : it->rows) mark_row(i);
    }
    split(S.L[O]);
    // U(O,:): columns right of supernode O.
    gathered.clear();
    auto mark_col = [&](index_t j) {
      if (col_mark[j] == O) return;
      col_mark[j] = O;
      gathered.push_back(j);
    };
    for (index_t j : Aseed_U[O]) mark_col(j);
    for (index_t K : lsrc[O]) {
      const auto& UK = S.U[K];
      auto it = std::upper_bound(
          UK.begin(), UK.end(), O,
          [](index_t v, const UBlock& blk) { return v < blk.J; });
      for (; it != UK.end(); ++it)
        for (index_t j : it->cols) mark_col(j);
    }
    split(S.U[O]);
    Aseed_L[O] = {};
    Aseed_U[O] = {};
    lsrc[O] = {};
    usrc[O] = {};

    // --- 4. stored sizes, flops and the supernodal etree of O, and O as a
    // source for its later destinations. Supernodal symmetric pruning: let
    // P be the first supernode with both L(P,O) and U(O,P). P gathers from
    // O, so L(:,P) holds O's rows below P and U(P,:) O's columns right of
    // P, and every destination past P that O feeds is fed by P (or, by the
    // same argument, by P's own prune point) with a superset. O therefore
    // registers only with destinations <= P; the sets do not change.
    const index_t P = first_symmetric_block(S.L[O], S.U[O]);
    const count_t b = S.block_cols(O);
    count_t sum_m = 0, sum_c = 0;
    for (const auto& blk : S.L[O]) {
      sum_m += static_cast<count_t>(blk.rows.size());
      if (blk.I <= P) lsrc[blk.I].push_back(O);
    }
    for (const auto& blk : S.U[O]) {
      sum_c += static_cast<count_t>(blk.cols.size());
      if (blk.J <= P) usrc[blk.J].push_back(O);
    }
    S.stored_L += b * b + sum_m * b;  // diagonal block stored full
    S.stored_U += b * sum_c;
    // getrf + the two panel solves + the rank-b update pairs
    // (Σ_pairs 2·m·b·c = 2·b·Σm·Σc).
    S.flops += 2 * b * b * b / 3 + sum_m * b * b + b * b * sum_c +
               2 * b * sum_m * sum_c;
    if (!S.L[O].empty()) S.sn_parent[O] = S.L[O].front().I;
  }
  return S;
}

template <class T>
std::vector<index_t> elimination_tree(const sparse::CscMatrix<T>& A) {
  return ordering::sym_etree(ordering::aplusat_pattern(A));
}

void close_update_reachable(const SymbolicLU& S, std::vector<char>& dirty) {
  GESP_CHECK(dirty.size() == static_cast<std::size_t>(S.nsup),
             Errc::invalid_argument,
             "dirty set size does not match the supernode count");
  for (index_t K = 0; K < S.nsup; ++K) {
    if (!dirty[K]) continue;
    if (S.L[K].empty() || S.U[K].empty()) continue;  // no update pairs
    const index_t maxI = S.L[K].back().I;
    const index_t maxJ = S.U[K].back().J;
    // A pair (I, J) with owner I exists iff some J >= I does (I <= maxJ);
    // symmetrically for owners from the U side.
    for (const auto& blk : S.L[K])
      if (blk.I <= maxJ) dirty[blk.I] = 1;
    for (const auto& blk : S.U[K])
      if (blk.J <= maxI) dirty[blk.J] = 1;
  }
}

template SymbolicLU analyze(const sparse::CscMatrix<double>&,
                            const SymbolicOptions&, std::span<const index_t>);
template SymbolicLU analyze(const sparse::CscMatrix<Complex>&,
                            const SymbolicOptions&, std::span<const index_t>);
template std::vector<index_t> elimination_tree(
    const sparse::CscMatrix<double>&);
template std::vector<index_t> elimination_tree(
    const sparse::CscMatrix<Complex>&);

}  // namespace gesp::symbolic
