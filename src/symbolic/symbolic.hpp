// Symbolic factorization for Gaussian elimination with STATIC pivoting.
//
// Because GESP fixes the pivot order before numerics begin, the entire
// nonzero structure of L and U — and therefore every data structure and
// every message of the distributed factorization — can be computed here,
// once. This file implements:
//
//  1. Gilbert–Peierls reachability symbolic LU for the fixed (diagonal)
//     pivot order: exact per-column L patterns and exact nnz(L), nnz(U).
//  2. Supernode detection (consecutive columns with identical L structure),
//     relaxed amalgamation of small A+Aᵀ etree subtrees, amalgamation
//     along A+Aᵀ etree chains under a zero budget (the paper's "merge
//     small supernodes into large ones", with CHOLMOD's width-graded
//     budget: merged width <= 4 always, <= 16 below 80% estimated zeros,
//     <= 48 below 10%, wider below 5%), and splitting of oversized
//     supernodes at `max_block` columns (the paper found 20-30 best on the
//     T3E and used 24; the default here is 48).
//  3. The nonuniform block partition of Figure 7: for every supernode pair,
//     the row list of each L block and the column list of each U block —
//     the patterns the block right-looking elimination of Figure 8 produces.
//     They are gathered in destination order: block column/row O is A's
//     pattern united with the final blocks of every earlier supernode that
//     updates O, so each block is built once, in one pass. A source stops
//     feeding destinations past the first supernode it has both an L and
//     a U block with, which carries its rows and columns on (symmetric
//     pruning one level up). The numeric phase performs exactly these
//     updates, so the structure is closed by construction.
//
// The input matrix must already carry the final row/column permutations
// (large-diagonal + fill-reducing + etree postorder) and have a zero-free
// diagonal.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "sparse/csc.hpp"

namespace gesp::symbolic {

struct SymbolicOptions {
  /// Amalgamation. relax > 0 merges each supernode into the next one
  /// along an A+Aᵀ etree chain (b-1's parent is b) while the merged L
  /// trapezoid's estimated zero fraction fits the budget: width <= 4
  /// always, <= 16 below 80%, <= 48 below 10%, wider below 5%. relax > 1
  /// also makes every maximal etree leaf subtree of at most `relax`
  /// columns one supernode. relax = 0 gives the fundamental (T2)
  /// partition.
  index_t relax = 8;
  /// Split supernodes wider than this. The paper used 24 (20-30 was best
  /// on the T3E); 48 feeds the dense kernels twice-as-wide panels, and the
  /// paper benches (bench::paper_options) keep 24.
  index_t max_block = 48;
};

/// One off-diagonal block of L in the 2-D partition.
struct LBlock {
  index_t I;                  ///< block-row index (supernode), I > K
  std::vector<index_t> rows;  ///< sorted global row indices present
};

/// One off-diagonal block of U in the 2-D partition.
struct UBlock {
  index_t J;                  ///< block-column index, J > K
  std::vector<index_t> cols;  ///< sorted global column indices present
};

/// Full result of the symbolic phase.
struct SymbolicLU {
  index_t n = 0;
  index_t nsup = 0;               ///< number of supernodes N
  std::vector<index_t> sn_start;  ///< size N+1; supernode K = cols [sn_start[K], sn_start[K+1])
  std::vector<index_t> col_to_sn; ///< size n

  /// Exact factor sizes from the per-column symbolic (diagonal included in
  /// both L and U as in the paper's nnz(L+U) convention: L unit-diagonal
  /// entries are not double counted).
  count_t nnz_L = 0;  ///< nonzeros of L including unit diagonal
  count_t nnz_U = 0;  ///< nonzeros of U including diagonal

  /// Stored sizes of the supernodal block structure (>= exact, because of
  /// relaxation and dense-block storage).
  count_t stored_L = 0;
  count_t stored_U = 0;

  /// Block structure, indexed by supernode.
  std::vector<std::vector<LBlock>> L;  ///< [K] -> blocks I > K, sorted by I
  std::vector<std::vector<UBlock>> U;  ///< [K] -> blocks J > K, sorted by J

  /// Supernodal elimination tree: parent supernode of K (-1 for roots);
  /// parent(K) = block of the first below-diagonal row of block column K.
  std::vector<index_t> sn_parent;

  /// Floating-point operation count of the numeric factorization
  /// (getrf + trsm + gemm over the block structure; real flops — a complex
  /// factorization costs 4x the multiplies).
  count_t flops = 0;

  index_t block_cols(index_t K) const { return sn_start[K + 1] - sn_start[K]; }
};

/// Run the symbolic phase on the fully permuted matrix.
/// `etree` is elimination_tree(A) when the caller already has it (the
/// transform outputs it as TransformResult::etree); empty, analyze
/// computes it. Throws Errc::structurally_singular if a diagonal entry is
/// structurally missing (callers should have pre-pivoted via the matching
/// phase).
template <class T>
SymbolicLU analyze(const sparse::CscMatrix<T>& A,
                   const SymbolicOptions& opt = {},
                   std::span<const index_t> etree = {});

/// The one elimination tree of the static path: the etree of A+Aᵀ
/// (parent[j] == -1 for roots). With the diagonal pivot order fixed,
/// struct(L+U) lies inside the Cholesky structure of A+Aᵀ, so this tree
/// bounds what the factorization stores. The transform's postorder and
/// both amalgamations of `analyze` read it.
template <class T>
std::vector<index_t> elimination_tree(const sparse::CscMatrix<T>& A);

/// Close a per-supernode dirty set under the numeric update dependencies,
/// in place. A supernode O must be re-eliminated when any source K < O
/// with an update pair (I, J), O = min(I, J), is itself dirty: the pair
/// writes into O's storage, so O's blocks depend on K's panels. Every
/// owner of K's pairs is > K, so one ascending-K sweep computes the full
/// transitive closure. The owner set of K is exact (not the etree-ancestor
/// superset): {I in L[K] : I <= max J} ∪ {J in U[K] : J <= max I}.
void close_update_reachable(const SymbolicLU& S, std::vector<char>& dirty);

extern template SymbolicLU analyze(const sparse::CscMatrix<double>&,
                                   const SymbolicOptions&,
                                   std::span<const index_t>);
extern template SymbolicLU analyze(const sparse::CscMatrix<Complex>&,
                                   const SymbolicOptions&,
                                   std::span<const index_t>);
extern template std::vector<index_t> elimination_tree(
    const sparse::CscMatrix<double>&);
extern template std::vector<index_t> elimination_tree(
    const sparse::CscMatrix<Complex>&);

}  // namespace gesp::symbolic
