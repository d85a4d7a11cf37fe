// Symbolic factorization tests: exact fill counts against a dense boolean
// elimination oracle, supernode partition invariants, block-structure
// closure, the block structure against a right-looking replay oracle, and
// the effect of relaxation / max-block splitting.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/solver.hpp"
#include "ordering/etree.hpp"
#include "sparse/coo.hpp"
#include "sparse/generators.hpp"
#include "sparse/testbed.hpp"
#include "symbolic/symbolic.hpp"

namespace gesp::symbolic {
namespace {

using sparse::CooMatrix;
using sparse::CscMatrix;

/// Dense boolean Gaussian elimination with diagonal pivots — the ground
/// truth for the fill pattern of L and U under static pivoting. Returns the
/// column-major n×n pattern of L+U.
std::vector<char> dense_fill_pattern(const CscMatrix<double>& A) {
  const index_t n = A.ncols;
  std::vector<char> B(static_cast<std::size_t>(n) * n, 0);
  for (index_t j = 0; j < n; ++j) {
    B[j + j * static_cast<std::size_t>(n)] = 1;  // structural pivot slot
    for (index_t p = A.colptr[j]; p < A.colptr[j + 1]; ++p)
      B[A.rowind[p] + j * static_cast<std::size_t>(n)] = 1;
  }
  for (index_t k = 0; k < n; ++k)
    for (index_t i = k + 1; i < n; ++i) {
      if (!B[i + k * static_cast<std::size_t>(n)]) continue;
      for (index_t j = k + 1; j < n; ++j)
        if (B[k + j * static_cast<std::size_t>(n)])
          B[i + j * static_cast<std::size_t>(n)] = 1;
    }
  return B;
}

void dense_fill_oracle(const CscMatrix<double>& A, count_t& nnz_l,
                       count_t& nnz_u) {
  const index_t n = A.ncols;
  const std::vector<char> B = dense_fill_pattern(A);
  nnz_l = 0;
  nnz_u = 0;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      if (!B[i + j * static_cast<std::size_t>(n)]) continue;
      if (i >= j) ++nnz_l;
      if (i <= j) ++nnz_u;
    }
}

CscMatrix<double> random_full_diag(index_t n, index_t per_row,
                                   std::uint64_t seed) {
  Rng rng(seed);
  CooMatrix<double> coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, 4.0);
    for (index_t k = 0; k < per_row; ++k) {
      const index_t j = rng.next_index(n);
      if (j != i) coo.add(i, j, rng.uniform(-1.0, 1.0));
    }
  }
  return coo.to_csc();
}

TEST(Symbolic, ExactFillMatchesDenseOracleRandom) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto A = random_full_diag(60, 3, seed);
    count_t ol = 0, ou = 0;
    dense_fill_oracle(A, ol, ou);
    const auto S = analyze(A, {});
    EXPECT_EQ(S.nnz_L, ol) << "seed " << seed;
    EXPECT_EQ(S.nnz_U, ou) << "seed " << seed;
  }
}

TEST(Symbolic, ExactFillMatchesDenseOracleGrid) {
  const auto A = sparse::convdiff2d(7, 6, 1.0, 0.5);
  count_t ol = 0, ou = 0;
  dense_fill_oracle(A, ol, ou);
  const auto S = analyze(A, {});
  EXPECT_EQ(S.nnz_L, ol);
  EXPECT_EQ(S.nnz_U, ou);
}

TEST(Symbolic, TriangularMatrixHasNoFill) {
  const index_t n = 50;
  CooMatrix<double> coo(n, n);
  Rng rng(5);
  count_t nnz_lower = n;
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, 1.0);
    for (index_t k = 0; k < 3; ++k) {
      const index_t j = rng.next_index(n);
      if (j < i) {
        coo.add(i, j, 1.0);
      }
    }
  }
  const auto A = coo.to_csc();
  const auto S = analyze(A, {});
  (void)nnz_lower;
  EXPECT_EQ(S.nnz_L, A.nnz());  // L = A's lower triangle incl. diag
  EXPECT_EQ(S.nnz_U, static_cast<count_t>(n));  // U = diagonal only
}

TEST(Symbolic, SupernodePartitionCoversAllColumns) {
  const auto A = sparse::convdiff2d(11, 13, 2.0, 1.0);
  const auto S = analyze(A, {});
  EXPECT_EQ(S.sn_start.front(), 0);
  EXPECT_EQ(S.sn_start.back(), A.ncols);
  for (index_t K = 0; K < S.nsup; ++K) {
    EXPECT_LT(S.sn_start[K], S.sn_start[K + 1]);
    for (index_t j = S.sn_start[K]; j < S.sn_start[K + 1]; ++j)
      EXPECT_EQ(S.col_to_sn[j], K);
  }
}

TEST(Symbolic, MaxBlockSplittingBoundsWidth) {
  const auto A = sparse::device_like(10, 30, 100, 7);
  SymbolicOptions opt;
  opt.max_block = 6;
  const auto S = analyze(A, opt);
  for (index_t K = 0; K < S.nsup; ++K) EXPECT_LE(S.block_cols(K), 6);
}

TEST(Symbolic, RelaxationMergesSmallSupernodes) {
  const auto A = sparse::circuit_like(2000, 5, 10, 9);
  SymbolicOptions none;
  none.relax = 0;
  SymbolicOptions relaxed;
  relaxed.relax = 12;
  const auto S0 = analyze(A, none);
  const auto S1 = analyze(A, relaxed);
  EXPECT_LT(S1.nsup, S0.nsup);       // fewer, larger supernodes
  EXPECT_GE(S1.stored_L, S0.stored_L);  // at the cost of stored zeros
}

count_t update_pairs(const SymbolicLU& S) {
  count_t pairs = 0;
  for (index_t K = 0; K < S.nsup; ++K)
    pairs += static_cast<count_t>(S.L[K].size()) *
             static_cast<count_t>(S.U[K].size());
  return pairs;
}

/// Matrices in the order the numeric phase factors them (the solver's
/// transform, etree postorder included), where chain amalgamation acts.
std::vector<CscMatrix<double>> ordered_partition_inputs() {
  std::vector<CscMatrix<double>> out;
  for (const char* name : {"sherman-s", "add20-s", "west0497-s", "mcca-s"})
    out.push_back(
        compute_transform(sparse::testbed_entry(name).make(), SolverOptions{})
            .At);
  out.push_back(
      compute_transform(sparse::circuit_like(2000, 5, 10, 9), SolverOptions{})
          .At);
  return out;
}

TEST(Symbolic, ChainAmalgamationMergesOnlyEtreeChainEdges) {
  // Without the max_block split, the relaxed partition only removes
  // boundaries of the fundamental one. Each removed boundary b is either
  // inside a relaxed leaf subtree (at most `relax` columns) or a chain
  // edge of the elimination tree: parent[b-1] == b.
  for (const auto& A : ordered_partition_inputs()) {
    const std::vector<index_t> parent = elimination_tree(A);
    const std::vector<index_t> size = ordering::subtree_sizes(parent);
    for (const index_t relax : {1, 8}) {
      SymbolicOptions fund, opt;
      fund.relax = 0;
      fund.max_block = opt.max_block = A.ncols;
      opt.relax = relax;
      const auto F = analyze(A, fund).sn_start;
      const auto S = analyze(A, opt).sn_start;
      ASSERT_LT(S.size(), F.size());
      EXPECT_TRUE(std::includes(F.begin(), F.end(), S.begin(), S.end()));
      for (const index_t b : F) {
        if (std::binary_search(S.begin(), S.end(), b)) continue;
        if (parent[b - 1] == b) continue;
        // Not a chain edge: b-1 and b must share a maximal relaxed subtree.
        index_t v = b;
        while (parent[v] != -1 && size[parent[v]] <= relax) v = parent[v];
        EXPECT_TRUE(size[v] <= relax && v - size[v] + 1 <= b - 1)
            << "column " << b << " merged off the etree chain, relax "
            << relax;
      }
    }
  }
}

TEST(Symbolic, AmalgamatedSupernodesRespectMaxBlock) {
  for (const auto& A : ordered_partition_inputs())
    for (const index_t max_block : {1, 4, 8, 24}) {
      SymbolicOptions opt;
      opt.max_block = max_block;
      const auto S = analyze(A, opt);
      for (index_t K = 0; K < S.nsup; ++K)
        EXPECT_LE(S.block_cols(K), max_block);
    }
}

TEST(Symbolic, RelaxZeroIsTheFundamentalPartition) {
  // relax = 0 turns amalgamation off: column j joins j-1 exactly when
  // struct(L(:,j)) == struct(L(:,j-1)) \ {j-1} (T2), and runs are cut at
  // max_block columns from their start.
  for (const auto& A :
       {random_full_diag(200, 3, 21), sparse::convdiff2d(12, 11, 1.0, 0.5)}) {
    const index_t n = A.ncols;
    const std::vector<char> B = dense_fill_pattern(A);
    auto lrows_equal_shifted = [&](index_t j) {
      for (index_t i = j; i < n; ++i)
        if (B[i + (j - 1) * static_cast<std::size_t>(n)] !=
            B[i + j * static_cast<std::size_t>(n)])
          return false;
      return true;
    };
    for (const index_t max_block : {4, 24, n}) {
      std::vector<index_t> expect{0};
      index_t width = 1;
      for (index_t j = 1; j < n; ++j) {
        if (lrows_equal_shifted(j) && width < max_block) {
          ++width;
        } else {
          expect.push_back(j);
          width = 1;
        }
      }
      expect.push_back(n);
      SymbolicOptions opt;
      opt.relax = 0;
      opt.max_block = max_block;
      EXPECT_EQ(analyze(A, opt).sn_start, expect) << "max_block "
                                                   << max_block;
    }
  }
}

TEST(Symbolic, ChainAmalgamationCutsUpdatePairs) {
  // The circuit class has 2-3-column fundamental supernodes strung along
  // etree chains; amalgamating them cuts Σ_K |L[K]|·|U[K]| at least 3×.
  const auto A =
      compute_transform(sparse::circuit_like(2000, 5, 10, 9), SolverOptions{})
          .At;
  SymbolicOptions none;
  none.relax = 0;
  const count_t fundamental = update_pairs(analyze(A, none));
  const count_t relaxed = update_pairs(analyze(A, {}));
  EXPECT_GE(fundamental, 3 * relaxed)
      << fundamental << " pairs fundamental, " << relaxed << " relaxed";
}

TEST(Symbolic, StoredSizesCoverExactFill) {
  const auto A = sparse::convdiff2d(15, 15, 1.0, 0.5);
  const auto S = analyze(A, {});
  EXPECT_GE(S.stored_L, S.nnz_L);
  // U entries inside diagonal blocks live in the L store, so compare the
  // combined stored size against the combined exact fill.
  EXPECT_GE(S.stored_L + S.stored_U, S.nnz_L + S.nnz_U - S.n);
}

TEST(Symbolic, BlockStructureClosedUnderUpdates) {
  // Replay closure property: for every K and every pair (I>K from L, J>K
  // from U), the destination block must exist with a superset pattern.
  const auto A = random_full_diag(300, 4, 11);
  const auto S = analyze(A, {});
  for (index_t K = 0; K < S.nsup; ++K) {
    for (const auto& lb : S.L[K]) {
      for (const auto& ub : S.U[K]) {
        if (lb.I > ub.J) {
          const auto& blocks = S.L[ub.J];
          const auto it = std::find_if(
              blocks.begin(), blocks.end(),
              [&](const LBlock& b) { return b.I == lb.I; });
          ASSERT_NE(it, blocks.end());
          EXPECT_TRUE(std::includes(it->rows.begin(), it->rows.end(),
                                    lb.rows.begin(), lb.rows.end()));
        } else if (lb.I < ub.J) {
          const auto& blocks = S.U[lb.I];
          const auto it = std::find_if(
              blocks.begin(), blocks.end(),
              [&](const UBlock& b) { return b.J == ub.J; });
          ASSERT_NE(it, blocks.end());
          EXPECT_TRUE(std::includes(it->cols.begin(), it->cols.end(),
                                    ub.cols.begin(), ub.cols.end()));
        }
      }
    }
  }
}

TEST(Symbolic, SupernodeEtreeParentsAreLater) {
  const auto A = sparse::convdiff2d(13, 9, 1.5, 0.0);
  const auto S = analyze(A, {});
  for (index_t K = 0; K < S.nsup; ++K) {
    if (S.sn_parent[K] != -1) {
      EXPECT_GT(S.sn_parent[K], K);
    }
  }
}

TEST(Symbolic, FlopsGrowWithFill) {
  const auto A1 = sparse::laplacian2d(10, 10);
  const auto A2 = sparse::laplacian2d(20, 20);
  const auto S1 = analyze(A1, {});
  const auto S2 = analyze(A2, {});
  EXPECT_GT(S2.flops, S1.flops);
  EXPECT_GT(S1.flops, 0);
}

TEST(Symbolic, FillLiesOnEliminationTreeAncestors) {
  // With the diagonal pivots fixed, struct(L+U) lies inside the Cholesky
  // structure of A+Aᵀ: every fill entry (i, j) or (j, i) with i > j has i
  // on the path from j to its root in elimination_tree(A).
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto A = random_full_diag(80, 2, 30 + seed);
    const index_t n = A.ncols;
    const std::vector<index_t> parent = elimination_tree(A);
    const std::vector<char> B = dense_fill_pattern(A);
    for (index_t j = 0; j < n; ++j) {
      std::vector<char> ancestor(static_cast<std::size_t>(n), 0);
      for (index_t v = parent[j]; v != -1; v = parent[v]) ancestor[v] = 1;
      for (index_t i = j + 1; i < n; ++i) {
        const bool l = B[i + j * static_cast<std::size_t>(n)] != 0;
        const bool u = B[j + i * static_cast<std::size_t>(n)] != 0;
        if (l || u) {
          EXPECT_TRUE(ancestor[i])
              << "seed " << seed << ": fill (" << i << ", " << j << ")";
        }
      }
    }
  }
}

TEST(Symbolic, EtreePostorderKeepsFillInvariant) {
  const auto A = sparse::convdiff2d(12, 12, 1.0, 0.5);
  const auto post = etree_postorder(A);
  const auto B = sparse::permute(A, post, post);
  const auto SA = analyze(A, {});
  const auto SB = analyze(B, {});
  // A topological reordering of the etree does not change the fill.
  EXPECT_EQ(SA.nnz_L, SB.nnz_L);
  EXPECT_EQ(SA.nnz_U, SB.nnz_U);
}

TEST(Symbolic, WideSupernodesOnDenseBlocks) {
  // A block-dense matrix should produce supernodes as wide as max_block.
  const auto A = sparse::device_like(6, 40, 0, 13);
  const auto S = analyze(A, {});
  index_t widest = 0;
  for (index_t K = 0; K < S.nsup; ++K)
    widest = std::max(widest, S.block_cols(K));
  EXPECT_EQ(widest, SymbolicOptions{}.max_block);
}

/// Reference block structure: the block right-looking elimination of the
/// paper's Figure 8 replayed on patterns over the supernode partition of
/// `part` — at iteration K every (L-block I, U-block J) pair unions its
/// row/column set into block (I,J). analyze() gathers the same sets in
/// destination order; this is the straightforward push formulation.
SymbolicLU replay_block_structure(const CscMatrix<double>& A,
                                  const SymbolicLU& part) {
  SymbolicLU S;
  S.n = part.n;
  S.nsup = part.nsup;
  S.sn_start = part.sn_start;
  S.col_to_sn = part.col_to_sn;
  // Lblk[K]: I -> rows of L(I,K); Ublk[K]: J -> cols of U(K,J).
  std::vector<std::map<index_t, std::vector<index_t>>> Lblk(
      static_cast<std::size_t>(S.nsup));
  std::vector<std::map<index_t, std::vector<index_t>>> Ublk(
      static_cast<std::size_t>(S.nsup));
  for (index_t j = 0; j < S.n; ++j) {
    const index_t J = S.col_to_sn[j];
    for (index_t p = A.colptr[j]; p < A.colptr[j + 1]; ++p) {
      const index_t i = A.rowind[p];
      const index_t I = S.col_to_sn[i];
      if (I > J)
        Lblk[J][I].push_back(i);
      else if (I < J)
        Ublk[I][J].push_back(j);
    }
  }
  auto normalize = [](std::vector<index_t>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  for (index_t K = 0; K < S.nsup; ++K) {
    for (auto& [I, rows] : Lblk[K]) normalize(rows);
    for (auto& [J, cols] : Ublk[K]) normalize(cols);
  }
  // By iteration K, Lblk[K]/Ublk[K] have received every update (they only
  // come from iterations < K), so they are final when read.
  std::vector<index_t> merged;
  auto union_into = [&](std::vector<index_t>& dst,
                        const std::vector<index_t>& src) {
    merged.clear();
    std::set_union(dst.begin(), dst.end(), src.begin(), src.end(),
                   std::back_inserter(merged));
    if (merged.size() != dst.size()) dst = merged;
  };
  for (index_t K = 0; K < S.nsup; ++K) {
    const count_t b = S.block_cols(K);
    S.flops += 2 * b * b * b / 3;
    for (const auto& [I, rows] : Lblk[K])
      S.flops += static_cast<count_t>(rows.size()) * b * b;
    for (const auto& [J, cols] : Ublk[K])
      S.flops += b * b * static_cast<count_t>(cols.size());
    for (const auto& [I, rows] : Lblk[K])
      for (const auto& [J, cols] : Ublk[K]) {
        S.flops += 2 * static_cast<count_t>(rows.size()) * b *
                   static_cast<count_t>(cols.size());
        if (I > J)
          union_into(Lblk[J][I], rows);
        else if (I < J)
          union_into(Ublk[I][J], cols);
      }
  }
  S.L.resize(static_cast<std::size_t>(S.nsup));
  S.U.resize(static_cast<std::size_t>(S.nsup));
  S.sn_parent.assign(static_cast<std::size_t>(S.nsup), -1);
  for (index_t K = 0; K < S.nsup; ++K) {
    const count_t b = S.block_cols(K);
    S.stored_L += b * b;
    for (auto& [I, rows] : Lblk[K]) {
      S.stored_L += static_cast<count_t>(rows.size()) * b;
      S.L[K].push_back(LBlock{I, std::move(rows)});
    }
    for (auto& [J, cols] : Ublk[K]) {
      S.stored_U += b * static_cast<count_t>(cols.size());
      S.U[K].push_back(UBlock{J, std::move(cols)});
    }
    if (!S.L[K].empty()) S.sn_parent[K] = S.L[K].front().I;
  }
  return S;
}

/// analyze() against the replay oracle for every max_block × relax. The
/// oracle depends only on A and the partition, so it is rerun only when
/// the partition changes (relax is moot at max_block = 1).
void expect_matches_replay(const CscMatrix<double>& A,
                           const std::string& what) {
  SymbolicLU R;
  for (const index_t max_block : {1, 8, 24, 48}) {
    for (const index_t relax : {0, 8}) {
      SymbolicOptions opt;
      opt.max_block = max_block;
      opt.relax = relax;
      const SymbolicLU S = analyze(A, opt);
      if (S.sn_start != R.sn_start) R = replay_block_structure(A, S);
      SCOPED_TRACE(what + " max_block=" + std::to_string(max_block) +
                   " relax=" + std::to_string(relax));
      EXPECT_EQ(S.flops, R.flops);
      EXPECT_EQ(S.stored_L, R.stored_L);
      EXPECT_EQ(S.stored_U, R.stored_U);
      EXPECT_EQ(S.sn_parent, R.sn_parent);
      ASSERT_EQ(S.L.size(), R.L.size());
      ASSERT_EQ(S.U.size(), R.U.size());
      for (index_t K = 0; K < S.nsup; ++K) {
        ASSERT_EQ(S.L[K].size(), R.L[K].size()) << "K=" << K;
        for (std::size_t p = 0; p < S.L[K].size(); ++p) {
          EXPECT_EQ(S.L[K][p].I, R.L[K][p].I) << "K=" << K;
          EXPECT_EQ(S.L[K][p].rows, R.L[K][p].rows) << "K=" << K;
        }
        ASSERT_EQ(S.U[K].size(), R.U[K].size()) << "K=" << K;
        for (std::size_t p = 0; p < S.U[K].size(); ++p) {
          EXPECT_EQ(S.U[K][p].J, R.U[K][p].J) << "K=" << K;
          EXPECT_EQ(S.U[K][p].cols, R.U[K][p].cols) << "K=" << K;
        }
      }
    }
  }
}

// Stored-entry gate: amalgamation at the default relax stores at most
// kMaxStoredGrowth times the fundamental (relax = 0) partition of the same
// transform. Amalgamating along a tree other than the one that bounds the
// fill broke this by two orders of magnitude.
constexpr double kMaxStoredGrowth = 4.0;

void expect_stored_within_gate(ColOrderOption order, bool skip_large) {
  SolverOptions opt;
  opt.col_order = order;
  SymbolicOptions fund = opt.symbolic;
  fund.relax = 0;
  for (const auto& e : sparse::testbed()) {
    if (skip_large && e.large) continue;
    const auto At = compute_transform(e.make(), opt).At;
    const SymbolicLU S0 = analyze(At, fund);
    const SymbolicLU S = analyze(At, opt.symbolic);
    const double ratio = static_cast<double>(S.stored_L + S.stored_U) /
                         static_cast<double>(S0.stored_L + S0.stored_U);
    EXPECT_LE(ratio, kMaxStoredGrowth)
        << e.name << ": " << S.stored_L + S.stored_U << " stored at relax "
        << opt.symbolic.relax << ", " << S0.stored_L + S0.stored_U
        << " at relax 0";
  }
}

// natural is left to bench_ablation_relax, which sweeps every order: its
// full-testbed symbolic run is too slow for tier-1.
TEST(StoredGate, AmdAtaOverTestbed) {
  expect_stored_within_gate(ColOrderOption::amd_ata, false);
}

TEST(StoredGate, AmdAplusatOverTestbed) {
  expect_stored_within_gate(ColOrderOption::amd_aplusat, false);
}

TEST(StoredGate, NestedDissectionOverTestbed) {
  expect_stored_within_gate(ColOrderOption::nested_dissection, false);
}

TEST(StoredGate, RcmOverNonLargeTestbed) {
  expect_stored_within_gate(ColOrderOption::rcm, true);
}

TEST(Symbolic, BlockStructureMatchesReplayOracleGenerated) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    expect_matches_replay(random_full_diag(300, 4, seed),
                          "random_full_diag seed " + std::to_string(seed));
  expect_matches_replay(sparse::convdiff2d(17, 13, 2.0, 1.0), "convdiff2d");
  expect_matches_replay(sparse::laplacian2d(20, 20), "laplacian2d");
}

TEST(Symbolic, BlockStructureMatchesReplayOracleTestbed) {
  // Small testbed entries from every problem class whose scalar
  // (max_block = 1) oracle replay stays cheap, through the solver's own
  // transform (scaling, large-diagonal row permutation, fill-reducing
  // order + postorder), so the structures are the ones the numeric phase
  // really factors. Zero-diagonal entries included.
  for (const char* name :
       {"cfd2d-a-s", "cfd2d-b-s", "fidap-a-s", "struct-a-s", "plate-a-s",
        "orsirr-s", "sherman-s", "saylr-s", "add20-s", "west0497-s",
        "bcspwr-s", "mcca-s", "cancel-a-s", "goodwin-s"}) {
    const auto tr = compute_transform(sparse::testbed_entry(name).make(),
                                      SolverOptions{});
    expect_matches_replay(tr.At, name);
  }
}

}  // namespace
}  // namespace gesp::symbolic
