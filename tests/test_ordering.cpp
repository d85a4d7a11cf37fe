// Ordering tests: pattern builders, elimination trees and postorder, AMD
// fill reduction (checked against the actual factor sizes from the symbolic
// phase) and RCM bandwidth reduction.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "ordering/amd.hpp"
#include "ordering/etree.hpp"
#include "ordering/patterns.hpp"
#include "ordering/rcm.hpp"
#include "sparse/coo.hpp"
#include "sparse/generators.hpp"
#include "symbolic/symbolic.hpp"

namespace gesp::ordering {
namespace {

using sparse::CooMatrix;
using sparse::CscMatrix;

count_t fill_under(const CscMatrix<double>& A,
                   const std::vector<index_t>& perm) {
  // Apply perm symmetrically (A has a full diagonal in these tests after
  // permutation because the pattern is structurally symmetric).
  const auto B = sparse::permute(A, perm, perm);
  const auto S = symbolic::analyze(B, {});
  return S.nnz_L + S.nnz_U;
}

TEST(Patterns, AtaOfIdentityIsEmpty) {
  CooMatrix<double> coo(4, 4);
  for (index_t i = 0; i < 4; ++i) coo.add(i, i, 1.0);
  const auto P = ata_pattern(coo.to_csc());
  EXPECT_EQ(P.nnz(), 0);  // diagonal excluded
}

TEST(Patterns, AtaCouplesColumnsSharingARow) {
  // Row 0 touches columns 0,1,2 -> clique {0,1,2} in AᵀA.
  CooMatrix<double> coo(3, 3);
  coo.add(0, 0, 1);
  coo.add(0, 1, 1);
  coo.add(0, 2, 1);
  coo.add(1, 1, 1);
  coo.add(2, 2, 1);
  const auto P = ata_pattern(coo.to_csc());
  EXPECT_EQ(P.nnz(), 6);  // 3 symmetric pairs
}

TEST(Patterns, AplusAtSymmetric) {
  const auto A = sparse::random_unsymmetric({});
  const auto P = aplusat_pattern(A);
  // Verify symmetry: edge (i,j) implies (j,i).
  for (index_t j = 0; j < P.n; ++j)
    for (index_t p = P.ptr[j]; p < P.ptr[j + 1]; ++p) {
      const index_t i = P.ind[p];
      const auto row = std::span<const index_t>(P.ind.data() + P.ptr[i],
                                                P.ptr[i + 1] - P.ptr[i]);
      EXPECT_TRUE(std::binary_search(row.begin(), row.end(), j));
    }
}

TEST(Etree, ChainForTridiagonal) {
  // Symmetric tridiagonal: etree is the path 0 -> 1 -> ... -> n-1.
  const index_t n = 20;
  CooMatrix<double> coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, 2.0);
    if (i > 0) {
      coo.add(i, i - 1, -1.0);
      coo.add(i - 1, i, -1.0);
    }
  }
  const auto parent = sym_etree(aplusat_pattern(coo.to_csc()));
  for (index_t i = 0; i + 1 < n; ++i) EXPECT_EQ(parent[i], i + 1);
  EXPECT_EQ(parent[n - 1], -1);
}

TEST(Etree, PostorderIsValidPermutation) {
  const auto A = sparse::convdiff2d(9, 9, 1.0, 0.0);
  const auto parent = sym_etree(aplusat_pattern(A));
  const auto post = postorder(parent);
  EXPECT_TRUE(sparse::is_permutation(post));
  // Children must come before parents.
  for (index_t v = 0; v < A.ncols; ++v) {
    if (parent[v] != -1) {
      EXPECT_LT(post[v], post[parent[v]]);
    }
  }
}

TEST(Etree, SubtreeSizesSumAtRoots) {
  const auto A = sparse::laplacian2d(7, 7);
  const auto parent = sym_etree(aplusat_pattern(A));
  const auto size = subtree_sizes(parent);
  index_t total = 0;
  for (index_t v = 0; v < A.ncols; ++v)
    if (parent[v] == -1) total += size[v];
  EXPECT_EQ(total, A.ncols);
}

TEST(Etree, SymEtreeParentsAreLater) {
  const auto A = sparse::laplacian2d(6, 5);
  const auto P = aplusat_pattern(A);
  const auto p1 = sym_etree(P);
  for (index_t v = 0; v < P.n; ++v) {
    if (p1[v] != -1) {
      EXPECT_GT(p1[v], v);
    }
  }
}

TEST(Amd, ValidPermutation) {
  const auto A = sparse::convdiff2d(12, 12, 1.0, 0.5);
  const auto perm = amd_order(ata_pattern(A));
  EXPECT_TRUE(sparse::is_permutation(perm));
}

TEST(Amd, ReducesFillVersusNatural) {
  const auto A = sparse::laplacian2d(20, 20);
  const auto natural = fill_under(A, natural_order(A.ncols));
  const auto amd = fill_under(A, amd_order(aplusat_pattern(A)));
  // 2-D Laplacian: natural (banded) fill is O(n^1.5·n^0.5); AMD should cut
  // it by a large factor.
  EXPECT_LT(amd, natural * 0.7);
}

TEST(Amd, NearOptimalOnGrid) {
  // Sanity bound: nnz(L) for a 2-D grid under a good ordering is
  // O(n log n); check against a generous constant.
  const auto A = sparse::laplacian2d(30, 30);
  const auto S_amd = fill_under(A, amd_order(aplusat_pattern(A)));
  const double n = 900;
  EXPECT_LT(static_cast<double>(S_amd), 60.0 * n * std::log2(n));
}

TEST(Amd, HandlesDenseRows) {
  // A matrix with a few dense rows/columns (hubs) must not stall AMD.
  const auto A = sparse::circuit_like(3000, 10, 200, 5);
  const auto perm = amd_order(aplusat_pattern(A));
  EXPECT_TRUE(sparse::is_permutation(perm));
}

TEST(Amd, EmptyAndTinyGraphs) {
  SymPattern empty;
  empty.n = 0;
  empty.ptr = {0};
  EXPECT_TRUE(amd_order(empty).empty());
  SymPattern single;
  single.n = 1;
  single.ptr = {0, 0};
  EXPECT_EQ(amd_order(single), std::vector<index_t>{0});
}

TEST(Amd, DisconnectedComponents) {
  // Two disjoint cliques.
  CooMatrix<double> coo(8, 8);
  for (index_t a = 0; a < 4; ++a)
    for (index_t b = 0; b < 4; ++b) coo.add(a, b, 1.0);
  for (index_t a = 4; a < 8; ++a)
    for (index_t b = 4; b < 8; ++b) coo.add(a, b, 1.0);
  const auto perm = amd_order(aplusat_pattern(coo.to_csc()));
  EXPECT_TRUE(sparse::is_permutation(perm));
}

TEST(Rcm, ValidPermutation) {
  const auto A = sparse::convdiff2d(10, 14, 0.5, 0.25);
  const auto perm = rcm_order(aplusat_pattern(A));
  EXPECT_TRUE(sparse::is_permutation(perm));
}

TEST(Rcm, ReducesBandwidth) {
  // Random symmetric sparse matrix: RCM should shrink the bandwidth well
  // below a random ordering's.
  sparse::RandomSpec spec;
  spec.n = 400;
  spec.nnz_per_row = 3;
  spec.structural_symmetry = 1.0;
  spec.bandwidth = 0.05;
  spec.seed = 31;
  const auto A = sparse::random_unsymmetric(spec);
  const auto P = aplusat_pattern(A);
  auto bandwidth = [&](const std::vector<index_t>& perm) {
    index_t bw = 0;
    for (index_t j = 0; j < P.n; ++j)
      for (index_t p = P.ptr[j]; p < P.ptr[j + 1]; ++p)
        bw = std::max(bw, std::abs(perm[P.ind[p]] - perm[j]));
    return bw;
  };
  const index_t bw_rcm = bandwidth(rcm_order(P));
  // Scrambled baseline.
  Rng rng(32);
  std::vector<index_t> scrambled(P.n);
  for (index_t i = 0; i < P.n; ++i) scrambled[i] = i;
  for (index_t i = P.n - 1; i > 0; --i)
    std::swap(scrambled[i], scrambled[rng.next_index(i + 1)]);
  EXPECT_LT(bw_rcm, bandwidth(scrambled) / 2);
}

TEST(Rcm, HandlesDisconnectedGraph) {
  CooMatrix<double> coo(6, 6);
  coo.add(0, 1, 1);
  coo.add(1, 0, 1);
  coo.add(3, 4, 1);
  coo.add(4, 3, 1);
  for (index_t i = 0; i < 6; ++i) coo.add(i, i, 1);
  const auto perm = rcm_order(aplusat_pattern(coo.to_csc()));
  EXPECT_TRUE(sparse::is_permutation(perm));
}

}  // namespace
}  // namespace gesp::ordering
