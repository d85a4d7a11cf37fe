// Elimination trees and postordering (Liu).
//
// With static pivoting the diagonal pivot order is fixed, so struct(L+U)
// lies inside the Cholesky structure of A+Aᵀ and the A+Aᵀ etree bounds
// what the factorization stores: symbolic::elimination_tree is sym_etree
// of that pattern, and drives the postorder and supernode amalgamation.
// The transform gets the same tree of the column-ordered matrix from its
// ordering graph with sym_etree_permuted, without permuting the matrix.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "ordering/patterns.hpp"

namespace gesp::ordering {

/// Elimination tree of a symmetric pattern. parent[j] == -1 for roots.
std::vector<index_t> sym_etree(const SymPattern& P);

/// Elimination tree of P relabelled by the new-from-old permutation `perm`
/// (vertex v becomes perm[v]): sym_etree of the symmetrically permuted
/// pattern, computed without building it. The etree is unique, so visiting
/// the relabelled neighbours in P's order gives the same tree.
std::vector<index_t> sym_etree_permuted(const SymPattern& P,
                                        std::span<const index_t> perm);

/// Postorder of a forest given by parent pointers: returns the new-from-old
/// permutation `post` such that post[v] is v's position in a postorder
/// traversal (children before parents, and every subtree contiguous).
std::vector<index_t> postorder(std::span<const index_t> parent);

/// Number of descendants (including self) per node of the forest.
std::vector<index_t> subtree_sizes(std::span<const index_t> parent);

}  // namespace gesp::ordering
