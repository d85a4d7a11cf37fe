// Elimination trees and postordering (Liu).
//
// With static pivoting the diagonal pivot order is fixed, so struct(L+U)
// lies inside the Cholesky structure of A+Aᵀ and the A+Aᵀ etree bounds
// what the factorization stores: symbolic::elimination_tree is sym_etree
// of that pattern, and drives the postorder and supernode amalgamation.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "ordering/patterns.hpp"

namespace gesp::ordering {

/// Elimination tree of a symmetric pattern. parent[j] == -1 for roots.
std::vector<index_t> sym_etree(const SymPattern& P);

/// Postorder of a forest given by parent pointers: returns the new-from-old
/// permutation `post` such that post[v] is v's position in a postorder
/// traversal (children before parents, and every subtree contiguous).
std::vector<index_t> postorder(std::span<const index_t> parent);

/// Number of descendants (including self) per node of the forest.
std::vector<index_t> subtree_sizes(std::span<const index_t> parent);

/// Height of each node above its deepest leaf (leaves have height 0).
std::vector<index_t> tree_heights(std::span<const index_t> parent);

}  // namespace gesp::ordering
