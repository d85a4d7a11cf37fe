#include "ordering/etree.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace gesp::ordering {

std::vector<index_t> sym_etree(const SymPattern& P) {
  const index_t n = P.n;
  std::vector<index_t> parent(static_cast<std::size_t>(n), -1);
  std::vector<index_t> ancestor(static_cast<std::size_t>(n), -1);
  for (index_t j = 0; j < n; ++j) {
    for (index_t p = P.ptr[j]; p < P.ptr[j + 1]; ++p) {
      index_t i = P.ind[p];
      if (i >= j) continue;
      // Walk up from i to the current root, compressing to j.
      while (ancestor[i] != -1 && ancestor[i] != j) {
        const index_t next = ancestor[i];
        ancestor[i] = j;
        i = next;
      }
      if (ancestor[i] == -1) {
        ancestor[i] = j;
        parent[i] = j;
      }
    }
  }
  return parent;
}

std::vector<index_t> postorder(std::span<const index_t> parent) {
  const index_t n = static_cast<index_t>(parent.size());
  // Build first-child / next-sibling, with children visited in index order.
  std::vector<index_t> first_child(static_cast<std::size_t>(n), -1);
  std::vector<index_t> next_sibling(static_cast<std::size_t>(n), -1);
  for (index_t v = n - 1; v >= 0; --v) {
    const index_t p = parent[v];
    if (p == -1) continue;
    GESP_CHECK(p >= 0 && p < n, Errc::invalid_argument, "bad parent pointer");
    next_sibling[v] = first_child[p];
    first_child[p] = v;
  }
  std::vector<index_t> post(static_cast<std::size_t>(n), -1);
  std::vector<index_t> stack;
  index_t counter = 0;
  for (index_t r = 0; r < n; ++r) {
    if (parent[r] != -1) continue;  // roots only
    stack.push_back(r);
    while (!stack.empty()) {
      const index_t v = stack.back();
      const index_t c = first_child[v];
      if (c != -1) {
        stack.push_back(c);
        first_child[v] = next_sibling[c];  // consume child
      } else {
        post[v] = counter++;
        stack.pop_back();
      }
    }
  }
  GESP_CHECK(counter == n, Errc::invalid_argument,
             "parent array is not a forest (cycle?)");
  return post;
}

std::vector<index_t> subtree_sizes(std::span<const index_t> parent) {
  const index_t n = static_cast<index_t>(parent.size());
  std::vector<index_t> size(static_cast<std::size_t>(n), 1);
  // Children precede parents in a postorder; but parent arrays from etrees
  // already satisfy child < parent, so one ascending pass suffices.
  for (index_t v = 0; v < n; ++v) {
    const index_t p = parent[v];
    if (p != -1) {
      GESP_CHECK(p > v, Errc::invalid_argument,
                 "subtree_sizes needs child < parent ordering");
      size[p] += size[v];
    }
  }
  return size;
}

std::vector<index_t> tree_heights(std::span<const index_t> parent) {
  const index_t n = static_cast<index_t>(parent.size());
  std::vector<index_t> height(static_cast<std::size_t>(n), 0);
  for (index_t v = 0; v < n; ++v) {
    const index_t p = parent[v];
    if (p != -1) height[p] = std::max(height[p], height[v] + 1);
  }
  return height;
}

}  // namespace gesp::ordering
