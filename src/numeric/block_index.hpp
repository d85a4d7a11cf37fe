// Index lookups inside the static block structure, shared by the
// shared-memory (numeric/lu_factors) and distributed (dist/dist_lu) engines.
// Internal to the numeric engines: not part of the public API.
//
// Every lookup asserts membership instead of inserting: the symbolic phase
// closed the structure under the numeric updates (INTERNALS §3), so a miss
// is a broken invariant, never a missing entry to allocate.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "symbolic/symbolic.hpp"

namespace gesp::numeric::detail {

inline index_t block_key(const symbolic::LBlock& blk) { return blk.I; }
inline index_t block_key(const symbolic::UBlock& blk) { return blk.J; }

/// Binary search a block list (sorted by block index) for block `key`;
/// returns its position or -1.
template <class Block>
index_t find_block(const std::vector<Block>& blocks, index_t key) {
  const auto it = std::lower_bound(
      blocks.begin(), blocks.end(), key,
      [](const Block& blk, index_t k) { return block_key(blk) < k; });
  if (it == blocks.end() || block_key(*it) != key) return -1;
  return static_cast<index_t>(it - blocks.begin());
}

/// Forward cursor over a sorted block list: `seek(key)` returns the
/// position of block `key`, which must be present and no smaller than the
/// previous key. A walk over ascending keys thus costs one pass over the
/// list instead of one binary search per key; when the keys are sparse in
/// the list (`nkeys` · 8 < size) each seek gallops by binary search from
/// the cursor instead.
template <class Block>
class BlockCursor {
 public:
  BlockCursor(const std::vector<Block>& blocks, std::size_t nkeys)
      : blocks_(blocks), search_(nkeys * 8 < blocks.size()) {}

  std::size_t seek(index_t key) {
    if (search_)
      q_ = static_cast<std::size_t>(
          std::lower_bound(
              blocks_.begin() + static_cast<std::ptrdiff_t>(q_), blocks_.end(),
              key,
              [](const Block& blk, index_t k) { return block_key(blk) < k; }) -
          blocks_.begin());
    else
      while (q_ < blocks_.size() && block_key(blocks_[q_]) < key) ++q_;
    GESP_ASSERT(q_ < blocks_.size() && block_key(blocks_[q_]) == key,
                "missing destination block");
    return q_;
  }

 private:
  const std::vector<Block>& blocks_;
  const bool search_;
  std::size_t q_ = 0;
};

/// The update pairs (I, J) of one source supernode K whose destination
/// storage belongs to owner supernode O = min(I, J) (INTERNALS §11):
/// {(O, J) : J >= O} ∪ {(I, O) : I > O}. li / ui are the first L[K] / U[K]
/// blocks with I >= O / J >= O; has_row / has_col say whether L[K][li].I
/// / U[K][ui].J equals O.
struct OwnerGroup {
  index_t O, li, ui;
  bool has_row, has_col;
};

/// K's owner groups in ascending O: one two-pointer walk over the sorted
/// L[K] and U[K], O = min(next row block I, next column block J).
inline void owner_groups(const symbolic::SymbolicLU& S, index_t K,
                         std::vector<OwnerGroup>& groups) {
  groups.clear();
  const auto& LK = S.L[K];
  const auto& UK = S.U[K];
  if (LK.empty() || UK.empty()) return;  // no update pairs
  const index_t nl = static_cast<index_t>(LK.size());
  const index_t nu = static_cast<index_t>(UK.size());
  index_t li = 0, ui = 0;
  while (li < nl || ui < nu) {
    const index_t rowI = li < nl ? LK[li].I : S.nsup;
    const index_t colJ = ui < nu ? UK[ui].J : S.nsup;
    const index_t O = std::min(rowI, colJ);
    const bool has_row = rowI == O, has_col = colJ == O;
    // A row block past the last column block (or vice versa) pairs with
    // nothing: every remaining group would be empty.
    if ((has_row && ui == nu) || (has_col && !has_row && li == nl)) break;
    groups.push_back({O, li, ui, has_row, has_col});
    if (has_row) ++li;
    if (has_col) ++ui;
  }
}

/// Position of each element of `sub` inside the sorted superset `full`.
/// A sub that is sparse in `full` (|sub| · 8 < |full|, e.g. a 2-3-row update
/// into a several-hundred-row destination block) binary-searches from the
/// last match instead of merging, so the cost follows |sub|, not |full|.
inline void subset_positions(std::span<const index_t> sub,
                             std::span<const index_t> full,
                             std::vector<index_t>& pos) {
  pos.resize(sub.size());
  std::size_t q = 0;
  const bool search = sub.size() * 8 < full.size();
  for (std::size_t p = 0; p < sub.size(); ++p) {
    if (search)
      q = static_cast<std::size_t>(
          std::lower_bound(full.begin() + static_cast<std::ptrdiff_t>(q),
                           full.end(), sub[p]) -
          full.begin());
    else
      while (q < full.size() && full[q] < sub[p]) ++q;
    GESP_ASSERT(q < full.size() && full[q] == sub[p],
                "symbolic structure is not closed under updates");
    pos[p] = static_cast<index_t>(q);
  }
}

/// Product-to-destination positions for dense::gemm_minus_scatter: nullptr
/// (the identity) when `sub` is all of `full`, else subset_positions into
/// `pos`.
inline const index_t* scatter_positions(std::span<const index_t> sub,
                                        std::span<const index_t> full,
                                        std::vector<index_t>& pos) {
  if (sub.size() == full.size()) return nullptr;
  subset_positions(sub, full, pos);
  return pos.data();
}

/// The same for indices into a contiguous range [base, base + width) —
/// rows or columns of a supernode's own block: nullptr when `idx` covers
/// the whole range, else the offsets idx - base in `pos`.
inline const index_t* local_positions(std::span<const index_t> idx,
                                      index_t base, index_t width,
                                      std::vector<index_t>& pos) {
  if (static_cast<index_t>(idx.size()) == width) return nullptr;
  pos.resize(idx.size());
  for (std::size_t x = 0; x < idx.size(); ++x) pos[x] = idx[x] - base;
  return pos.data();
}

}  // namespace gesp::numeric::detail
