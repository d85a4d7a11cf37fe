// Pattern-keyed factorization cache — the serve layer's asset store.
//
// GESP's static pivoting makes a factorization a *reusable asset*: every
// expensive decision (scalings, permutations, symbolic structure) is fixed
// before numerics begin, so a request whose matrix shares a cached sparsity
// pattern takes the refactorize fast path, and a request whose (pattern,
// values) pair is already factored skips straight to the triangular solves.
// This cache holds those assets keyed by sparse::PatternKey, with LRU +
// byte-budget eviction.
//
// Concurrency model: the cache map is guarded by one mutex (lookups are
// cheap — a hash probe plus an O(nnz) index comparison on hits); each entry
// carries its own execution mutex serializing use of the contained Solver,
// so requests against *different* patterns factor and solve concurrently.
// Entries are handed out as shared_ptr: eviction only unlinks an entry from
// the map, and a batch still executing on it finishes on its own reference.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/solver.hpp"
#include "sparse/csc.hpp"

namespace gesp::serve {

/// Bitwise equality of value arrays — the byte view sparse::value_hash
/// takes (so +0.0 != -0.0 and NaN == NaN, matching the hash).
template <class T>
bool same_values(const std::vector<T>& cached, const std::vector<T>& now) {
  return cached.size() == now.size() &&
         (cached.empty() ||
          std::memcmp(cached.data(), now.data(),
                      cached.size() * sizeof(T)) == 0);
}

/// One cached analysis + factorization.
template <class T>
struct CacheEntry {
  sparse::PatternKey key;
  /// Exact pattern arrays, compared on every hit: a 64-bit hash collision
  /// must degrade to a miss, never reuse a wrong symbolic structure.
  std::vector<index_t> colptr, rowind;
  std::mutex mu;                      ///< execution lock for `solver`
  std::unique_ptr<Solver<T>> solver;  ///< null until the first factorization
  std::uint64_t value_hash = 0;       ///< values currently factored
  /// Exact value bytes currently factored, compared on every value-hash
  /// hit: like the pattern arrays above, a 64-bit hash collision must
  /// degrade to a refactorize, never serve stale factors. Guarded by `mu`.
  std::vector<T> values;
  std::size_t bytes = 0;              ///< footprint estimate (cache mutex)
  /// Precision of the stored factors (cache mutex, recorded with `bytes`).
  /// Single-precision entries hold their factor values at half the bytes,
  /// so a mixed-mode service packs ~2× the factorizations into one budget.
  Precision precision = Precision::double_;
  std::uint64_t last_use = 0;         ///< LRU tick (cache mutex)
};

/// Thread-safe LRU cache bounded by entry count and total byte estimate.
/// Publishes serve.cache.{entries,bytes} gauges and
/// serve.cache.{evictions,hash_collisions} counters.
template <class T>
class FactorizationCache {
 public:
  using EntryPtr = std::shared_ptr<CacheEntry<T>>;

  FactorizationCache(std::size_t max_entries, std::size_t max_bytes);

  /// Find the entry for A's pattern, or insert a fresh (unfactored) one.
  /// `key` is sparse::pattern_key(A), fingerprinted once per request by the
  /// caller. `pattern_matched` reports whether an existing entry was found
  /// — key AND exact index-array equality; a hash collision with different
  /// arrays evicts the colliding incumbent and counts as a miss. Bumps the
  /// LRU tick either way.
  EntryPtr acquire(const sparse::CscMatrix<T>& A,
                   const sparse::PatternKey& key, bool* pattern_matched);

  /// Record the re-measured byte footprint of `e` (call after every
  /// factorization/refactorization) and the precision its factors are
  /// stored at, then evict least-recently-used entries — never `e` itself —
  /// until both budgets hold.
  void update_bytes(const EntryPtr& e, std::size_t bytes,
                    Precision precision = Precision::double_);

  /// Unlink `e` (failure path: a poisoned factorization must not be
  /// served again). No-op if `e` was already evicted or replaced.
  void erase(const EntryPtr& e);

  std::size_t entries() const;
  std::size_t bytes() const;
  /// Bytes held by entries whose factors are stored in single precision.
  std::size_t single_bytes() const;
  std::size_t max_entries() const { return max_entries_; }
  std::size_t max_bytes() const { return max_bytes_; }
  void clear();

 private:
  void evict_over_budget_locked(const CacheEntry<T>* keep);
  void publish_locked();

  mutable std::mutex mu_;
  std::unordered_map<sparse::PatternKey, EntryPtr, sparse::PatternKeyHash>
      map_;
  std::size_t max_entries_;
  std::size_t max_bytes_;
  std::size_t bytes_ = 0;
  std::size_t single_bytes_ = 0;  ///< recomputed in publish_locked
  std::uint64_t tick_ = 0;
};

extern template class FactorizationCache<double>;
extern template class FactorizationCache<Complex>;

}  // namespace gesp::serve
