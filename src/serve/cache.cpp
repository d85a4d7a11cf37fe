#include "serve/cache.hpp"

#include <algorithm>
#include <cstring>

#include "common/metrics.hpp"

namespace gesp::serve {
namespace {

template <class T>
bool same_pattern(const CacheEntry<T>& e, const sparse::CscMatrix<T>& A) {
  if (e.colptr.size() != A.colptr.size() ||
      e.rowind.size() != A.rowind.size())
    return false;
  return std::memcmp(e.colptr.data(), A.colptr.data(),
                     e.colptr.size() * sizeof(index_t)) == 0 &&
         (e.rowind.empty() ||
          std::memcmp(e.rowind.data(), A.rowind.data(),
                      e.rowind.size() * sizeof(index_t)) == 0);
}

}  // namespace

template <class T>
FactorizationCache<T>::FactorizationCache(std::size_t max_entries,
                                          std::size_t max_bytes)
    : max_entries_(std::max<std::size_t>(1, max_entries)),
      max_bytes_(max_bytes) {}

template <class T>
typename FactorizationCache<T>::EntryPtr FactorizationCache<T>::acquire(
    const sparse::CscMatrix<T>& A, const sparse::PatternKey& key,
    bool* pattern_matched) {
  std::lock_guard lk(mu_);
  ++tick_;
  auto it = map_.find(key);
  if (it != map_.end()) {
    if (same_pattern(*it->second, A)) {
      it->second->last_use = tick_;
      if (pattern_matched) *pattern_matched = true;
      return it->second;
    }
    // 64-bit collision between distinct patterns: the map can only hold
    // one of them, so the incumbent makes way. Counted, because if this
    // ever fires in practice we want to know.
    metrics::global().counter("serve.cache.hash_collisions").inc();
    bytes_ -= it->second->bytes;
    map_.erase(it);
  }
  if (pattern_matched) *pattern_matched = false;
  auto e = std::make_shared<CacheEntry<T>>();
  e->key = key;
  e->colptr = A.colptr;
  e->rowind = A.rowind;
  e->last_use = tick_;
  map_.emplace(key, e);
  evict_over_budget_locked(e.get());
  publish_locked();
  return e;
}

template <class T>
void FactorizationCache<T>::update_bytes(const EntryPtr& e,
                                         std::size_t bytes,
                                         Precision precision) {
  std::lock_guard lk(mu_);
  auto it = map_.find(e->key);
  if (it == map_.end() || it->second != e) return;  // evicted meanwhile
  bytes_ += bytes - e->bytes;
  e->bytes = bytes;
  e->precision = precision;
  e->last_use = ++tick_;
  evict_over_budget_locked(e.get());
  publish_locked();
}

template <class T>
void FactorizationCache<T>::erase(const EntryPtr& e) {
  std::lock_guard lk(mu_);
  auto it = map_.find(e->key);
  if (it == map_.end() || it->second != e) return;
  bytes_ -= e->bytes;
  map_.erase(it);
  publish_locked();
}

template <class T>
void FactorizationCache<T>::evict_over_budget_locked(
    const CacheEntry<T>* keep) {
  while (map_.size() > max_entries_ ||
         (max_bytes_ > 0 && bytes_ > max_bytes_ && map_.size() > 1)) {
    auto victim = map_.end();
    for (auto it = map_.begin(); it != map_.end(); ++it) {
      if (it->second.get() == keep) continue;
      if (victim == map_.end() ||
          it->second->last_use < victim->second->last_use)
        victim = it;
    }
    if (victim == map_.end()) return;  // only `keep` left
    bytes_ -= victim->second->bytes;
    map_.erase(victim);
    metrics::global().counter("serve.cache.evictions").inc();
  }
}

template <class T>
void FactorizationCache<T>::publish_locked() {
  // Recomputed rather than tracked incrementally: every mutation path
  // (update, erase, eviction, collision) ends here, and the map is small
  // by construction (max_entries budget).
  single_bytes_ = 0;
  for (const auto& [key, e] : map_)
    if (e->precision == Precision::single) single_bytes_ += e->bytes;
  metrics::global().gauge("serve.cache.entries").set(
      static_cast<double>(map_.size()));
  metrics::global().gauge("serve.cache.bytes").set(
      static_cast<double>(bytes_));
  metrics::global().gauge("serve.cache.single_bytes").set(
      static_cast<double>(single_bytes_));
}

template <class T>
std::size_t FactorizationCache<T>::entries() const {
  std::lock_guard lk(mu_);
  return map_.size();
}

template <class T>
std::size_t FactorizationCache<T>::bytes() const {
  std::lock_guard lk(mu_);
  return bytes_;
}

template <class T>
std::size_t FactorizationCache<T>::single_bytes() const {
  std::lock_guard lk(mu_);
  return single_bytes_;
}

template <class T>
void FactorizationCache<T>::clear() {
  std::lock_guard lk(mu_);
  map_.clear();
  bytes_ = 0;
  publish_locked();
}

template class FactorizationCache<double>;
template class FactorizationCache<Complex>;

}  // namespace gesp::serve
