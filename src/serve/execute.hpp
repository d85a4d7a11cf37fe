// EntryExecutor — the one cache-entry execution core of the serve layer.
//
// Every serving path funnels into EntryExecutor::execute: the single-node
// worker with its coalesced batch, SolverService::warm with zero
// right-hand sides, and each shard of the sharded tier with one. That one
// function owns the request paths and their policy:
//
//   * the entry for the group's pattern is acquired and prepared — a cold
//     build, a value hit (value hash AND exact bytes), or a pattern hit
//     through Solver::refactorize_delta (ServiceOptions::values_delta) or
//     Solver::refactorize;
//   * the solves run (blocked solve_multi or one solve() per column, per
//     ServiceOptions::batch_mode), with an optional refinement override;
//   * the entry's bytes are accounted before the solves and re-accounted
//     after the solve that promotes it, before that answer is delivered,
//     so a mixed-precision promotion is charged;
//   * on any gesp::Error the entry is erased (evict_on_failure); a
//     recoverable failure gets one cold retry with the recovery ladder
//     armed;
//   * the per-pattern hostile reputation (hostile_threshold) caps that
//     retry spend.
//
// Counters go to a caller-given metrics::Registry: metrics::global() on a
// single node, the rank-local registry on a shard (aggregated at stop()).
#pragma once

#include <functional>
#include <mutex>
#include <span>
#include <unordered_map>

#include "common/metrics.hpp"
#include "serve/cache.hpp"
#include "serve/service.hpp"

namespace gesp::serve {

/// One right-hand side of a group: the requester's own matrix (same
/// pattern and values as the rest of the group) and its b.
template <class T>
struct GroupRhs {
  const sparse::CscMatrix<T>* A = nullptr;
  std::span<const T> b;
};

template <class T>
class EntryExecutor {
 public:
  /// Receives the answer for group position j (x, route flags, berr, ...).
  /// Runs with the entry locked, so it must not re-enter the executor.
  using Deliver = std::function<void(std::size_t j, Response<T>&& r)>;

  /// Entries are factored with opt.solver (its backend included) and held
  /// in a cache of `max_entries` / `max_bytes`.
  EntryExecutor(const ServiceOptions& opt, std::size_t max_entries,
                std::size_t max_bytes, metrics::Registry& reg);

  /// Run `group` (>= 0 right-hand sides) against the cache entry for
  /// (A, vhash); `key` is A's pattern key. Each answer is delivered as soon
  /// as it exists, so a per-column group answered partway through a failure
  /// retries only its unanswered remainder — from the first unanswered
  /// request's own matrix, because an answered client may already have
  /// destroyed A. Returns the route flags of the final attempt (x empty,
  /// batch_width = the group width that attempt ran). Throws the
  /// gesp::Error that ended the last attempt; the undelivered positions are
  /// then the caller's to fail.
  Response<T> execute(const sparse::CscMatrix<T>& A,
                      sparse::PatternKey key, std::uint64_t vhash,
                      std::span<const GroupRhs<T>> group,
                      const refine::RefineOptions* refine,
                      const Deliver& deliver);

  FactorizationCache<T>& cache() { return cache_; }
  const FactorizationCache<T>& cache() const { return cache_; }
  /// Whether `key`'s pattern has been marked hostile.
  bool is_hostile(const sparse::PatternKey& key) const;

 private:
  /// Per-pattern recovery reputation. Lives beside (not inside) the cache
  /// entries on purpose: the failure path evicts the poisoned entry, and
  /// the whole point of the hostile mark is to outlive that eviction.
  struct HostileState {
    int failed_recoveries = 0;  ///< consecutive armed-ladder failures
    bool hostile = false;
  };

  ServiceOptions opt_;
  FactorizationCache<T> cache_;
  metrics::Registry& reg_;
  mutable std::mutex hostile_mu_;  ///< leaf lock; never held across others
  std::unordered_map<sparse::PatternKey, HostileState, sparse::PatternKeyHash>
      hostile_;
};

/// Typed admission rejection shared by both front ends: counts
/// serve.rejected and throws Errc::overloaded.
[[noreturn]] void reject(const char* why);

extern template class EntryExecutor<double>;
extern template class EntryExecutor<Complex>;

}  // namespace gesp::serve
