// ShardedTier — the Backend::dist serving tier behind SolverService.
//
// The paper's point is that static pivoting makes the factorization a
// schedulable, *distributable* asset; this tier distributes the serve
// layer's asset store itself. A MiniMPI world of R = pr*pc ranks runs
// inside the service process: rank 0 is the gateway (and a shard server),
// ranks 1..R-1 are shard servers, and every rank owns one shard of the
// pattern-keyed factorization cache — the existing LRU + byte-budget
// FactorizationCache, one instance per rank, so the fleet caches ~R x the
// patterns of a single node under the same per-rank budget.
//
// Each shard runs its requests through its own EntryExecutor
// (execute.hpp), the execution core the single-node service uses: one
// right-hand side per request, none for a warm or a replication. Cold /
// value-hit / pattern-hit preparation, byte accounting, failure eviction
// with the armed retry, and the hostile reputation are therefore the
// single-node rules, and the core's factor_cold / refactorize / solve
// trace spans name the same work on every backend. The shard itself keeps
// only routing, the replica flag, promotion counting, the collective
// fall-through and the transport; the response envelope carries the
// core's Response fields, the recovery trail included.
//
// Routing is rendezvous (HRW) hashing over sparse::PatternKey: every rank
// scores every (key, rank) pair with the same pure mix function, and the
// descending score order IS the key's owner preference list — no routing
// table, no rebalancing state, and a dead rank's keys deterministically
// re-route to the next rank in their order. Hot patterns are replicated to
// the top-2 rendezvous ranks: the primary counts its hits and flags the
// gateway at promote_hits, the gateway ships the matrix to the backup, and
// a later failover (or explicit route to the backup) serves from the
// replica (Response::replica_hit).
//
// Matrices whose pre-factorization estimate (core estimate_factor_bytes)
// exceeds one shard's byte budget fall through to a cooperative DistSolver
// factorization spanning the whole grid: the gateway drains all in-flight
// shard traffic (quiescence — serve envelopes and collective tags never
// interleave), broadcasts the episode, and every rank participates in
// lockstep. Each rank keeps a one-entry collective cache so repeated
// over-budget patterns refactorize instead of rebuilding.
//
// Failure contract (chaos-hardened with the PR-1 FaultInjector): the world
// runs with WorldOptions::survive_failures — a killed rank is marked dead
// instead of poisoning the fleet. The gateway notices the death on its
// next poll: the dead rank's shard is evicted, its in-flight requests are
// re-sent to the next alive rendezvous owner (serve.shard.reroutes), and
// future requests with a dead primary route to their backup
// (serve.shard.failovers). Collective episodes need the full grid, so any
// death disables fall-through (over-budget patterns then go to a shard,
// best-effort). Every client call ends with a definite answer or a typed
// Errc — the gateway never blocks in recv (poll + probe), every in-flight
// request carries a watchdog deadline, and re-route attempts are capped —
// never a hung service.
//
// Fleet metrics: each rank records its serve.* counters (every counter the
// core records included) and the serve.shard.solve_us histogram into a
// rank-local Registry; stop() aggregates them onto the gateway
// (Comm::reduce_sum_vec for the counters, Histogram::merge for the latency
// buckets) and publishes the totals into metrics::global(). Gateway-side
// routing counters (serve.shard.{reroutes,replica_hits,failovers,...}) go
// to the global registry directly.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "serve/service.hpp"

namespace gesp::serve {

/// Rendezvous (highest-random-weight) owner preference for `key`: all
/// ranks sorted by descending mix(key.hash, rank) score, ties to the lower
/// rank. A pure function of (key, nranks) — every rank, and every test,
/// computes the same order, before and after any failure; liveness is
/// applied by the caller (first alive rank in the order serves).
std::vector<int> rendezvous_order(const sparse::PatternKey& key, int nranks);

template <class T>
class ShardedTier {
 public:
  /// Spins up the rank world and the gateway; opt.backend must be
  /// Backend::dist (SolverService constructs one exactly then).
  explicit ShardedTier(const ServiceOptions& opt);
  ~ShardedTier();  ///< stop() + join

  ShardedTier(const ShardedTier&) = delete;
  ShardedTier& operator=(const ShardedTier&) = delete;

  /// Route + solve; blocks until the owning shard (or a collective
  /// episode) answered. Same contract as SolverService::solve, which
  /// validates A and b before calling.
  Response<T> solve(const sparse::CscMatrix<T>& A, std::span<const T> b,
                    const RequestOptions& ropt = {});

  /// Factor A into its owning shard (and the collective cache for
  /// over-budget patterns) without solving.
  void warm(const sparse::CscMatrix<T>& A);

  /// Drain in-flight work, aggregate fleet metrics onto the gateway, shut
  /// the world down. Idempotent; the destructor calls it.
  void stop();

  int nranks() const;
  /// Rank currently serving `key`: first alive rank in its rendezvous
  /// order (-1 when every rank is dead).
  int owner_of(const sparse::PatternKey& key) const;
  /// Bitmask of dead ranks (bit r = rank r died).
  std::uint64_t dead_mask() const;

  /// Fleet-wide sums over the per-rank shards.
  std::size_t cache_entries() const;
  std::size_t cache_bytes() const;
  std::size_t cache_single_bytes() const;
  /// Hostile reputation of `key` on its current owner shard.
  bool is_hostile(const sparse::PatternKey& key) const;
  /// One shard's entry count (tests: capacity spread, post-kill eviction).
  std::size_t shard_entries(int rank) const;
  std::size_t queue_depth() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

extern template class ShardedTier<double>;
extern template class ShardedTier<Complex>;

}  // namespace gesp::serve
