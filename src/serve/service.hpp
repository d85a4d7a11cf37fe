// SolverService — a concurrent solve server over the GESP backends.
//
// The paper's whole point is that static pivoting turns every expensive
// decision into a reusable, schedulable asset; at serving scale the
// bottleneck therefore moves from the factorization to the layer that
// routes requests onto cached factorizations. This service provides that
// layer:
//
//   * a pattern-keyed factorization cache (cache.hpp), run by the one
//     execution core every backend shares (execute.hpp): a request with a
//     known pattern but new values takes the refactorize fast path; a
//     known (pattern, values) pair goes straight to triangular solves;
//   * a request queue with greedy RHS batching: a worker takes the queue
//     head plus the same-(pattern, values) requests already queued behind
//     it, up to a configurable batch width, into one solve_multi call —
//     batches come from backlog, never from waiting;
//   * admission control and graceful degradation: bounded queue depth with
//     typed rejection (Errc::overloaded), per-request deadlines, and a
//     shed mode that skips iterative refinement under load;
//   * recovery wiring: a cached factorization that fails recoverably is
//     evicted and rebuilt cold with the recovery ladder armed, rather
//     than poisoning the cache — and the evict-and-retry spend is capped:
//     a pattern whose armed-ladder rebuilds keep failing is marked
//     *hostile* (the mark outlives the evicted entry) and subsequent
//     requests go straight to the strongest rung instead of re-climbing
//     the ladder on every arrival.
//
// Client calls are synchronous: solve() blocks until the response (or
// throws gesp::Error). Everything is observable under "serve.*" metrics
// and "serve" trace spans.
//
// Determinism note: answers are refinement-converged solutions, but the
// *transform basis* of a pattern (scalings/permutations) comes from
// whichever matrix created its cache entry — as with any hand-held
// Solver + refactorize sequence. Bit-level reproducibility across runs
// therefore requires warm()-ing patterns with a canonical value set and a
// cache large enough not to evict them; with BatchMode::per_column the
// served solutions are then bitwise identical to a serial Solver replay.
#pragma once

#include <chrono>
#include <condition_variable>
#include <future>
#include <list>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dist/fault.hpp"
#include "refine/refine.hpp"
#include "serve/cache.hpp"

namespace gesp::serve {

template <class T>
class ShardedTier;
template <class T>
class EntryExecutor;

/// How a batch of coalesced single-RHS requests is executed.
enum class BatchMode {
  /// One blocked solve_multi over the whole batch — the fast path
  /// (matrix-matrix triangular kernels), last-bit different from
  /// column-by-column solves.
  blocked,
  /// One solve() per request — bitwise identical to a serial Solver
  /// making the same calls; the parity-testing mode.
  per_column,
};

/// Backend::dist sharding knobs. Meaningful only with
/// ServiceOptions::backend == Backend::dist; validate() rejects a
/// non-default ShardOptions on a single-node backend rather than letting
/// it be silently ignored.
struct ShardOptions {
  /// Process grid for the rank fleet; 0x0 derives the near-square grid
  /// from solver.dist.nprocs (default 4 -> 2x2). Rank 0 is both the
  /// gateway and a shard server so collective episodes can span the whole
  /// grid.
  int pr = 0, pc = 0;
  /// Copies of a hot pattern across the top rendezvous ranks; 0 means the
  /// dist default (2: primary + one backup). 1 disables replication.
  int replication = 0;
  /// Per-shard cache budgets; 0 inherits cache_max_entries /
  /// cache_max_bytes. The fleet capacity is therefore ~R x the single-node
  /// capacity under the same per-rank budget.
  std::size_t shard_max_entries = 0;
  std::size_t shard_max_bytes = 0;
  /// Primary-owner hits of one pattern before it is promoted (replicated
  /// to the next rendezvous rank); <= 0 disables promotion.
  int promote_hits = 3;
  /// Matrices whose pre-factorization byte estimate exceeds the per-shard
  /// byte budget fall through to a cooperative DistSolver factorization
  /// over the whole grid instead of crowding one shard. With it on, the
  /// solver options must also meet the dist rules (see validate()).
  bool dist_fallthrough = true;
  /// Gateway watchdog: seconds an in-flight request may wait on its owner
  /// rank before the client gets Errc::comm; <= 0 disables (not
  /// recommended — this is the no-hung-service backstop).
  double request_timeout_s = 30.0;
  /// Transport receive watchdog inside the rank world (seconds; 0 = none).
  /// Bounds how long a collective episode can block on a lost peer.
  double recv_timeout_s = 60.0;
  /// Chaos hook forwarded to the rank world (see dist/fault.hpp).
  minimpi::FaultInjector fault;
};

struct ServiceOptions {
  /// Execution engine behind the service — THE backend selector (the
  /// solver.backend field below is overwritten with it at construction).
  /// serial/threaded run the in-process worker pool; dist runs the sharded
  /// multi-rank tier (shard.hpp) over a MiniMPI world.
  Backend backend = Backend::threaded;
  /// Base solver configuration. backend is ignored (see above); under
  /// Backend::dist each shard factors with serial or threaded numerics
  /// according to num_threads, and collective episodes use the dist grid.
  SolverOptions solver;
  /// Sharding knobs (Backend::dist only; validated otherwise).
  ShardOptions shard;
  int num_workers = 2;          ///< executor threads
  std::size_t max_queue = 64;   ///< admission bound on queued requests
  std::size_t cache_max_entries = 16;
  std::size_t cache_max_bytes = std::size_t{256} << 20;
  index_t max_batch = 8;        ///< RHS coalescing width (1 = no batching)
  BatchMode batch_mode = BatchMode::blocked;
  /// Shed mode: when the queue is at least 3/4 full at execution time,
  /// solves skip iterative refinement (berr is still measured once).
  bool shed_refinement = true;
};

/// The service half of the options contract: a single-node backend takes
/// no ShardOptions; Backend::dist takes the worker-pool knobs (num_workers,
/// max_batch, batch_mode, shed_refinement) at their defaults only; and
/// `solver` meets core validate<T>() on every engine that may factor it
/// (the dist rules too while shard.dist_fallthrough is on). Throws
/// Errc::invalid_argument; SolverService calls it at construction.
template <class T>
void validate(const ServiceOptions& opt);

struct RequestOptions {
  /// Max seconds from admission to execution start; an expired request is
  /// rejected with Errc::overloaded instead of solved late. 0 = none.
  double deadline_s = 0.0;
};

template <class T>
struct Response {
  std::vector<T> x;
  /// Engine that produced x. Single-node: the service's configured
  /// backend. Sharded tier: Backend::dist — including the cooperative
  /// fall-through episodes (owner_rank distinguishes them).
  Backend backend = Backend::serial;
  /// Rank that served the request under Backend::dist: the shard rank for
  /// routed requests (primary or backup), -1 for a cooperative DistSolver
  /// episode spanning the grid. Always -1 on single-node backends.
  int owner_rank = -1;
  /// A backup rendezvous rank served this from its replica (dist only).
  bool replica_hit = false;
  double latency_s = 0.0;    ///< admission -> completion, service-side
  bool pattern_hit = false;  ///< reused a cached analysis (refactorized)
  bool value_hit = false;    ///< reused the factors outright
  bool value_delta = false;  ///< near-values hit: the value change was
                             ///< absorbed without a full refactorization
  bool shed = false;         ///< refinement skipped under load
  bool recovered = false;    ///< failure eviction + ladder retry happened
  bool hostile = false;      ///< pattern marked hostile; strongest rung armed
  index_t batch_width = 1;   ///< requests coalesced into this execution
  double berr = 0.0;         ///< batch-level for BatchMode::blocked
  int refine_iterations = 0;
  /// Precision of the factors that produced x (single under
  /// Precision::single/mixed until a promotion replaces them with double).
  Precision precision = Precision::double_;
  /// Recovery trail of the factorization that served this request — every
  /// ladder rung attempted, in order. Empty attempts: the ladder never
  /// armed or never triggered.
  RecoveryTrail recovery;
};

/// What a serving path hands back to the waiting client. Errors travel by
/// value (code + message, rethrown as gesp::Error on the client thread)
/// rather than as a std::exception_ptr: an exception_ptr shared across
/// threads synchronizes through refcounts inside libstdc++'s
/// uninstrumented runtime, which ThreadSanitizer cannot see and reports as
/// a race on every rejected request. The sharded tier's response envelope
/// carries the same fields.
template <class T>
struct Outcome {
  Response<T> resp;
  bool ok = true;
  Errc code = Errc::internal;
  std::string message;
};

template <class T>
class SolverService {
 public:
  explicit SolverService(const ServiceOptions& opt = {});
  ~SolverService();  ///< stop() + join

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Solve A·x = b. Blocks the calling thread until the service executed
  /// the request (possibly batched with others); throws gesp::Error on
  /// rejection (Errc::overloaded: queue full, deadline expired, service
  /// stopped) or solver failure. A and b must stay valid for the duration
  /// of the call — they are not copied on admission.
  Response<T> solve(const sparse::CscMatrix<T>& A, std::span<const T> b,
                    const RequestOptions& ropt = {});

  /// Synchronously analyse + factor A into the cache without solving —
  /// startup pre-loading, and the way to pin a pattern's transform basis
  /// to a canonical value set (see the determinism note above).
  void warm(const sparse::CscMatrix<T>& A);

  /// Drain the queue, then stop the workers. Requests admitted before
  /// stop() complete; later solve() calls are rejected with
  /// Errc::overloaded. Idempotent; the destructor calls it.
  void stop();

  const ServiceOptions& options() const { return opt_; }
  /// Cached patterns / bytes. Under Backend::dist these are fleet-wide
  /// sums over every shard (a dead rank's shard counts as empty).
  std::size_t cache_entries() const;
  std::size_t cache_bytes() const;
  /// Bytes held by single-precision cache entries (mixed/single modes);
  /// the fleet-wide sum under dist.
  std::size_t cache_single_bytes() const;
  std::size_t queue_depth() const;
  /// Whether `key`'s pattern has been marked hostile (inspection/tests).
  /// Under dist the reputation lives on each shard; the key's current
  /// owner shard answers.
  bool is_hostile(const sparse::PatternKey& key) const;
  /// The sharded tier behind Backend::dist (null otherwise) — the
  /// introspection surface for routing/failover tests and tools.
  const ShardedTier<T>* tier() const { return tier_.get(); }
  ShardedTier<T>* tier() { return tier_.get(); }

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    const sparse::CscMatrix<T>* A = nullptr;
    sparse::PatternKey key;
    std::uint64_t vhash = 0;
    std::span<const T> b;
    Clock::time_point enqueued;
    Clock::time_point deadline;  ///< time_point::max() when none
    std::promise<Outcome<T>> promise;
  };
  using PendingPtr = std::unique_ptr<Pending>;
  using Batch = std::vector<PendingPtr>;

  void worker_loop();
  /// Move queued requests matching (key, vhash) into `batch` (locked).
  void collect_matches_locked(Batch& batch);
  /// Execute `batch`, resolving every promise exactly once. Never throws:
  /// a gesp::Error escaping execute_batch_impl resolves the batch's
  /// unfulfilled requests with its code, anything else with Errc::internal
  /// instead of killing the worker thread.
  void execute_batch(Batch& batch);
  void execute_batch_impl(Batch& batch);
  /// Resolve every not-yet-fulfilled request in `batch` as an error.
  void fail_unfulfilled(Batch& batch, Errc code, const char* msg);
  /// Stamp latency onto `r`, resolve the promise, and null the owning
  /// batch slot (the "this request is done" marker).
  void fulfill(PendingPtr& p, Response<T>&& r);

  ServiceOptions opt_;
  /// Single-node backends: the cache and the execution core behind it.
  std::unique_ptr<EntryExecutor<T>> core_;
  /// Backend::dist: the whole service is this tier; no core, and the
  /// worker pool and queue stay idle.
  std::unique_ptr<ShardedTier<T>> tier_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::list<PendingPtr> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

extern template class SolverService<double>;
extern template class SolverService<Complex>;

}  // namespace gesp::serve
