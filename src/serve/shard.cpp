#include "serve/shard.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "dist/dist_solver.hpp"
#include "dist/grid.hpp"
#include "dist/minimpi.hpp"
#include "serve/execute.hpp"

namespace gesp::serve {
namespace {

namespace tags = minimpi::serve_tags;

/// splitmix64 finalizer — the HRW score mixer. Statistical quality matters
/// here: a weak mix correlates scores across ranks and skews the shard
/// load balance.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A rank's own kill fault must terminate it even when it fires inside a
/// caught collective episode — matched on the injector's message.
bool is_kill_error(const Error& e) noexcept {
  return e.code() == Errc::comm &&
         std::string_view(e.what()).find("killed at send") !=
             std::string_view::npos;
}

enum : std::uint64_t { kKindSolve = 0, kKindWarm = 1, kKindReplicate = 2 };

/// Request envelope header (kRequest / kReplicate / kCollective); the
/// payload that follows is colptr[n+1] ++ rowind[nnz] (index_t) ++
/// values[nnz] (T) ++ b[nb] (T), all memcpy-flat — the transport already
/// checksums every payload.
struct ReqHeader {
  std::uint64_t id = 0;
  std::uint64_t kind = kKindSolve;
  /// Position of the target rank in the key's rendezvous order (0 =
  /// primary); a backup serving a known pattern reports a replica hit.
  std::uint64_t owner_index = 0;
  std::int64_t n = 0;
  std::int64_t nnz = 0;
  std::uint64_t key_hash = 0;  ///< PatternKey::hash, computed by the client
  std::uint64_t vhash = 0;
  std::int64_t nb = 0;

  sparse::PatternKey key() const {
    return {static_cast<index_t>(n), static_cast<count_t>(nnz), key_hash};
  }
};

template <class T>
ReqHeader request_header(std::uint64_t id, std::uint64_t kind,
                         const sparse::CscMatrix<T>& A,
                         const sparse::PatternKey& key, std::uint64_t vhash,
                         std::size_t nb) {
  ReqHeader h;
  h.id = id;
  h.kind = kind;
  h.n = A.ncols;
  h.nnz = static_cast<std::int64_t>(A.nnz());
  h.key_hash = key.hash;
  h.vhash = vhash;
  h.nb = static_cast<std::int64_t>(nb);
  return h;
}

/// Owner asks the gateway to replicate this pattern to its backup.
constexpr std::uint64_t kFlagPromote = 1u << 0;

/// The Response route flags the envelope carries, one bit each above
/// kFlagPromote.
template <class T>
constexpr bool Response<T>::*kRouteFlags[] = {
    &Response<T>::pattern_hit, &Response<T>::value_hit,
    &Response<T>::value_delta, &Response<T>::replica_hit,
    &Response<T>::recovered,   &Response<T>::hostile,
};

/// Response envelope header (kResponse / kReplicaAck); followed by x
/// (T[nx]) on success or the error message bytes (char[nx]) on failure,
/// then by the recovery trail's nattempts attempt records.
struct RespHeader {
  std::uint64_t id = 0;
  std::uint64_t ok = 0;
  std::int64_t code = 0;  ///< Errc when !ok
  std::uint64_t flags = 0;
  double berr = 0.0;
  std::int64_t refine_iterations = 0;
  std::int64_t precision = 0;  ///< static_cast<int>(Precision)
  std::int64_t nx = 0;
  std::int64_t final_rung = 0;       ///< RecoveryTrail::final_rung
  std::uint64_t trail_recovered = 0;  ///< RecoveryTrail::recovered
  std::int64_t nattempts = 0;
};

/// One RecoveryAttempt in the response envelope; followed by its detail
/// text (char[ndetail]).
struct AttemptRecord {
  std::int64_t rung = 0;
  std::uint64_t success = 0;
  double berr = 0.0;
  double pivot_growth = 0.0;
  std::int64_t trigger = 0;
  std::int64_t ndetail = 0;
};

/// Raw wire form of a rank-local histogram (kMetrics), merged on the
/// gateway via Histogram::merge_raw.
struct HistBlob {
  count_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  count_t buckets[metrics::Histogram::kBuckets] = {};
};

/// Per-rank counters aggregated at stop via Comm::reduce_sum_vec, in this
/// fixed order. Shard-local names match the single-node serve.* names
/// where the meaning is identical, so dashboards read one namespace.
/// Every counter the execution core records is listed here.
constexpr const char* kShardCounters[] = {
    "serve.shard.requests",       "serve.cache.miss",
    "serve.cache.pattern_hit",    "serve.cache.value_hit",
    "serve.cache.value_delta",    "serve.cache.value_hash_collisions",
    "serve.retries",              "serve.recovery.failures",
    "serve.recovery.hostile_hits", "serve.recovery.hostile_marked",
    "serve.shard.solve_failures", "serve.shard.collective",
    "serve.shard.collective_aborts",
};
constexpr std::size_t kNumShardCounters = std::size(kShardCounters);

template <class T>
std::vector<std::byte> pack_request(const ReqHeader& h,
                                    const sparse::CscMatrix<T>& A,
                                    std::span<const T> b) {
  std::vector<std::byte> w(sizeof(ReqHeader) +
                           (A.colptr.size() + A.rowind.size()) *
                               sizeof(index_t) +
                           (A.values.size() + b.size()) * sizeof(T));
  std::byte* p = w.data();
  auto put = [&](const void* src, std::size_t bytes) {
    if (bytes > 0) std::memcpy(p, src, bytes);
    p += bytes;
  };
  put(&h, sizeof h);
  put(A.colptr.data(), A.colptr.size() * sizeof(index_t));
  put(A.rowind.data(), A.rowind.size() * sizeof(index_t));
  put(A.values.data(), A.values.size() * sizeof(T));
  put(b.data(), b.size() * sizeof(T));
  return w;
}

template <class T>
void unpack_request(const minimpi::Message& m, ReqHeader& h,
                    sparse::CscMatrix<T>& A, std::vector<T>& b) {
  GESP_CHECK(m.data.size() >= sizeof(ReqHeader), Errc::comm,
             "shard: truncated request envelope");
  std::memcpy(&h, m.data.data(), sizeof h);
  const auto n = static_cast<std::size_t>(h.n);
  const auto nnz = static_cast<std::size_t>(h.nnz);
  const auto nb = static_cast<std::size_t>(h.nb);
  const std::size_t want = sizeof h + (n + 1 + nnz) * sizeof(index_t) +
                           (nnz + nb) * sizeof(T);
  GESP_CHECK(h.n >= 0 && h.nnz >= 0 && h.nb >= 0 && m.data.size() == want,
             Errc::comm, "shard: mangled request envelope");
  const std::byte* p = m.data.data() + sizeof h;
  auto get = [&](void* dst, std::size_t bytes) {
    if (bytes > 0) std::memcpy(dst, p, bytes);
    p += bytes;
  };
  A.nrows = A.ncols = static_cast<index_t>(h.n);
  A.colptr.resize(n + 1);
  A.rowind.resize(nnz);
  A.values.resize(nnz);
  b.resize(nb);
  get(A.colptr.data(), (n + 1) * sizeof(index_t));
  get(A.rowind.data(), nnz * sizeof(index_t));
  get(A.values.data(), nnz * sizeof(T));
  get(b.data(), nb * sizeof(T));
}

template <class T>
std::vector<std::byte> pack_response(std::uint64_t id, const Outcome<T>& o,
                                     bool promote) {
  const Response<T>& r = o.resp;
  RespHeader h;
  h.id = id;
  h.ok = o.ok ? 1 : 0;
  h.code = static_cast<std::int64_t>(o.code);
  h.flags = promote ? kFlagPromote : 0;
  for (std::size_t i = 0; i < std::size(kRouteFlags<T>); ++i)
    if (r.*kRouteFlags<T>[i]) h.flags |= kFlagPromote << (i + 1);
  h.berr = r.berr;
  h.refine_iterations = r.refine_iterations;
  h.precision = static_cast<std::int64_t>(r.precision);
  h.nx = static_cast<std::int64_t>(o.ok ? r.x.size() : o.message.size());
  h.final_rung = static_cast<std::int64_t>(r.recovery.final_rung);
  h.trail_recovered = r.recovery.recovered ? 1 : 0;
  h.nattempts = static_cast<std::int64_t>(r.recovery.attempts.size());
  const std::size_t payload =
      o.ok ? r.x.size() * sizeof(T) : o.message.size();
  std::size_t trail = 0;
  for (const RecoveryAttempt& a : r.recovery.attempts)
    trail += sizeof(AttemptRecord) + a.detail.size();
  std::vector<std::byte> w(sizeof h + payload + trail);
  std::byte* p = w.data();
  auto put = [&](const void* src, std::size_t bytes) {
    if (bytes > 0) std::memcpy(p, src, bytes);
    p += bytes;
  };
  put(&h, sizeof h);
  put(o.ok ? static_cast<const void*>(r.x.data())
           : static_cast<const void*>(o.message.data()),
      payload);
  for (const RecoveryAttempt& a : r.recovery.attempts) {
    AttemptRecord rec;
    rec.rung = static_cast<std::int64_t>(a.rung);
    rec.success = a.success ? 1 : 0;
    rec.berr = a.berr;
    rec.pivot_growth = a.pivot_growth;
    rec.trigger = static_cast<std::int64_t>(a.trigger);
    rec.ndetail = static_cast<std::int64_t>(a.detail.size());
    put(&rec, sizeof rec);
    put(a.detail.data(), a.detail.size());
  }
  return w;
}

template <class T>
Outcome<T> unpack_response(const minimpi::Message& m, RespHeader& h) {
  GESP_CHECK(m.data.size() >= sizeof(RespHeader), Errc::comm,
             "shard: truncated response envelope");
  std::memcpy(&h, m.data.data(), sizeof h);
  Outcome<T> o;
  o.ok = h.ok != 0;
  o.code = static_cast<Errc>(h.code);
  Response<T>& r = o.resp;
  for (std::size_t i = 0; i < std::size(kRouteFlags<T>); ++i)
    r.*kRouteFlags<T>[i] = (h.flags & (kFlagPromote << (i + 1))) != 0;
  r.berr = h.berr;
  r.refine_iterations = static_cast<int>(h.refine_iterations);
  r.precision = static_cast<Precision>(h.precision);
  const auto nx = static_cast<std::size_t>(h.nx);
  const std::size_t elem = o.ok ? sizeof(T) : sizeof(char);
  GESP_CHECK(h.nx >= 0 && h.nattempts >= 0 &&
                 nx <= (m.data.size() - sizeof h) / elem,
             Errc::comm, "shard: mangled response envelope");
  std::size_t at = sizeof h + nx * elem;
  const std::byte* body = m.data.data();
  if (o.ok) {
    r.x.resize(nx);
    if (nx > 0) std::memcpy(r.x.data(), body + sizeof h, nx * sizeof(T));
  } else {
    o.message.assign(reinterpret_cast<const char*>(body) + sizeof h, nx);
  }
  r.recovery.final_rung = static_cast<RecoveryRung>(h.final_rung);
  r.recovery.recovered = h.trail_recovered != 0;
  for (std::int64_t i = 0; i < h.nattempts; ++i) {
    AttemptRecord rec;
    GESP_CHECK(m.data.size() - at >= sizeof rec, Errc::comm,
               "shard: mangled response envelope");
    std::memcpy(&rec, body + at, sizeof rec);
    at += sizeof rec;
    const auto nd = static_cast<std::size_t>(rec.ndetail);
    GESP_CHECK(rec.ndetail >= 0 && m.data.size() - at >= nd, Errc::comm,
               "shard: mangled response envelope");
    RecoveryAttempt a;
    a.rung = static_cast<RecoveryRung>(rec.rung);
    a.success = rec.success != 0;
    a.berr = rec.berr;
    a.pivot_growth = rec.pivot_growth;
    a.trigger = static_cast<RecoveryTrigger>(rec.trigger);
    a.detail.assign(reinterpret_cast<const char*>(body) + at, nd);
    at += nd;
    r.recovery.attempts.push_back(std::move(a));
  }
  GESP_CHECK(at == m.data.size(), Errc::comm,
             "shard: mangled response envelope");
  return o;
}

/// One rank's kShardCounters values, in order.
std::vector<double> shard_counters(const metrics::Registry& reg) {
  std::vector<double> v(kNumShardCounters, 0.0);
  for (std::size_t i = 0; i < kNumShardCounters; ++i)
    if (const metrics::Counter* c = reg.find_counter(kShardCounters[i]))
      v[i] = static_cast<double>(c->value());
  return v;
}

HistBlob hist_blob(const metrics::Histogram* h) {
  HistBlob b;
  if (!h || h->count() == 0) return b;
  b.count = h->count();
  b.sum = h->sum();
  b.min = h->min();
  b.max = h->max();
  for (int k = 0; k < metrics::Histogram::kBuckets; ++k)
    b.buckets[k] = h->bucket(k);
  return b;
}

}  // namespace

std::vector<int> rendezvous_order(const sparse::PatternKey& key, int nranks) {
  GESP_CHECK(nranks > 0, Errc::invalid_argument,
             "rendezvous_order: need at least one rank");
  std::vector<std::uint64_t> score(static_cast<std::size_t>(nranks));
  std::vector<int> order(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    order[static_cast<std::size_t>(r)] = r;
    score[static_cast<std::size_t>(r)] =
        mix64(key.hash ^ mix64(static_cast<std::uint64_t>(r) + 1));
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const std::uint64_t sa = score[static_cast<std::size_t>(a)];
    const std::uint64_t sb = score[static_cast<std::size_t>(b)];
    return sa != sb ? sa > sb : a < b;
  });
  return order;
}

template <class T>
struct ShardedTier<T>::Impl {
  using Clock = std::chrono::steady_clock;

  struct Pending {
    const sparse::CscMatrix<T>* A = nullptr;
    sparse::PatternKey key;
    std::uint64_t vhash = 0;
    std::span<const T> b;
    bool warm = false;
    bool collective = false;
    Clock::time_point enqueued;
    Clock::time_point deadline;  ///< client deadline_s; max() when none
    std::promise<Outcome<T>> promise;
  };
  using PendingPtr = std::unique_ptr<Pending>;

  struct InFlight {
    PendingPtr p;
    int target = -1;
    int attempts = 1;  ///< sends so far (re-routes increment)
    Clock::time_point timeout;
    std::vector<std::byte> wire;
  };

  struct Replication {
    int target = -1;
    Clock::time_point timeout;
  };

  /// One rank's shard. The core's cache and hostile reputation are
  /// internally synchronized (the facade reads them concurrently);
  /// everything else is touched only by the owning rank's thread — or by
  /// the gateway after that rank died, which cannot race a thread that no
  /// longer runs.
  struct ShardState {
    metrics::Registry reg;  ///< rank-local serve.* metrics
    std::unique_ptr<EntryExecutor<T>> core;  ///< records into `reg`
    std::unordered_map<sparse::PatternKey, int, sparse::PatternKeyHash> hits;
    // One-entry collective cache, advanced in deterministic lockstep on
    // every rank (all ranks see the identical episode stream).
    sparse::PatternKey coll_key{};
    std::uint64_t coll_vhash = 0;
    std::vector<T> coll_values;
    std::unique_ptr<dist::DistSolver<T>> coll;
  };

  explicit Impl(const ServiceOptions& opt);
  ~Impl() { stop(); }

  // Facade surface (client threads).
  Response<T> submit(const sparse::CscMatrix<T>& A, std::span<const T> b,
                     const RequestOptions& ropt, bool warm);
  void stop();
  bool collective_route(const sparse::CscMatrix<T>& A,
                        const sparse::PatternKey& key);

  // Rank bodies.
  void gateway_body(minimpi::Comm& comm);
  void gateway_loop(minimpi::Comm& comm);
  void server_body(minimpi::Comm& comm);

  // Gateway helpers (rank-0 thread only).
  /// First alive rank other than `skip` in `key`'s rendezvous order (-1
  /// when there is none) and its position in that order.
  int alive_owner(const sparse::PatternKey& key,
                  std::uint64_t* index = nullptr, int skip = -1) const;
  Clock::time_point request_deadline() const;
  void dispatch_shard(minimpi::Comm& comm, PendingPtr p);
  void on_response(minimpi::Comm& comm, const minimpi::Message& m);
  /// Serve `p` on the gateway's own shard and settle it.
  void serve_local(minimpi::Comm& comm, PendingPtr p, const ReqHeader& h);
  void settle(minimpi::Comm& comm, PendingPtr p, Outcome<T>&& o,
              bool promote, int served_by);
  void maybe_replicate(minimpi::Comm& comm, const Pending& p,
                       int serving_rank);
  void handle_deaths(minimpi::Comm& comm, std::uint64_t mask);
  void run_collective(minimpi::Comm& comm, PendingPtr p);
  void shutdown_fleet(minimpi::Comm& comm);
  void fail_everything(Errc code, const char* msg);

  // Shared rank-side helpers.
  /// One request against this rank's shard: the execution core with one
  /// right-hand side (none for kKindWarm / kKindReplicate), plus the
  /// shard's replica flag and promotion count (`promote`).
  Outcome<T> serve_request(ShardState& st, const ReqHeader& h,
                           const sparse::CscMatrix<T>& A,
                           std::span<const T> b, bool& promote);
  void collective_episode(minimpi::Comm& comm, ShardState& st,
                          const ReqHeader& h, const sparse::CscMatrix<T>& A,
                          std::span<const T> b, Response<T>* out);
  void send_metrics(minimpi::Comm& comm, ShardState& st);

  void fulfill(PendingPtr& p, Response<T>&& r);
  static void fail(PendingPtr& p, Errc code, std::string msg);

  // Adaptive admission (opt_.adapt): the tier routes rather than batches,
  // so the controller's lever is the gateway's admission bound — its shed
  // knob scales max_queue, rejecting earlier (typed Errc::overloaded)
  // while the fleet is hot and relaxing back to the configured bound when
  // it cools. Controller state is gateway-thread-only; clients read only
  // the eff_admit_ atomic.
  std::atomic<std::size_t> eff_admit_{1};
  metrics::Counter window_admitted_;
  metrics::Histogram window_latency_us_;
  std::unique_ptr<tune::ServeController> controller_;
  metrics::RateWindow arrivals_{window_admitted_};
  Clock::time_point next_adapt_{};
  Clock::duration adapt_window_{};
  void adapt_step(Clock::time_point now);

  ServiceOptions opt_;
  dist::ProcessGrid grid_;
  int nranks_ = 0;
  int replication_ = 2;
  int promote_hits_ = 3;
  std::size_t shard_max_entries_ = 0;
  std::size_t shard_max_bytes_ = 0;
  std::vector<std::unique_ptr<ShardState>> shards_;
  std::unique_ptr<minimpi::World> world_;
  std::thread runner_;

  // Client-facing frontend (fmu_).
  mutable std::mutex fmu_;
  std::deque<PendingPtr> frontend_;
  bool stop_requested_ = false;
  bool gateway_down_ = false;
  bool joined_ = false;

  // Route memo: pattern -> goes to the collective path (route_mu_).
  std::mutex route_mu_;
  std::unordered_map<sparse::PatternKey, bool, sparse::PatternKeyHash>
      route_coll_;

  // Gateway-thread state (rank 0 only; no locking needed).
  std::unordered_map<std::uint64_t, InFlight> inflight_;
  std::unordered_map<std::uint64_t, Replication> repl_;
  std::deque<PendingPtr> collq_;
  std::unordered_map<sparse::PatternKey, bool, sparse::PatternKeyHash>
      replicated_;
  std::uint64_t next_id_ = 1;
  std::uint64_t seen_dead_ = 0;
  bool collective_ok_ = true;
};

template <class T>
ShardedTier<T>::Impl::Impl(const ServiceOptions& opt) : opt_(opt) {
  grid_ = (opt_.shard.pr > 0 && opt_.shard.pc > 0)
              ? dist::ProcessGrid{opt_.shard.pr, opt_.shard.pc}
              : dist::grid_from(opt_.solver.dist);
  nranks_ = grid_.nprocs();
  replication_ = opt_.shard.replication == 0 ? 2 : opt_.shard.replication;
  replication_ = std::clamp(replication_, 1, nranks_);
  promote_hits_ = opt_.shard.promote_hits;
  shard_max_entries_ = opt_.shard.shard_max_entries
                           ? opt_.shard.shard_max_entries
                           : opt_.cache_max_entries;
  shard_max_bytes_ = opt_.shard.shard_max_bytes ? opt_.shard.shard_max_bytes
                                                : opt_.cache_max_bytes;
  opt_.max_queue = std::max<std::size_t>(1, opt_.max_queue);
  eff_admit_.store(opt_.max_queue, std::memory_order_relaxed);
  if (opt_.adapt) {
    // The batch/linger knobs are along for the ride (the tier has none);
    // only shed_fraction matters, relaxing back to full admission (1.0).
    controller_ = std::make_unique<tune::ServeController>(
        tune::ServeKnobs{opt_.max_batch, opt_.batch_linger_s, 1.0},
        opt_.adapt_controller);
    adapt_window_ = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(std::max(1e-3, opt_.adapt_window_s)));
    next_adapt_ = Clock::now() + adapt_window_;
  }
  // Per-shard numerics: serial or threaded per num_threads; the sharding
  // IS the dist parallelism on the routed path.
  ServiceOptions core_opt = opt_;
  core_opt.solver.backend =
      opt_.solver.num_threads > 1 ? Backend::threaded : Backend::serial;
  shards_.reserve(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    auto st = std::make_unique<ShardState>();
    st->core = std::make_unique<EntryExecutor<T>>(
        core_opt, shard_max_entries_, shard_max_bytes_, st->reg);
    shards_.push_back(std::move(st));
  }
  minimpi::WorldOptions w;
  w.survive_failures = true;
  w.recv_timeout_s = opt_.shard.recv_timeout_s;
  w.fault = opt_.shard.fault;
  world_ = std::make_unique<minimpi::World>(nranks_, w);
  runner_ = std::thread([this] {
    world_->run_report([this](minimpi::Comm& c) {
      if (c.rank() == 0)
        gateway_body(c);
      else
        server_body(c);
    });
  });
}

template <class T>
void ShardedTier<T>::Impl::fulfill(PendingPtr& p, Response<T>&& r) {
  r.latency_s =
      std::chrono::duration<double>(Clock::now() - p->enqueued).count();
  metrics::global().histogram("serve.latency_us").record(r.latency_s * 1e6);
  window_latency_us_.record(r.latency_s * 1e6);
  p->promise.set_value(Outcome<T>{std::move(r), true, {}, {}});
  p.reset();
}

template <class T>
void ShardedTier<T>::Impl::fail(PendingPtr& p, Errc code, std::string msg) {
  p->promise.set_value(Outcome<T>{{}, false, code, std::move(msg)});
  p.reset();
}

template <class T>
bool ShardedTier<T>::Impl::collective_route(const sparse::CscMatrix<T>& A,
                                            const sparse::PatternKey& key) {
  if (!opt_.shard.dist_fallthrough || nranks_ < 2) return false;
  {
    std::lock_guard lk(route_mu_);
    auto it = route_coll_.find(key);
    if (it != route_coll_.end()) return it->second;
  }
  // Priced on the client thread (concurrent across clients, off the
  // gateway's poll loop): analysis only, no numerics. An analysis failure
  // routes to the shard path, which surfaces the real error to the client.
  bool coll = false;
  try {
    coll = estimate_factor_bytes(A, opt_.solver) > shard_max_bytes_;
  } catch (const Error&) {
    coll = false;
  }
  std::lock_guard lk(route_mu_);
  route_coll_.emplace(key, coll);
  return coll;
}

template <class T>
Response<T> ShardedTier<T>::Impl::submit(const sparse::CscMatrix<T>& A,
                                         std::span<const T> b,
                                         const RequestOptions& ropt,
                                         bool warm) {
  auto p = std::make_unique<Pending>();
  p->A = &A;
  p->key = sparse::pattern_key(A);
  p->vhash = sparse::value_hash(A);
  p->b = b;
  p->warm = warm;
  p->collective = collective_route(A, p->key);
  p->enqueued = Clock::now();
  p->deadline =
      ropt.deadline_s > 0
          ? p->enqueued + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(ropt.deadline_s))
          : Clock::time_point::max();
  std::future<Outcome<T>> fut = p->promise.get_future();
  {
    std::lock_guard lk(fmu_);
    metrics::global().counter("serve.requests").inc();
    if (stop_requested_) reject("service stopped");
    if (gateway_down_) reject("serving gateway died");
    if (frontend_.size() >= eff_admit_.load(std::memory_order_relaxed))
      reject("request queue full; retry later or raise max_queue");
    frontend_.push_back(std::move(p));
    metrics::global().counter("serve.admitted").inc();
    window_admitted_.inc();
    const auto depth = static_cast<double>(frontend_.size());
    metrics::global().gauge("serve.queue.depth").set(depth);
  }
  Outcome<T> out = fut.get();
  if (!out.ok) throw Error(out.code, std::move(out.message));
  return std::move(out.resp);
}

template <class T>
void ShardedTier<T>::Impl::stop() {
  {
    std::lock_guard lk(fmu_);
    stop_requested_ = true;
  }
  if (runner_.joinable()) runner_.join();
  std::lock_guard lk(fmu_);
  if (joined_) return;
  joined_ = true;
  // Anything still queued lost the race against a dead gateway; it must
  // not hang its client.
  for (auto& p : frontend_)
    fail(p, Errc::overloaded, "service stopped before execution");
  frontend_.clear();
}

// ---------------------------------------------------------------------------
// Shard-side request handling (server ranks AND the gateway's own shard).

template <class T>
Outcome<T> ShardedTier<T>::Impl::serve_request(ShardState& st,
                                               const ReqHeader& h,
                                               const sparse::CscMatrix<T>& A,
                                               std::span<const T> b,
                                               bool& promote) {
  st.reg.counter("serve.shard.requests").inc();
  const auto t0 = Clock::now();
  const sparse::PatternKey key = h.key();
  const GroupRhs<T> rhs{&A, b};
  const std::span<const GroupRhs<T>> group(&rhs,
                                           h.kind == kKindSolve ? 1 : 0);
  Outcome<T> o;
  promote = false;
  try {
    std::vector<T> x;
    o.resp = st.core->execute(
        A, key, h.vhash, group, nullptr,
        [&x](std::size_t, Response<T>&& r) { x = std::move(r.x); });
    o.resp.x = std::move(x);
    // A backup answered from its replica — the failover payoff (counted
    // once, by the gateway, as serve.shard.replica_hits).
    o.resp.replica_hit = h.owner_index > 0 && o.resp.pattern_hit;
    // Promotion: the primary owner counts this pattern's solves and flags
    // the gateway exactly once at the threshold.
    promote = h.kind == kKindSolve && h.owner_index == 0 &&
              promote_hits_ > 0 && replication_ >= 2 &&
              ++st.hits[key] == promote_hits_;
  } catch (const Error& err) {
    st.reg.counter("serve.shard.solve_failures").inc();
    o = Outcome<T>{{}, false, err.code(), err.what()};
  }
  st.reg.histogram("serve.shard.solve_us")
      .record(std::chrono::duration<double>(Clock::now() - t0).count() * 1e6);
  return o;
}

template <class T>
void ShardedTier<T>::Impl::collective_episode(minimpi::Comm& comm,
                                              ShardState& st,
                                              const ReqHeader& h,
                                              const sparse::CscMatrix<T>& A,
                                              std::span<const T> b,
                                              Response<T>* out) {
  // Deterministic lockstep: every rank sees the identical episode stream
  // (same wire bytes, checksummed), so every rank takes the same branch
  // below and the collective calls stay aligned.
  const sparse::PatternKey key = h.key();
  st.reg.counter("serve.shard.collective").inc();
  if (st.coll && st.coll_key == key) {
    if (out) out->pattern_hit = true;
    if (st.coll_vhash == h.vhash && same_values(st.coll_values, A.values)) {
      if (out) out->value_hit = true;
    } else {
      st.coll->refactorize(comm, A);
      st.coll_vhash = h.vhash;
      st.coll_values = A.values;
    }
  } else {
    SolverOptions so = opt_.solver;
    so.backend = Backend::dist;
    so.dist.pr = grid_.pr;
    so.dist.pc = grid_.pc;
    so.dist.nprocs = nranks_;
    st.coll.reset();
    st.coll = std::make_unique<dist::DistSolver<T>>(comm, A, so);
    st.coll_key = key;
    st.coll_vhash = h.vhash;
    st.coll_values = A.values;
  }
  if (h.kind == kKindSolve) {
    std::vector<T> x(static_cast<std::size_t>(A.ncols));
    st.coll->solve(comm, b, x);
    if (out) out->x = std::move(x);
  }
  if (out) {
    out->precision = Precision::double_;
    out->berr = st.coll->stats().berr;
    out->refine_iterations = st.coll->stats().refine_iterations;
  }
}

template <class T>
void ShardedTier<T>::Impl::send_metrics(minimpi::Comm& comm, ShardState& st) {
  comm.reduce_sum_vec(0, tags::kReduce,
                      shard_counters(st.reg));  // non-root: one send
  const HistBlob blob =
      hist_blob(st.reg.find_histogram("serve.shard.solve_us"));
  comm.send(0, tags::kMetrics, &blob, sizeof blob);
}

template <class T>
void ShardedTier<T>::Impl::server_body(minimpi::Comm& comm) {
  ShardState& st = *shards_[static_cast<std::size_t>(comm.rank())];
  for (;;) {
    // Blocks on the gateway only. A dead gateway (or the transport
    // watchdog) throws Errc::comm out of the body — run_report records it
    // and the rank goes down rather than hanging.
    minimpi::Message m = comm.recv(0, minimpi::kAnyTag);
    if (m.tag == tags::kStop) {
      send_metrics(comm, st);
      return;
    }
    if (m.tag != tags::kRequest && m.tag != tags::kReplicate &&
        m.tag != tags::kCollective)
      continue;  // unknown tag in the serve block: forward compatibility
    ReqHeader h;
    sparse::CscMatrix<T> A;
    std::vector<T> b;
    unpack_request(m, h, A, b);
    if (m.tag != tags::kCollective) {
      bool promote = false;
      const Outcome<T> o = serve_request(st, h, A, b, promote);
      const auto wire = pack_response(h.id, o, promote);
      // A kill fault targeting this rank fires here and propagates: the
      // rank dies mid-service, which is exactly the chaos case the
      // gateway's re-route path covers.
      comm.send(0, m.tag == tags::kRequest ? tags::kResponse
                                           : tags::kReplicaAck,
                wire.data(), wire.size());
      continue;
    }
    try {
      collective_episode(comm, st, h, A, b, nullptr);
    } catch (const Error& e) {
      if (is_kill_error(e)) throw;
      // A lost peer (or numeric failure) aborted the episode mid-flight;
      // this rank keeps serving its shard. The gateway disables further
      // collectives after any failure, so the now-divergent collective
      // caches are never consulted again.
      st.coll.reset();
      st.coll_values.clear();
      st.reg.counter("serve.shard.collective_aborts").inc();
    }
  }
}

// ---------------------------------------------------------------------------
// Gateway (rank 0).

template <class T>
void ShardedTier<T>::Impl::fail_everything(Errc code, const char* msg) {
  {
    std::lock_guard lk(fmu_);
    gateway_down_ = true;
  }
  for (auto& [id, f] : inflight_)
    if (f.p) fail(f.p, code, msg);
  inflight_.clear();
  repl_.clear();
  for (auto& p : collq_) fail(p, code, msg);
  collq_.clear();
  std::deque<PendingPtr> leftover;
  {
    std::lock_guard lk(fmu_);
    leftover.swap(frontend_);
  }
  for (auto& p : leftover) fail(p, code, msg);
}

template <class T>
void ShardedTier<T>::Impl::gateway_body(minimpi::Comm& comm) {
  try {
    gateway_loop(comm);
  } catch (const Error& e) {
    fail_everything(e.code(), e.what());
    throw;
  } catch (...) {
    fail_everything(Errc::internal, "serving gateway died");
    throw;
  }
}

template <class T>
int ShardedTier<T>::Impl::alive_owner(const sparse::PatternKey& key,
                                      std::uint64_t* index,
                                      int skip) const {
  const auto order = rendezvous_order(key, nranks_);
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] != skip && !world_->is_dead(order[i])) {
      if (index) *index = i;
      return order[i];
    }
  }
  return -1;
}

template <class T>
typename ShardedTier<T>::Impl::Clock::time_point
ShardedTier<T>::Impl::request_deadline() const {
  return opt_.shard.request_timeout_s > 0
             ? Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(
                                      opt_.shard.request_timeout_s))
             : Clock::time_point::max();
}

template <class T>
void ShardedTier<T>::Impl::dispatch_shard(minimpi::Comm& comm, PendingPtr p) {
  std::uint64_t oidx = 0;
  const int owner = std::max(0, alive_owner(p->key, &oidx));
  if (oidx > 0) {
    // The key's primary is dead: deterministic failover to the next
    // rendezvous rank — which holds a replica if the pattern was hot.
    metrics::global().counter("serve.shard.failovers").inc();
    trace::instant("serve", "shard_failover");
  }
  ReqHeader h = request_header(next_id_++, p->warm ? kKindWarm : kKindSolve,
                               *p->A, p->key, p->vhash, p->b.size());
  h.owner_index = oidx;
  if (owner == comm.rank()) {
    serve_local(comm, std::move(p), h);
    return;
  }
  InFlight f;
  f.wire = pack_request(h, *p->A, p->b);
  f.target = owner;
  f.timeout = request_deadline();
  f.p = std::move(p);
  comm.send(owner, tags::kRequest, f.wire.data(), f.wire.size());
  inflight_.emplace(h.id, std::move(f));
}

template <class T>
void ShardedTier<T>::Impl::serve_local(minimpi::Comm& comm, PendingPtr p,
                                       const ReqHeader& h) {
  bool promote = false;
  Outcome<T> o = serve_request(*shards_[0], h, *p->A, p->b, promote);
  settle(comm, std::move(p), std::move(o), promote, /*served_by=*/0);
}

template <class T>
void ShardedTier<T>::Impl::settle(minimpi::Comm& comm, PendingPtr p,
                                  Outcome<T>&& o, bool promote,
                                  int served_by) {
  if (!o.ok) {
    fail(p, o.code, std::move(o.message));
    return;
  }
  if (promote) maybe_replicate(comm, *p, served_by);
  o.resp.backend = Backend::dist;
  o.resp.owner_rank = served_by;
  if (o.resp.replica_hit)
    metrics::global().counter("serve.shard.replica_hits").inc();
  fulfill(p, std::move(o.resp));
}

template <class T>
void ShardedTier<T>::Impl::maybe_replicate(minimpi::Comm& comm,
                                           const Pending& p,
                                           int serving_rank) {
  if (replication_ < 2 || replicated_.count(p.key)) return;
  std::uint64_t bidx = 0;
  const int backup = alive_owner(p.key, &bidx, serving_rank);
  if (backup < 0) return;  // nobody left to replicate to
  replicated_.emplace(p.key, true);
  metrics::global().counter("serve.shard.promotions").inc();
  trace::instant("serve", "shard_promote");
  ReqHeader h =
      request_header(next_id_++, kKindReplicate, *p.A, p.key, p.vhash, 0);
  h.owner_index = bidx;
  if (backup == comm.rank()) {
    bool promote = false;
    serve_request(*shards_[0], h, *p.A, {}, promote);
    metrics::global().counter("serve.shard.replications").inc();
    return;
  }
  const auto wire = pack_request(h, *p.A, std::span<const T>{});
  comm.send(backup, tags::kReplicate, wire.data(), wire.size());
  repl_.emplace(h.id, Replication{backup, request_deadline()});
}

template <class T>
void ShardedTier<T>::Impl::on_response(minimpi::Comm& comm,
                                       const minimpi::Message& m) {
  RespHeader rh;
  Outcome<T> o = unpack_response<T>(m, rh);
  if (m.tag == tags::kReplicaAck) {
    if (repl_.erase(rh.id) > 0)
      metrics::global().counter("serve.shard.replications").inc();
    return;
  }
  auto it = inflight_.find(rh.id);
  if (it == inflight_.end()) return;  // timed out / re-routed: late answer
  InFlight f = std::move(it->second);
  inflight_.erase(it);
  settle(comm, std::move(f.p), std::move(o), (rh.flags & kFlagPromote) != 0,
         m.src);
}

template <class T>
void ShardedTier<T>::Impl::handle_deaths(minimpi::Comm& comm,
                                         std::uint64_t mask) {
  const std::uint64_t fresh = mask & ~seen_dead_;
  seen_dead_ = mask;
  collective_ok_ = false;  // DistSolver needs the full grid
  for (int r = 0; r < nranks_; ++r) {
    if (!((fresh >> static_cast<unsigned>(r)) & 1u)) continue;
    metrics::global().counter("serve.shard.rank_deaths").inc();
    trace::instant("serve", "shard_rank_death", r);
    // Its shard died with it: evict so capacity accounting stays honest
    // and a resurrected pattern re-factors at its new owner.
    shards_[static_cast<std::size_t>(r)]->core->cache().clear();
    shards_[static_cast<std::size_t>(r)]->hits.clear();
  }
  // Re-route in-flight requests addressed to a dead rank: deterministic
  // next-alive rendezvous owner, bounded attempts, Errc::comm at worst.
  std::vector<std::uint64_t> doomed;
  for (auto& [id, f] : inflight_) {
    if (!world_->is_dead(f.target)) continue;
    if (f.attempts >= 3) {
      fail(f.p, Errc::comm,
           "request lost to repeated rank failures (re-route cap)");
      doomed.push_back(id);
      continue;
    }
    std::uint64_t oidx = 0;
    const int owner = std::max(0, alive_owner(f.p->key, &oidx));
    metrics::global().counter("serve.shard.reroutes").inc();
    trace::instant("serve", "shard_reroute", owner);
    ++f.attempts;
    // Rewrite the stored envelope's owner_index in place.
    ReqHeader h;
    std::memcpy(&h, f.wire.data(), sizeof h);
    h.owner_index = oidx;
    std::memcpy(f.wire.data(), &h, sizeof h);
    if (owner == comm.rank()) {
      serve_local(comm, std::move(f.p), h);
      doomed.push_back(id);
      continue;
    }
    f.target = owner;
    comm.send(owner, tags::kRequest, f.wire.data(), f.wire.size());
  }
  for (std::uint64_t id : doomed) inflight_.erase(id);
  // In-flight replications to a dead backup just evaporate; the pattern
  // can be promoted again by its owner's future hits.
  std::erase_if(repl_, [&](const auto& kv) {
    return world_->is_dead(kv.second.target);
  });
}

template <class T>
void ShardedTier<T>::Impl::run_collective(minimpi::Comm& comm, PendingPtr p) {
  GESP_TRACE_SPAN("serve", "shard_collective");
  const ReqHeader h =
      request_header(next_id_++, p->warm ? kKindWarm : kKindSolve, *p->A,
                     p->key, p->vhash, p->b.size());
  try {
    const auto wire = pack_request(h, *p->A, p->b);
    for (int r = 1; r < nranks_; ++r)
      comm.send(r, tags::kCollective, wire.data(), wire.size());
    Response<T> resp;
    collective_episode(comm, *shards_[0], h, *p->A, p->b, &resp);
    resp.backend = Backend::dist;
    resp.owner_rank = -1;  // the whole grid served it
    fulfill(p, std::move(resp));
  } catch (const Error& e) {
    // One failed episode permanently disables the collective path: the
    // per-rank collective caches may have diverged, and re-aligning them
    // under failures is not worth the risk of serving a misaligned
    // factorization. Over-budget patterns go to shards best-effort now.
    collective_ok_ = false;
    shards_[0]->coll.reset();
    shards_[0]->coll_values.clear();
    shards_[0]->reg.counter("serve.shard.collective_aborts").inc();
    fail(p, e.code(), e.what());
    if (is_kill_error(e)) throw;  // the gateway's own kill fault
  }
}

template <class T>
void ShardedTier<T>::Impl::shutdown_fleet(minimpi::Comm& comm) {
  std::vector<int> alive;
  const std::byte stop_byte{0};
  for (int r = 1; r < nranks_; ++r) {
    if (world_->is_dead(r)) continue;
    alive.push_back(r);
    comm.send(r, tags::kStop, &stop_byte, 1);
  }
  // Fleet metric aggregation: counters by vector sum-reduce, histograms
  // by raw-bucket merge. A rank that dies during shutdown forfeits its
  // numbers — aggregation must never block the stop path.
  try {
    std::vector<double> total = shard_counters(shards_[0]->reg);
    if (world_->dead_mask() == 0) {
      total = comm.reduce_sum_vec(0, tags::kReduce, total,
                                  static_cast<int>(alive.size()));
    } else {
      // Degraded world: a wildcard receive would throw (it cannot prove
      // its sender is alive), so gather per-source instead.
      for (int r : alive) {
        try {
          const auto part = comm.recv(r, tags::kReduce).template as<double>();
          GESP_CHECK(part.size() == total.size(), Errc::comm,
                     "shard: short counter reduce contribution");
          for (std::size_t i = 0; i < total.size(); ++i) total[i] += part[i];
        } catch (const Error&) {
          // died mid-stop; its counters die with it
        }
      }
    }
    for (std::size_t i = 0; i < kNumShardCounters; ++i)
      if (total[i] > 0)
        metrics::global().counter(kShardCounters[i])
            .inc(static_cast<count_t>(total[i]));
    metrics::Histogram& fleet =
        metrics::global().histogram("serve.shard.solve_us");
    const HistBlob own =
        hist_blob(shards_[0]->reg.find_histogram("serve.shard.solve_us"));
    fleet.merge_raw(own.count, own.sum, own.min, own.max, own.buckets);
    for (int r : alive) {
      try {
        const minimpi::Message m = comm.recv(r, tags::kMetrics);
        GESP_CHECK(m.data.size() == sizeof(HistBlob), Errc::comm,
                   "shard: mangled histogram blob");
        HistBlob blob;
        std::memcpy(&blob, m.data.data(), sizeof blob);
        fleet.merge_raw(blob.count, blob.sum, blob.min, blob.max,
                        blob.buckets);
      } catch (const Error&) {
        // died mid-stop; its histogram dies with it
      }
    }
  } catch (const Error&) {
    // Aggregation is best-effort; shutdown continues regardless.
  }
}

template <class T>
void ShardedTier<T>::Impl::adapt_step(Clock::time_point now) {
  next_adapt_ = now + adapt_window_;
  tune::ControllerInput in;
  in.window_s = std::chrono::duration<double>(adapt_window_).count();
  in.arrival_rate = arrivals_.tick(
      std::chrono::duration<double>(now.time_since_epoch()).count());
  const auto snap = window_latency_us_.snapshot_and_reset();
  in.completed = snap.count;
  in.p50_us = snap.quantile(0.5);
  in.p99_us = snap.quantile(0.99);
  {
    std::lock_guard lk(fmu_);
    in.queue_depth =
        static_cast<double>(frontend_.size() + inflight_.size());
  }
  const tune::ServeKnobs k = controller_->step(in);
  const auto admit = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             k.shed_fraction * static_cast<double>(opt_.max_queue) + 0.5));
  const auto prev = eff_admit_.load(std::memory_order_relaxed);
  eff_admit_.store(admit, std::memory_order_relaxed);
  auto& reg = metrics::global();
  reg.gauge("serve.tune.admit_bound").set(static_cast<double>(admit));
  reg.gauge("serve.tune.window_p99_us").set(in.p99_us);
  reg.gauge("serve.tune.window_arrival_rate").set(in.arrival_rate);
  const auto& cs = controller_->stats();
  reg.gauge("serve.tune.windows").set(static_cast<double>(cs.windows));
  reg.gauge("serve.tune.trims").set(static_cast<double>(cs.trims));
  reg.gauge("serve.tune.relaxes").set(static_cast<double>(cs.relaxes));
  if (admit != prev) {
    reg.counter("serve.tune.adjustments").inc();
    trace::instant("serve", "tune_adjust", static_cast<int>(admit));
  }
}

template <class T>
void ShardedTier<T>::Impl::gateway_loop(minimpi::Comm& comm) {
  for (;;) {
    bool progress = false;

    // 1. Failure detection: dead ranks -> evict shard, re-route in-flight.
    const std::uint64_t mask = world_->dead_mask();
    if (mask != seen_dead_) {
      handle_deaths(comm, mask);
      progress = true;
    }

    // 2. Incoming traffic. probe-then-recv never blocks: a queued match
    // is returned even in a degraded world (drain semantics).
    while (comm.probe()) {
      const minimpi::Message m = comm.recv();
      progress = true;
      if (m.tag == tags::kResponse || m.tag == tags::kReplicaAck)
        on_response(comm, m);
      // anything else in the serve block: ignore
    }

    // 3. Admit client requests.
    for (;;) {
      PendingPtr p;
      {
        std::lock_guard lk(fmu_);
        if (frontend_.empty()) break;
        p = std::move(frontend_.front());
        frontend_.pop_front();
        metrics::global().gauge("serve.queue.depth")
            .set(static_cast<double>(frontend_.size()));
      }
      progress = true;
      if (p->deadline < Clock::now()) {
        metrics::global().counter("serve.deadline_expired").inc();
        metrics::global().counter("serve.rejected").inc();
        fail(p, Errc::overloaded,
             "deadline expired while queued; the service is overloaded "
             "or the deadline was too tight");
        continue;
      }
      if (p->collective && collective_ok_ && world_->dead_mask() == 0)
        collq_.push_back(std::move(p));
      else
        dispatch_shard(comm, std::move(p));
    }

    // 4. Collective episodes run one at a time, only at quiescence: no
    // serve envelope may be in flight while DistSolver traffic spans the
    // grid (the tag spaces are disjoint, but a server blocked inside an
    // episode must not be handed shard work it cannot answer).
    if (!collq_.empty() && inflight_.empty() && repl_.empty()) {
      PendingPtr p = std::move(collq_.front());
      collq_.pop_front();
      if (collective_ok_ && world_->dead_mask() == 0)
        run_collective(comm, std::move(p));
      else
        dispatch_shard(comm, std::move(p));  // degraded: best-effort shard
      progress = true;
    }

    // 5. Watchdogs: an in-flight request past its timeout gets a definite
    // Errc::comm — the no-hung-service backstop even when a rank wedges
    // without dying.
    const auto now = Clock::now();
    for (auto it = inflight_.begin(); it != inflight_.end();) {
      if (now > it->second.timeout) {
        metrics::global().counter("serve.shard.timeouts").inc();
        fail(it->second.p, Errc::comm,
             "request timed out in flight to rank " +
                 std::to_string(it->second.target));
        it = inflight_.erase(it);
        progress = true;
      } else {
        ++it;
      }
    }
    std::erase_if(repl_,
                  [&](const auto& kv) { return now > kv.second.timeout; });

    // 5b. Adaptive admission: one controller step per window (opt_.adapt).
    if (controller_ && now >= next_adapt_) adapt_step(now);

    // 6. Shutdown, after everything admitted has been answered.
    bool stopping;
    bool empty_frontend;
    {
      std::lock_guard lk(fmu_);
      stopping = stop_requested_;
      empty_frontend = frontend_.empty();
    }
    if (stopping && empty_frontend && inflight_.empty() && repl_.empty() &&
        collq_.empty()) {
      shutdown_fleet(comm);
      return;
    }

    if (!progress)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

// ---------------------------------------------------------------------------
// Facade.

template <class T>
ShardedTier<T>::ShardedTier(const ServiceOptions& opt)
    : impl_(std::make_unique<Impl>(opt)) {}

template <class T>
ShardedTier<T>::~ShardedTier() = default;

template <class T>
Response<T> ShardedTier<T>::solve(const sparse::CscMatrix<T>& A,
                                  std::span<const T> b,
                                  const RequestOptions& ropt) {
  return impl_->submit(A, b, ropt, /*warm=*/false);
}

template <class T>
void ShardedTier<T>::warm(const sparse::CscMatrix<T>& A) {
  impl_->submit(A, {}, RequestOptions{}, /*warm=*/true);
}

template <class T>
void ShardedTier<T>::stop() {
  impl_->stop();
}

template <class T>
int ShardedTier<T>::nranks() const {
  return impl_->nranks_;
}

template <class T>
int ShardedTier<T>::owner_of(const sparse::PatternKey& key) const {
  return impl_->alive_owner(key);
}

template <class T>
std::uint64_t ShardedTier<T>::dead_mask() const {
  return impl_->world_->dead_mask();
}

template <class T>
std::size_t ShardedTier<T>::cache_entries() const {
  std::size_t total = 0;
  for (const auto& st : impl_->shards_) total += st->core->cache().entries();
  return total;
}

template <class T>
std::size_t ShardedTier<T>::cache_bytes() const {
  std::size_t total = 0;
  for (const auto& st : impl_->shards_) total += st->core->cache().bytes();
  return total;
}

template <class T>
std::size_t ShardedTier<T>::cache_single_bytes() const {
  std::size_t total = 0;
  for (const auto& st : impl_->shards_)
    total += st->core->cache().single_bytes();
  return total;
}

template <class T>
bool ShardedTier<T>::is_hostile(const sparse::PatternKey& key) const {
  const int owner = owner_of(key);
  return owner >= 0 &&
         impl_->shards_[static_cast<std::size_t>(owner)]->core->is_hostile(
             key);
}

template <class T>
std::size_t ShardedTier<T>::shard_entries(int rank) const {
  GESP_CHECK(rank >= 0 && rank < impl_->nranks_, Errc::invalid_argument,
             "shard_entries: rank out of range");
  return impl_->shards_[static_cast<std::size_t>(rank)]
      ->core->cache()
      .entries();
}

template <class T>
std::size_t ShardedTier<T>::queue_depth() const {
  std::lock_guard lk(impl_->fmu_);
  return impl_->frontend_.size();
}

template <class T>
std::size_t ShardedTier<T>::effective_admit() const {
  return impl_->eff_admit_.load(std::memory_order_relaxed);
}

template class ShardedTier<double>;
template class ShardedTier<Complex>;

}  // namespace gesp::serve
