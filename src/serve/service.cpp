#include "serve/service.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "serve/execute.hpp"
#include "serve/shard.hpp"

namespace gesp::serve {
bool shard_options_set(const ShardOptions& s) noexcept {
  const ShardOptions d;
  return s.pr != d.pr || s.pc != d.pc || s.replication != d.replication ||
         s.shard_max_entries != d.shard_max_entries ||
         s.shard_max_bytes != d.shard_max_bytes ||
         s.promote_hits != d.promote_hits ||
         s.dist_fallthrough != d.dist_fallthrough ||
         s.request_timeout_s != d.request_timeout_s ||
         s.recv_timeout_s != d.recv_timeout_s || s.fault.armed();
}

template <class T>
SolverService<T>::SolverService(const ServiceOptions& opt)
    : opt_(opt) {
  // ServiceOptions::backend is THE selector; the per-solver field is
  // derived from it so a caller-set solver.backend can never smuggle an
  // engine past the service (the old implicit-split failure mode).
  opt_.solver.backend = opt_.backend;
  opt_.num_workers = std::max(1, opt_.num_workers);
  opt_.max_queue = std::max<std::size_t>(1, opt_.max_queue);
  opt_.max_batch = std::max<index_t>(1, opt_.max_batch);
  eff_max_batch_.store(opt_.max_batch, std::memory_order_relaxed);
  eff_linger_s_.store(opt_.batch_linger_s, std::memory_order_relaxed);
  eff_shed_fraction_.store(opt_.shed_fraction, std::memory_order_relaxed);
  if (opt_.backend == Backend::dist) {
    tier_ = std::make_unique<ShardedTier<T>>(opt_);
    return;  // the tier IS the service (it runs its own gateway adaptation)
  }
  GESP_CHECK(!shard_options_set(opt_.shard), Errc::invalid_argument,
             "SolverService: ShardOptions (grid/replication/shard budgets/"
             "promotion/fall-through/timeouts/fault injection) require "
             "ServiceOptions::backend == Backend::dist; a single-node "
             "backend would silently ignore them");
  core_ = std::make_unique<EntryExecutor<T>>(opt_, opt_.cache_max_entries,
                                             opt_.cache_max_bytes,
                                             metrics::global());
  workers_.reserve(static_cast<std::size_t>(opt_.num_workers));
  for (int i = 0; i < opt_.num_workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  if (opt_.adapt) {
    controller_ = std::make_unique<tune::ServeController>(
        tune::ServeKnobs{opt_.max_batch, opt_.batch_linger_s,
                         opt_.shed_fraction},
        opt_.adapt_controller);
    adapt_thread_ = std::thread([this] { adapt_loop(); });
  }
}

template <class T>
SolverService<T>::~SolverService() {
  stop();
}

template <class T>
Response<T> SolverService<T>::solve(const sparse::CscMatrix<T>& A,
                                    std::span<const T> b,
                                    const RequestOptions& ropt) {
  GESP_CHECK(A.nrows == A.ncols, Errc::invalid_argument,
             "SolverService::solve: matrix must be square");
  GESP_CHECK(b.size() == static_cast<std::size_t>(A.ncols),
             Errc::invalid_argument,
             "SolverService::solve: b size must equal the matrix dimension");
  if (tier_) return tier_->solve(A, b, ropt);
  auto p = std::make_unique<Pending>();
  p->A = &A;
  // Routing cost, paid once per request on the client thread: one FNV pass
  // over the pattern and one over the values.
  p->key = sparse::pattern_key(A);
  p->vhash = sparse::value_hash(A);
  p->b = b;
  p->enqueued = Clock::now();
  p->deadline = ropt.deadline_s > 0
                    ? p->enqueued + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(
                                            ropt.deadline_s))
                    : Clock::time_point::max();
  std::future<Outcome<T>> fut = p->promise.get_future();
  {
    std::lock_guard lk(mu_);
    metrics::global().counter("serve.requests").inc();
    if (stop_) reject("service stopped");
    if (queue_.size() >= opt_.max_queue)
      reject("request queue full; retry later or raise max_queue");
    queue_.push_back(std::move(p));
    metrics::global().counter("serve.admitted").inc();
    window_admitted_.inc();
    const auto depth = static_cast<double>(queue_.size());
    metrics::global().gauge("serve.queue.depth").set(depth);
    trace::counter("serve.queue.depth", depth);
  }
  cv_.notify_all();
  Outcome<T> out = fut.get();
  // Worker-side rejection / solver failure, rethrown on the client thread.
  if (!out.ok) throw Error(out.code, std::move(out.message));
  return std::move(out.resp);
}

template <class T>
void SolverService<T>::warm(const sparse::CscMatrix<T>& A) {
  GESP_CHECK(A.nrows == A.ncols, Errc::invalid_argument,
             "SolverService::warm: matrix must be square");
  if (tier_) {
    tier_->warm(A);
    return;
  }
  core_->execute(A, sparse::pattern_key(A), sparse::value_hash(A), {},
                 nullptr, {});
}

template <class T>
void SolverService<T>::stop() {
  if (tier_) {
    tier_->stop();
    return;
  }
  {
    std::lock_guard lk(adapt_mu_);
    adapt_stop_ = true;
  }
  adapt_cv_.notify_all();
  if (adapt_thread_.joinable()) adapt_thread_.join();
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_)
    if (w.joinable()) w.join();
  workers_.clear();
  // The workers drain the queue before exiting; anything still here lost a
  // pop race against shutdown and must not hang its client.
  std::list<PendingPtr> leftover;
  {
    std::lock_guard lk(mu_);
    leftover.swap(queue_);
  }
  for (auto& p : leftover)
    p->promise.set_value(Outcome<T>{{}, false, Errc::overloaded,
                                    "service stopped before execution"});
}

template <class T>
std::size_t SolverService<T>::queue_depth() const {
  if (tier_) return tier_->queue_depth();
  std::lock_guard lk(mu_);
  return queue_.size();
}

template <class T>
std::size_t SolverService<T>::cache_entries() const {
  return tier_ ? tier_->cache_entries() : core_->cache().entries();
}

template <class T>
std::size_t SolverService<T>::cache_bytes() const {
  return tier_ ? tier_->cache_bytes() : core_->cache().bytes();
}

template <class T>
std::size_t SolverService<T>::cache_single_bytes() const {
  return tier_ ? tier_->cache_single_bytes() : core_->cache().single_bytes();
}

template <class T>
bool SolverService<T>::is_hostile(const sparse::PatternKey& key) const {
  return tier_ ? tier_->is_hostile(key) : core_->is_hostile(key);
}

template <class T>
void SolverService<T>::worker_loop() {
  for (;;) {
    Batch batch;
    {
      std::unique_lock lk(mu_);
      cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and fully drained
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      collect_matches_locked(batch);
      // Batching knobs come from the effective-knob atomics, not opt_:
      // the adaptive controller may have moved them since construction.
      const index_t max_batch =
          eff_max_batch_.load(std::memory_order_relaxed);
      const double linger_s = eff_linger_s_.load(std::memory_order_relaxed);
      // Linger: hold a non-full batch briefly so concurrent same-
      // factorization arrivals coalesce. Other workers keep draining the
      // queue meanwhile — the lock is released inside wait_until.
      if (max_batch > 1 && linger_s > 0 &&
          static_cast<index_t>(batch.size()) < max_batch && !stop_) {
        const auto linger_until =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(linger_s));
        while (static_cast<index_t>(batch.size()) < max_batch &&
               !stop_) {
          if (cv_.wait_until(lk, linger_until) == std::cv_status::timeout) {
            collect_matches_locked(batch);
            break;
          }
          collect_matches_locked(batch);
        }
      }
      const auto depth = static_cast<double>(queue_.size());
      metrics::global().gauge("serve.queue.depth").set(depth);
      trace::counter("serve.queue.depth", depth);
    }
    execute_batch(batch);
  }
}

template <class T>
tune::ServeKnobs SolverService<T>::effective_knobs() const {
  tune::ServeKnobs k;
  k.max_batch = eff_max_batch_.load(std::memory_order_relaxed);
  k.batch_linger_s = eff_linger_s_.load(std::memory_order_relaxed);
  k.shed_fraction = eff_shed_fraction_.load(std::memory_order_relaxed);
  return k;
}

template <class T>
tune::ServeController::Stats SolverService<T>::adapt_stats() const {
  std::lock_guard lk(adapt_mu_);
  return controller_ ? controller_->stats() : tune::ServeController::Stats{};
}

template <class T>
void SolverService<T>::adapt_loop() {
  metrics::RateWindow arrivals(window_admitted_);
  const auto t0 = Clock::now();
  const auto now_s = [&t0] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  arrivals.tick(now_s());
  const double window_s = std::max(1e-3, opt_.adapt_window_s);
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(window_s));
  std::unique_lock lk(adapt_mu_);
  for (;;) {
    if (adapt_cv_.wait_for(lk, window, [this] { return adapt_stop_; }))
      return;
    tune::ControllerInput in;
    in.window_s = window_s;
    in.arrival_rate = arrivals.tick(now_s());
    const auto snap = window_latency_us_.snapshot_and_reset();
    in.completed = snap.count;
    in.p50_us = snap.quantile(0.5);
    in.p99_us = snap.quantile(0.99);
    in.queue_depth = static_cast<double>(queue_depth());
    const tune::ServeKnobs k = controller_->step(in);
    const tune::ServeKnobs prev = effective_knobs();
    eff_max_batch_.store(k.max_batch, std::memory_order_relaxed);
    eff_linger_s_.store(k.batch_linger_s, std::memory_order_relaxed);
    eff_shed_fraction_.store(k.shed_fraction, std::memory_order_relaxed);
    auto& reg = metrics::global();
    reg.gauge("serve.tune.max_batch")
        .set(static_cast<double>(k.max_batch));
    reg.gauge("serve.tune.batch_linger_s").set(k.batch_linger_s);
    reg.gauge("serve.tune.shed_fraction").set(k.shed_fraction);
    reg.gauge("serve.tune.window_p99_us").set(in.p99_us);
    reg.gauge("serve.tune.window_arrival_rate").set(in.arrival_rate);
    const auto& cs = controller_->stats();
    reg.gauge("serve.tune.windows").set(static_cast<double>(cs.windows));
    reg.gauge("serve.tune.trims").set(static_cast<double>(cs.trims));
    reg.gauge("serve.tune.relaxes").set(static_cast<double>(cs.relaxes));
    if (!(k == prev)) {
      reg.counter("serve.tune.adjustments").inc();
      trace::instant("serve", "tune_adjust",
                     static_cast<int>(k.max_batch));
    }
  }
}

template <class T>
void SolverService<T>::collect_matches_locked(Batch& batch) {
  // Coalesce on (pattern key, value hash): 128 combined hash bits, so a
  // cross-matrix collision here is beyond negligible — and the cache layer
  // still validates the pattern arrays exactly before any symbolic reuse.
  const Pending& head = *batch.front();
  const index_t max_batch = eff_max_batch_.load(std::memory_order_relaxed);
  for (auto it = queue_.begin();
       it != queue_.end() && static_cast<index_t>(batch.size()) < max_batch;) {
    if ((*it)->key == head.key && (*it)->vhash == head.vhash) {
      batch.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
}

template <class T>
void SolverService<T>::execute_batch(Batch& batch) {
  // Last line of defense for the worker thread: nothing may escape here —
  // a stray exception would terminate the process and strand every queued
  // client. A solver failure resolves the batch's unfulfilled requests
  // with its code; anything else (bad_alloc sizing the batch buffers, a
  // future_error bug, …) as Errc::internal.
  try {
    execute_batch_impl(batch);
  } catch (const Error& err) {
    fail_unfulfilled(batch, err.code(), err.what());
  } catch (const std::exception& ex) {
    fail_unfulfilled(batch, Errc::internal, ex.what());
  } catch (...) {
    fail_unfulfilled(batch, Errc::internal,
                     "unknown exception during batch execution");
  }
}

template <class T>
void SolverService<T>::fail_unfulfilled(Batch& batch, Errc code,
                                        const char* msg) {
  for (auto& p : batch) {
    if (!p) continue;  // resolved already — every resolution nulls its slot
    p->promise.set_value(Outcome<T>{{}, false, code, msg});
    p.reset();
  }
}

template <class T>
void SolverService<T>::execute_batch_impl(Batch& batch) {
  GESP_TRACE_SPAN("serve", "batch");
  // Deadline check happens at execution start: a request that waited past
  // its budget is shed instead of solved late.
  const auto now = Clock::now();
  // The slots in `batch` remain the owners; `live` points at the not-yet-
  // resolved ones. Every promise resolution nulls its slot, so the failure
  // paths (the catch-alls in execute_batch) can never touch a promise
  // twice — set_value on a satisfied promise throws future_error.
  std::vector<PendingPtr*> live;
  live.reserve(batch.size());
  for (auto& p : batch) {
    if (p->deadline < now) {
      metrics::global().counter("serve.deadline_expired").inc();
      metrics::global().counter("serve.rejected").inc();
      trace::instant("serve", "deadline_expired");
      p->promise.set_value(
          Outcome<T>{{}, false, Errc::overloaded,
                     "deadline expired while queued; the service is "
                     "overloaded or the deadline was too tight"});
      p.reset();
    } else {
      live.push_back(&p);
    }
  }
  if (live.empty()) return;

  // Graceful degradation: with the queue mostly full, skip iterative
  // refinement — one static-pivot triangular solve per request is the
  // cheapest answer GESP can give, and berr is still measured once.
  const bool shed =
      opt_.shed_refinement &&
      queue_depth() >= static_cast<std::size_t>(
                           eff_shed_fraction_.load(std::memory_order_relaxed) *
                           static_cast<double>(opt_.max_queue));
  refine::RefineOptions shed_refine = opt_.solver.refine;
  shed_refine.max_iters = 0;

  // Every live request shares the (pattern key, value hash) pair — that is
  // what collect_matches_locked coalesces on — so the batch is one group
  // for the core. It answers each request as soon as its x exists; a
  // failure that ends the group throws, and execute_batch fails whatever
  // is still unanswered.
  std::vector<GroupRhs<T>> group;
  group.reserve(live.size());
  for (PendingPtr* sp : live) group.push_back({(*sp)->A, (*sp)->b});
  const Pending& head = **live.front();
  const Response<T> done = core_->execute(
      *head.A, head.key, head.vhash, group, shed ? &shed_refine : nullptr,
      [&](std::size_t j, Response<T>&& r) {
        r.backend = opt_.backend;
        r.shed = shed;
        fulfill(*live[j], std::move(r));
      });
  metrics::global().counter("serve.batches").inc();
  metrics::global().histogram("serve.batch_width").record(
      static_cast<double>(done.batch_width));
  if (shed)
    metrics::global().counter("serve.shed_solves").inc(
        static_cast<count_t>(done.batch_width));
}

template <class T>
void SolverService<T>::fulfill(PendingPtr& p, Response<T>&& r) {
  r.latency_s =
      std::chrono::duration<double>(Clock::now() - p->enqueued).count();
  // Microseconds: the histogram's power-of-two buckets would fold every
  // sub-second latency into one bucket if recorded in seconds.
  metrics::global().histogram("serve.latency_us").record(r.latency_s * 1e6);
  window_latency_us_.record(r.latency_s * 1e6);
  p->promise.set_value(Outcome<T>{std::move(r), true, {}, {}});
  // Null the owning slot: the retry/error/catch-all paths skip resolved
  // requests by this marker.
  p.reset();
}

template class SolverService<double>;
template class SolverService<Complex>;

}  // namespace gesp::serve
