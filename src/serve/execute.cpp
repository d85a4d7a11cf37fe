#include "serve/execute.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/trace.hpp"

namespace gesp::serve {
namespace {

/// Failures the recovery ladder can do something about; everything else
/// (bad input, library bug) goes back to the client as-is.
bool recoverable(Errc c) noexcept {
  return c == Errc::numerically_singular || c == Errc::unstable;
}

/// Footprint estimate for one cache entry: the factors (stored supernodal
/// values + structure), the retained transformed copy of A, the entry's
/// exact-value check copy, and the O(n) transform vectors. Deliberately an
/// estimate — the byte budget is a pressure valve, not an allocator. The
/// factor values are charged at the precision they are actually stored at:
/// a single-precision factorization costs half the dominant term, so a
/// mixed-mode service fits ~2× the factorizations into one byte budget.
template <class T>
std::size_t estimate_bytes(const Solver<T>& s, index_t n, count_t nnz) {
  const SolveStats& st = s.stats();
  const std::size_t factor_scalar =
      s.active_precision() == Precision::single ? sizeof(float) : sizeof(T);
  return factor_asset_bytes(st.stored_l, st.stored_u, st.nnz_l, st.nnz_u, n,
                            nnz, factor_scalar, sizeof(T));
}

}  // namespace

void reject(const char* why) {
  metrics::global().counter("serve.rejected").inc();
  trace::instant("serve", "reject");
  throw_error(Errc::overloaded, why);
}

template <class T>
EntryExecutor<T>::EntryExecutor(const ServiceOptions& opt,
                                std::size_t max_entries,
                                std::size_t max_bytes, metrics::Registry& reg)
    : opt_(opt), cache_(max_entries, max_bytes), reg_(reg) {}

template <class T>
bool EntryExecutor<T>::is_hostile(const sparse::PatternKey& key) const {
  std::lock_guard lk(hostile_mu_);
  auto it = hostile_.find(key);
  return it != hostile_.end() && it->second.hostile;
}

template <class T>
Response<T> EntryExecutor<T>::execute(const sparse::CscMatrix<T>& A0,
                                      sparse::PatternKey key,
                                      std::uint64_t vhash,
                                      std::span<const GroupRhs<T>> group,
                                      const refine::RefineOptions* refine,
                                      const Deliver& deliver) {
  // One hostile snapshot per group. A hostile pattern's cold build arms the
  // ladder at the strongest rung up front, so a failure there gets no
  // evict-and-retry: the retry would only repeat the same attempt.
  const bool hostile = is_hostile(key);
  if (hostile) reg_.counter("serve.recovery.hostile_hits").inc();
  // An armed-ladder execution failed: bump the pattern's failure count and
  // mark it hostile at the threshold.
  const auto failed_recovery = [&] {
    if (opt_.hostile_threshold <= 0) return;
    std::lock_guard lk(hostile_mu_);
    HostileState& st = hostile_[key];
    if (++st.failed_recoveries >= opt_.hostile_threshold && !st.hostile) {
      st.hostile = true;
      reg_.counter("serve.recovery.hostile_marked").inc();
      trace::instant("serve", "hostile_marked");
    }
  };

  std::size_t done = 0;  // group[0, done) has been answered
  for (int attempt = 0;; ++attempt) {
    const std::span<const GroupRhs<T>> rest = group.subspan(done);
    const sparse::CscMatrix<T>& A = done == 0 ? A0 : *rest.front().A;
    // Captured up front: A itself may die once its requester is answered.
    const index_t n = A.ncols;
    const count_t nnz = A.nnz();
    Response<T> tmpl;
    tmpl.recovered = attempt > 0;
    tmpl.hostile = hostile;
    tmpl.batch_width = static_cast<index_t>(rest.size());

    bool pattern_matched = false;
    auto e = cache_.acquire(A, &pattern_matched);
    std::unique_lock elk(e->mu);
    try {
      if (!e->solver) {
        GESP_TRACE_SPAN("serve", "factor_cold");
        reg_.counter("serve.cache.miss").inc();
        SolverOptions so = opt_.solver;
        if (attempt > 0 || hostile) so.recovery.enabled = true;
        // A hostile pattern has already burned through ladder climbs on
        // earlier requests; start at the strongest rung instead of
        // replaying the climb.
        if (hostile) so.recovery.start_rung = RecoveryRung::gepp;
        e->solver = std::make_unique<Solver<T>>(A, so);
        e->value_hash = vhash;
        e->values = A.values;
      } else if (e->value_hash == vhash && same_values(e->values, A.values)) {
        // Value hit — hash AND exact byte equality, the same two-step check
        // the pattern arrays get on acquire: the factors are current, go
        // straight to the solves.
        reg_.counter("serve.cache.value_hit").inc();
        tmpl.pattern_hit = true;
        tmpl.value_hit = true;
      } else {
        // Pattern hit: reuse the cached analysis (equilibration,
        // permutations, symbolic structure) and redo only the numeric
        // factorization. A value-hash collision (equal hashes, different
        // bytes) lands here too — degraded to a refactorize and counted,
        // never served stale.
        if (e->value_hash == vhash)
          reg_.counter("serve.cache.value_hash_collisions").inc();
        GESP_TRACE_SPAN("serve", "refactorize");
        reg_.counter("serve.cache.pattern_hit").inc();
        if (opt_.values_delta) {
          // Near-values hit: the solver diffs the values and absorbs the
          // change with the cheapest route (noop / SMW / partial); it
          // falls back to the full refactorize on its own for large drifts
          // or an escalated configuration.
          const count_t full_before = e->solver->stats().delta.full;
          e->solver->refactorize_delta(A);
          tmpl.value_delta = e->solver->stats().delta.full == full_before;
          if (tmpl.value_delta)
            reg_.counter("serve.cache.value_delta").inc();
        } else {
          e->solver->refactorize(A);
        }
        e->value_hash = vhash;
        e->values = A.values;
        tmpl.pattern_hit = true;
      }
      Solver<T>& s = *e->solver;
      const Precision factored = s.active_precision();
      tmpl.precision = factored;
      cache_.update_bytes(e, estimate_bytes(s, n, nnz), factored);

      // Read after each solve: the ladder can also escalate (and mixed
      // mode promote) on a berr stall inside solve(), not just during
      // factorization. A promotion replaced the float factors with double
      // ones: re-account the entry at its real footprint before the answer
      // is delivered, so a client never sees the stale byte count.
      Precision charged = factored;
      const auto stamp = [&] {
        tmpl.precision = s.active_precision();
        tmpl.berr = s.stats().berr;
        tmpl.refine_iterations = s.stats().refine_iterations;
        tmpl.recovery = s.stats().recovery;
        if (tmpl.precision != charged) {
          charged = tmpl.precision;
          cache_.update_bytes(e, estimate_bytes(s, n, nnz), charged);
        }
      };
      const auto un = static_cast<std::size_t>(n);
      if (opt_.batch_mode == BatchMode::blocked && rest.size() > 1) {
        GESP_TRACE_SPAN_ID("serve", "solve", tmpl.batch_width);
        std::vector<T> B(un * rest.size()), X(un * rest.size());
        for (std::size_t j = 0; j < rest.size(); ++j)
          std::copy(rest[j].b.begin(), rest[j].b.end(),
                    B.begin() + static_cast<std::ptrdiff_t>(j * un));
        s.solve_multi(B, X, tmpl.batch_width, refine);
        stamp();
        for (std::size_t j = 0; j < rest.size(); ++j) {
          Response<T> r = tmpl;
          r.x.assign(X.begin() + static_cast<std::ptrdiff_t>(j * un),
                     X.begin() + static_cast<std::ptrdiff_t>((j + 1) * un));
          deliver(done++, std::move(r));
        }
      } else {
        for (const GroupRhs<T>& g : rest) {
          GESP_TRACE_SPAN("serve", "solve");
          std::vector<T> x(un);
          s.solve(g.b, x, refine);
          stamp();
          Response<T> r = tmpl;
          r.x = std::move(x);
          deliver(done++, std::move(r));
        }
      }
      if (attempt > 0 || hostile) {
        // Reputation update for an armed-ladder execution. "The ladder ran
        // but its best-effort answer missed the policy thresholds" is a
        // failed recovery even though a response was served — those
        // best-effort patterns are exactly the persistently hostile ones.
        const RecoveryTrail& tr = s.stats().recovery;
        if (!tr.attempts.empty() && !tr.recovered) {
          failed_recovery();
        } else if (attempt > 0) {
          // A successful recovery gives a not-yet-hostile pattern its
          // failure count back (hostile marks are not forgiven).
          std::lock_guard lk(hostile_mu_);
          auto it = hostile_.find(key);
          if (it != hostile_.end() && !it->second.hostile)
            it->second.failed_recoveries = 0;
        }
      }
      return tmpl;
    } catch (const Error& err) {
      const bool rec = recoverable(err.code());
      if (rec) {
        reg_.counter("serve.recovery.failures").inc();
        // A failure with the ladder armed (the evict-and-retry rebuild, or
        // a hostile strongest-rung build) counts against the pattern's
        // reputation; enough of them and the pattern goes hostile.
        if (attempt > 0 || hostile) failed_recovery();
      }
      if (opt_.evict_on_failure) {
        // A failed factorization (or solve) must not be served again. The
        // entry mutex is released first not for deadlock safety — the
        // established nesting is entry-then-cache — but simply because
        // erase() has no use for it.
        elk.unlock();
        cache_.erase(e);
      }
      // Every request was answered before the failure: none left to retry.
      if (!group.empty() && done == group.size()) return tmpl;
      if (attempt > 0 || hostile || !rec || !opt_.evict_on_failure) throw;
      // Recovery wiring: a poisoned cached factorization (values drifted
      // numerically singular/unstable since analysis) was evicted above;
      // the unanswered remainder retries once on a cold rebuild with the
      // recovery ladder armed.
      reg_.counter("serve.retries").inc();
      trace::instant("serve", "evict_and_retry");
    }
  }
}

template class EntryExecutor<double>;
template class EntryExecutor<Complex>;

}  // namespace gesp::serve
