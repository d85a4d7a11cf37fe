// Serving-layer tests: cache semantics, concurrent bitwise parity against
// serial solves, eviction under tiny budgets, admission control (queue
// full, deadlines, stopped service), the recovery wiring, and the
// satellite guarantees this PR added to the core solver (refactorize
// pattern validation, wall-clock solve latency). Runs under TSan in CI —
// every assertion here is scheduled to be deterministic, not timing-lucky.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "serve/cache.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"
#include "sparse/generators.hpp"
#include "sparse/ops.hpp"
#include "sparse/testbed.hpp"
#include "test_helpers.hpp"

namespace {

using namespace gesp;

sparse::CscMatrix<double> testbed_matrix(const char* name) {
  return sparse::testbed_entry(name).make();
}

std::vector<double> rhs_for(const sparse::CscMatrix<double>& A) {
  std::vector<double> ones(static_cast<std::size_t>(A.ncols), 1.0);
  std::vector<double> b(ones.size());
  sparse::spmv<double>(A, ones, b);
  return b;
}

count_t counter_value(const char* name) {
  const auto* c = metrics::global().find_counter(name);
  return c ? c->value() : 0;
}

/// Keeps a one-worker service busy so that requests submitted meanwhile
/// queue behind it and batch from backlog: starts solving A (a larger
/// testbed matrix, factored cold or refactorized for new values) on a
/// background thread and returns once the worker has taken that request
/// off the queue. Join the returned thread when done.
std::thread occupy_worker(serve::SolverService<double>& svc,
                          const sparse::CscMatrix<double>& A,
                          const std::vector<double>& b) {
  const count_t admitted0 = counter_value("serve.admitted");
  std::thread busy([&svc, &A, &b] {
    try {
      (void)svc.solve(A, b);
    } catch (const Error&) {
      // Only the time it held the worker matters.
    }
  });
  while (counter_value("serve.admitted") == admitted0 ||
         svc.queue_depth() != 0)
    std::this_thread::yield();
  return busy;
}

/// A tiny structurally-fine but numerically singular system: every GESP
/// rung (and GEPP) fails on it, which is exactly what the recovery-wiring
/// test needs.
sparse::CscMatrix<double> singular2x2() {
  sparse::CscMatrix<double> A;
  A.nrows = A.ncols = 2;
  A.colptr = {0, 2, 4};
  A.rowind = {0, 1, 0, 1};
  A.values = {1.0, 1.0, 1.0, 1.0};
  return A;
}

// ---------------------------------------------------------------------------
// Pattern fingerprints and the refactorize validation satellite.

TEST(PatternKey, SameStructureSameKeyDifferentValuesSameKey) {
  const auto A = testbed_matrix("west0497-s");
  auto B = A;
  for (auto& v : B.values) v *= 2.0;
  EXPECT_EQ(sparse::pattern_key(A), sparse::pattern_key(B));
  EXPECT_NE(sparse::value_hash(A), sparse::value_hash(B));
}

TEST(PatternKey, DifferentStructureDifferentKey) {
  const auto A = testbed_matrix("west0497-s");
  const auto B = testbed_matrix("orsirr-s");
  EXPECT_FALSE(sparse::pattern_key(A) == sparse::pattern_key(B));
}

TEST(RefactorizeValidation, RejectsSameSizeDifferentPattern) {
  auto A = testbed_matrix("west0497-s");
  Solver<double> s(A, {});
  // Same dimensions and nnz, different structure: move one entry to
  // another (previously empty) row of the same column.
  auto B = A;
  bool moved = false;
  for (index_t j = 0; j < B.ncols && !moved; ++j) {
    const index_t lo = B.colptr[j], hi = B.colptr[j + 1];
    if (hi - lo == 0 || hi - lo == B.nrows) continue;
    for (index_t r = 0; r < B.nrows; ++r) {
      auto rows = B.col_rows(j);
      if (std::find(rows.begin(), rows.end(), r) == rows.end()) {
        B.rowind[lo] = r;
        B.sort_columns();
        moved = true;
        break;
      }
    }
  }
  ASSERT_TRUE(moved);
  try {
    s.refactorize(B);
    FAIL() << "refactorize accepted a different sparsity pattern";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::invalid_argument);
  }
  // Same pattern with new values is the supported fast path.
  auto C = A;
  for (auto& v : C.values) v *= 1.5;
  EXPECT_NO_THROW(s.refactorize(C));
}

TEST(SolveStatsWall, LatencyFieldsTrackSolveCalls) {
  const auto A = testbed_matrix("west0497-s");
  Solver<double> s(A, {});
  const auto b = rhs_for(A);
  std::vector<double> x(b.size());
  s.solve(b, x);
  const auto& st = s.stats();
  EXPECT_EQ(st.solve_calls, 1);
  EXPECT_GT(st.solve_wall_seconds, 0.0);
  // The wall clock covers the whole call, so it dominates the epoch's
  // instrumented phases.
  EXPECT_GE(st.solve_wall_seconds,
            st.times.get("solve") + st.times.get("refine"));
  const double first = st.solve_wall_total_seconds;
  s.solve(b, x);
  EXPECT_EQ(s.stats().solve_calls, 2);
  EXPECT_GE(s.stats().solve_wall_total_seconds, first);
}

// ---------------------------------------------------------------------------
// FactorizationCache unit behaviour.

TEST(FactorizationCache, HitMissAndLruEviction) {
  serve::FactorizationCache<double> cache(/*max_entries=*/2,
                                          /*max_bytes=*/0);
  const auto A = testbed_matrix("west0497-s");
  const auto B = testbed_matrix("orsirr-s");
  const auto C = testbed_matrix("goodwin-s");

  bool hit = true;
  auto ea = cache.acquire(A, sparse::pattern_key(A), &hit);
  EXPECT_FALSE(hit);
  auto ea2 = cache.acquire(A, sparse::pattern_key(A), &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(ea.get(), ea2.get());

  cache.acquire(B, sparse::pattern_key(B), &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.entries(), 2u);

  // A was used more recently than B (via ea2), so inserting C evicts B.
  cache.acquire(A, sparse::pattern_key(A), &hit);
  cache.acquire(C, sparse::pattern_key(C), &hit);
  EXPECT_EQ(cache.entries(), 2u);
  cache.acquire(A, sparse::pattern_key(A), &hit);
  EXPECT_TRUE(hit);
  cache.acquire(B, sparse::pattern_key(B), &hit);
  EXPECT_FALSE(hit) << "B should have been the LRU eviction victim";
}

TEST(FactorizationCache, ByteBudgetEvictsButKeepsCurrent) {
  serve::FactorizationCache<double> cache(/*max_entries=*/8,
                                          /*max_bytes=*/1000);
  const auto A = testbed_matrix("west0497-s");
  const auto B = testbed_matrix("orsirr-s");
  bool hit = false;
  auto ea = cache.acquire(A, sparse::pattern_key(A), &hit);
  cache.update_bytes(ea, 800);
  auto eb = cache.acquire(B, sparse::pattern_key(B), &hit);
  cache.update_bytes(eb, 900);  // over budget: A (LRU) must go, B stays
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes(), 900u);
  cache.acquire(B, sparse::pattern_key(B), &hit);
  EXPECT_TRUE(hit);
  // An entry the budget can never fit still serves (size > 1 guard): the
  // budget is a pressure valve, not a correctness gate.
  auto ec = cache.acquire(A, sparse::pattern_key(A), &hit);
  cache.update_bytes(ec, 5000);
  EXPECT_EQ(cache.entries(), 1u);
  cache.acquire(A, sparse::pattern_key(A), &hit);
  EXPECT_TRUE(hit);
}

TEST(FactorizationCache, EraseIsIdempotentAndUnlinks) {
  serve::FactorizationCache<double> cache(4, 0);
  const auto A = testbed_matrix("west0497-s");
  bool hit = false;
  auto e = cache.acquire(A, sparse::pattern_key(A), &hit);
  cache.erase(e);
  EXPECT_EQ(cache.entries(), 0u);
  cache.erase(e);  // no-op
  cache.acquire(A, sparse::pattern_key(A), &hit);
  EXPECT_FALSE(hit);
}

// ---------------------------------------------------------------------------
// Concurrent service parity: N client threads, bitwise-identical answers to
// a serial Solver replay.

TEST(SolverService, ConcurrentBitwiseParityWithSerial) {
  const char* kPatterns[] = {"west0497-s", "orsirr-s", "goodwin-s"};
  constexpr int kValueSets = 3;
  constexpr int kClients = 6;
  constexpr int kPerClient = 8;

  // Problems and serial oracle answers. The oracle replays exactly what
  // the service does on the per_column path: factor the base (the warm()
  // call pins the transform basis), refactorize per value set, solve.
  struct Prob {
    sparse::CscMatrix<double> A;
    std::vector<double> b;
    std::vector<double> x_ref;
  };
  std::vector<sparse::CscMatrix<double>> bases;
  std::vector<std::vector<Prob>> probs;  // [pattern][valueset]
  serve::ServiceOptions opt;
  opt.backend = Backend::serial;
  for (const char* name : kPatterns) {
    bases.push_back(testbed_matrix(name));
    Solver<double> oracle(bases.back(), opt.solver);
    std::vector<Prob> per_vs;
    for (int v = 0; v < kValueSets; ++v) {
      Prob p;
      p.A = serve::perturb_values(bases.back(), v);
      p.b = rhs_for(p.A);
      p.x_ref.resize(p.b.size());
      oracle.refactorize(p.A);
      oracle.solve(p.b, p.x_ref);
      per_vs.push_back(std::move(p));
    }
    probs.push_back(std::move(per_vs));
  }

  // per_column execution is the bitwise-reproducible mode; shedding would
  // skip refinement and is off. Cache budgets are big enough that nothing
  // the oracle factored gets evicted.
  opt.batch_mode = serve::BatchMode::per_column;
  opt.shed_refinement = false;
  opt.cache_max_entries = 8;
  opt.num_workers = 3;
  serve::SolverService<double> svc(opt);
  for (const auto& base : bases) svc.warm(base);

  std::atomic<int> mismatches{0}, failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        // Deterministic request mix, different per client.
        const auto& pv = probs[(c + i) % std::size(kPatterns)]
                              [(c * kPerClient + i) % kValueSets];
        try {
          const auto r = svc.solve(pv.A, pv.b);
          if (r.x.size() != pv.x_ref.size() ||
              std::memcmp(r.x.data(), pv.x_ref.data(),
                          r.x.size() * sizeof(double)) != 0)
            mismatches.fetch_add(1);
          if (!(r.latency_s > 0)) failures.fetch_add(1);
        } catch (const Error&) {
          failures.fetch_add(1);
        }
      }
    });
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(failures.load(), 0);
}

TEST(SolverService, BlockedBatchingCoalescesAndStaysAccurate) {
  const auto A = testbed_matrix("west0497-s");
  const auto b = rhs_for(A);
  serve::ServiceOptions opt;
  opt.backend = Backend::serial;
  opt.num_workers = 1;          // one executor => one batch per drain
  opt.max_batch = 4;
  opt.shed_refinement = false;
  serve::SolverService<double> svc(opt);
  svc.warm(A);
  (void)svc.solve(A, b);  // value-hit traffic from here on

  const auto big = testbed_matrix("af23560-s");
  index_t widest = 0;
  for (int round = 0; round < 5 && widest < 2; ++round) {
    // New values every round, so the blocker always factors.
    const auto blocker = serve::perturb_values(big, round);
    const auto blocker_b = rhs_for(blocker);
    std::thread busy = occupy_worker(svc, blocker, blocker_b);
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::atomic<index_t> max_width{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c)
      clients.emplace_back([&] {
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) {
        }
        const auto r = svc.solve(A, b);
        double err = 0;
        for (double x : r.x) err = std::max(err, std::abs(x - 1.0));
        EXPECT_LT(err, 1e-8);
        index_t cur = max_width.load();
        while (r.batch_width > cur &&
               !max_width.compare_exchange_weak(cur, r.batch_width)) {
        }
      });
    while (ready.load() < 4) {
    }
    go.store(true, std::memory_order_release);
    for (auto& t : clients) t.join();
    busy.join();
    widest = std::max(widest, max_width.load());
  }
  EXPECT_GE(widest, 2) << "4 simultaneous same-value requests never "
                          "coalesced in 5 rounds";
}

// ---------------------------------------------------------------------------
// Eviction, admission control and degradation through the service.

TEST(SolverService, TinyCacheBudgetEvictsAndStaysCorrect) {
  const auto A = testbed_matrix("west0497-s");
  const auto B = testbed_matrix("orsirr-s");
  const auto ba = rhs_for(A), bb = rhs_for(B);
  serve::ServiceOptions opt;
  opt.backend = Backend::serial;
  opt.cache_max_entries = 4;
  opt.cache_max_bytes = 1;  // nothing fits: every new pattern evicts
  opt.shed_refinement = false;
  serve::SolverService<double> svc(opt);

  const count_t evictions0 = counter_value("serve.cache.evictions");
  for (int i = 0; i < 3; ++i) {
    const auto ra = svc.solve(A, ba);
    const auto rb = svc.solve(B, bb);
    double err = 0;
    for (double x : ra.x) err = std::max(err, std::abs(x - 1.0));
    for (double x : rb.x) err = std::max(err, std::abs(x - 1.0));
    EXPECT_LT(err, 1e-8);
  }
  EXPECT_LE(svc.cache_entries(), 1u);
  EXPECT_GT(counter_value("serve.cache.evictions"), evictions0);
}

TEST(SolverService, QueueFullRejectsWithOverloaded) {
  serve::ServiceOptions opt;
  opt.backend = Backend::serial;
  opt.num_workers = 1;
  opt.max_queue = 1;
  serve::SolverService<double> svc(opt);

  // Occupy the single worker with a cold jpwh991-s factorization, then
  // flood: with the worker busy and a queue of one, most must be rejected
  // at admission — synchronously, no timing involved.
  const auto blocker = testbed_matrix("jpwh991-s");
  const auto bb = rhs_for(blocker);
  const count_t admitted0 = counter_value("serve.admitted");
  std::thread blocked([&] { (void)svc.solve(blocker, bb); });
  // Wait until the blocker was admitted AND popped by the worker.
  while (counter_value("serve.admitted") < admitted0 + 1 ||
         svc.queue_depth() > 0)
    std::this_thread::yield();

  const auto A = testbed_matrix("west0497-s");
  const auto ba = rhs_for(A);
  std::atomic<int> rejected{0}, accepted{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 6; ++c)
    clients.emplace_back([&] {
      try {
        (void)svc.solve(A, ba);
        accepted.fetch_add(1);
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), Errc::overloaded);
        rejected.fetch_add(1);
      }
    });
  for (auto& t : clients) t.join();
  blocked.join();
  EXPECT_GE(rejected.load(), 1);
  EXPECT_EQ(rejected.load() + accepted.load(), 6);
}

TEST(SolverService, ExpiredDeadlineRejectsInsteadOfSolvingLate) {
  serve::ServiceOptions opt;
  opt.backend = Backend::serial;
  opt.num_workers = 1;
  serve::SolverService<double> svc(opt);

  const auto blocker = testbed_matrix("jpwh991-s");
  const auto bb = rhs_for(blocker);
  const count_t admitted0 = counter_value("serve.admitted");
  std::thread blocked([&] { (void)svc.solve(blocker, bb); });
  while (counter_value("serve.admitted") < admitted0 + 1 ||
         svc.queue_depth() > 0)
    std::this_thread::yield();

  // Queued behind a cold factorization with a deadline that cannot hold:
  // by execution time it has expired, so the service sheds it.
  const auto A = testbed_matrix("west0497-s");
  const auto ba = rhs_for(A);
  const count_t expired0 = counter_value("serve.deadline_expired");
  serve::RequestOptions ropt;
  ropt.deadline_s = 1e-6;
  try {
    (void)svc.solve(A, ba, ropt);
    FAIL() << "expired deadline was solved anyway";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::overloaded);
  }
  blocked.join();
  EXPECT_EQ(counter_value("serve.deadline_expired"), expired0 + 1);
}

TEST(SolverService, StoppedServiceRejects) {
  serve::ServiceOptions opt;
  opt.backend = Backend::serial;
  serve::SolverService<double> svc(opt);
  const auto A = testbed_matrix("west0497-s");
  const auto b = rhs_for(A);
  (void)svc.solve(A, b);
  svc.stop();
  try {
    (void)svc.solve(A, b);
    FAIL() << "stopped service accepted a request";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::overloaded);
  }
}

TEST(SolverService, RecoverableFailureEvictsAndRetriesWithLadder) {
  serve::ServiceOptions opt;
  opt.backend = Backend::serial;
  opt.solver.tiny_pivot = TinyPivotOption::fail;  // make singularity fatal
  serve::SolverService<double> svc(opt);

  const auto S = singular2x2();
  const std::vector<double> b = {1.0, 2.0};
  const count_t retries0 = counter_value("serve.retries");
  // The first (cold) attempt fails numerically singular (tiny_pivot=fail,
  // no ladder); the service evicts the poisoned entry and retries once
  // with the recovery ladder armed. An exactly singular system defeats
  // the ladder too — the client then either sees the solver error or the
  // ladder's best-effort answer flagged `recovered` — but the retry path
  // must have run exactly once either way.
  try {
    const auto r = svc.solve(S, b);
    EXPECT_TRUE(r.recovered);
  } catch (const Error& e) {
    EXPECT_NE(e.code(), Errc::overloaded);
  }
  EXPECT_EQ(counter_value("serve.retries"), retries0 + 1);

  // The failure did not poison the service: good traffic still solves.
  const auto A = testbed_matrix("west0497-s");
  const auto ba = rhs_for(A);
  const auto r = svc.solve(A, ba);
  double err = 0;
  for (double x : r.x) err = std::max(err, std::abs(x - 1.0));
  EXPECT_LT(err, 1e-8);
}

TEST(SolverService, RecoveredResponseCarriesTheTrail) {
  // The served response must surface how the answer was obtained: the
  // evict-and-retry rebuild arms the ladder, and the ladder's trail rides
  // back in Response::recovery.
  serve::ServiceOptions opt;
  opt.backend = Backend::serial;
  opt.solver.tiny_pivot = TinyPivotOption::fail;
  serve::SolverService<double> svc(opt);

  const auto S = singular2x2();
  const std::vector<double> b = {1.0, 2.0};
  try {
    const auto r = svc.solve(S, b);
    EXPECT_TRUE(r.recovered);
    EXPECT_FALSE(r.recovery.attempts.empty());
    EXPECT_EQ(r.recovery.final_rung, r.recovery.attempts.back().rung);
  } catch (const Error& e) {
    EXPECT_NE(e.code(), Errc::overloaded);
  }
  // A clean request's trail stays empty (ladder never armed).
  const auto A = testbed_matrix("west0497-s");
  const auto r2 = svc.solve(A, rhs_for(A));
  EXPECT_TRUE(r2.recovery.attempts.empty());
  EXPECT_FALSE(r2.hostile);
}

TEST(SolverService, PersistentFailuresMarkThePatternHostile) {
  // Cap on evict-and-retry: after two failed armed-ladder recoveries, the
  // pattern is marked hostile and subsequent requests are rebuilt with the
  // ladder starting at the strongest rung (GEPP) instead of burning an
  // evict-and-retry per request. The middle rungs are
  // disabled so an exactly singular system defeats the armed rebuilds —
  // with them enabled, threshold pivoting absorbs the 2x2 gadget.
  serve::ServiceOptions opt;
  opt.backend = Backend::serial;
  opt.solver.tiny_pivot = TinyPivotOption::fail;
  opt.solver.recovery.try_aggressive_smw = false;
  opt.solver.recovery.try_unscaled_refactor = false;
  opt.solver.recovery.try_threshold = false;
  opt.solver.recovery.try_panel_rrp = false;
  serve::SolverService<double> svc(opt);

  const auto S = singular2x2();
  const sparse::PatternKey key = sparse::pattern_key(S);
  const std::vector<double> b = {1.0, 2.0};
  const count_t retries0 = counter_value("serve.retries");
  const count_t marked0 = counter_value("serve.recovery.hostile_marked");
  const count_t hits0 = counter_value("serve.recovery.hostile_hits");

  // Two requests, each: cold build fails -> evict -> armed rebuild fails
  // too (gesp and gepp both reject an exactly singular matrix). Two
  // failed recoveries = the threshold.
  for (int i = 0; i < 2; ++i) {
    try {
      svc.solve(S, b);
      ADD_FAILURE() << "request " << i << " was answered";
    } catch (const Error& e) {
      // One category prefix: the worker hands the client the bare message.
      EXPECT_STREQ(e.what(),
                   "numerically_singular: GEPP: column 1 is numerically zero")
          << "request " << i;
    }
    EXPECT_EQ(svc.is_hostile(key), i == 1) << "request " << i;
  }
  EXPECT_EQ(counter_value("serve.retries"), retries0 + 2);
  EXPECT_EQ(counter_value("serve.recovery.hostile_marked"), marked0 + 1);

  // Same pattern, nonsingular values: the hostile request skips the
  // ladder climb — no evict-and-retry — and goes straight to GEPP, which
  // factors the healthy values fine. The response says so.
  auto G = S;
  G.values = {1.0, 1.0, 1.0, 2.0};
  std::vector<double> bg(2);
  const std::vector<double> ones = {1.0, 1.0};
  sparse::spmv<double>(G, ones, bg);
  const auto r = svc.solve(G, bg);
  EXPECT_TRUE(r.hostile);
  ASSERT_FALSE(r.recovery.attempts.empty());
  EXPECT_EQ(r.recovery.final_rung, RecoveryRung::gepp);
  EXPECT_TRUE(r.recovery.recovered);
  EXPECT_NEAR(r.x[0], 1.0, 1e-10);
  EXPECT_NEAR(r.x[1], 1.0, 1e-10);
  EXPECT_EQ(counter_value("serve.retries"), retries0 + 2);  // no new retry
  EXPECT_EQ(counter_value("serve.recovery.hostile_hits"), hits0 + 1);
  EXPECT_TRUE(svc.is_hostile(key));  // the mark is not forgiven
}

TEST(SolverService, ValueHitRequiresExactBytesAndStillFastPaths) {
  serve::ServiceOptions opt;
  opt.backend = Backend::serial;
  serve::SolverService<double> svc(opt);
  const auto A = testbed_matrix("west0497-s");
  const auto b = rhs_for(A);

  const count_t hits0 = counter_value("serve.cache.value_hit");
  const count_t phits0 = counter_value("serve.cache.pattern_hit");
  const auto cold = svc.solve(A, b);
  EXPECT_FALSE(cold.value_hit);
  // Identical resubmission: the exact-byte check must not break the
  // value-hit fast path (hash AND memcmp both match).
  const auto hit = svc.solve(A, b);
  EXPECT_TRUE(hit.pattern_hit);
  EXPECT_TRUE(hit.value_hit);
  EXPECT_EQ(counter_value("serve.cache.value_hit"), hits0 + 1);
  // New values under the same pattern refactorize instead.
  auto B = A;
  for (auto& v : B.values) v *= 2.0;
  const auto refac = svc.solve(B, rhs_for(B));
  EXPECT_TRUE(refac.pattern_hit);
  EXPECT_FALSE(refac.value_hit);
  EXPECT_EQ(counter_value("serve.cache.pattern_hit"), phits0 + 1);
  // The collision degradation path never fires on honest traffic.
  EXPECT_EQ(counter_value("serve.cache.value_hash_collisions"), 0u);
}

TEST(SolverService, FailingCoalescedBatchResolvesEveryClientExactlyOnce) {
  // Regression: a batch that fails after coalescing must deliver exactly
  // one outcome per client — no promise is ever set twice (that throws
  // std::future_error past the worker's Error handler and terminates the
  // process) and none is abandoned (that hangs its client forever).
  serve::ServiceOptions opt;
  opt.backend = Backend::serial;
  opt.solver.tiny_pivot = TinyPivotOption::fail;
  opt.batch_mode = serve::BatchMode::per_column;
  opt.num_workers = 1;              // one executor, so requests coalesce
  serve::SolverService<double> svc(opt);
  metrics::Histogram& widths =
      metrics::global().histogram("serve.batch_width");
  widths.reset();

  // The clients queue behind a larger factorization and batch from that
  // backlog.
  const auto big = testbed_matrix("af23560-s");
  const auto big_b = rhs_for(big);
  std::thread busy = occupy_worker(svc, big, big_b);
  const auto S = singular2x2();
  const std::vector<double> b = {1.0, 2.0};
  constexpr int kClients = 4;
  std::atomic<int> outcomes{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i)
    clients.emplace_back([&] {
      // As in RecoverableFailureEvictsAndRetriesWithLadder: the armed
      // retry either fails too or returns the ladder's best-effort
      // answer flagged `recovered` — both are a delivered outcome.
      try {
        const auto r = svc.solve(S, b);
        EXPECT_TRUE(r.recovered);
      } catch (const Error& e) {
        EXPECT_NE(e.code(), Errc::overloaded);
      }
      outcomes.fetch_add(1, std::memory_order_relaxed);
    });
  for (auto& c : clients) c.join();
  busy.join();
  EXPECT_EQ(outcomes.load(), kClients);
  // The failed batch is counted at dispatch like any other: all four
  // clients coalesced into it.
  EXPECT_EQ(widths.max(), static_cast<double>(kClients));

  // The worker survived: the service still serves good traffic.
  const auto A = testbed_matrix("west0497-s");
  const auto r = svc.solve(A, rhs_for(A));
  double err = 0;
  for (double x : r.x) err = std::max(err, std::abs(x - 1.0));
  EXPECT_LT(err, 1e-8);
}

// ---------------------------------------------------------------------------
// Workload plumbing.

TEST(Workload, PerturbIsDeterministicAndKeepsPattern) {
  const auto A = testbed_matrix("west0497-s");
  const auto A0 = serve::perturb_values(A, 0);
  EXPECT_EQ(gesp::testing::max_abs_diff(A, A0), 0.0);
  const auto A1 = serve::perturb_values(A, 1);
  const auto A1b = serve::perturb_values(A, 1);
  EXPECT_EQ(gesp::testing::max_abs_diff(A1, A1b), 0.0);
  EXPECT_EQ(sparse::pattern_key(A), sparse::pattern_key(A1));
  EXPECT_NE(sparse::value_hash(A), sparse::value_hash(A1));
}

TEST(Workload, GenerateWriteReadRoundtrip) {
  const auto w = serve::generate_workload(3, 4, 32, 7);
  ASSERT_EQ(w.items.size(), 32u);
  const std::string path = ::testing::TempDir() + "gesp_workload.txt";
  serve::write_workload(path, w);
  const auto r = serve::read_workload(path);
  ASSERT_EQ(r.items.size(), w.items.size());
  for (std::size_t i = 0; i < w.items.size(); ++i) {
    EXPECT_EQ(r.items[i].matrix, w.items[i].matrix);
    EXPECT_EQ(r.items[i].valueset, w.items[i].valueset);
  }
  // Same seed, same workload; different seed, different workload.
  const auto w2 = serve::generate_workload(3, 4, 32, 7);
  EXPECT_EQ(w2.items[5].matrix, w.items[5].matrix);
}

TEST(Workload, MalformedFileThrowsIo) {
  const std::string path = ::testing::TempDir() + "gesp_workload_bad.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("request west0497-s\n", f);  // missing valueset
    std::fclose(f);
  }
  try {
    (void)serve::read_workload(path);
    FAIL() << "malformed workload parsed";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::io);
  }
}

TEST(SolverService, ValuesDeltaAbsorbsDriftOnPatternHits) {
  // A pattern hit with drifted values routes through refactorize_delta:
  // the response's value_delta flag and the serve.cache.value_delta
  // counter record that the change was absorbed without a full
  // refactorization, and the answer stays refinement-converged.
  serve::ServiceOptions opt;
  opt.backend = Backend::serial;
  serve::SolverService<double> svc(opt);
  const auto A = testbed_matrix("west0497-s");
  const std::vector<double> ones(static_cast<std::size_t>(A.ncols), 1.0);

  const count_t delta0 = counter_value("serve.cache.value_delta");
  const auto cold = svc.solve(A, rhs_for(A));
  EXPECT_FALSE(cold.value_delta);
  // A handful of changed entries: the partial route absorbs it.
  auto B = A;
  B.values[0] *= 1.4;
  B.values[B.values.size() / 2] *= 0.9;
  const auto drift = svc.solve(B, rhs_for(B));
  EXPECT_TRUE(drift.pattern_hit);
  EXPECT_FALSE(drift.value_hit);
  EXPECT_TRUE(drift.value_delta);
  EXPECT_EQ(counter_value("serve.cache.value_delta"), delta0 + 1);
  EXPECT_LT(sparse::relative_error_inf<double>(ones, drift.x), 1e-8);
  // Resubmitting the drifted values is a value hit, not a delta: the
  // entry's stored value bytes were refreshed by the delta path.
  const auto again = svc.solve(B, rhs_for(B));
  EXPECT_TRUE(again.value_hit);
  EXPECT_FALSE(again.value_delta);

  // With the partial route off, a pattern hit takes the full
  // refactorization route.
  serve::ServiceOptions full_route = opt;
  full_route.solver.delta.max_dirty_fraction = 0;
  serve::SolverService<double> svc2(full_route);
  (void)svc2.solve(A, rhs_for(A));
  const auto full = svc2.solve(B, rhs_for(B));
  EXPECT_TRUE(full.pattern_hit);
  EXPECT_FALSE(full.value_delta);
}

TEST(FactorizationCache, EvictedEntryWithLiveSmwCorrectionStillSolves) {
  // Lifetime: entries are shared_ptr and the tiny-pivot SMW correction
  // holds the factors through a shared_ptr of its own, so evicting an
  // entry mid-flight — unlinking it while a holder still references it —
  // must leave an active correction fully usable. (ASan in CI turns any
  // dangling factor reference here into a hard failure.)
  serve::FactorizationCache<double> cache(/*max_entries=*/1,
                                          /*max_bytes=*/0);
  const auto A = sparse::cancellation_matrix(400, 100, 31);
  bool hit = false;
  auto e = cache.acquire(A, sparse::pattern_key(A), &hit);
  // GespSolver.AggressiveSmwRecovery's options: the cancelling pivot order
  // is kept, so aggressive replacement fires and the correction is live.
  SolverOptions so;
  so.tiny_pivot = TinyPivotOption::aggressive_smw;
  so.row_perm = RowPermOption::none;
  so.equilibrate = false;
  so.col_order = ColOrderOption::natural;
  e->solver = std::make_unique<Solver<double>>(A, so);
  ASSERT_GE(e->solver->stats().pivots_replaced, 1);

  // Evict mid-flight: unlink our entry, then churn the one-slot cache so
  // other patterns occupy and re-evict the map position.
  cache.erase(e);
  for (const char* name : {"orsirr-s", "goodwin-s"}) {
    const auto other = testbed_matrix(name);
    cache.acquire(other, sparse::pattern_key(other), &hit);
  }
  EXPECT_EQ(cache.entries(), 1u);

  // Our reference — the "batch still executing" of the cache contract —
  // solves through the correction as if nothing happened.
  const auto b = rhs_for(A);
  std::vector<double> x(b.size());
  const std::vector<double> ones(b.size(), 1.0);
  e->solver->solve(b, x);
  EXPECT_LT(sparse::relative_error_inf<double>(ones, x), 1e-8);
}

TEST(HistogramQuantile, InterpolatesWithinMinMax) {
  metrics::Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  const double p50 = h.quantile(0.5);
  const double p99 = h.quantile(0.99);
  EXPECT_GE(p50, h.min());
  EXPECT_LE(p99, h.max());
  EXPECT_LT(p50, p99);
  // Power-of-two buckets: the median lands in (256, 512], interpolation
  // keeps it in that bracket.
  EXPECT_GT(p50, 256.0);
  EXPECT_LE(p50, 512.0);
}

}  // namespace
