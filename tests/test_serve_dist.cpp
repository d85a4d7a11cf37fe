// Sharded serving tier tests: rendezvous routing determinism (before and
// after a rank death), backend dispatch + ShardOptions validation behind
// the single SolverService API, replica promotion and failover, the
// over-budget collective fall-through, bitwise parity with a single-node
// replay (one request stream, including failures and hostile marking,
// replayed on serial, threaded and dist), shard-side introspection and
// byte accounting, and kill-rank chaos (every request ends with an answer
// or a typed Errc — never a hang). Faults fire on deterministic send
// ordinals, so every assertion is scheduled, not timing-lucky.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "serve/service.hpp"
#include "serve/shard.hpp"
#include "sparse/generators.hpp"
#include "sparse/ops.hpp"
#include "sparse/testbed.hpp"

namespace {

using namespace gesp;

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

serve::ServiceOptions dist_options() {
  serve::ServiceOptions opt;
  opt.backend = Backend::dist;
  opt.shard.pr = 2;
  opt.shard.pc = 2;
  opt.solver.num_threads = 1;  // serial shard numerics: the parity mode
  return opt;
}

/// Distinct patterns (distinct grid sizes -> distinct PatternKeys), cheap
/// to factor. Index i is stable across the whole test binary.
sparse::CscMatrix<double> pattern(int i) {
  return sparse::convdiff2d(8 + i, 7, 1.0, 0.5);
}

/// Structurally fine but exactly singular: every GESP rung (and GEPP)
/// fails on it.
sparse::CscMatrix<double> singular2x2() {
  sparse::CscMatrix<double> A;
  A.nrows = A.ncols = 2;
  A.colptr = {0, 2, 4};
  A.rowind = {0, 1, 0, 1};
  A.values = {1.0, 1.0, 1.0, 1.0};
  return A;
}

/// Singularity made fatal and the middle ladder rungs off, so armed
/// rebuilds of singular2x2 fail too and the pattern goes hostile after
/// two requests.
serve::ServiceOptions hostile_options(serve::ServiceOptions opt) {
  opt.solver.tiny_pivot = TinyPivotOption::fail;
  opt.solver.recovery.try_aggressive_smw = false;
  opt.solver.recovery.try_unscaled_refactor = false;
  opt.solver.recovery.try_threshold = false;
  opt.solver.recovery.try_panel_rrp = false;
  opt.hostile_threshold = 2;
  return opt;
}

/// First pattern index whose rendezvous primary (all ranks alive) is
/// `rank`; HRW spreads keys, so a handful of candidates always suffices.
int pattern_owned_by(int rank, int nranks) {
  for (int i = 0; i < 64; ++i) {
    const auto order =
        serve::rendezvous_order(sparse::pattern_key(pattern(i)), nranks);
    if (order[0] == rank) return i;
  }
  ADD_FAILURE() << "no pattern with primary rank " << rank;
  return 0;
}

// ---------------------------------------------------------------------------
// Rendezvous routing.

TEST(Rendezvous, OrderIsADeterministicPermutation) {
  const auto key = sparse::pattern_key(pattern(0));
  const auto order = serve::rendezvous_order(key, 4);
  ASSERT_EQ(order.size(), 4u);
  auto sorted = order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3}));
  // Pure function of (key, nranks): every rank — and every retry — computes
  // the identical preference list.
  for (int rep = 0; rep < 3; ++rep)
    EXPECT_EQ(serve::rendezvous_order(key, 4), order);
  // A different pattern gets an independent order (statistically: over 64
  // keys, every rank serves as primary for some key).
  std::vector<bool> primary(4, false);
  for (int i = 0; i < 64; ++i)
    primary[static_cast<std::size_t>(
        serve::rendezvous_order(sparse::pattern_key(pattern(i)), 4)[0])] =
        true;
  for (int r = 0; r < 4; ++r) EXPECT_TRUE(primary[static_cast<std::size_t>(r)])
      << "rank " << r << " never primary over 64 keys";
}

TEST(Rendezvous, PrefixStableUnderFleetGrowth) {
  // HRW's point: adding ranks only moves the keys the new rank wins.
  int moved = 0;
  for (int i = 0; i < 64; ++i) {
    const auto key = sparse::pattern_key(pattern(i));
    const int before = serve::rendezvous_order(key, 4)[0];
    const int after = serve::rendezvous_order(key, 5)[0];
    if (before != after) {
      EXPECT_EQ(after, 4);  // a moved key moved to the new rank, nowhere else
      ++moved;
    }
  }
  EXPECT_LT(moved, 32);  // ~1/5 of keys move in expectation
}

// ---------------------------------------------------------------------------
// The backend-agnostic API: dispatch and validation.

TEST(ServeDist, SingleNodeBackendRejectsShardOptions) {
  serve::ServiceOptions opt;
  opt.backend = Backend::threaded;
  opt.shard.replication = 3;  // dist-only knob on a single-node backend
  try {
    serve::SolverService<double> svc(opt);
    FAIL() << "threaded backend accepted ShardOptions";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::invalid_argument);
  }
  serve::ServiceOptions fopt;
  fopt.backend = Backend::serial;
  fopt.shard.fault.schedule(
      {minimpi::FaultKind::kill_rank, /*rank=*/1, /*nth_send=*/0, 0.0});
  EXPECT_THROW(serve::SolverService<double>{fopt}, Error);
  // Every remaining ShardOptions field counts, not just the grid/budgets.
  const std::vector<void (*)(serve::ShardOptions&)> knobs = {
      [](serve::ShardOptions& s) { s.promote_hits = 5; },
      [](serve::ShardOptions& s) { s.dist_fallthrough = false; },
      [](serve::ShardOptions& s) { s.request_timeout_s = 5.0; },
      [](serve::ShardOptions& s) { s.recv_timeout_s = 5.0; },
  };
  for (std::size_t k = 0; k < knobs.size(); ++k) {
    serve::ServiceOptions kopt;
    kopt.backend = Backend::serial;
    knobs[k](kopt.shard);
    try {
      serve::SolverService<double> svc(kopt);
      ADD_FAILURE() << "serial backend accepted ShardOptions knob " << k;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), Errc::invalid_argument) << "knob " << k;
    }
  }
}

TEST(ServeDist, ResponseCarriesBackendAndOwner) {
  const auto A = pattern(0);
  const auto b = rhs_for(A);
  {
    serve::ServiceOptions opt;
    opt.backend = Backend::serial;
    serve::SolverService<double> svc(opt);
    const auto r = svc.solve(A, b);
    EXPECT_EQ(r.backend, Backend::serial);
    EXPECT_EQ(r.owner_rank, -1);
    EXPECT_FALSE(r.replica_hit);
  }
  {
    serve::SolverService<double> svc(dist_options());
    ASSERT_NE(svc.tier(), nullptr);
    EXPECT_EQ(svc.tier()->nranks(), 4);
    const auto r = svc.solve(A, b);
    EXPECT_EQ(r.backend, Backend::dist);
    const auto order =
        serve::rendezvous_order(sparse::pattern_key(A), 4);
    EXPECT_EQ(r.owner_rank, order[0]);
    EXPECT_EQ(svc.tier()->owner_of(sparse::pattern_key(A)), order[0]);
    svc.stop();
  }
}

TEST(ServeDist, ShardsSpreadPatternsAndServeHits) {
  serve::SolverService<double> svc(dist_options());
  for (int i = 0; i < 6; ++i) {
    const auto A = pattern(i);
    const auto b = rhs_for(A);
    const auto cold = svc.solve(A, b);
    EXPECT_FALSE(cold.pattern_hit);
    // Same pattern, new values: the owning shard refactorizes.
    auto B = A;
    for (auto& v : B.values) v *= 1.5;
    const auto hit = svc.solve(B, rhs_for(B));
    EXPECT_TRUE(hit.pattern_hit);
    EXPECT_EQ(hit.owner_rank, cold.owner_rank);
  }
  // One entry per pattern (promotion disabled by default threshold not yet
  // reached at 2 solves with promote_hits=3... the second solve of each
  // pattern is its 2nd hit), spread across shards per rendezvous.
  EXPECT_EQ(svc.cache_entries(), 6u);
  for (int i = 0; i < 6; ++i) {
    const int owner = svc.tier()->owner_of(sparse::pattern_key(pattern(i)));
    EXPECT_GE(svc.tier()->shard_entries(owner), 1u);
  }
  svc.stop();
}

// ---------------------------------------------------------------------------
// Replication.

TEST(ServeDist, HotPatternPromotedToBackupAndFailsOver) {
  auto opt = dist_options();
  opt.shard.promote_hits = 2;
  // Primary with rank != 0: the gateway rank cannot be killed.
  int pi = -1;
  for (int i = 0; i < 64; ++i) {
    if (serve::rendezvous_order(sparse::pattern_key(pattern(i)), 4)[0] != 0) {
      pi = i;
      break;
    }
  }
  ASSERT_GE(pi, 0);
  const auto A = pattern(pi);
  const auto key = sparse::pattern_key(A);
  const auto order = serve::rendezvous_order(key, 4);
  const int primary = order[0];
  // The primary's sends are all solve responses (replication is served by
  // the backup): solves 1..3 are its sends #0..#2. Kill it at send #3 —
  // the 4th solve dies mid-response and must fail over.
  opt.shard.fault.schedule({minimpi::FaultKind::kill_rank, primary,
                            /*nth_send=*/3, 0.0});
  serve::SolverService<double> svc(opt);
  const auto b = rhs_for(A);
  const count_t replicas0 = counter_value("serve.shard.replica_hits");
  const count_t reroutes0 = counter_value("serve.shard.reroutes");
  const count_t replications0 = counter_value("serve.shard.replications");
  for (int s = 0; s < 3; ++s) {
    const auto r = svc.solve(A, b);
    EXPECT_EQ(r.owner_rank, primary);
    EXPECT_FALSE(r.replica_hit);
  }
  // Hit 2 promoted the pattern. Replication is asynchronous: the backup
  // (next rendezvous rank) builds its replica while the primary keeps
  // answering, and acks it to the gateway. Wait for the ack (bounded);
  // then the backup holds a replica alongside the primary's entry.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (counter_value("serve.shard.replications") == replications0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(svc.cache_entries(), 2u);
  EXPECT_GE(svc.tier()->shard_entries(order[1]), 1u);

  // Solve 4: the primary is killed mid-response. The gateway re-routes to
  // the backup, which answers from its replica — same request, no error.
  const auto r = svc.solve(A, b);
  EXPECT_EQ(r.owner_rank, order[1]);
  EXPECT_TRUE(r.replica_hit);
  EXPECT_TRUE(svc.tier()->dead_mask() & (1u << primary));
  // The dead rank's shard is evicted; routing reflects the new owner.
  EXPECT_EQ(svc.tier()->shard_entries(primary), 0u);
  EXPECT_EQ(svc.tier()->owner_of(key), order[1]);
  // Post-kill requests keep landing on the backup.
  const auto r2 = svc.solve(A, b);
  EXPECT_EQ(r2.owner_rank, order[1]);
  svc.stop();
  EXPECT_GE(counter_value("serve.shard.replica_hits"), replicas0 + 1);
  EXPECT_GE(counter_value("serve.shard.reroutes"), reroutes0 + 1);
}

// ---------------------------------------------------------------------------
// Over-budget fall-through.

TEST(ServeDist, OverBudgetPatternFallsThroughToCollective) {
  auto opt = dist_options();
  opt.shard.shard_max_bytes = 1;  // every estimate exceeds one shard
  serve::SolverService<double> svc(opt);
  const auto A = pattern(0);
  const auto b = rhs_for(A);
  const count_t coll0 = counter_value("serve.shard.collective");
  const auto cold = svc.solve(A, b);
  EXPECT_EQ(cold.backend, Backend::dist);
  EXPECT_EQ(cold.owner_rank, -1);  // the whole grid served it
  EXPECT_FALSE(cold.pattern_hit);
  // Same values: the collective cache answers without refactorizing.
  const auto vhit = svc.solve(A, b);
  EXPECT_EQ(vhit.owner_rank, -1);
  EXPECT_TRUE(vhit.pattern_hit);
  EXPECT_TRUE(vhit.value_hit);
  // New values: collective refactorize.
  auto B = A;
  for (auto& v : B.values) v *= 2.0;
  const auto phit = svc.solve(B, rhs_for(B));
  EXPECT_EQ(phit.owner_rank, -1);
  EXPECT_TRUE(phit.pattern_hit);
  EXPECT_FALSE(phit.value_hit);
  // Sanity on the answers themselves.
  for (double xv : vhit.x) EXPECT_NEAR(xv, 1.0, 1e-8);
  for (double xv : phit.x) EXPECT_NEAR(xv, 1.0, 1e-8);
  svc.stop();
  EXPECT_GE(counter_value("serve.shard.collective"), coll0 + 3);
}

// ---------------------------------------------------------------------------
// Parity with the single-node service.

TEST(ServeDist, PatternHitAnswersBitwiseMatchSingleNodeReplay) {
  const auto base = pattern(1);
  auto drifted = base;
  for (auto& v : drifted.values) v *= 1.25;
  const auto b = rhs_for(drifted);

  // Single-node replay: serial engine, per-column batches (the documented
  // bitwise-reproducible mode), transform basis pinned by warm(base).
  serve::ServiceOptions sopt;
  sopt.backend = Backend::serial;
  sopt.batch_mode = serve::BatchMode::per_column;
  serve::SolverService<double> single(sopt);
  single.warm(base);
  const auto want = single.solve(drifted, b);
  ASSERT_TRUE(want.pattern_hit);

  // Sharded tier, same solver configuration, same canonical warm.
  serve::SolverService<double> svc(dist_options());
  svc.warm(base);
  const auto got = svc.solve(drifted, b);
  ASSERT_TRUE(got.pattern_hit);
  svc.stop();

  ASSERT_EQ(got.x.size(), want.x.size());
  EXPECT_EQ(std::memcmp(got.x.data(), want.x.data(),
                        want.x.size() * sizeof(double)),
            0)
      << "sharded pattern-hit answer differs bitwise from the single-node "
         "replay";
}

/// What one request of the parity stream produced on one backend.
struct Served {
  bool ok = false;
  Errc code = Errc::internal;  ///< when !ok
  std::vector<double> x;
  bool pattern_hit = false, value_hit = false, value_delta = false;
  bool recovered = false, hostile = false;
  Precision precision = Precision::double_;
  RecoveryTrail recovery;
};

/// Warm the base values, then replay one request stream: value hit, delta
/// pattern hit, full pattern hit, then the singular2x2 hostile sequence
/// (two failing requests mark the pattern, a healthy third is served
/// hostile).
std::vector<Served> replay_stream(const serve::ServiceOptions& opt) {
  const auto base = pattern(1);
  auto delta = base;  // a handful of changed entries: SMW or partial
  delta.values[0] *= 1.4;
  delta.values[delta.values.size() / 2] *= 0.9;
  auto full = base;
  for (auto& v : full.values) v *= 1.25;
  const auto S = singular2x2();
  auto G = S;
  G.values = {1.0, 1.0, 1.0, 2.0};
  const sparse::CscMatrix<double>* stream[] = {&base, &delta, &full,
                                               &S,    &S,     &G};

  serve::SolverService<double> svc(hostile_options(opt));
  svc.warm(base);
  std::vector<Served> out;
  for (const auto* A : stream) {
    Served s;
    try {
      const auto r = svc.solve(*A, rhs_for(*A));
      s.ok = true;
      s.x = r.x;
      s.pattern_hit = r.pattern_hit;
      s.value_hit = r.value_hit;
      s.value_delta = r.value_delta;
      s.recovered = r.recovered;
      s.hostile = r.hostile;
      s.precision = r.precision;
      s.recovery = r.recovery;
    } catch (const Error& e) {
      s.code = e.code();
    }
    out.push_back(std::move(s));
  }
  EXPECT_TRUE(svc.is_hostile(sparse::pattern_key(S)));
  svc.stop();
  return out;
}

TEST(ServeDist, RequestStreamMatchesAcrossBackends) {
  // One execution core serves every backend, so the same stream must give
  // the same answers bit for bit, the same route flags, and the same
  // failures — the failure and hostile policy included.
  serve::ServiceOptions serial;
  serial.backend = Backend::serial;
  serial.batch_mode = serve::BatchMode::per_column;
  serve::ServiceOptions threaded = serial;
  threaded.backend = Backend::threaded;
  threaded.solver.num_threads = 1;
  const auto want = replay_stream(serial);

  // The stream takes the routes it claims to.
  ASSERT_EQ(want.size(), 6u);
  EXPECT_TRUE(want[0].ok && want[0].value_hit);
  EXPECT_TRUE(want[1].ok && want[1].pattern_hit && want[1].value_delta);
  EXPECT_TRUE(want[2].ok && want[2].pattern_hit && !want[2].value_delta);
  EXPECT_FALSE(want[3].ok);
  EXPECT_FALSE(want[4].ok);
  EXPECT_TRUE(want[5].ok && want[5].hostile);

  const std::pair<const char*, serve::ServiceOptions> others[] = {
      {"threaded", threaded}, {"dist", dist_options()}};
  for (const auto& [name, opt] : others) {
    const auto got = replay_stream(opt);
    ASSERT_EQ(got.size(), want.size()) << name;
    for (std::size_t i = 0; i < want.size(); ++i) {
      SCOPED_TRACE(std::string(name) + " request " + std::to_string(i));
      ASSERT_EQ(got[i].ok, want[i].ok);
      if (!want[i].ok) {
        EXPECT_EQ(got[i].code, want[i].code);
        continue;
      }
      ASSERT_EQ(got[i].x.size(), want[i].x.size());
      EXPECT_EQ(std::memcmp(got[i].x.data(), want[i].x.data(),
                            want[i].x.size() * sizeof(double)),
                0)
          << "answer differs bitwise from the serial replay";
      EXPECT_EQ(got[i].pattern_hit, want[i].pattern_hit);
      EXPECT_EQ(got[i].value_hit, want[i].value_hit);
      EXPECT_EQ(got[i].value_delta, want[i].value_delta);
      EXPECT_EQ(got[i].recovered, want[i].recovered);
      EXPECT_EQ(got[i].hostile, want[i].hostile);
      EXPECT_EQ(got[i].precision, want[i].precision);
      // The recovery trail crosses the shard wire intact.
      const RecoveryTrail& gt = got[i].recovery;
      const RecoveryTrail& wt = want[i].recovery;
      ASSERT_EQ(gt.attempts.size(), wt.attempts.size());
      for (std::size_t k = 0; k < wt.attempts.size(); ++k) {
        EXPECT_EQ(gt.attempts[k].rung, wt.attempts[k].rung) << "attempt " << k;
        EXPECT_EQ(gt.attempts[k].trigger, wt.attempts[k].trigger)
            << "attempt " << k;
        EXPECT_EQ(gt.attempts[k].success, wt.attempts[k].success)
            << "attempt " << k;
      }
      EXPECT_EQ(gt.final_rung, wt.final_rung);
      EXPECT_EQ(gt.recovered, wt.recovered);
    }
  }
}

// ---------------------------------------------------------------------------
// Shard-side accounting and introspection.

TEST(ServeDist, MixedPromotionIsChargedOnEveryBackend) {
  // The solve promotes this entry's float factors to double. The entry
  // must then be charged at double size on a shard exactly as on a single
  // node — the bytes are re-accounted after the solve, not before it.
  const auto A = sparse::adversarial_entry("deficient-gap").make();
  const auto b = rhs_for(A);
  serve::ServiceOptions serial;
  serial.backend = Backend::serial;
  std::size_t bytes[2] = {};
  const serve::ServiceOptions opts[] = {serial, dist_options()};
  for (int k = 0; k < 2; ++k) {
    serve::ServiceOptions opt = opts[k];
    opt.solver.precision = Precision::mixed;
    opt.solver.num_threads = 1;
    serve::SolverService<double> svc(opt);
    const auto r = svc.solve(A, b);
    EXPECT_EQ(r.precision, Precision::double_) << "backend " << k;
    bytes[k] = svc.cache_bytes();
    EXPECT_EQ(svc.cache_single_bytes(), 0u) << "backend " << k;
    svc.stop();
  }
  EXPECT_GT(bytes[0], 0u);
  EXPECT_EQ(bytes[1], bytes[0]);
}

TEST(ServeDist, IntrospectionAnswersFromTheShards) {
  {
    // Single-precision bytes: the fleet-wide sum over every shard.
    auto opt = dist_options();
    opt.solver.precision = Precision::mixed;
    serve::SolverService<double> svc(opt);
    svc.warm(pattern(0));
    svc.warm(pattern(1));
    EXPECT_GT(svc.cache_single_bytes(), 0u);
    EXPECT_EQ(svc.cache_single_bytes(), svc.cache_bytes());
    svc.stop();
  }
  {
    // Hostile reputation: the pattern's owner shard answers.
    serve::SolverService<double> svc(hostile_options(dist_options()));
    const auto S = singular2x2();
    const auto key = sparse::pattern_key(S);
    const auto b = rhs_for(S);
    for (int i = 0; i < 2; ++i) {
      EXPECT_THROW(svc.solve(S, b), Error) << "request " << i;
      EXPECT_EQ(svc.is_hostile(key), i == 1) << "request " << i;
    }
    EXPECT_FALSE(svc.is_hostile(sparse::pattern_key(pattern(0))));
    svc.stop();
  }
}

// ---------------------------------------------------------------------------
// Chaos: every request completes with an answer or a typed Errc.

TEST(ServeDist, KillRankChaosNeverHangs) {
  auto opt = dist_options();
  // Kill a serving rank early — its very first response send — so cold
  // builds, re-routes and post-death routing all happen under load.
  const int victim = serve::rendezvous_order(
      sparse::pattern_key(pattern(pattern_owned_by(1, 4))), 4)[0];
  opt.shard.fault.schedule(
      {minimpi::FaultKind::kill_rank, victim, /*nth_send=*/0, 0.0});
  opt.shard.request_timeout_s = 20.0;
  serve::SolverService<double> svc(opt);
  int answered = 0, errored = 0;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 8; ++i) {
      const auto A = pattern(i);
      const auto b = rhs_for(A);
      try {
        const auto r = svc.solve(A, b);
        ++answered;
        EXPECT_EQ(r.x.size(), b.size());
        EXPECT_NE(r.owner_rank, victim)
            << "an answer came from the killed rank after its death";
      } catch (const Error& e) {
        // Errc::comm is the documented worst case for a request in flight
        // to the dying rank; anything else is a real failure.
        EXPECT_EQ(e.code(), Errc::comm) << e.what();
        ++errored;
      }
    }
  }
  // The victim served (or was about to serve) requests, died, and the
  // fleet kept answering: at most the in-flight request is lost.
  EXPECT_TRUE(svc.tier()->dead_mask() & (1u << victim));
  EXPECT_LE(errored, 1);
  EXPECT_GE(answered, 23);
  // Survivors own every key now.
  for (int i = 0; i < 8; ++i)
    EXPECT_NE(svc.tier()->owner_of(sparse::pattern_key(pattern(i))), victim);
  svc.stop();  // must return: the shutdown path also survives the death
}

}  // namespace
