// Sharded serving tier benchmark: capacity scaling and chaos overhead.
//
// Experiment 1 (capacity): feed P distinct patterns through a service
// whose cache byte budget holds only a few of them, single-node vs the
// 2x2 sharded tier with the SAME budget per rank. Rendezvous hashing
// spreads the patterns across R shards, so the fleet retains ~R x the
// patterns a single node can — the headline claim of the sharded tier,
// reported as capacity.ratio.
//
// Experiment 2 (chaos): replay a mixed workload against the tier while a
// FaultInjector kills one rank mid-replay. Reports completed vs
// comm-failed requests and the failover/re-route counters — the "definite
// answer, never a hang" contract, measured.
//
// Exits 1 unless sharding at least doubles retention and a chaos request
// completes. --quick trims pattern counts.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/timer.hpp"
#include "serve/service.hpp"
#include "serve/shard.hpp"
#include "sparse/generators.hpp"
#include "sparse/ops.hpp"

namespace {

using namespace gesp;

/// Distinct sparsity patterns of comparable (not identical) size.
sparse::CscMatrix<double> pattern(int i) {
  return sparse::convdiff2d(static_cast<index_t>(40 + i), 40, 1.0, 0.5);
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

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  const int kPatterns = quick ? 12 : 20;
  const int kRanks = 4;  // 2x2 grid throughout

  // Size the budget off the real accounting: warm the median pattern into
  // a probe service and read back its charged footprint, then allow ~3.5
  // patterns per cache. Both services below use the same per-cache budget,
  // so the capacity comparison isolates the sharding.
  std::size_t per_pattern = 0;
  {
    serve::ServiceOptions popt;
    popt.backend = Backend::serial;
    serve::SolverService<double> probe(popt);
    probe.warm(pattern(kPatterns / 2));
    per_pattern = probe.cache_bytes();
  }
  const auto budget =
      static_cast<std::size_t>(3.5 * static_cast<double>(per_pattern));
  std::printf("budget      %.2f MB per cache (~3.5 patterns of %.2f MB)\n",
              static_cast<double>(budget) / (1 << 20),
              static_cast<double>(per_pattern) / (1 << 20));

  // ---- Experiment 1: capacity under one per-cache byte budget ----------
  auto run_capacity = [&](bool dist) {
    serve::ServiceOptions opt;
    if (dist) {
      opt.backend = Backend::dist;
      opt.shard.pr = opt.shard.pc = 2;
      opt.shard.shard_max_bytes = budget;
      opt.shard.shard_max_entries = 64;
      opt.shard.replication = 1;    // raw capacity, no replica copies
      opt.shard.dist_fallthrough = false;
      opt.solver.num_threads = 1;
    } else {
      opt.backend = Backend::serial;
      opt.cache_max_bytes = budget;
      opt.cache_max_entries = 64;
    }
    serve::SolverService<double> svc(opt);
    Timer t;
    int pass2_hits = 0;
    for (int pass = 0; pass < 2; ++pass) {
      for (int i = 0; i < kPatterns; ++i) {
        const auto A = pattern(i);
        const auto r = svc.solve(A, rhs_for(A));
        if (pass == 1 && r.pattern_hit) ++pass2_hits;
      }
    }
    const std::size_t entries = svc.cache_entries();
    const double secs = t.seconds();
    svc.stop();
    std::printf(
        "%-11s %zu of %d patterns resident after 2 passes, %d pass-2 "
        "hits, %.2f s\n",
        dist ? "sharded" : "single-node", entries, kPatterns, pass2_hits,
        secs);
    return entries;
  };
  const std::size_t single_entries = run_capacity(false);
  const std::size_t fleet_entries = run_capacity(true);
  const double ratio =
      single_entries > 0 ? static_cast<double>(fleet_entries) /
                               static_cast<double>(single_entries)
                         : 0.0;
  std::printf("capacity    fleet holds %.2fx the patterns of one node "
              "(%d ranks, same per-rank budget)\n",
              ratio, kRanks);

  // ---- Experiment 2: kill-rank chaos overhead --------------------------
  const count_t deaths0 = counter_value("serve.shard.rank_deaths");
  const count_t fail0 = counter_value("serve.shard.failovers");
  const count_t rer0 = counter_value("serve.shard.reroutes");
  long long ok = 0, comm_lost = 0;
  const int kChaosRequests = quick ? 24 : 48;
  {
    serve::ServiceOptions opt;
    opt.backend = Backend::dist;
    opt.shard.pr = opt.shard.pc = 2;
    opt.solver.num_threads = 1;
    // Kill rank 1 at its 2nd send: mid-replay, while it owns live keys.
    opt.shard.fault.schedule(
        {minimpi::FaultKind::kill_rank, /*rank=*/1, /*nth_send=*/1, 0.0});
    serve::SolverService<double> svc(opt);
    for (int i = 0; i < kChaosRequests; ++i) {
      const auto A = pattern(i % 6);
      try {
        (void)svc.solve(A, rhs_for(A));
        ++ok;
      } catch (const Error& e) {
        if (e.code() != Errc::comm) throw;  // only comm losses are expected
        ++comm_lost;
      }
    }
    svc.stop();
  }
  const count_t deaths = counter_value("serve.shard.rank_deaths") - deaths0;
  const count_t failovers = counter_value("serve.shard.failovers") - fail0;
  const count_t reroutes = counter_value("serve.shard.reroutes") - rer0;
  std::printf("chaos       %lld/%d completed, %lld lost to comm; %lld rank "
              "deaths, %lld failovers, %lld reroutes — no hangs\n",
              ok, kChaosRequests, comm_lost,
              static_cast<long long>(deaths),
              static_cast<long long>(failovers),
              static_cast<long long>(reroutes));

  // The capacity claim is the bench's point: fail loudly if sharding
  // did not scale retention (>= 2x of a single node is far below the ~R x
  // expectation but rules out a broken cache split).
  return ratio >= 2.0 && ok > 0 ? 0 : 1;
}
