// Serving-layer benchmark: the three cache paths and the batching payoff.
//
// Experiment 1 (hit paths): per-request latency through SolverService for
//   cold        — pattern miss: full analysis + factorization + solve
//   pattern hit — cached analysis, refactorize + solve; concurrent
//                 same-value requests coalesce, so one refactorization is
//                 amortized over the batch (the serving-layer point)
//   value hit   — cached factors, straight to the triangular solves
//
// Experiment 2 (batching): value-hit throughput at 1/4/8 client threads
// with RHS coalescing on (max_batch=8) vs off (max_batch=1). Same-pattern
// requests serialize on the cache entry's execution lock either way; the
// batched service turns that serialization into blocked solve_multi calls.
//
// --quick trims matrices and request counts.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"
#include "sparse/ops.hpp"
#include "sparse/testbed.hpp"

namespace {

using namespace gesp;

struct Problem {
  std::string name;
  sparse::CscMatrix<double> base;
  std::vector<double> b;  ///< base * ones
};

Problem make_problem(const std::string& name) {
  Problem p;
  p.name = name;
  p.base = sparse::testbed_entry(name).make();
  std::vector<double> ones(static_cast<std::size_t>(p.base.ncols), 1.0);
  p.b.resize(ones.size());
  sparse::spmv<double>(p.base, ones, p.b);
  return p;
}

/// One worker: batches form from the backlog queued behind it.
serve::ServiceOptions service_options(index_t max_batch) {
  serve::ServiceOptions o;
  o.backend = Backend::serial;
  o.num_workers = 1;
  o.max_batch = max_batch;
  o.shed_refinement = false;  // measure full-quality answers throughout
  return o;
}

/// Fire `clients` concurrent requests for the same (matrix, values),
/// released together by a barrier so they coalesce, and return the wall
/// time to serve ALL of them (seconds). Per-request cost = wall / clients:
/// batch members share one refactorization and one blocked solve_multi, so
/// amortization shows up in the per-request cost, not in any single
/// client's latency.
double fire_concurrent(serve::SolverService<double>& svc,
                       const sparse::CscMatrix<double>& A,
                       std::span<const double> b, int clients) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c)
    pool.emplace_back([&] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      (void)svc.solve(A, b);
    });
  while (ready.load() < clients) {
  }
  Timer t;
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  return t.seconds();
}

struct HitPathResult {
  double cold_ms = 0, pattern_ms = 0, value_ms = 0;
  double speedup_pattern = 0, speedup_value = 0;
};

struct ThroughputResult {
  int clients = 0;
  double batched_rps = 0, unbatched_rps = 0, speedup = 0;
  double batched_mean_width = 0;
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  std::vector<std::string> names = {"goodwin-s", "add20-s", "add32-s"};
  if (quick) names.resize(1);
  const int kClients = 8;          // concurrent same-value requesters
  const int kValueSets = quick ? 3 : 6;
  const int kColdSamples = quick ? 2 : 3;

  // ---- Experiment 1: cold vs pattern-hit vs value-hit latency ----------
  for (const auto& name : names) {
    Problem p = make_problem(name);
    HitPathResult r;

    // Cold: a pattern miss only happens once per service lifetime, so each
    // sample gets a fresh (empty-cache) service. Cold traffic cannot batch
    // — the per-request cost IS the request cost.
    for (int s = 0; s < kColdSamples; ++s) {
      serve::SolverService<double> svc(service_options(8));
      Timer t;
      (void)svc.solve(p.base, p.b);
      r.cold_ms += t.seconds() * 1e3 / kColdSamples;
    }

    // Pattern hits: each new value set refactorizes once, and the requests
    // queued behind the first one ride on it as one batch (single worker +
    // barrier release). Value hits: repeat a value set that is already
    // factored.
    serve::SolverService<double> svc(
        service_options(static_cast<index_t>(kClients)));
    svc.warm(p.base);
    double pat = 0, val = 0;
    for (int v = 1; v <= kValueSets; ++v) {
      const auto Av = serve::perturb_values(p.base, v);
      std::vector<double> ones(static_cast<std::size_t>(Av.ncols), 1.0);
      std::vector<double> bv(ones.size());
      sparse::spmv<double>(Av, ones, bv);
      pat += fire_concurrent(svc, Av, bv, kClients) / (kValueSets * kClients);
      val += fire_concurrent(svc, Av, bv, kClients) / (kValueSets * kClients);
    }
    r.pattern_ms = pat * 1e3;
    r.value_ms = val * 1e3;
    r.speedup_pattern = r.pattern_ms > 0 ? r.cold_ms / r.pattern_ms : 0;
    r.speedup_value = r.value_ms > 0 ? r.cold_ms / r.value_ms : 0;
    std::printf(
        "%-12s per-request cost: cold %8.2f ms   pattern hit %7.2f ms "
        "(%4.1fx)   value hit %7.2f ms (%4.1fx)\n",
        name.c_str(), r.cold_ms, r.pattern_ms, r.speedup_pattern, r.value_ms,
        r.speedup_value);
  }

  // ---- Experiment 2: batched vs unbatched value-hit throughput ---------
  std::printf("\nbatched vs unbatched throughput (value-hit traffic, "
              "%s):\n", names.back().c_str());
  Problem tp = make_problem(names.back());
  const int per_client = quick ? 20 : 60;
  for (int clients : {1, 4, 8}) {
    ThroughputResult t;
    t.clients = clients;
    for (const bool batched : {false, true}) {
      // Closed-loop clients: the service coalesces whatever backlog has
      // formed. One worker: same-pattern traffic serializes on the entry's
      // execution lock regardless, and a single worker drains the backlog
      // in full-width batches.
      serve::SolverService<double> svc(service_options(batched ? 8 : 1));
      svc.warm(tp.base);
      (void)svc.solve(tp.base, tp.b);  // prime: every timed request hits
      const auto* bw =
          metrics::global().find_histogram("serve.batch_width");
      const count_t bw_count0 = bw ? bw->count() : 0;
      const double bw_sum0 = bw ? bw->sum() : 0;
      Timer wall;
      std::vector<std::thread> pool;
      for (int c = 0; c < clients; ++c)
        pool.emplace_back([&] {
          for (int i = 0; i < per_client; ++i)
            (void)svc.solve(tp.base, tp.b);
        });
      for (auto& th : pool) th.join();
      const double rps = clients * per_client / wall.seconds();
      if (batched) {
        t.batched_rps = rps;
        if (bw && bw->count() > bw_count0)
          t.batched_mean_width = (bw->sum() - bw_sum0) /
                                 static_cast<double>(bw->count() - bw_count0);
      } else {
        t.unbatched_rps = rps;
      }
    }
    t.speedup = t.unbatched_rps > 0 ? t.batched_rps / t.unbatched_rps : 0;
    std::printf(
        "  %d clients: batched %8.1f req/s (mean width %.2f)   "
        "unbatched %8.1f req/s   speedup %.2fx\n",
        t.clients, t.batched_rps, t.batched_mean_width, t.unbatched_rps,
        t.speedup);
  }

  return 0;
}
