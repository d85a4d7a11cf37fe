// gesp_serve — workload replay driver for the serving layer.
//
//   gesp_serve [WORKLOAD] [options]
//
//   WORKLOAD              workload file ("request <matrix> <valueset>" per
//                         line, see src/serve/workload.hpp); omitted =
//                         --generate
//   --generate            synthesize a workload instead of reading one
//   --patterns=N          generated: distinct matrix patterns (default 3)
//   --valuesets=N         generated: value sets per pattern (default 4)
//   --requests=N          generated: total requests (default 64)
//   --seed=N              generated: workload shuffle seed (default 1)
//   --write-workload=FILE save the generated workload and continue
//   --clients=N           concurrent client threads replaying (default 4)
//   --workers=N           service executor threads (default 2)
//   --max-batch=N         RHS coalescing width (default 8; 1 = no batching):
//                         a worker batches the same-matrix requests already
//                         queued behind the one it takes, and never waits
//                         for more
//   --max-queue=N         admission bound (default 64)
//   --cache-entries=N     factorization cache entry budget (default 16)
//   --cache-mb=N          factorization cache byte budget (default 256)
//   --per-column          bitwise-reproducible per-column batch execution
//                         instead of the blocked solve_multi fast path
//   --deadline-ms=X       per-request deadline (default none)
//   --no-shed             keep iterative refinement even under load
//   --warm                pre-factor every distinct pattern (value set 0)
//                         before replay starts
//   --backend=serial|threaded|dist, --threads=N
//                         service engine (default serial). dist runs the
//                         sharded multi-rank tier: requests route to the
//                         rank owning their pattern key. A non-default
//                         --workers, --max-batch, --per-column or --no-shed
//                         is a usage error under dist, as are the dist
//                         flags below without it and --threads > 1 under
//                         serial
//   --grid=PxQ            dist: process grid (default near-square over 4)
//   --replication=N       dist: copies of a hot pattern (default 2)
//   --shard-entries=N, --shard-mb=N
//                         dist: per-shard cache budgets (default: inherit
//                         --cache-entries / --cache-mb)
//   --kill-rank=N         dist chaos: kill rank N at its --kill-at'th send
//   --kill-at=M           dist chaos: send ordinal for --kill-rank
//                         (default 3)
//   --trace=FILE          chrome://tracing capture ("serve" category spans)
//   --metrics-json=FILE   dump the metrics registry (serve.* tree included)
//
// Exit codes follow gesp_solve: 0 ok, 2 usage (an option combination the
// options contract rejects included), 3 invalid argument, 4 io,
// 10 overloaded — but per-request overload rejections are *counted*, not
// fatal (shedding is the service working as designed); 10 means the replay
// could not run at all.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "serve/service.hpp"
#include "serve/shard.hpp"
#include "serve/workload.hpp"
#include "sparse/ops.hpp"
#include "cli.hpp"

namespace {

using namespace gesp;
using namespace gesp::cli;

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage: gesp_serve [WORKLOAD] [--generate] [--patterns=N] "
               "[--valuesets=N] [--requests=N]\n"
               "       [--seed=N] [--write-workload=FILE] [--clients=N] "
               "[--workers=N] [--max-batch=N]\n"
               "       [--max-queue=N] [--cache-entries=N] [--cache-mb=N] "
               "[--per-column]\n"
               "       [--deadline-ms=X] [--no-shed] [--warm] "
               "[--backend=serial|threaded|dist] [--threads=N]\n"
               "       [--grid=PxQ] [--replication=N] [--shard-entries=N] "
               "[--shard-mb=N]\n"
               "       [--kill-rank=N] [--kill-at=M] [--trace=FILE] "
               "[--metrics-json=FILE]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_path, write_workload_path, trace_path, metrics_path;
  bool generate = false, warm = false;
  int patterns = 3, valuesets = 4, requests = 64;
  std::uint64_t seed = 1;
  int clients = 4;
  double deadline_ms = 0.0;
  int kill_rank = -1;
  long long kill_at = 3;
  serve::ServiceOptions sopt;
  sopt.backend = Backend::serial;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (const char* v = value_of(a, "--patterns")) {
      patterns = std::atoi(v);
    } else if (const char* v1 = value_of(a, "--valuesets")) {
      valuesets = std::atoi(v1);
    } else if (const char* v2 = value_of(a, "--requests")) {
      requests = std::atoi(v2);
    } else if (const char* v3 = value_of(a, "--seed")) {
      seed = static_cast<std::uint64_t>(std::atoll(v3));
    } else if (const char* v4 = value_of(a, "--write-workload")) {
      write_workload_path = v4;
    } else if (const char* v5 = value_of(a, "--clients")) {
      clients = std::atoi(v5);
    } else if (const char* v6 = value_of(a, "--workers")) {
      sopt.num_workers = std::atoi(v6);
    } else if (const char* v7 = value_of(a, "--max-batch")) {
      sopt.max_batch = static_cast<index_t>(std::atoi(v7));
    } else if (const char* v9 = value_of(a, "--max-queue")) {
      sopt.max_queue = static_cast<std::size_t>(std::atoll(v9));
    } else if (const char* v10 = value_of(a, "--cache-entries")) {
      sopt.cache_max_entries = static_cast<std::size_t>(std::atoll(v10));
    } else if (const char* v11 = value_of(a, "--cache-mb")) {
      sopt.cache_max_bytes = static_cast<std::size_t>(std::atoll(v11)) << 20;
    } else if (const char* v12 = value_of(a, "--deadline-ms")) {
      deadline_ms = std::atof(v12);
    } else if (const char* v13 = value_of(a, "--threads")) {
      sopt.solver.num_threads = std::atoi(v13);
    } else if (const char* v14 = value_of(a, "--backend")) {
      if (std::strcmp(v14, "serial") == 0)
        sopt.backend = Backend::serial;
      else if (std::strcmp(v14, "threaded") == 0)
        sopt.backend = Backend::threaded;
      else if (std::strcmp(v14, "dist") == 0)
        sopt.backend = Backend::dist;
      else
        usage("gesp_serve backends: serial, threaded or dist");
    } else if (const char* vg = value_of(a, "--grid")) {
      int pr = 0, pc = 0;
      if (std::sscanf(vg, "%dx%d", &pr, &pc) != 2 || pr < 1 || pc < 1)
        usage("--grid wants PxQ, e.g. --grid=2x2");
      sopt.shard.pr = pr;
      sopt.shard.pc = pc;
    } else if (const char* vr = value_of(a, "--replication")) {
      sopt.shard.replication = std::atoi(vr);
    } else if (const char* vse = value_of(a, "--shard-entries")) {
      sopt.shard.shard_max_entries = static_cast<std::size_t>(std::atoll(vse));
    } else if (const char* vsm = value_of(a, "--shard-mb")) {
      sopt.shard.shard_max_bytes =
          static_cast<std::size_t>(std::atoll(vsm)) << 20;
    } else if (const char* vk = value_of(a, "--kill-rank")) {
      kill_rank = std::atoi(vk);
    } else if (const char* vka = value_of(a, "--kill-at")) {
      kill_at = std::atoll(vka);
    } else if (const char* v15 = value_of(a, "--trace")) {
      trace_path = v15;
    } else if (const char* v16 = value_of(a, "--metrics-json")) {
      metrics_path = v16;
    } else if (std::strcmp(a, "--generate") == 0) {
      generate = true;
    } else if (std::strcmp(a, "--per-column") == 0) {
      sopt.batch_mode = serve::BatchMode::per_column;
    } else if (std::strcmp(a, "--no-shed") == 0) {
      sopt.shed_refinement = false;
    } else if (std::strcmp(a, "--warm") == 0) {
      warm = true;
    } else if (a[0] == '-') {
      usage((std::string("unknown option ") + a).c_str());
    } else if (workload_path.empty()) {
      workload_path = a;
    } else {
      usage("more than one workload argument");
    }
  }
  if (workload_path.empty()) generate = true;
  if (const char* e =
          serial_threads_error(sopt.backend, sopt.solver.num_threads))
    usage(e);
  if (kill_rank >= 0) {
    if (sopt.backend != Backend::dist)
      usage("--kill-rank is a dist chaos knob; add --backend=dist");
    minimpi::FaultSpec kill;
    kill.kind = minimpi::FaultKind::kill_rank;
    kill.rank = kill_rank;
    kill.nth_send = static_cast<count_t>(kill_at);
    sopt.shard.fault.schedule(kill);
  }
  try {
    serve::validate<double>(sopt);
  } catch (const Error& e) {
    usage(e.message());
  }

  if (!trace_path.empty()) trace::start();

  try {
    const serve::Workload w =
        generate ? serve::generate_workload(patterns, valuesets, requests,
                                            seed)
                 : serve::read_workload(workload_path);
    if (!write_workload_path.empty())
      serve::write_workload(write_workload_path, w);
    if (w.items.empty()) usage("workload is empty");

    // Materialize every (matrix, valueset) pair once, up front: the replay
    // measures the service, not the perturbation, and solve() requires the
    // matrix to outlive the request.
    struct Problem {
      sparse::CscMatrix<double> A;
      std::vector<double> b;  ///< A * ones, so the truth is known
    };
    std::map<std::string, sparse::CscMatrix<double>> bases;
    std::map<std::pair<std::string, int>, const Problem*> problems;
    std::deque<Problem> storage;
    for (const auto& item : w.items) {
      const auto key = std::make_pair(item.matrix, item.valueset);
      if (problems.count(key)) continue;
      auto bit = bases.find(item.matrix);
      if (bit == bases.end())
        bit = bases.emplace(item.matrix,
                            serve::load_base_matrix(item.matrix)).first;
      Problem p;
      p.A = serve::perturb_values(bit->second, item.valueset);
      std::vector<double> ones(static_cast<std::size_t>(p.A.ncols), 1.0);
      p.b.resize(ones.size());
      sparse::spmv<double>(p.A, ones, p.b);
      storage.push_back(std::move(p));
      problems.emplace(key, &storage.back());
    }
    std::printf("workload    %zu requests, %zu patterns, %zu problems\n",
                w.items.size(), bases.size(), storage.size());
    std::printf(
        "service     %d workers, queue %zu, batch %d (%s), "
        "cache %zu entries / %zu MB, backend %s x%d\n",
        sopt.num_workers, sopt.max_queue, static_cast<int>(sopt.max_batch),
        sopt.batch_mode == serve::BatchMode::blocked ? "blocked"
                                                     : "per-column",
        sopt.cache_max_entries,
        sopt.cache_max_bytes >> 20, backend_name(sopt.backend),
        sopt.solver.num_threads);

    serve::SolverService<double> svc(sopt);
    if (const auto* tier = svc.tier()) {
      std::printf("sharding    %d ranks, replication %d%s\n", tier->nranks(),
                  sopt.shard.replication == 0 ? 2 : sopt.shard.replication,
                  kill_rank >= 0 ? " (chaos: kill-rank armed)" : "");
    }
    if (warm) {
      Timer tw;
      for (const auto& [name, base] : bases) svc.warm(base);
      std::printf("warm        %zu patterns in %.3f s\n", bases.size(),
                  tw.seconds());
    }

    std::atomic<long long> ok{0}, rejected{0}, pattern_hits{0},
        value_hits{0}, shed{0}, recovered{0}, replica_hits{0}, comm_lost{0};
    std::atomic<double> max_err{0.0};
    std::atomic<int> hard_failure{0};
    serve::RequestOptions ropt;
    ropt.deadline_s = deadline_ms * 1e-3;

    Timer wall;
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(std::max(1, clients)));
    for (int c = 0; c < std::max(1, clients); ++c) {
      pool.emplace_back([&, c] {
        for (std::size_t i = static_cast<std::size_t>(c);
             i < w.items.size();
             i += static_cast<std::size_t>(std::max(1, clients))) {
          const auto& item = w.items[i];
          const Problem& p =
              *problems.at(std::make_pair(item.matrix, item.valueset));
          try {
            auto r = svc.solve(p.A, p.b, ropt);
            ok.fetch_add(1, std::memory_order_relaxed);
            if (r.pattern_hit)
              pattern_hits.fetch_add(1, std::memory_order_relaxed);
            if (r.value_hit)
              value_hits.fetch_add(1, std::memory_order_relaxed);
            if (r.shed) shed.fetch_add(1, std::memory_order_relaxed);
            if (r.recovered)
              recovered.fetch_add(1, std::memory_order_relaxed);
            if (r.replica_hit)
              replica_hits.fetch_add(1, std::memory_order_relaxed);
            double err = 0;
            for (double xv : r.x) err = std::max(err, std::abs(xv - 1.0));
            double cur = max_err.load(std::memory_order_relaxed);
            while (err > cur && !max_err.compare_exchange_weak(
                                    cur, err, std::memory_order_relaxed)) {
            }
          } catch (const Error& e) {
            if (e.code() == Errc::overloaded) {
              rejected.fetch_add(1, std::memory_order_relaxed);
            } else if (e.code() == Errc::comm && kill_rank >= 0) {
              // Chaos run: a request in flight to the killed rank may
              // surface Errc::comm — that is the documented worst case,
              // not a replay failure. What must never happen is a hang.
              comm_lost.fetch_add(1, std::memory_order_relaxed);
            } else {
              std::fprintf(stderr, "request %zu failed: %s\n", i, e.what());
              hard_failure.store(exit_code_for(e.code()));
            }
          }
        }
      });
    }
    for (auto& t : pool) t.join();
    const double elapsed = wall.seconds();
    svc.stop();

    auto& reg = metrics::global();
    const auto* lat = reg.find_histogram("serve.latency_us");
    const auto* bw = reg.find_histogram("serve.batch_width");
    const auto cval = [&](const char* name) -> long long {
      const auto* ctr = reg.find_counter(name);
      return ctr ? static_cast<long long>(ctr->value()) : 0;
    };
    std::printf("replayed    %lld ok, %lld rejected in %.3f s  (%.1f req/s, "
                "%d clients)\n",
                ok.load(), rejected.load(), elapsed,
                elapsed > 0 ? static_cast<double>(ok.load()) / elapsed : 0.0,
                std::max(1, clients));
    std::printf("cache       %lld misses, %lld pattern hits, %lld value "
                "hits, %lld evictions (%zu entries, %.1f MB resident)\n",
                cval("serve.cache.miss"), cval("serve.cache.pattern_hit"),
                cval("serve.cache.value_hit"), cval("serve.cache.evictions"),
                svc.cache_entries(),
                static_cast<double>(svc.cache_bytes()) / (1 << 20));
    std::printf("degradation %lld shed solves, %lld deadline expired, "
                "%lld retries after eviction, %lld recovered\n",
                shed.load(), cval("serve.deadline_expired"),
                cval("serve.retries"), recovered.load());
    if (const auto* tier = svc.tier()) {
      std::printf("sharding    %lld shard requests, %lld replica hits "
                  "(%lld client-visible), %lld collective episodes\n",
                  cval("serve.shard.requests"),
                  cval("serve.shard.replica_hits"), replica_hits.load(),
                  cval("serve.shard.collective"));
      std::printf("chaos       %lld rank deaths, %lld failovers, %lld "
                  "reroutes, %lld timeouts, %lld requests lost to comm "
                  "(dead mask 0x%llx)\n",
                  cval("serve.shard.rank_deaths"),
                  cval("serve.shard.failovers"), cval("serve.shard.reroutes"),
                  cval("serve.shard.timeouts"), comm_lost.load(),
                  static_cast<unsigned long long>(tier->dead_mask()));
      std::printf("shards     ");
      for (int r = 0; r < tier->nranks(); ++r)
        std::printf(" r%d:%zu", r, tier->shard_entries(r));
      std::printf(" entries\n");
    }
    if (lat && lat->count() > 0)
      std::printf("latency     p50 %.0f us, p95 %.0f us, p99 %.0f us, "
                  "max %.0f us\n",
                  lat->quantile(0.5), lat->quantile(0.95),
                  lat->quantile(0.99), lat->max());
    if (bw && bw->count() > 0)
      std::printf("batching    %lld batches, mean width %.2f, max %d\n",
                  static_cast<long long>(bw->count()), bw->mean(),
                  static_cast<int>(bw->max()));
    std::printf("max err     %.3e (against the all-ones solution)\n",
                max_err.load());

    cli::write_captures(trace_path, metrics_path);
    return hard_failure.load();
  } catch (const Error& e) {
    std::fprintf(stderr, "gesp_serve: %s\n", e.what());
    return exit_code_for(e.code());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gesp_serve: unexpected: %s\n", e.what());
    return 70;
  }
}
