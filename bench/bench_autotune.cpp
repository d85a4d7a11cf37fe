// Adaptive serving benchmark: a step-change load experiment against
// SolverService. A throughput-tuned static configuration (max_batch 8 +
// a 5 ms linger) is exactly right while 8 closed-loop clients keep the
// batches full — then the arrival rate steps down to 2 clients, batches
// stop filling, and every static-config request waits out the linger. The
// same configuration with ServiceOptions::adapt on must see p99 blow past
// the target and trim the linger away within a few windows.
//
// --quick shortens both phases.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "common/timer.hpp"
#include "serve/service.hpp"
#include "sparse/ops.hpp"
#include "sparse/testbed.hpp"

namespace {

using namespace gesp;

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(q * (v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

struct ServeResult {
  double static_p99_ms = 0;
  double adaptive_p99_ms = 0;
  double improvement = 0;  ///< static / adaptive
  count_t trims = 0;
  index_t final_max_batch = 0;
  double final_linger_s = 0;
};

serve::ServiceOptions throughput_tuned_config() {
  serve::ServiceOptions o;
  o.backend = Backend::serial;
  o.num_workers = 1;
  // A configuration tuned for peak load: wide batches, and a generous
  // linger so sub-width batches wait for company. Fine while arrivals
  // outpace the batch width; once the load drops below it, every request
  // eats the full linger — latency only the controller can remove.
  o.max_batch = 8;
  o.batch_linger_s = 5e-3;
  o.shed_refinement = false;
  return o;
}

/// Closed-loop burst: `clients` threads hammer value-hit traffic for
/// `seconds`; returns client-observed latencies (ms) paired with when the
/// request completed (seconds since burst start), so the caller can score
/// the steady state separately from the adaptation transient.
struct Sample {
  double at_s = 0;
  double latency_ms = 0;
};

std::vector<Sample> burst(serve::SolverService<double>& svc,
                          const sparse::CscMatrix<double>& A,
                          const std::vector<double>& b, int clients,
                          double seconds) {
  std::vector<std::vector<Sample>> per_client(clients);
  std::vector<std::thread> pool;
  for (int c = 0; c < clients; ++c)
    pool.emplace_back([&, c] {
      Timer phase;
      while (phase.seconds() < seconds) {
        Timer t;
        (void)svc.solve(A, b);
        per_client[static_cast<std::size_t>(c)].push_back(
            {phase.seconds(), t.seconds() * 1e3});
      }
    });
  for (auto& th : pool) th.join();
  std::vector<Sample> all;
  for (auto& v : per_client) all.insert(all.end(), v.begin(), v.end());
  return all;
}

double steady_p99_ms(const std::vector<Sample>& samples, double burst_s) {
  // Score the steady state: the first 30% of the burst is the step-change
  // transient the controller needs (settle windows + trims) to react.
  std::vector<double> tail;
  for (const auto& s : samples)
    if (s.at_s > 0.3 * burst_s) tail.push_back(s.latency_ms);
  return quantile(tail, 0.99);
}

ServeResult run_serve_experiment(bool quick) {
  const auto A = sparse::testbed_entry("add20-s").make();
  std::vector<double> ones(static_cast<std::size_t>(A.ncols), 1.0);
  std::vector<double> b(ones.size());
  sparse::spmv<double>(A, ones, b);

  const double kPeak = quick ? 0.2 : 0.5;   // pre-step full-width load
  const double kAfter = quick ? 1.0 : 2.5;  // measured post-step phase

  ServeResult out;
  for (const bool adaptive : {false, true}) {
    serve::ServiceOptions opt = throughput_tuned_config();
    if (adaptive) {
      opt.adapt = true;
      opt.adapt_window_s = 0.025;
      opt.adapt_controller.target_p99_us = 2e3;  // hold p99 near 2 ms
      opt.adapt_controller.settle_windows = 2;
    }
    serve::SolverService<double> svc(opt);
    svc.warm(A);
    // Peak phase: 8 closed-loop clients keep the batches full — the
    // configured knobs are exactly right for this load.
    (void)burst(svc, A, b, 8, kPeak);
    // Step change: the load drops to 2 clients. Batches stop filling, so
    // the static config makes every request wait out the 5 ms linger; the
    // adaptive one sees p99 blow past the target and trims the linger to
    // zero within a few windows.
    const auto lat = burst(svc, A, b, 2, kAfter);
    const double p99 = steady_p99_ms(lat, kAfter);
    if (adaptive) {
      out.adaptive_p99_ms = p99;
      out.trims = svc.adapt_stats().trims;
      const auto k = svc.effective_knobs();
      out.final_max_batch = k.max_batch;
      out.final_linger_s = k.batch_linger_s;
    } else {
      out.static_p99_ms = p99;
    }
    svc.stop();
  }
  out.improvement =
      out.adaptive_p99_ms > 0 ? out.static_p99_ms / out.adaptive_p99_ms : 0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  const ServeResult serve = run_serve_experiment(quick);
  std::printf(
      "serve step-change burst: static p99 %.2f ms   adaptive p99 %.2f ms "
      "(%.2fx better, %lld trims, final batch %lld linger %.4gs)\n",
      serve.static_p99_ms, serve.adaptive_p99_ms, serve.improvement,
      static_cast<long long>(serve.trims),
      static_cast<long long>(serve.final_max_batch), serve.final_linger_s);
  return 0;
}
