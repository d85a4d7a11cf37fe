// Autotuning benchmark: what the src/tune subsystem actually buys.
//
// Experiment 1 (calibration): run (or load via GESP_TUNE_CACHE) the
// microbenchmark calibration and report the fitted machine constants next
// to the stock T3E-era model defaults they replace.
//
// Experiment 2 (analyze-time tuning): tuned-vs-default numeric factor time
// over the paper testbed. "Default" is the paper configuration every other
// bench uses (block 24, 4 threads); "tuned" hands the same request
// to the calibrated tuner under TunePolicy::model and lets it pick block
// size and thread count per matrix. Min-of-reps timing; the
// tuner's own analyze-time cost is reported separately (it is a one-off
// per pattern, not a per-factorization cost).
//
// Experiment 3 (adaptive serving): a step-change load experiment against
// SolverService. A throughput-tuned static configuration (max_batch 8 +
// a 5 ms linger) is exactly right while 8 closed-loop clients keep the
// batches full — then the arrival rate steps down to 2 clients, batches
// stop filling, and every static-config request waits out the linger. The
// same configuration with ServiceOptions::adapt on must see p99 blow past
// the target and trim the linger away within a few windows.
//
// Machine-readable output goes to BENCH_autotune.json (or --out=<path>)
// for the CI autotune-smoke artifact. --quick / --matrices= subset.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/timer.hpp"
#include "core/solver.hpp"
#include "serve/service.hpp"
#include "sparse/ops.hpp"
#include "sparse/testbed.hpp"
#include "tune/calibrate.hpp"
#include "tune/tuner.hpp"

namespace {

using namespace gesp;

struct FactorResult {
  std::string matrix;
  double default_s = 0;  ///< numeric factor seconds, paper defaults
  double tuned_s = 0;    ///< numeric factor seconds, tuner's pick
  double tune_s = 0;     ///< one-off analyze-time cost of deciding
  double speedup = 0;    ///< default_s / tuned_s
  bool applied = false;
  std::string note;
  double predicted_s = -1;
  double predicted_default_s = -1;
  double model_error = -1;
};

SolverOptions default_options() {
  SolverOptions opt;
  opt.backend = Backend::threaded;
  opt.num_threads = 4;
  return opt;
}

/// Min-of-reps numeric factor time under `opt`. The tuner decides once, at
/// construction; the remaining reps refactorize under the decided
/// configuration, so reps price the numeric factorization alone (the
/// recurring cost) and the one-off decide cost is read from the "tune"
/// phase.
double factor_seconds(const sparse::CscMatrix<double>& A,
                      const SolverOptions& opt, int reps, SolveStats* stats) {
  Solver<double> s(A, opt);
  double best = s.stats().times.get("factor");
  for (int r = 1; r < reps; ++r) {
    s.refactorize(A);
    best = std::min(best, s.stats().times.get("factor"));
  }
  *stats = s.stats();
  return best;
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(q * (v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

// ---------------------------------------------------------------------------
// Experiment 3: step-change load against a static vs adaptive service.

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
  std::string out_path = "BENCH_autotune.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  // ---- Experiment 1: calibration ---------------------------------------
  tune::CalibrateOptions copt;
  if (quick) copt.reps = 2;
  Timer cal_timer;
  const tune::Calibration cal = tune::calibrate_cached(copt);
  const double cal_seconds = cal_timer.seconds();
  const tune::Calibration stock;
  std::printf("calibration (%s, %.2fs):\n", cal.source.c_str(), cal_seconds);
  std::printf("  flop rate      %8.2f GF/s   (stock %6.3f)\n",
              cal.flop_rate * 1e-9, stock.flop_rate * 1e-9);
  std::printf("  half-rate blk  %8.1f        (stock %6.1f)\n", cal.block_half,
              stock.block_half);
  std::printf("  pair overhead  %8.1f ns     (stock %6.1f)\n",
              cal.pair_overhead_s * 1e9, stock.pair_overhead_s * 1e9);
  std::printf("  task dispatch  %8.2f us     (stock %6.2f)\n",
              cal.task_overhead_s * 1e6, stock.task_overhead_s * 1e6);
  std::printf("  msg latency    %8.2f us     (stock %6.2f)\n",
              cal.latency_s * 1e6, stock.latency_s * 1e6);
  std::printf("  bandwidth      %8.2f GB/s   (stock %6.3f)\n\n",
              cal.bandwidth_Bps * 1e-9, stock.bandwidth_Bps * 1e-9);

  // ---- Experiment 2: tuned vs default factor time ----------------------
  auto tuner = tune::make_tuner(cal);
  const int reps = quick ? 1 : 3;
  std::vector<FactorResult> rows;
  std::vector<double> speedups;
  for (const auto& entry : bench::select_testbed(argc, argv)) {
    const auto A = entry.make();
    FactorResult r;
    r.matrix = entry.name;
    SolveStats sd, st;
    r.default_s = factor_seconds(A, default_options(), reps, &sd);
    SolverOptions topt = default_options();
    tune::attach_tuner(topt, TunePolicy::model, tuner);
    r.tuned_s = factor_seconds(A, topt, reps, &st);
    r.tune_s = st.times.total("tune");
    r.applied = st.tuning.applied;
    r.note = st.tuning.decision.note;
    r.predicted_s = st.tuning.decision.predicted_seconds;
    r.predicted_default_s = st.tuning.decision.predicted_default_seconds;
    r.model_error = st.tuning.model_error;
    r.speedup = r.tuned_s > 0 ? r.default_s / r.tuned_s : 0;
    speedups.push_back(r.speedup);
    rows.push_back(r);
    std::printf(
        "%-14s default %8.4fs   tuned %8.4fs (%5.2fx)   decide %6.4fs   %s\n",
        r.matrix.c_str(), r.default_s, r.tuned_s, r.speedup, r.tune_s,
        r.applied ? r.note.c_str() : "kept request");
  }
  auto sp = speedups;
  const double median_speedup = quantile(sp, 0.5);
  const auto wins = static_cast<int>(
      std::count_if(speedups.begin(), speedups.end(),
                    [](double s) { return s >= 1.15; }));
  std::printf("\nmedian speedup %.3fx, %d/%zu matrices at >= 1.15x\n\n",
              median_speedup, wins, speedups.size());

  // ---- Experiment 3: static vs adaptive serving ------------------------
  const ServeResult serve = run_serve_experiment(quick);
  std::printf(
      "serve step-change burst: static p99 %.2f ms   adaptive p99 %.2f ms "
      "(%.2fx better, %lld trims, final batch %lld linger %.4gs)\n",
      serve.static_p99_ms, serve.adaptive_p99_ms, serve.improvement,
      static_cast<long long>(serve.trims),
      static_cast<long long>(serve.final_max_batch), serve.final_linger_s);

  // ---- BENCH_autotune.json ---------------------------------------------
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"calibration\": {\"source\": \"%s\", \"seconds\": %.2f, "
               "\"flop_rate_gflops\": %.3f, \"block_half\": %.2f, "
               "\"pair_overhead_ns\": %.1f, \"latency_us\": %.3f, "
               "\"bandwidth_gbps\": %.3f},\n",
               cal.source.c_str(), cal_seconds, cal.flop_rate * 1e-9,
               cal.block_half, cal.pair_overhead_s * 1e9, cal.latency_s * 1e6,
               cal.bandwidth_Bps * 1e-9);
  std::fprintf(f, "  \"factor\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(f,
                 "    {\"matrix\": \"%s\", \"default_s\": %.5f, "
                 "\"tuned_s\": %.5f, \"speedup\": %.3f, \"decide_s\": %.5f, "
                 "\"applied\": %s, \"note\": \"%s\", \"model_error\": "
                 "%.3f}%s\n",
                 r.matrix.c_str(), r.default_s, r.tuned_s, r.speedup, r.tune_s,
                 r.applied ? "true" : "false", r.note.c_str(), r.model_error,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"factor_median_speedup\": %.3f,\n"
               "  \"factor_wins_115\": %d,\n",
               median_speedup, wins);
  std::fprintf(f,
               "  \"serve\": {\"static_p99_ms\": %.3f, \"adaptive_p99_ms\": "
               "%.3f, \"improvement\": %.3f, \"trims\": %lld, "
               "\"final_max_batch\": %lld, \"final_linger_s\": %.5f}\n}\n",
               serve.static_p99_ms, serve.adaptive_p99_ms, serve.improvement,
               static_cast<long long>(serve.trims),
               static_cast<long long>(serve.final_max_batch),
               serve.final_linger_s);
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
