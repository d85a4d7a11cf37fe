#include "tune/calibrate.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "dense/kernels.hpp"
#include "dist/minimpi.hpp"

namespace gesp::tune {
namespace {

constexpr const char* kCacheHeader = "gesp-tune-cache v2";

/// Minimum measured seconds per timing point: repeat the kernel until the
/// clock resolution stops dominating, then divide by the repeat count.
constexpr double kMinSample = 2e-4;

std::vector<double> random_block(index_t b, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> a(static_cast<std::size_t>(b) * b);
  for (double& v : a) v = rng.uniform(0.5, 1.5);
  return a;
}

/// Time `body` (which performs `flops` useful flops per call): repeat until
/// kMinSample, best of opt.reps batches. Returns seconds per call.
template <class F>
double time_kernel(int reps, const F& body) {
  // Warm-up and auto-scaled repeat count.
  Timer t;
  body();
  double once = t.seconds();
  const int inner =
      once >= kMinSample
          ? 1
          : static_cast<int>(kMinSample / std::max(once, 1e-9)) + 1;
  double best = 1e300;
  for (int r = 0; r < std::max(1, reps); ++r) {
    t.reset();
    for (int i = 0; i < inner; ++i) body();
    best = std::min(best, t.seconds() / inner);
  }
  return best;
}

KernelSample measure_block(index_t b, int reps) {
  KernelSample s;
  s.b = b;
  const auto ub = static_cast<std::size_t>(b);
  const std::vector<double> a0 = random_block(b, 0x9e3779b9u + ub);
  const std::vector<double> b0 = random_block(b, 0x85ebca6bu + ub);
  std::vector<double> c(ub * ub, 0.0);

  // GEMM: C -= A·B on b-by-b blocks — the trailing-update workhorse.
  const double gemm_flops = 2.0 * b * b * b;
  const double t_gemm = time_kernel(reps, [&] {
    dense::gemm_minus(b, b, b, a0.data(), b, b0.data(), b, c.data(), b);
  });
  s.gemm_gflops = gemm_flops / t_gemm / 1e9;

  // TRSM: L·X = B with unit-lower L, b right-hand-side columns.
  std::vector<double> l = a0;
  for (index_t i = 0; i < b; ++i) l[ub * i + static_cast<std::size_t>(i)] = 1.0;
  std::vector<double> rhs = b0;
  const double trsm_flops = static_cast<double>(b) * b * b;
  const double t_trsm = time_kernel(reps, [&] {
    rhs = b0;
    dense::trsm_left_lower_unit(l.data(), b, b, rhs.data(), b, b);
  });
  s.trsm_gflops = trsm_flops / t_trsm / 1e9;

  // GETRF: unpivoted LU of the diagonal block (diagonally dominated so no
  // tiny pivots fire).
  std::vector<double> g = a0;
  for (index_t i = 0; i < b; ++i)
    g[ub * i + static_cast<std::size_t>(i)] += static_cast<double>(b);
  const double getrf_flops = 2.0 / 3.0 * b * b * b;
  std::vector<double> work = g;
  dense::PivotPolicy policy;  // static, no replacement: clean timing
  policy.tiny_threshold = 1e-300;
  const double t_getrf = time_kernel(reps, [&] {
    work = g;
    dense::PivotStats ps;
    dense::getrf(work.data(), b, b, policy, ps);
  });
  s.getrf_gflops = getrf_flops / t_getrf / 1e9;
  return s;
}

/// Per-update-pair overhead: the supernodal update loop pays a fixed cost
/// per (source supernode, destination block) pair before any flops happen.
/// A 2x2x2 update through the factorization's kernel is almost all fixed
/// cost; use its per-call time.
double measure_pair_overhead(int reps) {
  const std::vector<double> a = random_block(2, 11);
  const std::vector<double> bb = random_block(2, 13);
  std::vector<double> c(4, 0.0);
  return time_kernel(reps, [&] {
    dense::gemm_minus_scatter(2, 2, 2, a.data(), 2, bb.data(), 2, c.data(),
                              2, nullptr, nullptr);
  });
}

/// Per-task enqueue+dispatch cost of a mutex+condvar work queue — what
/// the task-DAG schedule pays once per supernode task.
double measure_task_dispatch(int p, int ntasks, int reps) {
  double best = 1e300;
  for (int r = 0; r < std::max(1, reps); ++r) {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<int> q;
    bool done = false;
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(p));
    for (int i = 0; i < p; ++i)
      workers.emplace_back([&] {
        for (;;) {
          std::unique_lock<std::mutex> lk(mu);
          cv.wait(lk, [&] { return !q.empty() || done; });
          if (q.empty()) return;
          q.pop_front();
        }
      });
    Timer t;
    for (int i = 0; i < ntasks; ++i) {
      {
        std::lock_guard<std::mutex> lk(mu);
        q.push_back(i);
      }
      cv.notify_one();
    }
    {
      std::lock_guard<std::mutex> lk(mu);
      done = true;
    }
    cv.notify_all();
    for (auto& th : workers) th.join();
    best = std::min(best, t.seconds() / ntasks);
  }
  return best;
}

/// Fit rate(b) = R·b/(b+h) to the measured GEMM points by linear least
/// squares on 1/rate = 1/R + (h/R)·(1/b). Falls back to the largest
/// measured rate with the default h when the fit degenerates (e.g. a flat
/// curve, or fewer than two points).
void fit_rate_curve(const std::vector<KernelSample>& ks, double* flop_rate,
                    double* block_half) {
  double peak = 0.0;
  for (const auto& k : ks) peak = std::max(peak, k.gemm_gflops * 1e9);
  if (peak <= 0.0) return;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  int npt = 0;
  for (const auto& k : ks) {
    if (k.gemm_gflops <= 0.0 || k.b <= 0) continue;
    const double x = 1.0 / static_cast<double>(k.b);
    const double y = 1.0 / (k.gemm_gflops * 1e9);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    ++npt;
  }
  if (npt < 2) {
    *flop_rate = peak;
    return;
  }
  const double det = npt * sxx - sx * sx;
  if (det <= 0.0) {
    *flop_rate = peak;
    return;
  }
  const double slope = (npt * sxy - sx * sy) / det;
  const double intercept = (sy - slope * sx) / npt;
  if (intercept <= 0.0 || slope < 0.0) {
    // Rate not saturating over the probed range: peak with a flat-ish curve.
    *flop_rate = peak;
    *block_half = slope > 0.0 ? slope * peak : 0.5;
    return;
  }
  *flop_rate = 1.0 / intercept;
  *block_half = slope / intercept;
}

void measure_comm(int pingpong_msgs, double* latency_s,
                  double* bandwidth_Bps) {
  using minimpi::World;
  const int msgs = std::max(8, pingpong_msgs);
  // Small-message ping-pong: round trip / 2 ≈ alpha.
  double small_s = 0.0;
  {
    World world(2);
    world.run([&](minimpi::Comm& comm) {
      const std::vector<double> payload(1, 42.0);
      comm.barrier();
      Timer t;
      if (comm.rank() == 0) {
        for (int i = 0; i < msgs; ++i) {
          comm.send_vec(1, 1, payload);
          (void)comm.recv(1, 2);
        }
        small_s = t.seconds() / (2.0 * msgs);
      } else {
        for (int i = 0; i < msgs; ++i) {
          (void)comm.recv(0, 1);
          comm.send_vec(0, 2, payload);
        }
      }
    });
  }
  // Large-message ping-pong: round trip / 2 ≈ alpha + bytes/beta.
  constexpr std::size_t kLargeBytes = std::size_t{1} << 20;
  double large_s = 0.0;
  {
    World world(2);
    world.run([&](minimpi::Comm& comm) {
      const std::vector<double> payload(kLargeBytes / sizeof(double), 1.0);
      const int big_msgs = 8;
      comm.barrier();
      Timer t;
      if (comm.rank() == 0) {
        for (int i = 0; i < big_msgs; ++i) {
          comm.send_vec(1, 1, payload);
          (void)comm.recv(1, 2);
        }
        large_s = t.seconds() / (2.0 * big_msgs);
      } else {
        for (int i = 0; i < big_msgs; ++i) {
          (void)comm.recv(0, 1);
          comm.send_vec(0, 2, payload);
        }
      }
    });
  }
  if (small_s > 0.0) *latency_s = small_s;
  const double transfer = large_s - small_s;
  if (transfer > 0.0)
    *bandwidth_Bps = static_cast<double>(kLargeBytes) / transfer;
  // Allreduce sanity probe: published as a metric, not fitted (the model
  // derives collectives from alpha/beta itself).
  {
    World world(4);
    double allreduce_s = 0.0;
    world.run([&](minimpi::Comm& comm) {
      comm.barrier();
      Timer t;
      for (int i = 0; i < 16; ++i)
        (void)comm.reduce_sum(0, 3, static_cast<double>(comm.rank()));
      if (comm.rank() == 0) allreduce_s = t.seconds() / 16.0;
    });
    metrics::global().gauge("tune.calibrate.allreduce_seconds")
        .set(allreduce_s);
  }
}

}  // namespace

Calibration calibrate(const CalibrateOptions& opt) {
  GESP_TRACE_SPAN("tune", "calibrate");
  Timer wall;
  Calibration cal;
  for (const index_t b : opt.blocks) {
    if (b < 2) continue;
    GESP_TRACE_SPAN("tune", "calibrate_block");
    cal.kernels.push_back(measure_block(b, opt.reps));
  }
  GESP_CHECK(!cal.kernels.empty(), Errc::invalid_argument,
             "calibrate: no usable block sizes (need b >= 2)");
  fit_rate_curve(cal.kernels, &cal.flop_rate, &cal.block_half);
  cal.pair_overhead_s = measure_pair_overhead(opt.reps);
  // Scheduler overhead measured against the primitive the task DAG uses:
  // a queue enqueue+dispatch per task. It is microseconds-scale —
  // thousands of times the pair overhead — and it is what decides one
  // thread vs several on small matrices.
  cal.task_overhead_s = measure_task_dispatch(3, 4096, 2);
  if (opt.comm_probes)
    measure_comm(opt.pingpong_msgs, &cal.latency_s, &cal.bandwidth_Bps);
  cal.measured = true;
  cal.source = "measured";

  auto& reg = metrics::global();
  reg.gauge("tune.calibrate.seconds").set(wall.seconds());
  reg.gauge("tune.calibrate.flop_rate").set(cal.flop_rate);
  reg.gauge("tune.calibrate.block_half").set(cal.block_half);
  reg.gauge("tune.calibrate.latency_seconds").set(cal.latency_s);
  reg.gauge("tune.calibrate.bandwidth_bytes").set(cal.bandwidth_Bps);
  reg.gauge("tune.calibrate.pair_overhead_seconds").set(cal.pair_overhead_s);
  reg.gauge("tune.calibrate.task_overhead_seconds").set(cal.task_overhead_s);
  reg.counter("tune.calibrations").inc();
  return cal;
}

std::string Calibration::to_text() const {
  std::ostringstream out;
  char buf[160];
  out << kCacheHeader << '\n';
  std::snprintf(buf, sizeof buf, "flop_rate %.17g\n", flop_rate);
  out << buf;
  std::snprintf(buf, sizeof buf, "block_half %.17g\n", block_half);
  out << buf;
  std::snprintf(buf, sizeof buf, "latency %.17g\n", latency_s);
  out << buf;
  std::snprintf(buf, sizeof buf, "bandwidth %.17g\n", bandwidth_Bps);
  out << buf;
  std::snprintf(buf, sizeof buf, "pair_overhead %.17g\n", pair_overhead_s);
  out << buf;
  std::snprintf(buf, sizeof buf, "task_overhead %.17g\n", task_overhead_s);
  out << buf;
  for (const auto& k : kernels) {
    std::snprintf(buf, sizeof buf, "kernel %lld %.17g %.17g %.17g\n",
                  static_cast<long long>(k.b), k.gemm_gflops, k.trsm_gflops,
                  k.getrf_gflops);
    out << buf;
  }
  return out.str();
}

bool Calibration::from_text(const std::string& text, Calibration* out) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kCacheHeader) return false;
  Calibration cal;
  bool any = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    char key[32];
    double v = 0.0;
    long long b = 0;
    double g = 0, t = 0, f = 0;
    if (std::sscanf(line.c_str(), "kernel %lld %lg %lg %lg", &b, &g, &t,
                    &f) == 4) {
      KernelSample k;
      k.b = static_cast<index_t>(b);
      k.gemm_gflops = g;
      k.trsm_gflops = t;
      k.getrf_gflops = f;
      cal.kernels.push_back(k);
      continue;
    }
    if (std::sscanf(line.c_str(), "%31s %lg", key, &v) != 2) return false;
    if (!(v > 0.0)) return false;
    if (std::strcmp(key, "flop_rate") == 0)
      cal.flop_rate = v;
    else if (std::strcmp(key, "block_half") == 0)
      cal.block_half = v;
    else if (std::strcmp(key, "latency") == 0)
      cal.latency_s = v;
    else if (std::strcmp(key, "bandwidth") == 0)
      cal.bandwidth_Bps = v;
    else if (std::strcmp(key, "pair_overhead") == 0)
      cal.pair_overhead_s = v;
    else if (std::strcmp(key, "task_overhead") == 0)
      cal.task_overhead_s = v;
    else
      return false;  // unknown key: refuse to guess
    any = true;
  }
  if (!any) return false;
  cal.measured = true;
  cal.source = "cache";
  *out = cal;
  return true;
}

bool save_calibration(const Calibration& cal, const std::string& path) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  f << cal.to_text();
  return static_cast<bool>(f);
}

bool load_calibration(const std::string& path, Calibration* out) {
  std::ifstream f(path);
  if (!f) return false;
  std::ostringstream body;
  body << f.rdbuf();
  return Calibration::from_text(body.str(), out);
}

Calibration calibrate_cached(const CalibrateOptions& opt,
                             const std::string& cache_path) {
  std::string path = cache_path;
  if (path.empty()) {
    const char* env = std::getenv("GESP_TUNE_CACHE");
    if (env != nullptr) path = env;
  }
  if (path.empty()) return calibrate(opt);
  Calibration cal;
  if (load_calibration(path, &cal)) {
    metrics::global().counter("tune.calibrate.cache_hits").inc();
    return cal;
  }
  cal = calibrate(opt);
  if (!save_calibration(cal, path))
    metrics::global().counter("tune.calibrate.cache_write_failures").inc();
  return cal;
}

}  // namespace gesp::tune
