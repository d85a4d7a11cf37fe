#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "core/solver.hpp"
#include "dense/kernels.hpp"
#include "pipeline.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"
#include "sparse/generators.hpp"
#include "sparse/ops.hpp"
#include "sparse/testbed.hpp"
#include "spans.hpp"

namespace gespbench {
namespace {

using gesp::index_t;

// ---------------------------------------------------------------- inputs

constexpr double kValueRel = 0.05;    ///< seeded value perturbation
constexpr double kWindowFrac = 0.02;  ///< transient: columns changed per step
constexpr int kSetupReps = 3;         ///< set-ups per run; setup_s = median
/// One thread on purpose: the 4-thread task DAG passes every task through
/// one mutex + condvar, so on a loaded host a descheduled vCPU stalls all
/// workers and the run-to-run spread reached 3-5x. Thread-pool scaling is
/// still measured in every traced run by the kProbeThreads constructor probe.
constexpr int kTransientThreads = 1;
constexpr int kProbeThreads = 4;  ///< numeric.parallel_eff: serial vs 4-way
constexpr int kServeClients = 2;
constexpr int kServePatterns = 6;
constexpr int kServeValuesets = 2;
constexpr int kStreamLen = 4096;  ///< serve stream, replayed cyclically
constexpr std::size_t kMinColdPasses = 10;
/// ‖x − 1‖∞ bound on every answer. berr ≤ √ε holds on every request; this
/// catches an answer that is accurate for the wrong system.
constexpr double kMaxError = 1e-6;

const std::vector<std::string> kColdNames = {
    "cfd3d-a-s", "wang12-s", "af23560-s", "twotone-s", "add32-s",
    "lhr04-s",   "cancel-c-s", "mcfe-s",  "sherman-s", "jpwh991-s"};
const std::vector<std::string> kTransientNames = {"twotone-s", "gemat11-s",
                                                  "wang12-s", "add32-s"};

std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c = 0) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ULL + b * 0xBF58476D1CE4E5B9ULL +
                    c * 0x94D049BB133111EBULL + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t digest(const Matrix& A) {
  std::uint64_t h = 1469598103934665603ULL;
  for (double v : A.values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    h = (h ^ bits) * 1099511628211ULL;
  }
  return h;
}

std::vector<double> ones_rhs(const Matrix& A) {
  const std::vector<double> one(static_cast<std::size_t>(A.ncols), 1.0);
  std::vector<double> b(static_cast<std::size_t>(A.nrows));
  gesp::sparse::spmv<double>(A, one, b);
  return b;
}

struct Input {
  std::string name;
  Matrix A;
  std::vector<double> b;
};

Input make_input(std::string name, Matrix A) {
  std::vector<double> b = ones_rhs(A);
  return {std::move(name), std::move(A), std::move(b)};
}

/// cold-solve: the ten matrices, value-perturbed by seed, in seeded order.
std::vector<Input> cold_inputs(std::uint64_t seed) {
  std::vector<std::size_t> order(kColdNames.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  gesp::Rng rng(mix(seed, 1));
  for (std::size_t i = order.size() - 1; i > 0; --i)
    std::swap(order[i], order[static_cast<std::size_t>(
                            rng.next_index(static_cast<index_t>(i + 1)))]);
  std::vector<Input> in;
  for (std::size_t i : order) {
    const std::string& name = kColdNames[i];
    in.push_back(make_input(
        name, gesp::sparse::perturb_values(
                  gesp::sparse::testbed_entry(name).make(), kValueRel,
                  mix(seed, 2, i))));
  }
  return in;
}

/// transient: one drifting matrix; step k perturbs a window of columns of
/// step k-1. The run seed perturbs the starting values; the window schedule
/// depends only on (matrix, step), so every seed does the same elimination
/// work and the spread across seeds is the machine's, not the schedule's.
struct Drift {
  std::size_t index = 0;  ///< into kTransientNames
  long step = 0;
  Input cur;

  void advance() {
    ++step;
    cur = make_input(cur.name, gesp::sparse::perturb_column_window(
                                   cur.A, kWindowFrac, kValueRel,
                                   mix(10 + index, step)));
  }
};

Drift drift_start(std::size_t index, std::uint64_t seed) {
  const std::string& name = kTransientNames[index];
  Drift d;
  d.index = index;
  d.cur = make_input(
      name, gesp::sparse::perturb_values(
                gesp::sparse::testbed_entry(name).make(), kValueRel,
                mix(seed, 3, index)));
  return d;
}

/// serve: the (pattern, valueset) inputs and the seeded request stream.
struct ServeInputs {
  std::vector<std::vector<Input>> by_pattern;  ///< [pattern][valueset]
  std::vector<std::pair<int, int>> stream;     ///< (pattern, valueset)
};

ServeInputs serve_inputs(std::uint64_t seed) {
  const gesp::serve::Workload w = gesp::serve::generate_workload(
      kServePatterns, kServeValuesets, kStreamLen, seed);
  ServeInputs s;
  std::map<std::string, int> index;
  for (const auto& item : w.items) {
    auto it = index.find(item.matrix);
    if (it == index.end()) {
      it = index.emplace(item.matrix, static_cast<int>(index.size())).first;
      const Matrix base = gesp::serve::load_base_matrix(item.matrix);
      std::vector<Input> sets;
      for (int v = 0; v < kServeValuesets; ++v)
        sets.push_back(
            make_input(item.matrix, gesp::serve::perturb_values(base, v)));
      s.by_pattern.push_back(std::move(sets));
    }
    s.stream.emplace_back(it->second, item.valueset);
  }
  return s;
}

// ------------------------------------------------------------- checking

struct Tally {
  long attempted = 0;
  long failed = 0;
  double berr_max = 0.0;
  double err_max = 0.0;

  /// Check x against the all-ones solution of A·x = b: finite, berr ≤ √ε,
  /// ‖x − 1‖∞ ≤ kMaxError. Returns whether it passed.
  bool check(const Matrix& A, std::span<const double> b,
             std::span<const double> x) {
    ++attempted;
    bool ok = x.size() == b.size();
    for (double v : x) ok = ok && std::isfinite(v);
    if (ok) {
      std::vector<double> r(b.size());
      gesp::sparse::residual<double>(A, x, b, r);
      const double berr =
          gesp::sparse::componentwise_backward_error<double>(A, x, b, r);
      double err = 0.0;
      for (double v : x) err = std::max(err, std::abs(v - 1.0));
      berr_max = std::max(berr_max, berr);
      err_max = std::max(err_max, err);
      ok = berr <= std::sqrt(std::numeric_limits<double>::epsilon()) &&
           err <= kMaxError;
    }
    if (!ok) ++failed;
    return ok;
  }
  void fail() {
    ++attempted;
    ++failed;
  }
  void merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    berr_max = std::max(berr_max, o.berr_max);
    err_max = std::max(err_max, o.err_max);
  }
};

// ------------------------------------------------------------ statistics

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Quantile q of latency samples, smoothed: the mean of the order
/// statistics ranked within ±5% of n around rank q·(n−1). The latencies are
/// mixtures of per-matrix clusters, and a single order statistic at a
/// cluster boundary jumps between the clusters from run to run; the window
/// mean does not.
double latency_quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const long n = static_cast<long>(v.size());
  const long w = n / 20;
  const long c = std::lround(q * static_cast<double>(n - 1));
  const long lo = std::max(0L, c - w), hi = std::min(n - 1, c + w);
  double s = 0.0;
  for (long i = lo; i <= hi; ++i) s += v[static_cast<std::size_t>(i)];
  return s / static_cast<double>(hi - lo + 1);
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string fmt(double v) {
  std::ostringstream o;
  o.precision(10);
  o << v;
  return o.str();
}

/// Build `make()` kSetupReps times (dropping the previous state first) and
/// keep the last; returns the median set-up seconds.
template <class State, class Make>
double timed_setups(std::unique_ptr<State>& state, Make make) {
  std::vector<double> t;
  for (int r = 0; r < kSetupReps; ++r) {
    state.reset();
    const auto t0 = Clock::now();
    state = make();
    t.push_back(seconds_between(t0, Clock::now()));
  }
  return median(t);
}

/// The end-to-end metrics of an untraced run.
void report_end_to_end(Result& res, double setup_s,
                       const std::vector<double>& latency_s, double wall_s,
                       const Tally& tally) {
  const double p50 = latency_quantile(latency_s, 0.5),
               p90 = latency_quantile(latency_s, 0.9);
  const long beyond = std::count_if(latency_s.begin(), latency_s.end(),
                                    [&](double l) { return l > p90; });
  res.attempted = tally.attempted;
  res.failed = tally.failed;
  res.add("setup_s", setup_s, "s");
  res.add("latency_p50_ms", p50 * 1e3, "ms");
  res.add("latency_p90_ms", p90 * 1e3, "ms");
  res.add("throughput_rps",
          static_cast<double>(latency_s.size()) / std::max(wall_s, 1e-9),
          "req/s");
  res.add("peak_rss_mb", peak_rss_mb(), "MB");
  res.note("fail_rate", fmt(static_cast<double>(tally.failed) /
                            static_cast<double>(std::max(1L, tally.attempted))));
  res.note("latency_samples", std::to_string(latency_s.size()));
  res.note("samples_beyond_p90", std::to_string(beyond));
  res.note("setup_reps", std::to_string(kSetupReps));
  res.note("measured_wall_s", fmt(wall_s));
  res.note("berr_max", fmt(tally.berr_max));
  res.note("error_max", fmt(tally.err_max));
}

// ------------------------------------------------------- layer accounting

/// GF/s of dense::gemm_minus on b×b×b operands, measured in this process.
double gemm_gflops(index_t b) {
  const auto n = static_cast<std::size_t>(b) * static_cast<std::size_t>(b);
  std::vector<double> A(n), B(n), C(n, 0.0);
  gesp::Rng rng(static_cast<std::uint64_t>(b));
  for (std::size_t i = 0; i < n; ++i) {
    A[i] = rng.uniform(-1.0, 1.0);
    B[i] = rng.uniform(-1.0, 1.0);
  }
  const double flops = 2.0 * static_cast<double>(b) * b * b;
  const long reps = std::max(1L, static_cast<long>(2e7 / flops));
  std::vector<double> rate;
  for (int batch = 0; batch < 7; ++batch) {
    const auto t0 = Clock::now();
    for (long r = 0; r < reps; ++r)
      gesp::dense::gemm_minus<double>(b, b, b, A.data(), b, B.data(), b,
                                      C.data(), b);
    rate.push_back(flops * static_cast<double>(reps) /
                   seconds_between(t0, Clock::now()) * 1e-9);
  }
  if (!std::isfinite(C[0])) throw std::runtime_error("gemm probe overflow");
  return median(rate);
}

/// What one Pipeline construction analysed and factored.
struct Build {
  double pairs = 0, flops = 0, nsup = 0, stored = 0, full_s = 0;
};

Build build_of(const Pipeline& p) {
  const auto& S = p.sym();
  return {static_cast<double>(update_pairs(S)), static_cast<double>(S.flops),
          static_cast<double>(S.nsup),
          static_cast<double>(S.stored_L + S.stored_U),
          p.last_full_numeric_s()};
}

/// Everything a traced run gathers besides its spans.
struct LayerInputs {
  std::vector<Build> distinct;  ///< one per distinct input (symbolic sums)
  std::vector<Build> builds;    ///< every full build at the workload config
  double probe_serial_s = 0, probe_threaded_s = 0;
  int probes = 0;
  long refine_calls = 0, refine_iters = 0;
  double refine_berr_max = 0;
  // Solver::refactorize_delta accounting (untraced, real routing).
  long delta_calls = 0, delta_smw = 0, delta_partial = 0, delta_full = 0;
  double delta_s = 0, twin_full_s = 0, dirty_frac_sum = 0;
  long route_mismatches = 0;  ///< pipeline route != Solver route
  long berr_mismatches = 0;   ///< pipeline berr != Solver berr (cold-solve)
  // Same requests, untraced (Solver) vs traced (pipeline).
  double untraced_s = 0, traced_s = 0;
  /// Untraced wall the request layer spans should account for; 0 means
  /// untraced_s.
  double account_for_s = 0;
  bool serve = false;
  double service_p50_ms = 0, service_p90_ms = 0, client_overhead_ms = 0,
         exec_value_ms = 0, exec_pattern_ms = 0, wait_ms = 0,
         value_hit_frac = 0, pattern_hit_frac = 0, miss_frac = 0,
         batch_width_mean = 0, shed_frac = 0, cache_mb = 0;
};

/// Time the serial and kProbeThreads-way LUFactors constructors on A's
/// analysis into L.
void probe_parallel(LayerInputs& L, const Matrix& A,
                    const gesp::SolverOptions& opt) {
  const auto tr = gesp::compute_transform(A, opt);
  const auto sym = std::make_shared<const gesp::symbolic::SymbolicLU>(
      gesp::symbolic::analyze(tr.At, opt.symbolic));
  auto nopt = numeric_options(opt, gesp::sparse::norm_max(tr.At));
  auto time_with = [&](int t) {
    nopt.num_threads = t;
    const auto t0 = Clock::now();
    gesp::numeric::LUFactors<double> f(sym, tr.At, nopt);
    return seconds_between(t0, Clock::now());
  };
  L.probe_serial_s += time_with(1);
  L.probe_threaded_s += time_with(kProbeThreads);
  ++L.probes;
}

/// Note one Solver::refactorize_delta call from the stats before/after.
void note_delta(LayerInputs& L, const gesp::DeltaStats& before,
                const gesp::SolveStats& after, double seconds,
                Route pipeline_route) {
  const gesp::DeltaStats& d = after.delta;
  ++L.delta_calls;
  L.delta_smw += d.smw - before.smw;
  L.delta_partial += d.partial - before.partial;
  L.delta_full += d.full - before.full;
  L.delta_s += seconds;
  L.dirty_frac_sum += static_cast<double>(d.dirty_supernodes) /
                      static_cast<double>(std::max<index_t>(1, after.nsup));
  const Route solver_route = d.partial > before.partial ? Route::partial
                             : d.full > before.full     ? Route::full
                                                        : Route::noop;
  if (d.smw > before.smw || solver_route != pipeline_route)
    ++L.route_mismatches;
}

/// Σ durations of the spans directly under a "request" root.
double request_layer_seconds(const Tracer& tr) {
  double s = 0.0;
  const auto& spans = tr.spans();
  for (const SpanRecord& r : spans)
    if (r.parent >= 0 &&
        std::strcmp(spans[static_cast<std::size_t>(r.parent)].name,
                    "request") == 0)
      s += static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
  return s;
}

void report_layers(Result& res, const Tracer& tr, const LayerInputs& L) {
  const double gemm24 = gemm_gflops(24), gemm48 = gemm_gflops(48);
  const auto all = tr.totals([](const SpanRecord&) { return true; });
  const auto req =
      tr.totals([](const SpanRecord& s) { return s.request >= 0; });
  auto mean_of = [](const std::map<std::string, SpanTotals>& m,
                    const char* name) {
    const auto it = m.find(name);
    return it == m.end() || it->second.calls == 0
               ? 0.0
               : it->second.total_s / static_cast<double>(it->second.calls);
  };
  auto total_of = [](const std::map<std::string, SpanTotals>& m,
                     const char* name) {
    const auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second.total_s;
  };
  Build d, b;
  for (const Build& x : L.distinct) {
    d.pairs += x.pairs;
    d.nsup += x.nsup;
    d.stored += x.stored;
  }
  for (const Build& x : L.builds) {
    b.pairs += x.pairs;
    b.flops += x.flops;
    b.full_s += x.full_s;
  }
  const double nb = static_cast<double>(std::max<std::size_t>(1, L.builds.size()));
  const double ratio_den = std::max(1e-12, L.untraced_s);

  // transform
  res.add("core.transform_s", mean_of(all, "core.transform"), "s");
  res.add("sparse.equilibrate_s", mean_of(all, "sparse.equilibrate"), "s");
  res.add("matching.s", mean_of(all, "matching"), "s");
  res.add("ordering.s", mean_of(all, "ordering"), "s");
  // symbolic
  res.add("symbolic.s", mean_of(all, "symbolic"), "s");
  res.add("symbolic.pairs", d.pairs, "count");
  res.add("symbolic.ns_per_pair",
          total_of(all, "symbolic") / std::max(1.0, b.pairs) * 1e9, "ns");
  res.add("symbolic.nsup", d.nsup, "count");
  res.add("symbolic.stored_mb", d.stored * sizeof(double) / 1e6, "MB");
  // numeric
  const double kernel_s = b.flops / nb / (gemm24 * 1e9);
  res.add("numeric.s", mean_of(req, "numeric"), "s");
  res.add("numeric.gflops", b.flops / std::max(1e-12, b.full_s) * 1e-9,
          "GF/s");
  res.add("numeric.ns_per_pair", b.full_s / std::max(1.0, b.pairs) * 1e9,
          "ns");
  res.add("numeric.kernel_s_est", kernel_s, "s");
  res.add("numeric.bookkeeping_s_est", b.full_s / nb - kernel_s, "s");
  res.add("numeric.parallel_eff",
          L.probe_serial_s / std::max(1e-12, kProbeThreads * L.probe_threaded_s),
          "ratio");
  res.add("numeric.sched_wait_s_est",
          (kProbeThreads * L.probe_threaded_s - L.probe_serial_s) /
              std::max(1, L.probes),
          "s");
  // dense
  res.add("dense.gemm_gflops_b24", gemm24, "GF/s");
  res.add("dense.gemm_gflops_b48", gemm48, "GF/s");
  // refine
  res.add("refine.solve_ms", mean_of(req, "refine.solve") * 1e3, "ms");
  res.add("refine.s", mean_of(req, "refine"), "s");
  res.add("refine.iters_mean",
          static_cast<double>(L.refine_iters) /
              static_cast<double>(std::max(1L, L.refine_calls)),
          "count");
  res.add("refine.berr_max", L.refine_berr_max, "ratio");
  // core
  const double calls = static_cast<double>(std::max(1L, L.delta_calls));
  res.add("core.delta_refactor_ms", L.delta_s / calls * 1e3, "ms");
  res.add("core.delta_full_ratio",
          L.twin_full_s > 0 ? L.delta_s / L.twin_full_s : 0.0, "ratio");
  res.add("core.delta_partial_frac", L.delta_partial / calls, "ratio");
  res.add("core.delta_full_frac", L.delta_full / calls, "ratio");
  res.add("core.delta_smw_frac", L.delta_smw / calls, "ratio");
  res.add("core.delta_dirty_frac", L.dirty_frac_sum / calls, "ratio");
  const double account_for =
      L.account_for_s > 0 ? L.account_for_s : L.untraced_s;
  res.add("core.unaccounted_frac",
          1.0 - request_layer_seconds(tr) / std::max(1e-12, account_for),
          "ratio");
  // serve
  res.add("serve.service_p50_ms", L.service_p50_ms, "ms");
  res.add("serve.service_p90_ms", L.service_p90_ms, "ms");
  res.add("serve.client_overhead_ms", L.client_overhead_ms, "ms");
  res.add("serve.exec_value_hit_ms", L.exec_value_ms, "ms");
  res.add("serve.exec_pattern_hit_ms", L.exec_pattern_ms, "ms");
  res.add("serve.wait_ms_est", L.wait_ms, "ms");
  res.add("serve.value_hit_frac", L.value_hit_frac, "ratio");
  res.add("serve.pattern_hit_frac", L.pattern_hit_frac, "ratio");
  res.add("serve.miss_frac", L.miss_frac, "ratio");
  res.add("serve.batch_width_mean", L.batch_width_mean, "count");
  res.add("serve.shed_frac", L.shed_frac, "ratio");
  res.add("serve.cache_mb", L.cache_mb, "MB");
  // tracing itself
  res.add("trace.overhead_frac", L.traced_s / ratio_den - 1.0, "ratio");

  std::string na = "[";
  if (L.delta_calls == 0) na += "\"core.delta_*\",";
  if (!L.serve) na += "\"serve.*\",";
  if (na.size() > 1) na.pop_back();
  res.note("not_applicable_reported_as_0", na + "]");
  res.note("pipeline_route_mismatches", std::to_string(L.route_mismatches));
  res.note("full_builds", std::to_string(L.builds.size()));
}

/// Close a traced run: the layer metrics, the counts, the trace file.
void finish_traced(Result& res, const Tracer& tr, const LayerInputs& L,
                   const Tally& tally, const Args& a, long requests) {
  report_layers(res, tr, L);
  res.attempted = tally.attempted;
  res.failed = tally.failed;
  res.note("traced_requests", std::to_string(requests));
  if (!a.trace_out.empty()) tr.write_chrome_trace(a.trace_out, a.provenance);
}

void note_refine(LayerInputs& L, const SolveOutcome& o) {
  ++L.refine_calls;
  L.refine_iters += o.iterations;
  L.refine_berr_max = std::max(L.refine_berr_max, o.berr);
}

/// Request counts of the traced run scale with --seconds but not with
/// machine speed, so its deterministic counts repeat exactly for a seed.
long traced_requests(const Args& a, double nominal_request_s, long unit) {
  const long n = static_cast<long>(a.seconds / nominal_request_s);
  return std::max(unit, n / unit * unit);
}

// ------------------------------------------------------------ cold-solve

gesp::SolverOptions cold_options() { return {}; }  // 1 thread, defaults

struct ColdState {
  std::vector<Input> inputs;
};

/// One cold request: new Solver + solve. Returns the latency.
double cold_request(const Input& in, Tally& tally, double* berr = nullptr) {
  std::vector<double> x(in.b.size());
  const auto t0 = Clock::now();
  try {
    gesp::Solver<double> s(in.A, cold_options());
    s.solve(in.b, x);
    if (berr) *berr = s.stats().berr;
  } catch (const std::exception&) {
    tally.fail();
    return seconds_between(t0, Clock::now());
  }
  const double lat = seconds_between(t0, Clock::now());
  tally.check(in.A, in.b, x);
  return lat;
}

Result run_cold(const Args& a) {
  Result res;
  Tally tally;
  std::unique_ptr<ColdState> st;
  auto make = [&] {
    auto s = std::make_unique<ColdState>();
    s->inputs = cold_inputs(a.seed);
    Tally warm;
    for (const Input& in : s->inputs) cold_request(in, warm);
    tally.merge(warm);
    return s;
  };
  if (!a.trace) {
    const double setup_s = timed_setups(st, make);
    std::vector<double> lat;
    const auto t0 = Clock::now();
    // Whole passes only, so every matrix weighs the same in the percentiles;
    // at least kMinColdPasses of them (within twice the budget), so ten
    // requests lie beyond p90.
    std::vector<std::vector<double>> by_input(st->inputs.size());
    double elapsed = 0.0;
    do {
      for (std::size_t i = 0; i < st->inputs.size(); ++i) {
        lat.push_back(cold_request(st->inputs[i], tally));
        by_input[i].push_back(lat.back());
      }
      elapsed = seconds_between(t0, Clock::now());
    } while (elapsed < a.seconds ||
             (by_input[0].size() < kMinColdPasses && elapsed < 2 * a.seconds));
    report_end_to_end(res, setup_s, lat, elapsed, tally);
    res.note("passes", std::to_string(by_input[0].size()));
    std::string med = "{";
    for (std::size_t i = 0; i < st->inputs.size(); ++i)
      med += (i ? ", \"" : "\"") + st->inputs[i].name +
             "\": " + fmt(median(by_input[i]) * 1e3);
    res.note("median_ms_by_matrix", med + "}");
    return res;
  }

  st = make();
  Tracer tr;
  LayerInputs L;
  for (const Input& in : st->inputs) probe_parallel(L, in.A, cold_options());
  const long passes =
      traced_requests(a, 2.0 * 0.3 * static_cast<double>(st->inputs.size()),
                      1);
  std::int64_t id = 0;
  for (long p = 0; p < passes; ++p) {
    for (const Input& in : st->inputs) {
      double solver_berr = 0.0;
      L.untraced_s += cold_request(in, tally, &solver_berr);
      std::vector<double> x(in.b.size());
      tr.set_request(id++);
      int root = -1;
      {
        Span s(tr, "request");
        root = s.index();
        Pipeline pl(in.A, cold_options(), tr);
        const SolveOutcome o = pl.solve(in.b, x);
        note_refine(L, o);
        L.builds.push_back(build_of(pl));
        if (p == 0) L.distinct.push_back(L.builds.back());
        // Same calls as the Solver: the same factors, the same berr.
        if (o.berr != solver_berr) ++L.berr_mismatches;
      }
      L.traced_s += tr.seconds(root);
      tally.check(in.A, in.b, x);
    }
  }
  finish_traced(res, tr, L, tally, a, id);
  res.note("pipeline_berr_mismatches", std::to_string(L.berr_mismatches));
  return res;
}

// ------------------------------------------------------------- transient

gesp::SolverOptions transient_options() {
  gesp::SolverOptions o;
  o.num_threads = kTransientThreads;
  return o;
}

struct TransientState {
  std::vector<Drift> drifts;
  std::vector<std::unique_ptr<gesp::Solver<double>>> solvers;
};

/// One transient request on drift d: refactorize_delta + solve.
double transient_request(gesp::Solver<double>& s, const Input& in,
                         Tally& tally, double* delta_s = nullptr) {
  std::vector<double> x(in.b.size());
  const auto t0 = Clock::now();
  try {
    s.refactorize_delta(in.A);
    if (delta_s) *delta_s = seconds_between(t0, Clock::now());
    s.solve(in.b, x);
  } catch (const std::exception&) {
    tally.fail();
    return seconds_between(t0, Clock::now());
  }
  const double lat = seconds_between(t0, Clock::now());
  tally.check(in.A, in.b, x);
  return lat;
}

Result run_transient(const Args& a) {
  Result res;
  Tally tally;
  std::unique_ptr<TransientState> st;
  auto make = [&] {
    auto s = std::make_unique<TransientState>();
    for (std::size_t m = 0; m < kTransientNames.size(); ++m) {
      s->drifts.push_back(drift_start(m, a.seed));
      s->solvers.push_back(std::make_unique<gesp::Solver<double>>(
          s->drifts.back().cur.A, transient_options()));
    }
    Tally warm;
    for (std::size_t m = 0; m < s->drifts.size(); ++m) {
      s->drifts[m].advance();
      transient_request(*s->solvers[m], s->drifts[m].cur, warm);
    }
    tally.merge(warm);
    return s;
  };
  if (!a.trace) {
    const double setup_s = timed_setups(st, make);
    std::vector<double> lat;
    const auto t0 = Clock::now();
    do {  // whole rounds over the four matrices
      for (std::size_t m = 0; m < st->drifts.size(); ++m) {
        st->drifts[m].advance();
        lat.push_back(
            transient_request(*st->solvers[m], st->drifts[m].cur, tally));
      }
    } while (seconds_between(t0, Clock::now()) < a.seconds);
    report_end_to_end(res, setup_s, lat, seconds_between(t0, Clock::now()),
                      tally);
    return res;
  }

  // Traced: the same drift drives a Solver (untraced, real routing), its
  // twin (full refactorize on the same values) and a traced Pipeline.
  st = make();
  Tracer tr;
  LayerInputs L;
  std::vector<std::unique_ptr<gesp::Solver<double>>> twins;
  std::vector<std::unique_ptr<Pipeline>> pipes;
  for (std::size_t m = 0; m < st->drifts.size(); ++m) {
    const Matrix& A = st->drifts[m].cur.A;
    twins.push_back(
        std::make_unique<gesp::Solver<double>>(A, transient_options()));
    pipes.push_back(std::make_unique<Pipeline>(A, transient_options(), tr));
    L.builds.push_back(build_of(*pipes.back()));
    L.distinct.push_back(L.builds.back());
    probe_parallel(L, A, transient_options());
  }
  const long n = traced_requests(a, 0.9, 4);
  for (std::int64_t id = 0; id < n; ++id) {
    const std::size_t m = static_cast<std::size_t>(id) % st->drifts.size();
    Drift& d = st->drifts[m];
    d.advance();
    const gesp::DeltaStats before = st->solvers[m]->stats().delta;
    double delta_s = 0.0;
    L.untraced_s += transient_request(*st->solvers[m], d.cur, tally, &delta_s);
    const auto t0 = Clock::now();
    twins[m]->refactorize(d.cur.A);
    L.twin_full_s += seconds_between(t0, Clock::now());

    std::vector<double> x(d.cur.b.size());
    tr.set_request(id);
    Route route = Route::noop;
    int root = -1;
    {
      Span s(tr, "request");
      root = s.index();
      route = pipes[m]->refactorize_delta(d.cur.A);
      note_refine(L, pipes[m]->solve(d.cur.b, x));
    }
    note_delta(L, before, st->solvers[m]->stats(), delta_s, route);
    L.traced_s += tr.seconds(root);
    tally.check(d.cur.A, d.cur.b, x);
  }
  finish_traced(res, tr, L, tally, a, n);
  return res;
}

// ----------------------------------------------------------------- serve

gesp::serve::ServiceOptions serve_options() { return {}; }  // 2 workers

struct ServeState {
  ServeInputs in;
  std::unique_ptr<gesp::serve::SolverService<double>> svc;
};

/// What the benchmark keeps of one answered request (not the solution: a
/// run keeps thousands of samples).
struct ServeSample {
  double client_s = 0;   ///< client-side wall time
  double service_s = 0;  ///< Response::latency_s
  double batch_width = 1;
  bool value_hit = false, pattern_hit = false, shed = false;
};

/// Closed loop: kServeClients threads each send the next stream item once
/// the previous answer is back, until `stop(i)` says item i is past the end.
template <class Stop>
std::vector<ServeSample> serve_loop(ServeState& st, Tally& tally, Stop stop) {
  std::atomic<long> next{0};
  std::vector<std::vector<ServeSample>> per(kServeClients);
  std::vector<Tally> tallies(kServeClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kServeClients; ++c)
    clients.emplace_back([&, c] {
      for (;;) {
        const long i = next.fetch_add(1);
        if (stop(i)) break;
        const auto [p, v] =
            st.in.stream[static_cast<std::size_t>(i) % st.in.stream.size()];
        const Input& in = st.in.by_pattern[static_cast<std::size_t>(p)]
                                          [static_cast<std::size_t>(v)];
        gesp::serve::Response<double> r;
        const auto t0 = Clock::now();
        try {
          r = st.svc->solve(in.A, in.b);
        } catch (const std::exception&) {
          tallies[static_cast<std::size_t>(c)].fail();
          continue;
        }
        const double client_s = seconds_between(t0, Clock::now());
        if (tallies[static_cast<std::size_t>(c)].check(in.A, in.b, r.x))
          per[static_cast<std::size_t>(c)].push_back(
              {client_s, r.latency_s, static_cast<double>(r.batch_width),
               r.value_hit, r.pattern_hit, r.shed});
      }
    });
  for (auto& t : clients) t.join();
  std::vector<ServeSample> all;
  for (int c = 0; c < kServeClients; ++c) {
    tally.merge(tallies[static_cast<std::size_t>(c)]);
    for (auto& s : per[static_cast<std::size_t>(c)]) all.push_back(std::move(s));
  }
  return all;
}

Result run_serve(const Args& a) {
  Result res;
  Tally tally;
  std::unique_ptr<ServeState> st;
  auto make = [&] {
    auto s = std::make_unique<ServeState>();
    s->in = serve_inputs(a.seed);
    s->svc =
        std::make_unique<gesp::serve::SolverService<double>>(serve_options());
    for (const auto& sets : s->in.by_pattern) s->svc->warm(sets[0].A);
    Tally warm;
    for (const auto& sets : s->in.by_pattern)
      for (const Input& in : sets) {
        try {
          warm.check(in.A, in.b, s->svc->solve(in.A, in.b).x);
        } catch (const std::exception&) {
          warm.fail();
        }
      }
    tally.merge(warm);
    return s;
  };
  if (!a.trace) {
    const double setup_s = timed_setups(st, make);
    const auto t0 = Clock::now();
    const auto samples = serve_loop(
        *st, tally, [&](long) { return seconds_between(t0, Clock::now()) >= a.seconds; });
    const double wall = seconds_between(t0, Clock::now());
    std::vector<double> lat;
    for (const auto& s : samples) lat.push_back(s.client_s);
    report_end_to_end(res, setup_s, lat, wall, tally);
    return res;
  }

  st = make();
  Tracer tr;
  LayerInputs L;
  L.serve = true;
  const gesp::SolverOptions sopt = serve_options().solver;
  // Hand-held replicas of the service's cache entries: a Solver (untraced),
  // its twin (full refactorize) and a traced Pipeline per pattern, each
  // built from the canonical values warm() uses.
  std::vector<std::unique_ptr<gesp::Solver<double>>> held, twins;
  std::vector<std::unique_ptr<Pipeline>> pipes;
  std::vector<int> held_values;
  for (const auto& sets : st->in.by_pattern) {
    held.push_back(std::make_unique<gesp::Solver<double>>(sets[0].A, sopt));
    twins.push_back(std::make_unique<gesp::Solver<double>>(sets[0].A, sopt));
    pipes.push_back(std::make_unique<Pipeline>(sets[0].A, sopt, tr));
    held_values.push_back(0);
    L.builds.push_back(build_of(*pipes.back()));
    L.distinct.push_back(L.builds.back());
    probe_parallel(L, sets[0].A, sopt);
  }
  const long n = traced_requests(a, 3.0 * 10e-3, kServeClients);
  // 1. The service itself, untraced: serve.* and the client latencies.
  const auto samples = serve_loop(*st, tally, [&](long i) { return i >= n; });
  std::vector<double> service_ms, client_s;
  double overhead_s = 0, width = 0;
  long vhits = 0, phits = 0, shed = 0;
  for (const auto& s : samples) {
    service_ms.push_back(s.service_s * 1e3);
    client_s.push_back(s.client_s);
    overhead_s += s.client_s - s.service_s;
    width += s.batch_width;
    vhits += s.value_hit;
    phits += s.pattern_hit && !s.value_hit;
    shed += s.shed;
  }
  const double ns = static_cast<double>(std::max<std::size_t>(1, samples.size()));
  L.service_p50_ms = latency_quantile(service_ms, 0.5);
  L.service_p90_ms = latency_quantile(service_ms, 0.9);
  L.client_overhead_ms = overhead_s / ns * 1e3;
  L.value_hit_frac = static_cast<double>(vhits) / ns;
  L.pattern_hit_frac = static_cast<double>(phits) / ns;
  L.miss_frac = static_cast<double>(static_cast<long>(samples.size()) - vhits -
                                    phits) /
                ns;
  L.batch_width_mean = width / ns;
  L.shed_frac = static_cast<double>(shed) / ns;
  L.cache_mb = static_cast<double>(st->svc->cache_bytes()) / 1e6;
  st->svc->stop();

  // 2. The same stream replayed in order on the hand-held Solvers
  // (untraced) and Pipelines (traced). A request whose values differ from
  // what its pattern last factored is a pattern hit, else a value hit.
  std::vector<double> exec_v, exec_p;
  for (std::int64_t id = 0; id < n; ++id) {
    const auto [p, v] = st->in.stream[static_cast<std::size_t>(id) %
                                      st->in.stream.size()];
    const auto pi = static_cast<std::size_t>(p);
    const Input& in = st->in.by_pattern[pi][static_cast<std::size_t>(v)];
    const bool pattern_hit = held_values[pi] != v;
    held_values[pi] = v;
    std::vector<double> x(in.b.size());
    const gesp::DeltaStats before = held[pi]->stats().delta;
    double delta_s = 0.0;
    const auto t0 = Clock::now();
    try {
      if (pattern_hit) {
        held[pi]->refactorize_delta(in.A);
        delta_s = seconds_between(t0, Clock::now());
      }
      held[pi]->solve(in.b, x);
    } catch (const std::exception&) {
      tally.fail();
      continue;
    }
    const double exec = seconds_between(t0, Clock::now());
    L.untraced_s += exec;
    (pattern_hit ? exec_p : exec_v).push_back(exec * 1e3);
    tally.check(in.A, in.b, x);

    tr.set_request(id);
    Route route = Route::noop;
    int root = -1;
    {
      Span s(tr, "request");
      root = s.index();
      if (pattern_hit) route = pipes[pi]->refactorize_delta(in.A);
      note_refine(L, pipes[pi]->solve(in.b, x));
    }
    L.traced_s += tr.seconds(root);
    tally.check(in.A, in.b, x);
    if (pattern_hit) {
      note_delta(L, before, held[pi]->stats(), delta_s, route);
      const auto t1 = Clock::now();
      twins[pi]->refactorize(in.A);
      L.twin_full_s += seconds_between(t1, Clock::now());
    }
  }
  L.exec_value_ms = mean(exec_v);
  L.exec_pattern_ms = mean(exec_p);
  L.wait_ms = mean(service_ms) -
              L.untraced_s * 1e3 /
                  static_cast<double>(
                      std::max<std::size_t>(1, exec_v.size() + exec_p.size()));
  // The serve tier is what the layers leave of the client latency.
  L.account_for_s = mean(client_s) * static_cast<double>(n);
  finish_traced(res, tr, L, tally, a, n);
  res.note("service_samples", std::to_string(samples.size()));
  return res;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"cold-solve", "transient",
                                                 "serve"};
  return names;
}

Result run_workload(const Args& a) {
  if (a.workload == "cold-solve") return run_cold(a);
  if (a.workload == "transient") return run_transient(a);
  if (a.workload == "serve") return run_serve(a);
  throw std::invalid_argument("unknown workload '" + a.workload + "'");
}

std::vector<std::string> describe_requests(const std::string& workload,
                                           std::uint64_t seed, int count) {
  std::vector<std::string> out;
  auto line = [&](int i, const std::string& what, const Matrix& A) {
    std::ostringstream o;
    o << i << ' ' << what << ' ' << std::hex << digest(A);
    out.push_back(o.str());
  };
  if (workload == "cold-solve") {
    const auto in = cold_inputs(seed);
    for (int i = 0; i < count; ++i)
      line(i, in[static_cast<std::size_t>(i) % in.size()].name,
           in[static_cast<std::size_t>(i) % in.size()].A);
  } else if (workload == "transient") {
    std::vector<Drift> d;
    for (std::size_t m = 0; m < kTransientNames.size(); ++m)
      d.push_back(drift_start(m, seed));
    for (int i = 0; i < count; ++i) {
      Drift& x = d[static_cast<std::size_t>(i) % d.size()];
      x.advance();
      line(i, x.cur.name + " step " + std::to_string(x.step), x.cur.A);
    }
  } else if (workload == "serve") {
    const auto s = serve_inputs(seed);
    for (int i = 0; i < count; ++i) {
      const auto [p, v] = s.stream[static_cast<std::size_t>(i) % s.stream.size()];
      const Input& in = s.by_pattern[static_cast<std::size_t>(p)]
                                    [static_cast<std::size_t>(v)];
      line(i, in.name + " valueset " + std::to_string(v), in.A);
    }
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  return out;
}

}  // namespace gespbench
