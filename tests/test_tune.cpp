// src/tune tests: the analyze-time tuner's determinism contract (same
// inputs -> same decision, probe feedback never flips a decision), the
// bitwise guarantees the solvers make around it (TunePolicy::off is the
// pre-tuning code path; a tuner-picked configuration equals the same
// configuration passed explicitly — serial, threaded and distributed),
// calibration text/cache round trips, the serve controller's control law
// (deadband, settle windows, clamps, trim/relax), and the windowed-metrics
// primitives it samples through.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "core/solver.hpp"
#include "dist/dist_lu.hpp"
#include "dist/dist_solver.hpp"
#include "dist/minimpi.hpp"
#include "sparse/generators.hpp"
#include "sparse/ops.hpp"
#include "tune/calibrate.hpp"
#include "tune/controller.hpp"
#include "tune/tuner.hpp"

namespace gesp {
namespace {

using sparse::CscMatrix;

CscMatrix<double> tune_matrix() {
  // Big enough that block size / schedule choices are non-trivial, small
  // enough that the tuner's per-candidate re-analysis stays cheap.
  return sparse::convdiff2d(40, 40, 1.0, 0.5);
}

std::vector<double> ones_rhs(const CscMatrix<double>& A) {
  std::vector<double> x_true(A.ncols, 1.0), b(A.ncols);
  sparse::spmv<double>(A, x_true, b);
  return b;
}

/// Bitwise equality of two solution vectors (memcmp, not tolerance).
bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// A model-policy SolverOptions with a probe-free tuner (default
/// Calibration: stock model constants, no microbenchmarks — deterministic
/// and fast, which is what the determinism tests need).
SolverOptions tuned_options(TunePolicy policy = TunePolicy::model) {
  SolverOptions opt;
  tune::attach_tuner(opt, policy, tune::make_tuner());
  return opt;
}

bool same_choice(const TuneDecision& a, const TuneDecision& b) {
  return a.changed == b.changed && a.max_block == b.max_block &&
         a.num_threads == b.num_threads &&
         a.precision == b.precision && a.pr == b.pr && a.pc == b.pc &&
         a.pipelined == b.pipelined;
}

// ---------------------------------------------------------------------------
// Tuner decision determinism
// ---------------------------------------------------------------------------

TEST(TunerDecide, DeterministicAcrossCallsAndInstances) {
  const auto A = tune_matrix();
  const auto b = ones_rhs(A);

  TuneDecision d[3];
  for (int i = 0; i < 3; ++i) {
    // Fresh tuner instance each round: decide() must be a pure function of
    // its inputs, with no hidden per-instance or global state.
    SolverOptions opt = tuned_options();
    opt.num_threads = 4;
    SolveStats s;
    solve<double>(A, b, opt, &s);
    ASSERT_TRUE(s.tuning.consulted);
    d[i] = s.tuning.decision;
  }
  EXPECT_TRUE(same_choice(d[0], d[1]));
  EXPECT_TRUE(same_choice(d[0], d[2]));
  EXPECT_EQ(d[0].predicted_seconds, d[1].predicted_seconds);
}

TEST(TunerDecide, NeverExceedsThreadBudget) {
  const auto A = tune_matrix();
  const auto b = ones_rhs(A);
  SolverOptions opt = tuned_options();
  opt.num_threads = 2;
  SolveStats s;
  solve<double>(A, b, opt, &s);
  ASSERT_TRUE(s.tuning.consulted);
  EXPECT_GE(s.tuning.decision.num_threads, 1);
  EXPECT_LE(s.tuning.decision.num_threads, 2);
}

TEST(TunerDecide, ProbeFeedbackNeverFlipsTheDecision) {
  // The probe correction scales *reported* predictions only; the argmin
  // comparisons use raw model times. This is what lets distributed ranks
  // with racing observe() calls still agree bit for bit.
  const auto A = tune_matrix();
  const auto b = ones_rhs(A);
  auto tuner = tune::make_tuner();

  SolverOptions opt;
  opt.num_threads = 4;
  tune::attach_tuner(opt, TunePolicy::model, tuner);
  SolveStats s1;
  solve<double>(A, b, opt, &s1);
  ASSERT_TRUE(s1.tuning.consulted);

  // Feed wildly wrong feedback, then re-decide on the same inputs.
  tuner->observe(s1.tuning.decision, 1e3);
  tuner->observe(s1.tuning.decision, 1e-9);
  SolveStats s2;
  solve<double>(A, b, opt, &s2);
  ASSERT_TRUE(s2.tuning.consulted);
  EXPECT_TRUE(same_choice(s1.tuning.decision, s2.tuning.decision));
}

TEST(TunerDecide, ReportIsObservable) {
  const auto A = tune_matrix();
  const auto b = ones_rhs(A);
  SolverOptions opt = tuned_options(TunePolicy::probe);
  opt.num_threads = 4;
  SolveStats s;
  solve<double>(A, b, opt, &s);

  ASSERT_TRUE(s.tuning.consulted);
  EXPECT_EQ(s.tuning.policy, TunePolicy::probe);
  EXPECT_EQ(s.tuning.default_block, opt.symbolic.max_block);
  EXPECT_GT(s.tuning.decision.predicted_seconds, 0.0);
  EXPECT_GT(s.tuning.decision.predicted_default_seconds, 0.0);
  EXPECT_GT(s.tuning.actual_factor_seconds, 0.0);
  EXPECT_GT(s.tuning.model_error, 0.0);
  EXPECT_FALSE(s.tuning.decision.note.empty());
  EXPECT_GE(metrics::global().counter("solver.tune.decisions").value(), 1);
}

// ---------------------------------------------------------------------------
// Bitwise guarantees around the tuner
// ---------------------------------------------------------------------------

TEST(TuneBitwise, OffIsTheDefaultPath) {
  const auto A = tune_matrix();
  const auto b = ones_rhs(A);
  for (int threads : {1, 4}) {
    SolverOptions plain;
    plain.num_threads = threads;
    SolveStats sp;
    const auto xp = solve<double>(A, b, plain, &sp);

    // Same request with a live tuner attached but the policy off: the
    // tuner must never be consulted and the answer is bitwise identical.
    SolverOptions off = tuned_options(TunePolicy::off);
    off.num_threads = threads;
    SolveStats so;
    const auto xo = solve<double>(A, b, off, &so);

    EXPECT_FALSE(so.tuning.consulted);
    EXPECT_TRUE(bitwise_equal(xp, xo)) << "threads=" << threads;
    EXPECT_EQ(sp.nnz_l, so.nnz_l);
    EXPECT_EQ(sp.flops, so.flops);
  }
}

TEST(TuneBitwise, TunedEqualsExplicitConfig) {
  const auto A = tune_matrix();
  const auto b = ones_rhs(A);
  SolverOptions opt = tuned_options();
  opt.num_threads = 4;
  SolveStats st;
  const auto xt = solve<double>(A, b, opt, &st);
  ASSERT_TRUE(st.tuning.consulted);
  const TuneDecision& d = st.tuning.decision;

  // Replay the tuner's pick as an explicit, tuner-free request.
  SolverOptions ex;
  ex.num_threads = 4;
  if (d.changed) {
    if (d.max_block > 0) ex.symbolic.max_block = d.max_block;
    ex.num_threads = d.num_threads;
    ex.precision = d.precision;
  }
  SolveStats se;
  const auto xe = solve<double>(A, b, ex, &se);

  EXPECT_TRUE(bitwise_equal(xt, xe));
  EXPECT_EQ(st.nnz_l, se.nnz_l);
  EXPECT_EQ(st.nnz_u, se.nnz_u);
  EXPECT_EQ(st.nsup, se.nsup);
}

/// Factor A on a 4-rank world, gathering the factors and the (reduced,
/// broadcast — identical on every rank) stats onto the caller. The bitwise
/// guarantee under tuning is about the FACTORIZATION: the distributed
/// triangular solve reduces partial sums in message-arrival order, so the
/// solution vector was never run-to-run bitwise on this backend.
struct DistFactor {
  CscMatrix<double> L, U;
  SolveStats stats;
};

DistFactor dist_factor(const CscMatrix<double>& A, const SolverOptions& opt) {
  DistFactor out;
  minimpi::World world(4);
  world.run([&](minimpi::Comm& comm) {
    dist::DistSolver<double> ds(comm, A, opt);
    auto L = ds.lu().gather_l(comm);
    auto U = ds.lu().gather_u(comm);
    if (comm.rank() == 0) {
      out.L = std::move(L);
      out.U = std::move(U);
      out.stats = ds.stats();
    }
  });
  return out;
}

bool bitwise_equal(const CscMatrix<double>& A, const CscMatrix<double>& B) {
  return A.colptr == B.colptr && A.rowind == B.rowind &&
         A.values.size() == B.values.size() &&
         std::memcmp(A.values.data(), B.values.data(),
                     A.values.size() * sizeof(double)) == 0;
}

TEST(TuneBitwise, DistOffIsTheDefaultPath) {
  const auto A = sparse::convdiff2d(24, 24, 1.0, 0.5);
  SolverOptions plain;
  plain.backend = Backend::dist;
  plain.dist.nprocs = 4;
  const auto fp = dist_factor(A, plain);

  SolverOptions off = tuned_options(TunePolicy::off);
  off.backend = Backend::dist;
  off.dist.nprocs = 4;
  const auto fo = dist_factor(A, off);

  EXPECT_FALSE(fo.stats.tuning.consulted);
  EXPECT_TRUE(bitwise_equal(fp.L, fo.L));
  EXPECT_TRUE(bitwise_equal(fp.U, fo.U));
  EXPECT_EQ(fp.stats.pivots_replaced, fo.stats.pivots_replaced);
}

TEST(TuneBitwise, DistTunedEqualsExplicitConfig) {
  const auto A = sparse::convdiff2d(24, 24, 1.0, 0.5);
  SolverOptions opt = tuned_options();
  opt.backend = Backend::dist;
  opt.dist.nprocs = 4;
  const auto ft = dist_factor(A, opt);
  ASSERT_TRUE(ft.stats.tuning.consulted);
  const TuneDecision& d = ft.stats.tuning.decision;

  SolverOptions ex;
  ex.backend = Backend::dist;
  ex.dist.nprocs = 4;
  if (d.changed) {
    if (d.max_block > 0) ex.symbolic.max_block = d.max_block;
    if (d.pr > 0 && d.pc > 0) {
      ex.dist.pr = d.pr;
      ex.dist.pc = d.pc;
    }
    ex.dist.pipelined = d.pipelined;
  }
  const auto fe = dist_factor(A, ex);

  EXPECT_TRUE(bitwise_equal(ft.L, fe.L));
  EXPECT_TRUE(bitwise_equal(ft.U, fe.U));
  EXPECT_EQ(ft.stats.nnz_l, fe.stats.nnz_l);
  EXPECT_EQ(ft.stats.nsup, fe.stats.nsup);
  EXPECT_EQ(ft.stats.pivot_growth, fe.stats.pivot_growth);
}

// ---------------------------------------------------------------------------
// Calibration persistence
// ---------------------------------------------------------------------------

tune::Calibration sample_calibration() {
  tune::Calibration cal;
  cal.flop_rate = 3.5e9;
  cal.block_half = 9.25;
  cal.latency_s = 2e-6;
  cal.bandwidth_Bps = 5.5e9;
  cal.pair_overhead_s = 1.5e-7;
  cal.task_overhead_s = 8e-7;
  cal.kernels = {{16, 1.0, 0.5, 0.25}, {48, 3.0, 2.0, 1.0}};
  cal.measured = true;
  cal.source = "measured";
  return cal;
}

TEST(Calibration, TextRoundTrip) {
  const auto cal = sample_calibration();
  tune::Calibration back;
  ASSERT_TRUE(tune::Calibration::from_text(cal.to_text(), &back));
  EXPECT_EQ(back.source, "cache");
  EXPECT_TRUE(back.measured);
  EXPECT_DOUBLE_EQ(back.flop_rate, cal.flop_rate);
  EXPECT_DOUBLE_EQ(back.block_half, cal.block_half);
  EXPECT_DOUBLE_EQ(back.latency_s, cal.latency_s);
  EXPECT_DOUBLE_EQ(back.bandwidth_Bps, cal.bandwidth_Bps);
  EXPECT_DOUBLE_EQ(back.pair_overhead_s, cal.pair_overhead_s);
  EXPECT_DOUBLE_EQ(back.task_overhead_s, cal.task_overhead_s);
  ASSERT_EQ(back.kernels.size(), cal.kernels.size());
  EXPECT_EQ(back.kernels[1].b, cal.kernels[1].b);
  EXPECT_DOUBLE_EQ(back.kernels[1].gemm_gflops, cal.kernels[1].gemm_gflops);
}

TEST(Calibration, FromTextRejectsGarbage) {
  tune::Calibration out;
  EXPECT_FALSE(tune::Calibration::from_text("", &out));
  EXPECT_FALSE(tune::Calibration::from_text("not a cache file\n", &out));
  EXPECT_FALSE(
      tune::Calibration::from_text("gesp-tune-cache v999\nflop_rate 1\n", &out));
}

TEST(Calibration, CacheShortCircuitsTheProbes) {
  const std::string path =
      ::testing::TempDir() + "gesp_tune_cache_test.txt";
  std::remove(path.c_str());
  ASSERT_TRUE(tune::save_calibration(sample_calibration(), path));

  // A readable cache must be used verbatim — no probes (a probed result
  // could not reproduce these synthetic constants).
  const auto cal = tune::calibrate_cached({}, path);
  EXPECT_EQ(cal.source, "cache");
  EXPECT_DOUBLE_EQ(cal.flop_rate, 3.5e9);

  tune::Calibration loaded;
  ASSERT_TRUE(tune::load_calibration(path, &loaded));
  EXPECT_DOUBLE_EQ(loaded.block_half, 9.25);
  std::remove(path.c_str());
}

TEST(Calibration, StaleVersionIsReprobedAndRewritten) {
  // A v1 cache body is refused even when every key still parses, so the
  // cached path re-probes and rewrites the file instead of reusing
  // constants fitted for a different cost model.
  std::string v1 = sample_calibration().to_text();
  v1.replace(0, v1.find('\n'), "gesp-tune-cache v1");
  tune::Calibration out;
  EXPECT_FALSE(tune::Calibration::from_text(v1, &out));

  const std::string path =
      ::testing::TempDir() + "gesp_tune_cache_v1_test.txt";
  {
    std::ofstream f(path, std::ios::trunc);
    f << v1;
  }
  tune::CalibrateOptions quick;
  quick.blocks = {8, 16};
  quick.reps = 1;
  quick.comm_probes = false;
  const auto cal = tune::calibrate_cached(quick, path);
  EXPECT_EQ(cal.source, "measured");
  EXPECT_NE(cal.flop_rate, 3.5e9);

  tune::Calibration rewritten;
  ASSERT_TRUE(tune::load_calibration(path, &rewritten));
  EXPECT_DOUBLE_EQ(rewritten.flop_rate, cal.flop_rate);
  EXPECT_EQ(rewritten.kernels.size(), 2u);
  std::remove(path.c_str());
}

TEST(Calibration, DefaultMatchesPerfModelConstants) {
  // An unmeasured Calibration must price exactly as the stock perf model:
  // that is what keeps make_tuner() deterministic in tests and keeps the
  // model policy usable before any probe has run.
  const tune::Calibration cal;
  EXPECT_FALSE(cal.measured);
  const dist::MachineModel m = cal.machine();
  EXPECT_DOUBLE_EQ(m.flop_rate, cal.flop_rate);
  EXPECT_DOUBLE_EQ(m.latency, cal.latency_s);
  EXPECT_DOUBLE_EQ(m.bandwidth, cal.bandwidth_Bps);
  EXPECT_GT(cal.rate(48), cal.rate(8));  // saturating, monotone in b
}

// ---------------------------------------------------------------------------
// Serve controller control law
// ---------------------------------------------------------------------------

tune::ControllerInput hot_window(double p99_us = 120e3) {
  tune::ControllerInput in;
  in.window_s = 0.25;
  in.arrival_rate = 100.0;
  in.p50_us = p99_us * 0.5;
  in.p99_us = p99_us;
  in.completed = 20;
  in.queue_depth = 8.0;
  return in;
}

tune::ControllerInput cold_window() {
  tune::ControllerInput in;
  in.window_s = 0.25;
  in.arrival_rate = 2.0;
  in.p50_us = 500.0;
  in.p99_us = 1000.0;
  in.completed = 5;
  in.queue_depth = 0.0;
  return in;
}

TEST(ServeController, HotTrimsAfterSettleWindows) {
  const tune::ServeKnobs configured{8, 1e-3, 0.75};
  tune::ServeController c(configured, {});  // target 50ms, settle 2

  EXPECT_EQ(c.step(hot_window()), configured);  // streak 1: hold
  const tune::ServeKnobs k = c.step(hot_window());
  EXPECT_EQ(k.max_batch, 16);                // batch harder
  EXPECT_DOUBLE_EQ(k.batch_linger_s, 5e-4);  // stop lingering
  EXPECT_DOUBLE_EQ(k.shed_fraction, 0.6);    // shed earlier
  EXPECT_EQ(c.stats().trims, 1);
  EXPECT_EQ(c.stats().windows, 2);
}

TEST(ServeController, DeadbandHolds) {
  const tune::ServeKnobs configured{8, 1e-3, 0.75};
  tune::ServeController c(configured, {});
  // p99 inside [low_band, high_band]·target: nothing may move, ever.
  auto in = hot_window(50e3);
  in.queue_depth = 0.0;
  for (int i = 0; i < 10; ++i) EXPECT_EQ(c.step(in), configured);
  EXPECT_EQ(c.stats().trims, 0);
  EXPECT_EQ(c.stats().relaxes, 0);
}

TEST(ServeController, IdleWindowsHoldState) {
  const tune::ServeKnobs configured{8, 1e-3, 0.75};
  tune::ServeController c(configured, {});
  // Silence is not health: an idle window must not feed the cold streak.
  tune::ControllerInput idle;
  idle.window_s = 0.25;
  for (int i = 0; i < 10; ++i) EXPECT_EQ(c.step(idle), configured);
  EXPECT_EQ(c.stats().relaxes, 0);
}

TEST(ServeController, SaturationWithoutCompletionsIsHot) {
  const tune::ServeKnobs configured{8, 0.0, 0.75};
  tune::ServeController c(configured, {});
  tune::ControllerInput in;
  in.window_s = 0.25;
  in.arrival_rate = 50.0;
  in.completed = 0;  // nothing finished...
  in.queue_depth = 30.0;  // ...but work is piling up: no quantile, still hot
  c.step(in);
  const tune::ServeKnobs k = c.step(in);
  EXPECT_GT(k.max_batch, configured.max_batch);
  EXPECT_LT(k.shed_fraction, configured.shed_fraction);
}

TEST(ServeController, ColdRelaxesBackTowardConfigured) {
  const tune::ServeKnobs configured{8, 1e-3, 0.75};
  tune::ServeController c(configured, {});
  // Trim once...
  c.step(hot_window());
  c.step(hot_window());
  ASSERT_EQ(c.stats().trims, 1);
  // ...then a calm stretch: relaxes walk every knob back to configured.
  for (int i = 0; i < 40; ++i) c.step(cold_window());
  EXPECT_GT(c.stats().relaxes, 0);
  EXPECT_EQ(c.knobs(), configured);
}

TEST(ServeController, ClampsBoundEveryKnob) {
  const tune::ServeKnobs configured{8, 1e-3, 0.75};
  tune::ControllerOptions opt;
  opt.max_batch = 32;
  opt.min_shed = 0.25;
  tune::ServeController c(configured, opt);
  for (int i = 0; i < 50; ++i) c.step(hot_window());
  EXPECT_EQ(c.knobs().max_batch, 32);
  EXPECT_DOUBLE_EQ(c.knobs().shed_fraction, 0.25);
  EXPECT_DOUBLE_EQ(c.knobs().batch_linger_s, 0.0);
  // Configured values outside the clamp range are clamped at construction.
  tune::ServeController tight({1000, 1.0, 2.0}, opt);
  EXPECT_EQ(tight.knobs().max_batch, 32);
  EXPECT_DOUBLE_EQ(tight.knobs().shed_fraction, 1.0);
}

// ---------------------------------------------------------------------------
// Windowed metrics primitives
// ---------------------------------------------------------------------------

TEST(MetricsWindow, SnapshotAndResetDrains) {
  metrics::Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  const auto snap = h.snapshot_and_reset();
  EXPECT_EQ(snap.count, 100);
  EXPECT_DOUBLE_EQ(snap.sum, 5050.0);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
  EXPECT_GT(snap.quantile(0.99), snap.quantile(0.10));
  // Drained: the histogram starts a fresh window.
  const auto empty = h.snapshot_and_reset();
  EXPECT_EQ(empty.count, 0);
  EXPECT_DOUBLE_EQ(empty.quantile(0.99), 0.0);
  h.record(7.0);
  EXPECT_EQ(h.snapshot_and_reset().count, 1);
}

TEST(MetricsWindow, RateWindowIsNonDestructive) {
  metrics::Counter c;
  metrics::RateWindow w(c);
  EXPECT_DOUBLE_EQ(w.tick(10.0), 0.0);  // first tick establishes the window
  for (int i = 0; i < 50; ++i) c.inc();
  EXPECT_DOUBLE_EQ(w.tick(12.0), 25.0);
  EXPECT_EQ(c.value(), 50);  // the lifetime counter is untouched
  c.inc(10);
  EXPECT_DOUBLE_EQ(w.tick(13.0), 10.0);
  EXPECT_DOUBLE_EQ(w.tick(14.0), 0.0);  // quiet window
}

TEST(MetricsWindow, ConcurrentSnapshotsLoseNothing) {
  // Writers hammer the histogram while a sampler drains it in a loop (the
  // adapt thread's exact access pattern); every record must land in
  // exactly one snapshot. Run under TSan to check the memory ordering.
  metrics::Histogram h;
  constexpr int kWriters = 4;
  constexpr int kEach = 20000;
  std::atomic<bool> done{false};
  count_t drained = 0;
  std::thread sampler([&] {
    while (!done.load(std::memory_order_acquire))
      drained += h.snapshot_and_reset().count;
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t)
    writers.emplace_back([&h, t] {
      for (int i = 0; i < kEach; ++i)
        h.record(static_cast<double>(t * kEach + i));
    });
  for (auto& th : writers) th.join();
  done.store(true, std::memory_order_release);
  sampler.join();
  drained += h.snapshot_and_reset().count;
  EXPECT_EQ(drained, static_cast<count_t>(kWriters) * kEach);
}

TEST(MetricsWindow, ConcurrentRateTicks) {
  metrics::Counter c;
  metrics::RateWindow w(c);
  w.tick(0.0);
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t)
    writers.emplace_back([&c] {
      for (int i = 0; i < 50000; ++i) c.inc();
    });
  double seen = 0.0;
  for (int k = 1; k <= 100; ++k) seen += w.tick(static_cast<double>(k));
  for (auto& th : writers) th.join();
  seen += w.tick(101.0);
  EXPECT_DOUBLE_EQ(seen, 200000.0);  // every increment counted exactly once
}

}  // namespace
}  // namespace gesp
