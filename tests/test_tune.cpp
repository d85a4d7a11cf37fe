// src/tune tests: the serve controller's control law (deadband, settle
// windows, clamps, trim/relax) and the windowed-metrics primitives it
// samples through.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "tune/controller.hpp"

namespace gesp {
namespace {

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
