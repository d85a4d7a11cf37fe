// Typed metrics registry — counters, gauges and histograms with stable
// references, replacing the ad-hoc stat fields that used to be scattered
// through the transport and the solver.
//
// Concurrency model: metric objects are plain atomics, safe to update from
// any thread (task-DAG workers, MiniMPI rank threads) with no locking; the
// registry map itself is mutex-protected and hands out references that
// stay valid for the registry's lifetime, so hot paths look a metric up
// once and then update it lock free.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace gesp::metrics {

/// Monotonic integer counter (messages sent, pivots replaced, ...).
class Counter {
 public:
  void inc(count_t delta = 1) noexcept {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  count_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<count_t> v_{0};
};

/// Last-written double (berr, pivot growth, queue depth, ...).
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> v_{0.0};
};

/// Lock-free histogram over power-of-two buckets: bucket k counts samples
/// in (2^(k-1), 2^k] (bucket 0 counts v <= 1). Tracks count/sum/min/max
/// exactly; the buckets give the shape (message sizes, task durations).
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void record(double v) noexcept;

  count_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  double min() const noexcept { return min_.load(std::memory_order_relaxed); }
  double max() const noexcept { return max_.load(std::memory_order_relaxed); }
  double mean() const noexcept {
    const count_t c = count();
    return c > 0 ? sum() / static_cast<double>(c) : 0.0;
  }
  count_t bucket(int k) const noexcept {
    return buckets_[static_cast<std::size_t>(k)].load(
        std::memory_order_relaxed);
  }

  /// Approximate q-quantile (q in [0,1]) from the power-of-two buckets:
  /// linear interpolation inside the bucket where the cumulative count
  /// crosses q·count, clamped to the exact [min, max]. Resolution is a
  /// factor of two, so record latencies in microseconds (not seconds) to
  /// keep sub-second tails distinguishable. Returns 0 when empty.
  double quantile(double q) const noexcept;

  /// Fold another histogram's samples into this one: bucket counts add,
  /// count/sum add, min/max widen. Quantiles computed afterwards come from
  /// the merged bucket counts, not either operand alone — the serving tier
  /// aggregates per-rank serve.latency histograms this way. `other` should
  /// be quiescent while merged (concurrent record() on it may be missed).
  void merge(const Histogram& other) noexcept;

  /// merge() from raw components — the wire form used when a histogram
  /// arrives from another rank as a flat blob. `buckets` must hold kBuckets
  /// entries.
  void merge_raw(count_t count, double sum, double mn, double mx,
                 const count_t* buckets) noexcept;

  void reset() noexcept;

 private:
  std::atomic<count_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
  std::atomic<count_t> buckets_[kBuckets] = {};
};

/// Named metric collection. counter()/gauge()/histogram() create on first
/// use and return a stable reference; requesting an existing name as a
/// different type throws Errc::invalid_argument.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Read-only lookups: nullptr when absent (no creation on the read path).
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  /// Zero every metric (entries stay registered; references stay valid).
  void reset();

  /// Registered names, sorted, with a type tag ("counter"/"gauge"/
  /// "histogram") — the iteration hook for tests and exporters.
  std::vector<std::pair<std::string, std::string>> names() const;

  /// JSON object {"name":{"type":...,...},...} — suitable for embedding in
  /// the Chrome trace export or a standalone metrics file.
  std::string to_json() const;

 private:
  enum class Kind { counter, gauge, histogram };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> c;
    std::unique_ptr<Gauge> g;
    std::unique_ptr<Histogram> h;
  };
  Entry& get(const std::string& name, Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

/// Process-wide registry: the transport, the scheduler and the solver all
/// publish here (names are dot-prefixed per subsystem: "minimpi.*",
/// "taskgraph.*", "solver.*").
Registry& global();

}  // namespace gesp::metrics
