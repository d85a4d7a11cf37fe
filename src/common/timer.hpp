// Wall-clock timing helpers used by the driver and the benchmark harness.
#pragma once

#include <chrono>
#include <map>
#include <string>

#include "common/types.hpp"

namespace gesp {

/// Simple monotonic stopwatch; seconds as double.
class Timer {
 public:
  Timer() : start_(clock::now()) {}

  /// Restart the stopwatch.
  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Accumulates named phase timings (factor, solve, ...). Used by SolveStats.
///
/// Phases are recorded per *epoch* (one epoch == one public driver call:
/// construction, solve(), refactorize(), ...). get() reports the latest
/// epoch in which the phase was recorded — "how long did the last solve's
/// refinement take" — while total() accumulates across the object's whole
/// life. Several add() calls within one epoch sum (a recovery ladder
/// factors several times inside one solve); a new epoch restarts the
/// phase's last-call value at its next add(). Without new_epoch() calls
/// everything lands in one epoch, so get() == total() — the historical
/// behaviour.
class PhaseTimes {
 public:
  /// Add `seconds` to phase `name` (in the current epoch).
  void add(const std::string& name, double seconds);

  /// Start a new epoch: each phase's next add() replaces its last-call
  /// value instead of summing into it. Phases untouched afterwards keep
  /// reporting their most recent recorded epoch.
  void new_epoch();

  /// Seconds recorded for `name` in its latest epoch (0 if never).
  double get(const std::string& name) const;

  /// Seconds recorded for `name` across all epochs (0 if never).
  double total(const std::string& name) const;

  /// Number of add() calls for `name` across all epochs.
  count_t calls(const std::string& name) const;

  /// Latest-epoch value per phase (the per-call report).
  std::map<std::string, double> all() const;

  /// Cumulative value per phase (safe to sum — no double counting).
  std::map<std::string, double> all_totals() const;

  /// fn(name, latest-epoch value, cumulative value) for every phase, in
  /// name order, without building a map.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [name, e] : times_) fn(name, e.last, e.total);
  }

 private:
  struct Entry {
    double last = 0.0;   ///< sum within the latest recorded epoch
    double total = 0.0;  ///< sum across every epoch
    count_t calls = 0;
    long epoch = 0;  ///< epoch `last` belongs to
  };
  std::map<std::string, Entry> times_;
  long epoch_ = 0;
};

}  // namespace gesp
