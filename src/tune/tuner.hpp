// Analyze-time configuration search: the concrete TunerBase the solvers
// consult after symbolic analysis.
//
// The search space is the knobs the paper (and nine PRs of experiments)
// showed matter per matrix:
//   * max supernode block size — re-runs the cheap symbolic analysis per
//     candidate so each block size is priced against the structure it
//     actually produces (fill from relaxation vs kernel rate vs pair
//     overhead);
//   * thread count — the task DAG at p threads vs one thread, priced as
//     max(work/p, critical path) + per-task overhead, which is what makes
//     the tuner drop tiny circuit matrices back to one thread;
//   * grid shape and look-ahead (distributed) — every candidate is replayed
//     through dist::simulate_factorization with the calibrated machine;
//   * precision — optional (off by default): mixed-precision demotion is a
//     numerics change, not just a performance one, so it must be asked for.
//
// decide() is deterministic in its inputs: no clocks, no RNG, no global
// state. The distributed driver relies on this — every rank calls decide()
// collectively and they must agree bit for bit.
#pragma once

#include <memory>
#include <mutex>

#include "core/solver.hpp"
#include "tune/calibrate.hpp"

namespace gesp::tune {

struct TunerOptions {
  /// Candidate block sizes (the requested one is always considered too).
  std::vector<index_t> block_candidates{8, 12, 16, 24, 32, 48};
  bool tune_block = true;
  bool tune_schedule = true;  ///< thread count: p threads vs one
  bool tune_grid = true;      ///< dist only: grid shape + look-ahead
  /// Allow proposing Precision::mixed for double requests on wide-supernode
  /// matrices. Off by default: precision changes answers, not just time.
  bool allow_precision = false;
  /// A candidate must beat the requested configuration's predicted cost by
  /// this factor before the tuner overrides anything — hysteresis against
  /// model noise flapping equivalent configurations.
  double min_gain = 1.05;
};

/// Model-predicted cost decomposition for one candidate (also the hook the
/// tests use to check the model orders configurations sanely).
struct PredictedCost {
  double seconds = 0.0;
  double flop_seconds = 0.0;      ///< compute term
  double overhead_seconds = 0.0;  ///< pair + scheduling overhead term
};

class Tuner : public TunerBase {
 public:
  explicit Tuner(Calibration cal, TunerOptions opt = {});

  TuneDecision decide(const TuneInputs& in) override;
  void observe(const TuneDecision& decision, double actual_seconds) override;

  const Calibration& calibration() const { return cal_; }
  const TunerOptions& options() const { return opt_; }
  /// Probe-mode multiplicative correction (actual/predicted EWMA), 1.0
  /// until the first observe().
  double correction() const;

  /// Shared-memory cost model for one (structure, threads) configuration;
  /// public for tests and the bench.
  PredictedCost predict(const symbolic::SymbolicLU& S,
                        int num_threads) const;

 private:
  TuneDecision decide_shared(const TuneInputs& in);
  TuneDecision decide_dist(const TuneInputs& in);

  Calibration cal_;
  TunerOptions opt_;
  mutable std::mutex mu_;  ///< guards correction_ (observe vs decide)
  double correction_ = 1.0;
};

/// Build a tuner as the abstract handle SolverOptions carries. A
/// default-constructed Calibration prices with the model's stock constants;
/// pass calibrate_cached() output for measured ones.
std::shared_ptr<TunerBase> make_tuner(Calibration cal = {},
                                      TunerOptions opt = {});

/// Process-wide tuner over a cached calibration (GESP_TUNE_CACHE honored);
/// calibrates on first use, then shared by every caller.
std::shared_ptr<TunerBase> default_tuner();

/// Convenience: opt.tune = {policy, tuner-or-default_tuner()}.
void attach_tuner(SolverOptions& opt, TunePolicy policy,
                  std::shared_ptr<TunerBase> tuner = nullptr);

}  // namespace gesp::tune
