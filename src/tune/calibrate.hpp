// Calibration: one-shot microbenchmarks that fit the performance model's
// machine constants from THIS host instead of the hardcoded Cray T3E-900
// defaults the model shipped with.
//
// Three probe families, all against code the solver actually runs:
//   * dense kernels — GEMM/TRSM/GETRF on b-by-b blocks across block sizes,
//     fitting the saturating rate curve rate(b) = R·b/(b+h) of
//     dist::MachineModel by linearized least squares;
//   * update-pair overhead — the per-(supernode, destination-block) cost
//     (block lookup, position mapping, scatter) PR 7's profiling showed
//     dominates small-supernode matrices, measured as the per-call cost of
//     a tiny GEMM;
//   * scheduler overhead — the per-task cost of a mutex+condvar work queue
//     (the task DAG's enqueue+dispatch), microseconds-scale and decisive
//     for small matrices where one thread beats the parallel run;
//   * MiniMPI transport — ping-pong for per-message latency (alpha) and a
//     large-message round trip for bandwidth (beta), plus an allreduce
//     sanity probe.
//
// A calibration is cacheable to disk (GESP_TUNE_CACHE) as a small
// versioned key-value text file, so a serving fleet pays the probe cost
// once per machine, not once per process.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "dist/perfmodel.hpp"

namespace gesp::tune {

/// Measured kernel rates at one block size (GF/s = 1e9 flops/s).
struct KernelSample {
  index_t b = 0;
  double gemm_gflops = 0.0;
  double trsm_gflops = 0.0;
  double getrf_gflops = 0.0;
};

/// Fitted machine constants — the tuner's view of the host. Defaults are
/// the perf model's T3E-era constants, so an unmeasured Calibration prices
/// configurations exactly as the uncalibrated model always did.
struct Calibration {
  double flop_rate = 120e6;  ///< R of rate(b) = R·b/(b+h), flops/s
  double block_half = 12.0;  ///< h: block size at half the peak rate
  double latency_s = 15e-6;  ///< per-message transport latency (alpha)
  double bandwidth_Bps = 200e6;  ///< transport bandwidth in bytes/s (beta)
  /// Per-update-pair overhead of the supernodal update loop (seconds per
  /// (source supernode, destination block) pair): lookup + scatter cost.
  double pair_overhead_s = 2.5e-7;
  /// Per-task overhead of the task-DAG scheduler (enqueue + dispatch
  /// through a mutex+condvar work queue).
  double task_overhead_s = 1.0e-6;
  std::vector<KernelSample> kernels;  ///< raw points behind the fit
  bool measured = false;              ///< false: defaults, never probed
  std::string source = "default";     ///< "measured" | "cache" | "default"

  double rate(double b) const {
    return flop_rate * b / (b + block_half);
  }
  /// The distributed perf model's machine, from the fitted constants.
  dist::MachineModel machine(double word_bytes = 8.0) const {
    dist::MachineModel m;
    m.flop_rate = flop_rate;
    m.block_half = block_half;
    m.latency = latency_s;
    m.bandwidth = bandwidth_Bps;
    m.word_bytes = word_bytes;
    return m;
  }

  /// Cache-file body (versioned key-value text) and its inverse. from_text
  /// rejects unknown versions and malformed lines; on success the result
  /// has source == "cache".
  std::string to_text() const;
  static bool from_text(const std::string& text, Calibration* out);
};

struct CalibrateOptions {
  std::vector<index_t> blocks{8, 12, 16, 24, 32, 48};
  int reps = 5;             ///< min-of-reps timing per kernel point
  bool comm_probes = true;  ///< MiniMPI ping-pong / allreduce probes
  int pingpong_msgs = 64;   ///< messages per ping-pong batch
};

/// Run the microbenchmarks and fit the constants (seconds of work).
Calibration calibrate(const CalibrateOptions& opt = {});

/// calibrate() behind a disk cache: `cache_path` (or, when empty, the
/// GESP_TUNE_CACHE environment variable) names the cache file. A readable,
/// parsable cache short-circuits the probes; otherwise the probes run and
/// the result is written back. No path configured → plain calibrate().
Calibration calibrate_cached(const CalibrateOptions& opt = {},
                             const std::string& cache_path = "");

bool save_calibration(const Calibration& cal, const std::string& path);
bool load_calibration(const std::string& path, Calibration* out);

}  // namespace gesp::tune
