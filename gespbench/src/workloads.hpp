// The benchmark workloads. Each drives the public API from outside (Solver,
// SolverService), checks every answer against the known all-ones solution,
// and reports its metrics by name with their units.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace gespbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;   ///< chrome trace path for the traced run
  std::string provenance;  ///< JSON object, copied into the trace file
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
  /// Extra facts for the report line (request counts behind percentiles,
  /// route counts, ...), as JSON members `"key": value`.
  std::vector<std::pair<std::string, std::string>> detail;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& key, const std::string& json) {
    detail.emplace_back(key, json);
  }
};

/// Workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Run one workload: the untraced end-to-end run, or the traced per-layer
/// run when args.trace is set.
Result run_workload(const Args& args);

/// The first `count` requests of a workload's stream for `seed`, one line
/// each, including a digest of the generated input values — what the
/// self-tests compare across seeds.
std::vector<std::string> describe_requests(const std::string& workload,
                                           std::uint64_t seed, int count);

}  // namespace gespbench
