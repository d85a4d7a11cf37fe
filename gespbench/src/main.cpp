// gespbench — the repository benchmark program.
//
//   gespbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--commit ID]
//   gespbench --list-requests COUNT --workload NAME --seed N
//
// Prints a `provenance` line, a `detail` line and, last, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Exits 1 when any answer
// failed its check, 2 on a usage or internal error (without a result line).
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

std::string quote(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o + "\"";
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const char* msg) {
  std::cerr << "gespbench: " << msg
            << "\nusage: gespbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--commit ID]\n"
               "       gespbench --list-requests COUNT --workload NAME "
               "--seed N\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  gespbench::Args a;
  std::string commit = "unknown";
  int list = 0;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string k = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + k).c_str());
      const std::string v = argv[++i];
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--trace-out") a.trace_out = v;
      else if (k == "--commit") commit = v;
      else if (k == "--list-requests") list = std::stoi(v);
      else return usage(("unknown argument " + k).c_str());
    }
  } catch (const std::exception&) {
    return usage("malformed argument value");
  }
  bool known = false;
  for (const auto& w : gespbench::workload_names()) known |= w == a.workload;
  if (!known) return usage(("unknown workload '" + a.workload + "'").c_str());
  if (!(a.seconds > 0)) return usage("--seconds must be positive");

  try {
    if (list > 0) {
      for (const auto& l : gespbench::describe_requests(a.workload, a.seed, list))
        std::cout << l << '\n';
      return 0;
    }
    a.provenance = "{\"nproc\": " +
                   std::to_string(std::thread::hardware_concurrency()) +
                   ", \"build_type\": " + quote(GESPBENCH_BUILD_TYPE) +
                   ", \"compiler\": " + quote(GESPBENCH_COMPILER) +
                   ", \"commit\": " + quote(commit) +
                   ", \"workload\": " + quote(a.workload) +
                   ", \"seed\": " + std::to_string(a.seed) +
                   ", \"seconds\": " + num(a.seconds) +
                   ", \"trace\": " + (a.trace ? "1" : "0") + "}";
    const gespbench::Result r = gespbench::run_workload(a);

    std::cout << "provenance " << a.provenance << '\n';
    std::cout << "detail {";
    for (std::size_t i = 0; i < r.detail.size(); ++i)
      std::cout << (i ? ", " : "") << quote(r.detail[i].first) << ": "
                << r.detail[i].second;
    std::cout << "}\n";

    bool finite = true;
    std::string metrics;
    for (const auto& m : r.metrics) {
      finite = finite && std::isfinite(m.value);
      metrics += (metrics.empty() ? "" : ", ") + quote(m.name) +
                 ": {\"value\": " + num(std::isfinite(m.value) ? m.value : 0.0) +
                 ", \"unit\": " + quote(m.unit) + "}";
    }
    if (!finite) std::cerr << "gespbench: a metric is not finite\n";
    const bool correct = r.failed == 0 && finite;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << r.attempted
              << ", \"failed\": " << r.failed << ", \"metrics\": {" << metrics
              << "}}" << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "gespbench: " << e.what() << '\n';
    return 2;
  }
}
