// What gesp_solve and gesp_serve share: flag values, per-category exit
// codes and the --trace / --metrics-json writers.
#pragma once

#include <cstdio>
#include <cstring>
#include <string>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "core/solver.hpp"

namespace gesp::cli {

/// The value of `arg` when it reads `flag=value`, else null.
inline const char* value_of(const char* arg, const char* flag) {
  const std::size_t n = std::strlen(flag);
  if (std::strncmp(arg, flag, n) == 0 && arg[n] == '=') return arg + n + 1;
  return nullptr;
}

/// The thread-count rule both tools add to the options contract: Solver
/// quietly runs the serial backend on one thread, but a command line that
/// asks for more is a usage error. Null when the pair is fine.
inline const char* serial_threads_error(Backend backend, int threads) {
  return backend == Backend::serial && threads > 1
             ? "--threads > 1 needs --backend=threaded; the serial backend "
               "runs one thread"
             : nullptr;
}

/// Distinct exit code per failure category (listed in each tool's usage).
inline int exit_code_for(Errc c) {
  switch (c) {
    case Errc::invalid_argument:
      return 3;
    case Errc::io:
      return 4;
    case Errc::structurally_singular:
      return 5;
    case Errc::numerically_singular:
      return 6;
    case Errc::unstable:
      return 7;
    case Errc::comm:
      return 8;
    case Errc::internal:
      return 9;
    case Errc::overloaded:
      return 10;
  }
  return 9;
}

/// Stop tracing and write the captures a run asked for. The same file for
/// --trace and --metrics-json gives one combined JSON object; Chrome's
/// viewer ignores the extra top-level "metrics" member.
inline void write_captures(const std::string& trace_path,
                           const std::string& metrics_path) {
  if (!trace_path.empty()) {
    trace::stop();
    std::string extra;
    if (metrics_path == trace_path)
      extra = "\"metrics\":" + metrics::global().to_json();
    trace::write_chrome_json(trace_path, extra);
    std::fprintf(stderr, "trace       %zu events -> %s\n",
                 trace::event_count(), trace_path.c_str());
  }
  if (!metrics_path.empty() && metrics_path != trace_path) {
    const std::string json = metrics::global().to_json();
    std::FILE* f = std::fopen(metrics_path.c_str(), "w");
    GESP_CHECK(f != nullptr, Errc::io,
               "cannot open metrics file " + metrics_path);
    std::fwrite(json.data(), 1, json.size(), f);
    GESP_CHECK(std::fclose(f) == 0, Errc::io,
               "short write to metrics file " + metrics_path);
  }
}

}  // namespace gesp::cli
