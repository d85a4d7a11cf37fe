// In-memory span recorder for the traced benchmark run.
//
// The traced run wraps every call it makes into a GESP layer in a span named
// after that layer's module ("core.transform", "symbolic", "numeric", ...).
// Spans carry the request they belong to (-1 for set-up work) and their
// parent span.
// Nothing is written until the run ends (write_chrome_trace).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace gespbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  const char* name = nullptr;  ///< static string
  std::int64_t start_ns = 0;   ///< since the recorder was created
  std::int64_t end_ns = 0;
  std::int64_t request = -1;   ///< request id; -1 = set-up
  int parent = -1;             ///< index of the enclosing span; -1 = root
};

/// Per-name aggregate over a selection of spans.
struct SpanTotals {
  double total_s = 0.0;  ///< summed durations
  long calls = 0;
};

class Tracer {
 public:
  Tracer();

  /// Spans opened from now on belong to request `id` (-1 = set-up).
  void set_request(std::int64_t id) { request_ = id; }

  int begin(const char* name);
  void end(int index);
  /// A finished child of the innermost open span, with a known start and
  /// duration — for sub-phases a layer reports as durations only.
  void add_child(const char* name, std::int64_t start_ns, double seconds);
  std::int64_t now_ns() const;
  /// Duration of a finished span.
  double seconds(int index) const {
    const SpanRecord& s = spans_[static_cast<std::size_t>(index)];
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Totals per span name over the spans `keep` accepts.
  std::map<std::string, SpanTotals> totals(
      const std::function<bool(const SpanRecord&)>& keep) const;

  /// Chrome trace-event JSON: one complete ("X") event per span, request id
  /// and parent in args, `metadata` (a JSON object) under "otherData".
  void write_chrome_trace(const std::string& path,
                          const std::string& metadata) const;

 private:
  Clock::time_point t0_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
  std::int64_t request_ = -1;
};

/// RAII span.
class Span {
 public:
  Span(Tracer& t, const char* name) : t_(t), index_(t.begin(name)) {}
  ~Span() { t_.end(index_); }
  int index() const { return index_; }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
  int index_;
};

}  // namespace gespbench
