#include "spans.hpp"

#include <fstream>
#include <stdexcept>

namespace gespbench {

Tracer::Tracer() : t0_(Clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0_)
      .count();
}

int Tracer::begin(const char* name) {
  SpanRecord s;
  s.name = name;
  s.request = request_;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = now_ns();
  spans_.push_back(s);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::add_child(const char* name, std::int64_t start_ns,
                       double seconds) {
  SpanRecord s;
  s.name = name;
  s.request = request_;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = start_ns;
  s.end_ns = start_ns + static_cast<std::int64_t>(seconds * 1e9);
  spans_.push_back(s);
}

std::map<std::string, SpanTotals> Tracer::totals(
    const std::function<bool(const SpanRecord&)>& keep) const {
  std::map<std::string, SpanTotals> out;
  for (const SpanRecord& s : spans_) {
    if (!keep(s)) continue;
    SpanTotals& t = out[s.name];
    t.total_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    ++t.calls;
  }
  return out;
}

void Tracer::write_chrome_trace(const std::string& path,
                                const std::string& metadata) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write trace file " + path);
  f << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    f << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
      << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
      << static_cast<double>(s.start_ns) * 1e-3
      << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
      << ",\"args\":{\"request\":" << s.request << ",\"parent\":" << s.parent
      << "}}";
  }
  f << "\n],\"otherData\":" << metadata << "}\n";
}

}  // namespace gespbench
