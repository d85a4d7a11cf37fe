#include "common/metrics.hpp"

#include <cmath>
#include <cstdio>
#include <limits>

#include "common/error.hpp"

namespace gesp::metrics {
namespace {

void atomic_add(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

int bucket_of(double v) noexcept {
  if (!(v > 1.0)) return 0;
  const int k = static_cast<int>(std::ceil(std::log2(v)));
  return k < 0 ? 0
               : (k >= Histogram::kBuckets ? Histogram::kBuckets - 1 : k);
}

// Quantile estimator over power-of-two bucket counts.
double bucket_quantile(double q, const count_t* buckets, double total,
                       double mn, double mx) noexcept {
  if (total <= 0.0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the requested sample (1-based, ceil as in nearest-rank).
  const double rank = q * total;
  double cum = 0.0;
  for (int k = 0; k < Histogram::kBuckets; ++k) {
    const double c = static_cast<double>(buckets[k]);
    if (c == 0.0) continue;
    if (cum + c >= rank) {
      // Bucket k covers (2^(k-1), 2^k]; bucket 0 covers (-inf, 1].
      const double lo = k == 0 ? 0.0 : std::ldexp(1.0, k - 1);
      const double hi = std::ldexp(1.0, k);
      const double frac = (rank - cum) / c;
      double v = lo + frac * (hi - lo);
      v = std::max(v, mn);
      v = std::min(v, mx);
      return v;
    }
    cum += c;
  }
  return mx;
}

}  // namespace

void Histogram::record(double v) noexcept {
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
  atomic_min(min_, v);
  atomic_max(max_, v);
  buckets_[static_cast<std::size_t>(bucket_of(v))].fetch_add(
      1, std::memory_order_relaxed);
}

void Histogram::merge(const Histogram& other) noexcept {
  count_t buckets[kBuckets];
  for (int k = 0; k < kBuckets; ++k) buckets[k] = other.bucket(k);
  merge_raw(other.count(), other.sum(), other.min(), other.max(), buckets);
}

void Histogram::merge_raw(count_t count, double sum, double mn, double mx,
                          const count_t* buckets) noexcept {
  if (count == 0) return;  // empty operand: min/max are sentinel infinities
  count_.fetch_add(count, std::memory_order_relaxed);
  atomic_add(sum_, sum);
  atomic_min(min_, mn);
  atomic_max(max_, mx);
  for (int k = 0; k < kBuckets; ++k) {
    if (buckets[k] != 0)
      buckets_[static_cast<std::size_t>(k)].fetch_add(
          buckets[k], std::memory_order_relaxed);
  }
}

double Histogram::quantile(double q) const noexcept {
  const count_t total = count();
  if (total == 0) return 0.0;
  count_t buckets[kBuckets];
  for (int k = 0; k < kBuckets; ++k) buckets[k] = bucket(k);
  return bucket_quantile(q, buckets, static_cast<double>(total), min(),
                         max());
}

void Histogram::reset() noexcept {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

Registry::Entry& Registry::get(const std::string& name, Kind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.kind = kind;
    switch (kind) {
      case Kind::counter:
        e.c = std::make_unique<Counter>();
        break;
      case Kind::gauge:
        e.g = std::make_unique<Gauge>();
        break;
      case Kind::histogram:
        e.h = std::make_unique<Histogram>();
        break;
    }
    it = entries_.emplace(name, std::move(e)).first;
  }
  GESP_CHECK(it->second.kind == kind, Errc::invalid_argument,
             "metric '" + name + "' already registered with another type");
  return it->second;
}

Counter& Registry::counter(const std::string& name) {
  return *get(name, Kind::counter).c;
}

Gauge& Registry::gauge(const std::string& name) {
  return *get(name, Kind::gauge).g;
}

Histogram& Registry::histogram(const std::string& name) {
  return *get(name, Kind::histogram).h;
}

const Counter* Registry::find_counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  return it != entries_.end() && it->second.kind == Kind::counter
             ? it->second.c.get()
             : nullptr;
}

const Gauge* Registry::find_gauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  return it != entries_.end() && it->second.kind == Kind::gauge
             ? it->second.g.get()
             : nullptr;
}

const Histogram* Registry::find_histogram(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  return it != entries_.end() && it->second.kind == Kind::histogram
             ? it->second.h.get()
             : nullptr;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, e] : entries_) {
    switch (e.kind) {
      case Kind::counter:
        e.c->reset();
        break;
      case Kind::gauge:
        e.g->reset();
        break;
      case Kind::histogram:
        e.h->reset();
        break;
    }
  }
}

std::vector<std::pair<std::string, std::string>> Registry::names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(entries_.size());
  for (const auto& [name, e] : entries_) {
    const char* kind = e.kind == Kind::counter
                           ? "counter"
                           : (e.kind == Kind::gauge ? "gauge" : "histogram");
    out.emplace_back(name, kind);
  }
  return out;
}

std::string Registry::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{";
  char buf[96];
  bool first = true;
  for (const auto& [name, e] : entries_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    for (const char c : name) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += "\":";
    switch (e.kind) {
      case Kind::counter:
        std::snprintf(buf, sizeof buf,
                      "{\"type\":\"counter\",\"value\":%lld}",
                      static_cast<long long>(e.c->value()));
        out += buf;
        break;
      case Kind::gauge:
        std::snprintf(buf, sizeof buf,
                      "{\"type\":\"gauge\",\"value\":%.17g}",
                      e.g->value());
        out += buf;
        break;
      case Kind::histogram: {
        const Histogram& h = *e.h;
        const count_t n = h.count();
        std::snprintf(buf, sizeof buf,
                      "{\"type\":\"histogram\",\"count\":%lld",
                      static_cast<long long>(n));
        out += buf;
        std::snprintf(buf, sizeof buf,
                      ",\"sum\":%.17g,\"min\":%.17g,\"max\":%.17g",
                      n > 0 ? h.sum() : 0.0, n > 0 ? h.min() : 0.0,
                      n > 0 ? h.max() : 0.0);
        out += buf;
        out += ",\"buckets\":{";
        bool bfirst = true;
        for (int k = 0; k < Histogram::kBuckets; ++k) {
          const count_t c = h.bucket(k);
          if (c == 0) continue;
          if (!bfirst) out += ',';
          bfirst = false;
          std::snprintf(buf, sizeof buf, "\"le_2e%d\":%lld", k,
                        static_cast<long long>(c));
          out += buf;
        }
        out += "}}";
        break;
      }
    }
  }
  out += '}';
  return out;
}

Registry& global() {
  static Registry* r = new Registry;  // leaked: usable during shutdown
  return *r;
}

}  // namespace gesp::metrics
