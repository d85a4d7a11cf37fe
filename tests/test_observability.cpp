// Observability-layer tests: the scoped-span tracer (balanced, nested,
// chrome://tracing-exportable captures), the typed metrics registry
// (exact under concurrent updates — the TSan target), the PhaseTimes
// epoch model (per-call vs cumulative timings, the repeated-solve
// regression), and the recovery-ladder stats audit (SolveStats must
// describe the factorization that actually produced x).
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <latch>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "core/solver.hpp"
#include "dist/minimpi.hpp"
#include "numeric/lu_factors.hpp"
#include "sparse/generators.hpp"
#include "sparse/ops.hpp"
#include "sparse/testbed.hpp"
#include "symbolic/symbolic.hpp"
#include "test_helpers.hpp"

namespace gesp {
namespace {

// ---------------------------------------------------------------------------
// A minimal JSON well-formedness scanner: accepts exactly one JSON value
// (object/array/string/number/true/false/null). Strict enough to catch a
// broken exporter (stray commas, unterminated strings, unbalanced
// brackets) without depending on an external JSON library.
class JsonScanner {
 public:
  explicit JsonScanner(const std::string& s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int k = 0; k < 4; ++k) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_])))
              return false;
          }
        } else if (!std::strchr("\"\\/bfnrt", e)) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return pos_ > start && std::isdigit(static_cast<unsigned char>(
                               s_[pos_ - 1]));
  }

  bool literal(const char* lit) {
    const std::size_t len = std::strlen(lit);
    if (s_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

bool json_valid(const std::string& s) { return JsonScanner(s).valid(); }

/// Produce a capture with real concurrency on both instrumented engines:
/// a 4-thread task-DAG factorization and a 4-rank MiniMPI message ring.
/// The grid is ordered first (the solver's transform) and sized so the task
/// DAG keeps several workers busy: in natural order its band amalgamates
/// into one supernode chain, and a small ordered grid is drained by the
/// first worker to wake. How many workers the factorization wakes is up to
/// the OS scheduler, so two traced tasks that meet at a latch follow: one
/// thread cannot finish both, so two pool workers record spans by
/// construction.
void run_traced_workload() {
  const auto A =
      compute_transform(sparse::convdiff2d(48, 40, 1.0, 0.5), SolverOptions{})
          .At;
  auto sym = std::make_shared<const symbolic::SymbolicLU>(
      symbolic::analyze(A, {}));
  numeric::NumericOptions nopt;
  nopt.num_threads = 4;
  numeric::LUFactors<double> F(sym, A, nopt);

  ThreadPool pool(2);
  TaskGraph meet;
  std::latch both(2);
  for (int t = 0; t < 2; ++t)
    meet.add_task([&both] {
      GESP_TRACE_SPAN("test", "meet");
      both.arrive_and_wait();
    });
  meet.run(pool);

  minimpi::World world(4);
  world.run([](minimpi::Comm& comm) {
    const int P = comm.size();
    const int next = (comm.rank() + 1) % P;
    for (int round = 0; round < 3; ++round) {
      comm.send_value<double>(next, round, 1.0 * comm.rank());
      (void)comm.recv(minimpi::kAnySource, round);
      comm.barrier();
    }
  });
}

TEST(Trace, SpansBalanceAndNestPerTrack) {
  trace::start();
  run_traced_workload();
  trace::stop();

  const auto events = trace::snapshot();
  ASSERT_FALSE(events.empty());

  // Stack discipline per (rank, worker) track: every 'E' closes the 'B'
  // on top of its track's stack, and every stack drains by the end.
  std::map<std::pair<int, int>, std::vector<const char*>> stacks;
  std::int64_t prev_ts = std::numeric_limits<std::int64_t>::min();
  for (const auto& e : events) {
    ASSERT_NE(e.name, nullptr);
    ASSERT_GE(e.ts_ns, prev_ts);  // snapshot() merges in time order
    prev_ts = e.ts_ns;
    auto& stack = stacks[{e.rank, e.worker}];
    if (e.ph == 'B') {
      stack.push_back(e.name);
    } else if (e.ph == 'E') {
      ASSERT_FALSE(stack.empty())
          << "'E' for " << e.name << " without a 'B' on track ("
          << e.rank << "," << e.worker << ")";
      EXPECT_STREQ(stack.back(), e.name);
      stack.pop_back();
    }
  }
  for (const auto& [track, stack] : stacks)
    EXPECT_TRUE(stack.empty()) << "unclosed span on track (" << track.first
                               << "," << track.second << ")";

  // The workload's concurrency shows up as distinct tracks: several pool
  // workers under rank 0, and one track per simulated rank.
  std::set<int> ranks, workers;
  bool saw_factor_span = false, saw_mpi_event = false;
  for (const auto& e : events) {
    ranks.insert(e.rank);
    if (e.rank == 0) workers.insert(e.worker);
    if (e.ph == 'B' && std::string(e.cat ? e.cat : "") == "factor")
      saw_factor_span = true;
    if (std::string(e.cat ? e.cat : "") == "mpi") saw_mpi_event = true;
  }
  EXPECT_GE(ranks.size(), 4u);
  EXPECT_GE(workers.size(), 2u);
  EXPECT_TRUE(saw_factor_span);
  EXPECT_TRUE(saw_mpi_event);
  trace::clear();
}

TEST(Trace, ChromeJsonExportIsWellFormed) {
  trace::start();
  run_traced_workload();
  trace::stop();

  const std::string plain = trace::to_chrome_json();
  EXPECT_TRUE(json_valid(plain)) << plain.substr(0, 400);
  EXPECT_NE(plain.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(plain.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(plain.find("\"process_name\""), std::string::npos);

  // Embedding the metrics registry keeps the object well formed.
  const std::string with_metrics =
      trace::to_chrome_json("\"metrics\":" + metrics::global().to_json());
  EXPECT_TRUE(json_valid(with_metrics));
  EXPECT_NE(with_metrics.find("\"metrics\""), std::string::npos);
  trace::clear();
}

TEST(Trace, DisabledAndClearedCapturesNothing) {
  trace::stop();
  trace::clear();
  trace::instant("test", "ignored");
  { GESP_TRACE_SPAN("test", "also_ignored"); }
  EXPECT_EQ(trace::event_count(), 0u);

  trace::start();
  trace::instant("test", "recorded");
  EXPECT_EQ(trace::event_count(), 1u);
  trace::clear();
  EXPECT_EQ(trace::event_count(), 0u);
  trace::stop();
}

TEST(Trace, DisabledTracingLeavesFactorsBitwiseIdentical) {
  const auto A = sparse::circuit_like(600, 5, 12, 4);
  auto sym = std::make_shared<const symbolic::SymbolicLU>(
      symbolic::analyze(A, {}));
  numeric::NumericOptions nopt;
  nopt.num_threads = 4;

  trace::stop();
  numeric::LUFactors<double> F_off(sym, A, nopt);
  trace::start();
  numeric::LUFactors<double> F_on(sym, A, nopt);
  trace::stop();
  trace::clear();

  EXPECT_EQ(testing::max_abs_diff(F_off.l_matrix(), F_on.l_matrix()), 0.0);
  EXPECT_EQ(testing::max_abs_diff(F_off.u_matrix(), F_on.u_matrix()), 0.0);
}

// ---------------------------------------------------------------------------

TEST(Metrics, CounterGaugeHistogramBasics) {
  metrics::Registry reg;
  metrics::Counter& c = reg.counter("c");
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42);
  EXPECT_EQ(&reg.counter("c"), &c);  // stable reference on re-lookup

  metrics::Gauge& g = reg.gauge("g");
  g.set(2.5);
  g.set(-7.0);
  EXPECT_EQ(g.value(), -7.0);

  metrics::Histogram& h = reg.histogram("h");
  h.record(0.5);
  h.record(3.0);
  h.record(1024.0);
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.min(), 0.5);
  EXPECT_EQ(h.max(), 1024.0);
  EXPECT_NEAR(h.mean(), (0.5 + 3.0 + 1024.0) / 3.0, 1e-12);
  EXPECT_EQ(h.bucket(0), 1);   // v <= 1
  EXPECT_EQ(h.bucket(2), 1);   // 2 < 3 <= 4
  EXPECT_EQ(h.bucket(10), 1);  // 512 < 1024 <= 1024

  const auto names = reg.names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], (std::pair<std::string, std::string>("c", "counter")));
  EXPECT_EQ(names[1], (std::pair<std::string, std::string>("g", "gauge")));
  EXPECT_EQ(names[2],
            (std::pair<std::string, std::string>("h", "histogram")));
}

TEST(Metrics, HistogramMergeCombinesBucketsAndBounds) {
  metrics::Histogram a;
  metrics::Histogram b;
  a.record(0.5);
  a.record(3.0);
  b.record(1024.0);
  b.record(3.5);
  b.record(2048.0);

  a.merge(b);
  EXPECT_EQ(a.count(), 5);
  EXPECT_EQ(a.min(), 0.5);
  EXPECT_EQ(a.max(), 2048.0);
  EXPECT_NEAR(a.sum(), 0.5 + 3.0 + 1024.0 + 3.5 + 2048.0, 1e-12);
  EXPECT_EQ(a.bucket(0), 1);   // 0.5
  EXPECT_EQ(a.bucket(2), 2);   // 3.0 and 3.5 both in (2, 4]
  EXPECT_EQ(a.bucket(10), 1);  // 1024
  EXPECT_EQ(a.bucket(11), 1);  // 2048
  // b is untouched.
  EXPECT_EQ(b.count(), 3);

  // Quantiles now come from the merged buckets: the median of the merged
  // distribution sits in the (2, 4] bucket, which rank-0's histogram alone
  // (median bucket (0, 1]) could never report.
  const double med = a.quantile(0.5);
  EXPECT_GE(med, 2.0);
  EXPECT_LE(med, 4.0);

  // Merging an empty histogram is a no-op (the sentinel min/max must not
  // leak through).
  metrics::Histogram empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 5);
  EXPECT_EQ(a.min(), 0.5);
  EXPECT_EQ(a.max(), 2048.0);

  // Merging into an empty histogram adopts the operand wholesale.
  metrics::Histogram fresh;
  fresh.merge(b);
  EXPECT_EQ(fresh.count(), 3);
  EXPECT_EQ(fresh.min(), 3.5);
  EXPECT_EQ(fresh.max(), 2048.0);
}

TEST(Metrics, TypeMismatchThrows) {
  metrics::Registry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), Error);
  EXPECT_THROW(reg.histogram("x"), Error);
  EXPECT_EQ(reg.find_gauge("x"), nullptr);   // wrong-type read: absent
  EXPECT_NE(reg.find_counter("x"), nullptr);
  EXPECT_EQ(reg.find_counter("absent"), nullptr);
}

TEST(Metrics, ResetZeroesButKeepsReferencesValid) {
  metrics::Registry reg;
  metrics::Counter& c = reg.counter("c");
  metrics::Histogram& h = reg.histogram("h");
  c.inc(5);
  h.record(10.0);
  reg.reset();
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(h.count(), 0);
  c.inc(2);  // the pre-reset reference still works
  EXPECT_EQ(reg.counter("c").value(), 2);
}

TEST(Metrics, ConcurrentUpdatesAreExact) {
  // The TSan target: counters/histograms pounded from every pool worker
  // must come out exact (relaxed atomics, no locks on the hot path).
  metrics::Registry reg;
  metrics::Counter& c = reg.counter("hits");
  metrics::Histogram& h = reg.histogram("sizes");
  metrics::Gauge& g = reg.gauge("last");
  constexpr index_t N = 100000;
  ThreadPool pool(8);
  pool.parallel_for(N, [&](index_t lo, index_t hi, int) {
    for (index_t i = lo; i < hi; ++i) {
      c.inc();
      h.record(static_cast<double>(i % 1000));
      g.set(static_cast<double>(i));
    }
  });
  EXPECT_EQ(c.value(), N);
  EXPECT_EQ(h.count(), N);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 999.0);
  count_t in_buckets = 0;
  for (int k = 0; k < metrics::Histogram::kBuckets; ++k)
    in_buckets += h.bucket(k);
  EXPECT_EQ(in_buckets, N);
}

TEST(Metrics, RegistryJsonIsWellFormed) {
  metrics::Registry reg;
  reg.counter("a.count").inc(7);
  reg.gauge("b.gauge").set(3.25);
  reg.histogram("c.hist").record(42.0);
  reg.histogram("empty.hist");  // never recorded: must still serialize
  const std::string json = reg.to_json();
  EXPECT_TRUE(json_valid(json)) << json;
  EXPECT_NE(json.find("\"a.count\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"histogram\""), std::string::npos);
}

TEST(Metrics, TransportCountersAdvance) {
  metrics::Registry& reg = metrics::global();
  const count_t sent0 = reg.counter("minimpi.messages_sent").value();
  const count_t recv0 = reg.counter("minimpi.messages_received").value();
  minimpi::World world(3);
  world.run([](minimpi::Comm& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    comm.send_value<int>(next, 7, comm.rank());
    (void)comm.recv(minimpi::kAnySource, 7);
  });
  EXPECT_EQ(reg.counter("minimpi.messages_sent").value(), sent0 + 3);
  EXPECT_EQ(reg.counter("minimpi.messages_received").value(), recv0 + 3);
  EXPECT_GE(reg.histogram("minimpi.message_bytes").count(), 3);
}

// ---------------------------------------------------------------------------

TEST(PhaseTimes, EpochsSeparateLastCallFromTotal) {
  PhaseTimes pt;
  pt.add("factor", 1.0);
  pt.add("factor", 2.0);  // same epoch: sums
  EXPECT_EQ(pt.get("factor"), 3.0);
  EXPECT_EQ(pt.total("factor"), 3.0);

  pt.new_epoch();
  pt.add("factor", 0.25);  // new epoch: restarts the last-call value
  EXPECT_EQ(pt.get("factor"), 0.25);
  EXPECT_EQ(pt.total("factor"), 3.25);
  EXPECT_EQ(pt.calls("factor"), 3);

  // A phase untouched in the new epoch keeps reporting its last epoch.
  pt.add("solve", 0.5);
  pt.new_epoch();
  EXPECT_EQ(pt.get("solve"), 0.5);
  EXPECT_EQ(pt.get("never"), 0.0);
  EXPECT_EQ(pt.total("never"), 0.0);
  EXPECT_EQ(pt.calls("never"), 0);

  const auto last = pt.all();
  const auto totals = pt.all_totals();
  EXPECT_EQ(last.at("factor"), 0.25);
  EXPECT_EQ(totals.at("factor"), 3.25);
}

// Satellite-1 regression: repeated solve() on one Solver must report
// per-call phase times, with the cumulative sums kept separately.
TEST(SolverStats, RepeatedSolveReportsPerCallTimes) {
  const auto A = sparse::convdiff2d(40, 40, 1.0, 0.5);
  const index_t n = A.ncols;
  std::vector<double> x_true(static_cast<std::size_t>(n), 1.0),
      b(x_true.size()), x(x_true.size());
  sparse::spmv<double>(A, x_true, b);

  Solver<double> solver(A, {});
  solver.solve(b, x);
  const double solve1 = solver.stats().times.get("solve");
  const double refine1 = solver.stats().times.get("refine");
  solver.solve(b, x);
  const PhaseTimes& t = solver.stats().times;

  // get() reports the second call only; total() the exact running sum.
  EXPECT_EQ(t.calls("solve"), 2);
  EXPECT_DOUBLE_EQ(t.total("solve"), solve1 + t.get("solve"));
  EXPECT_DOUBLE_EQ(t.total("refine"), refine1 + t.get("refine"));
  EXPECT_LT(t.get("solve"), t.total("solve"));

  // Factorization ran once (at construction): last call == total.
  EXPECT_EQ(t.calls("factor"), 1);
  EXPECT_DOUBLE_EQ(t.get("factor"), t.total("factor"));
}

TEST(SolverStats, RefactorizeReportsOwnFactorTime) {
  const auto A = sparse::convdiff2d(40, 40, 1.0, 0.5);
  Solver<double> solver(A, {});
  const double factor1 = solver.stats().times.get("factor");
  ASSERT_GT(factor1, 0.0);

  solver.refactorize(A);
  const PhaseTimes& t = solver.stats().times;
  EXPECT_EQ(t.calls("factor"), 2);
  EXPECT_LT(t.get("factor"), t.total("factor"));  // not the lifetime sum
  EXPECT_DOUBLE_EQ(t.total("factor"), factor1 + t.get("factor"));
}

// ---------------------------------------------------------------------------

// Satellite-2 audit: after the ladder escalates to GEPP, SolveStats must
// describe the GEPP factorization that produced x — not the abandoned
// static factors (which perturbed pivots and recorded their growth).
TEST(RecoveryStats, GeppRungOwnsFinalStats) {
  const auto& e = sparse::testbed_entry("av41092-s");
  const auto A = e.make();
  SolverOptions opt;
  opt.col_order = ColOrderOption::natural;
  opt.symbolic.max_block = 24;  // past 24, panel_rrp rescues it first
  opt.recovery.enabled = true;

  const index_t n = A.ncols;
  std::vector<double> x_true(static_cast<std::size_t>(n), 1.0),
      b(x_true.size()), x(x_true.size());
  sparse::spmv<double>(A, x_true, b);

  Solver<double> solver(A, opt);
  solver.solve(b, x);
  const SolveStats& s = solver.stats();
  ASSERT_EQ(s.recovery.final_rung, RecoveryRung::gepp);
  ASSERT_TRUE(s.recovery.recovered);

  // GEPP swaps rows, never perturbs: the static rung's replacement count
  // and growth must not leak into the final report.
  EXPECT_EQ(s.pivots_replaced, 0);
  EXPECT_EQ(s.nsup, 0);  // no supernodes in the dense fallback
  EXPECT_GT(s.pivot_growth, 0.0);
  EXPECT_TRUE(std::isfinite(s.pivot_growth));
  EXPECT_GT(s.nnz_l, 0);
  EXPECT_GT(s.nnz_u, 0);
  EXPECT_GT(s.times.get("factor"), 0.0);  // the GEPP rung timed itself
}

// A static rung (b) refactorization must refresh the symbolic counts that
// a previous GEPP experiment could have overwritten — factor() re-reads
// them from the symbolic analysis on every call.
TEST(RecoveryStats, StaticRungKeepsSymbolicCounts) {
  const auto A = sparse::cancellation_matrix(800, 400, 140);
  SolverOptions opt;
  opt.equilibrate = false;
  opt.row_perm = RowPermOption::none;
  opt.col_order = ColOrderOption::natural;
  opt.tiny_pivot = TinyPivotOption::fail;
  opt.recovery.enabled = true;

  const index_t n = A.ncols;
  std::vector<double> x_true(static_cast<std::size_t>(n), 1.0),
      b(x_true.size()), x(x_true.size());
  sparse::spmv<double>(A, x_true, b);

  Solver<double> solver(A, opt);
  solver.solve(b, x);
  const SolveStats& s = solver.stats();
  ASSERT_TRUE(s.recovery.recovered);
  ASSERT_NE(s.recovery.final_rung, RecoveryRung::gepp);

  // The answer came from a supernodal factorization: its counts stand.
  EXPECT_GT(s.nsup, 0);
  EXPECT_GT(s.pivots_replaced, 0);  // the SMW rung perturbed tiny pivots
  EXPECT_TRUE(std::isfinite(s.pivot_growth));
}

TEST(SolveStats, ExportMetricsPublishesGauges) {
  const auto A = sparse::convdiff2d(20, 20, 1.0, 0.5);
  const index_t n = A.ncols;
  std::vector<double> x_true(static_cast<std::size_t>(n), 1.0),
      b(x_true.size()), x(x_true.size());
  sparse::spmv<double>(A, x_true, b);

  Solver<double> solver(A, {});
  solver.solve(b, x);

  metrics::Registry reg;  // private registry: tools serialize stats this way
  solver.stats().export_metrics(reg);
  ASSERT_NE(reg.find_gauge("solver.berr"), nullptr);
  EXPECT_EQ(reg.find_gauge("solver.berr")->value(), solver.stats().berr);
  ASSERT_NE(reg.find_gauge("solver.nnz_l"), nullptr);
  EXPECT_EQ(reg.find_gauge("solver.nnz_l")->value(),
            static_cast<double>(solver.stats().nnz_l));
  ASSERT_NE(reg.find_gauge("solver.time.factor"), nullptr);
  EXPECT_GT(reg.find_gauge("solver.time.factor")->value(), 0.0);
  EXPECT_TRUE(json_valid(reg.to_json()));
}

}  // namespace
}  // namespace gesp
