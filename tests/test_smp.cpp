// Shared-memory factorization tests: the elimination sweep run as a task
// DAG must produce BITWISE identical factors to the same sweep run in its
// stated order on one thread, across thread counts and matrix classes —
// including the thread pool and task graph themselves, and the growth
// abort's report.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "common/thread_pool.hpp"
#include "core/solver.hpp"
#include "numeric/lu_factors.hpp"
#include "sparse/generators.hpp"
#include "sparse/ops.hpp"
#include "sparse/testbed.hpp"
#include "symbolic/symbolic.hpp"
#include "test_helpers.hpp"

namespace gesp {
namespace {

TEST(ThreadPool, CoversFullRangeOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](index_t lo, index_t hi, int) {
    for (index_t i = lo; i < hi; ++i) hits[i]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(round + 1, [&](index_t lo, index_t hi, int) {
      for (index_t i = lo; i < hi; ++i) sum += i;
    });
  }
  long expect = 0;
  for (int round = 0; round < 50; ++round)
    for (int i = 0; i < round + 1; ++i) expect += i;
  EXPECT_EQ(sum.load(), expect);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  int calls = 0;
  pool.parallel_for(10, [&](index_t lo, index_t hi, int w) {
    EXPECT_EQ(w, 0);
    calls += static_cast<int>(hi - lo);
  });
  EXPECT_EQ(calls, 10);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(4);
  pool.parallel_for(0, [&](index_t, index_t, int) { FAIL(); });
}

TEST(TaskGraph, ChainRunsInOrder) {
  ThreadPool pool(4);
  TaskGraph g;
  std::vector<int> order;
  std::mutex mu;
  TaskGraph::TaskId prev = -1;
  for (int i = 0; i < 20; ++i) {
    const auto t = g.add_task([&, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
    });
    if (prev >= 0) g.add_dependency(prev, t);
    prev = t;
  }
  g.run(pool);
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[i], i);
}

TEST(TaskGraph, FanOutFanIn) {
  ThreadPool pool(4);
  TaskGraph g;
  std::atomic<int> mids{0};
  bool root_done = false, sink_ok = false;
  const auto root = g.add_task([&] { root_done = true; });
  std::vector<TaskGraph::TaskId> mid;
  for (int i = 0; i < 16; ++i) {
    mid.push_back(g.add_task([&] {
      EXPECT_TRUE(root_done);
      mids++;
    }));
    g.add_dependency(root, mid.back());
  }
  const auto sink = g.add_task([&] { sink_ok = mids.load() == 16; });
  for (const auto t : mid) g.add_dependency(t, sink);
  g.run(pool);
  EXPECT_TRUE(sink_ok);
}

TEST(TaskGraph, EmptyGraphIsNoop) {
  ThreadPool pool(2);
  TaskGraph g;
  g.run(pool);
  EXPECT_EQ(g.size(), 0);
}

TEST(TaskGraph, PropagatesTaskException) {
  ThreadPool pool(3);
  TaskGraph g;
  const auto a = g.add_task([] { throw std::runtime_error("boom"); });
  const auto b = g.add_task([] {});
  g.add_dependency(a, b);
  EXPECT_THROW(g.run(pool), std::runtime_error);
}

template <class T>
void expect_bitwise_equal_factors(const sparse::CscMatrix<T>& A,
                                  int threads) {
  auto sym = std::make_shared<const symbolic::SymbolicLU>(
      symbolic::analyze(A, {}));
  numeric::NumericOptions serial;
  numeric::NumericOptions smp;
  smp.num_threads = threads;
  numeric::LUFactors<T> F1(sym, A, serial);
  numeric::LUFactors<T> F2(sym, A, smp);
  EXPECT_EQ(testing::max_abs_diff(F1.l_matrix(), F2.l_matrix()), 0.0);
  EXPECT_EQ(testing::max_abs_diff(F1.u_matrix(), F2.u_matrix()), 0.0);
}

TEST(SmpLU, BitwiseEqualGrid2Threads) {
  expect_bitwise_equal_factors(sparse::convdiff2d(16, 14, 1.0, 0.5), 2);
}

TEST(SmpLU, BitwiseEqualGrid4Threads) {
  expect_bitwise_equal_factors(sparse::convdiff2d(16, 14, 1.0, 0.5), 4);
}

TEST(SmpLU, BitwiseEqualDevice8Threads) {
  expect_bitwise_equal_factors(sparse::device_like(12, 16, 100, 3), 8);
}

TEST(SmpLU, BitwiseEqualCircuit) {
  expect_bitwise_equal_factors(sparse::circuit_like(500, 5, 12, 4), 4);
}

TEST(SmpLU, BitwiseEqualComplex) {
  expect_bitwise_equal_factors(
      sparse::randomize_phases(sparse::convdiff2d(12, 12, 1.0, 0.5), 5), 3);
}

// More thread counts per matrix class for the task DAG.
TEST(SmpLU, TaskDagBitwiseEqual4Threads) {
  expect_bitwise_equal_factors(sparse::device_like(12, 16, 100, 3), 4);
}

TEST(SmpLU, TaskDagBitwiseEqual8Threads) {
  expect_bitwise_equal_factors(sparse::circuit_like(500, 5, 12, 4), 8);
}

TEST(SmpLU, TaskDagBitwiseEqualComplex) {
  expect_bitwise_equal_factors(
      sparse::randomize_phases(sparse::convdiff2d(12, 12, 1.0, 0.5), 5), 4);
}

// Scalar supernodes (max_block = 1): every update pair is a 1x1x1
// gemm_minus_scatter call, so the work is nearly all per-pair bookkeeping and
// each owner group holds many tiny pairs. The task DAG splits the work of one
// K by owner group; its factors must still match serial byte for byte.
TEST(SmpLU, OwnerGroupsScalarPairsBitwise) {
  const auto A = sparse::circuit_like(600, 5, 12, 11);
  symbolic::SymbolicOptions so;
  so.max_block = 1;
  auto sym = std::make_shared<const symbolic::SymbolicLU>(
      symbolic::analyze(A, so));
  ASSERT_EQ(sym->nsup, A.ncols);  // b = 1 everywhere
  count_t pairs = 0;
  for (index_t K = 0; K < sym->nsup; ++K)
    pairs += static_cast<count_t>(sym->L[K].size() * sym->U[K].size());
  ASSERT_GT(pairs, 10 * static_cast<count_t>(sym->nsup));
  numeric::LUFactors<double> F1(sym, A, {});
  for (const int threads : {2, 4}) {
    SCOPED_TRACE(threads);
    numeric::NumericOptions smp;
    smp.num_threads = threads;
    numeric::LUFactors<double> F2(sym, A, smp);
    for (index_t K = 0; K < sym->nsup; ++K) {
      EXPECT_TRUE(testing::same_bytes(F1.l_store(K), F2.l_store(K)))
          << "L store, K=" << K;
      EXPECT_TRUE(testing::same_bytes(F1.u_store(K), F2.u_store(K)))
          << "U store, K=" << K;
    }
  }
}

// Same invariant on the testbed matrices (the paper's problem classes).
TEST(SmpLU, TaskDagBitwiseEqualTestbed) {
  for (const char* name : {"orsirr-s", "saylr-s", "jpwh991-s", "struct-b-s"}) {
    SCOPED_TRACE(name);
    const auto A = sparse::testbed_entry(name).make();
    expect_bitwise_equal_factors(A, 4);
  }
}

// The growth abort reports the same error on every thread count: the sweep
// stops at the first supernode whose growth crosses the threshold, and the
// task DAG still finishes every earlier supernode, so the trigger, the
// growth and the "stopped early" note all match the one-thread run.
std::string growth_abort_message(const std::function<void()>& run) {
  try {
    run();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::unstable);
    return e.what();
  }
  ADD_FAILURE() << "expected Errc::unstable from the growth monitor";
  return {};
}

SolverOptions growth_abort_options(int threads) {
  SolverOptions opt;
  opt.col_order = ColOrderOption::natural;
  opt.growth_abort = 1e6;  // 2^45 growth crosses this mid-factorization
  opt.num_threads = threads;
  return opt;
}

TEST(SmpLU, GrowthAbortReportsTheSameErrorOnEveryThreadCount) {
  const auto A = sparse::sparse_growth_adversary(300, 45, 9);
  const std::string serial = growth_abort_message(
      [&] { Solver<double> s(A, growth_abort_options(1)); });
  EXPECT_NE(serial.find("(factorization stopped early)"), std::string::npos)
      << serial;
  for (const int threads : {2, 4}) {
    SCOPED_TRACE(threads);
    EXPECT_EQ(growth_abort_message([&] {
                Solver<double> s(A, growth_abort_options(threads));
              }),
              serial);
  }

  // The partial route: start from the same pattern with the Wilkinson
  // block's -1 entries scaled by 1e-3 (no growth), then move to the
  // adversary's values. The partial sweep must stop with the message the
  // full factorization of those values gives.
  auto A0 = A;
  for (double& v : A0.values)
    if (v == -1.0) v = -1e-3;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    SolverOptions opt = growth_abort_options(threads);
    opt.delta.smw_max_rank = 0;          // route changes to partial...
    opt.delta.max_dirty_fraction = 1.0;  // ...and never bail to full
    Solver<double> s(A0, opt);
    EXPECT_EQ(growth_abort_message([&] { s.refactorize_delta(A); }), serial);
    EXPECT_EQ(s.stats().delta.full, 0);
    EXPECT_EQ(s.stats().delta.smw, 0);
    EXPECT_GT(s.stats().delta.dirty_supernodes, 0);
    EXPECT_LT(s.stats().delta.dirty_supernodes, s.stats().nsup);
  }
}

TEST(SmpLU, DriverIntegration) {
  const auto A = sparse::with_zero_diagonal(
      sparse::circuit_like(400, 5, 12, 7), 0.2, 8);
  const index_t n = A.ncols;
  std::vector<double> x_true(n, 1.0), b(n), x_serial(n), x_smp(n);
  sparse::spmv<double>(A, x_true, b);
  SolverOptions serial;
  SolverOptions smp;
  smp.num_threads = 4;
  Solver<double> s1(A, serial);
  s1.solve(b, x_serial);
  Solver<double> s2(A, smp);
  s2.solve(b, x_smp);
  for (index_t i = 0; i < n; ++i)
    EXPECT_DOUBLE_EQ(x_serial[i], x_smp[i]);  // bitwise-equal pipeline
}

}  // namespace
}  // namespace gesp
