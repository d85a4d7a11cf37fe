// Shared-memory (SuperLU_MT-style) factorization tests: the threaded
// numeric phase must produce BITWISE identical factors to the serial one
// (fork-join with per-iteration barriers and disjoint owner groups),
// across thread counts and matrix classes — including the thread pool
// itself.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>

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

TEST(ThreadPool, GrainRunsInlineBelowThreshold) {
  ThreadPool pool(4);
  pool.parallel_for(
      3,
      [&](index_t lo, index_t hi, int w) {
        EXPECT_EQ(w, 0);  // single inline chunk on the calling thread
        EXPECT_EQ(lo, 0);
        EXPECT_EQ(hi, 3);
      },
      /*grain=*/4);
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
void expect_bitwise_equal_factors(
    const sparse::CscMatrix<T>& A, int threads,
    numeric::Schedule schedule = numeric::Schedule::kAuto) {
  auto sym = std::make_shared<const symbolic::SymbolicLU>(
      symbolic::analyze(A, {}));
  numeric::NumericOptions serial;
  numeric::NumericOptions smp;
  smp.num_threads = threads;
  smp.schedule = schedule;
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

// Explicit-schedule determinism: both the fork-join baseline and the
// etree task DAG must reproduce the serial factors bit for bit.
TEST(SmpLU, TaskDagBitwiseEqual2Threads) {
  expect_bitwise_equal_factors(sparse::convdiff2d(16, 14, 1.0, 0.5), 2,
                               numeric::Schedule::kTaskDag);
}

TEST(SmpLU, TaskDagBitwiseEqual4Threads) {
  expect_bitwise_equal_factors(sparse::device_like(12, 16, 100, 3), 4,
                               numeric::Schedule::kTaskDag);
}

TEST(SmpLU, TaskDagBitwiseEqual8Threads) {
  expect_bitwise_equal_factors(sparse::circuit_like(500, 5, 12, 4), 8,
                               numeric::Schedule::kTaskDag);
}

TEST(SmpLU, TaskDagBitwiseEqualComplex) {
  expect_bitwise_equal_factors(
      sparse::randomize_phases(sparse::convdiff2d(12, 12, 1.0, 0.5), 5), 4,
      numeric::Schedule::kTaskDag);
}

TEST(SmpLU, ForkJoinBitwiseEqual4Threads) {
  expect_bitwise_equal_factors(sparse::convdiff2d(16, 14, 1.0, 0.5), 4,
                               numeric::Schedule::kForkJoin);
}

// Scalar supernodes (max_block = 1): every update pair is a 1x1x1
// gemm_minus_scatter call, so the work is nearly all per-pair bookkeeping and
// each owner group holds many tiny pairs. Fork-join splits the work of one
// K by owner group; its factors must still match serial byte for byte.
TEST(SmpLU, ForkJoinOwnerGroupsScalarPairsBitwise) {
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
    smp.schedule = numeric::Schedule::kForkJoin;
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
    expect_bitwise_equal_factors(A, 4, numeric::Schedule::kTaskDag);
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
