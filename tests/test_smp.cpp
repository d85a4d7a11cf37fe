// Shared-memory factorization tests: the elimination sweep run as a task
// DAG must produce BITWISE identical factors to the same sweep run in its
// stated order on one thread, across thread counts and matrix classes —
// including the thread pool and task graph themselves, and the growth
// abort's report.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "common/thread_pool.hpp"
#include "core/solver.hpp"
#include "dense/kernels.hpp"
#include "numeric/block_index.hpp"
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

// Scalar supernodes (max_block = 1): every update pair is a 1x1 product
// scattered on its own, so the work is nearly all per-pair bookkeeping and
// each owner group holds many tiny pairs. The task DAG splits the work of one
// K into bands of owner groups; its factors must still match serial byte
// for byte.
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

// --- The stacked update at both block sizes -------------------------------
//
// The elimination sweep updates through one stacked product per band of
// consecutive owner groups, cut at dense::kBandBound rows or columns. At
// the paper's block size (24) and the default (48), serial, 4 threads and a
// partial refactorization must give byte-identical stores, for double,
// float and Complex — on a matrix where some band is cut by the bound, and
// with a dirty set under which a clean source replays owner groups that are
// not consecutive (so it stacks several separate runs).

// Whether banding some source of S splits a run of owner groups at the
// bound, restating the sweep's rule (every group of K taken).
bool some_band_hits_bound(const symbolic::SymbolicLU& S) {
  std::vector<numeric::detail::OwnerGroup> groups;
  for (index_t K = 0; K < S.nsup; ++K) {
    groups.clear();
    numeric::detail::owner_groups(S, K, groups);
    // Rows / columns before each L / U block of K, as in the K's panels.
    std::vector<index_t> lrow{0}, ucol{0};
    for (const auto& blk : S.L[K])
      lrow.push_back(lrow.back() + static_cast<index_t>(blk.rows.size()));
    for (const auto& blk : S.U[K])
      ucol.push_back(ucol.back() + static_cast<index_t>(blk.cols.size()));
    std::size_t g0 = 0;
    for (std::size_t g = 1; g < groups.size(); ++g) {
      const auto& x = groups[g];
      if (lrow[x.li + x.has_row] - lrow[groups[g0].li] > dense::kBandBound ||
          ucol[x.ui + x.has_col] - ucol[groups[g0].ui] > dense::kBandBound)
        return true;
    }
  }
  return false;
}

// A dirty set, closed under the update dependencies, under which some clean
// source K has dirty owner groups with a clean one between them: the
// closure of K's first and last owners, for the first K where that closure
// leaves one of K's middle owners clean. Empty when no K has one.
std::vector<char> gapped_dirty_set(const symbolic::SymbolicLU& S) {
  std::vector<numeric::detail::OwnerGroup> groups;
  for (index_t K = 0; K < S.nsup; ++K) {
    groups.clear();
    numeric::detail::owner_groups(S, K, groups);
    if (groups.size() < 3) continue;
    std::vector<char> dirty(static_cast<std::size_t>(S.nsup), 0);
    dirty[groups.front().O] = dirty[groups.back().O] = 1;
    symbolic::close_update_reachable(S, dirty);
    for (std::size_t g = 1; g + 1 < groups.size(); ++g)
      if (!dirty[groups[g].O]) return dirty;
  }
  return {};
}

template <class T>
sparse::CscMatrix<T> with_values(const sparse::CscMatrix<double>& A) {
  sparse::CscMatrix<T> B{A.nrows, A.ncols, A.colptr, A.rowind, {}};
  for (const double v : A.values) B.values.push_back(static_cast<T>(v));
  return B;
}

template <class T>
void expect_same_stores(const numeric::LUFactors<T>& a,
                        const numeric::LUFactors<T>& b, const char* what) {
  for (index_t K = 0; K < a.sym().nsup; ++K) {
    ASSERT_TRUE(testing::same_bytes(a.l_store(K), b.l_store(K)))
        << what << ": L store, K=" << K;
    ASSERT_TRUE(testing::same_bytes(a.u_store(K), b.u_store(K)))
        << what << ": U store, K=" << K;
  }
}

template <class T>
void expect_engines_agree(
    const std::shared_ptr<const symbolic::SymbolicLU>& sym,
    const sparse::CscMatrix<T>& A, const std::vector<char>& dirty) {
  numeric::NumericOptions serial;
  serial.tiny_threshold = 1e-10;
  numeric::NumericOptions smp = serial;
  smp.num_threads = 4;
  const numeric::LUFactors<T> F1(sym, A, serial);
  expect_same_stores(F1, numeric::LUFactors<T>(sym, A, smp), "4 threads");

  // Partial: factor values that differ from A only in the entries the
  // dirty set owns, then refactorize those supernodes with A's values.
  auto A0 = A;
  for (index_t j = 0; j < A.ncols; ++j)
    for (index_t p = A.colptr[j]; p < A.colptr[j + 1]; ++p)
      if (dirty[std::min(sym->col_to_sn[A.rowind[p]], sym->col_to_sn[j])])
        A0.values[p] *= T{2};
  for (const numeric::NumericOptions& opt : {serial, smp}) {
    numeric::LUFactors<T> F(sym, A0, opt);
    F.refactorize_partial(A, dirty, opt);
    expect_same_stores(F1, F, opt.num_threads == 1 ? "partial, 1 thread"
                                                   : "partial, 4 threads");
  }
}

// The testbed matrix's transformed form (the default pipeline) analysed at
// max_block 24 and 48, where some band must hit the bound; each analysis
// factorized in double, float and Complex. The partial sweep re-eliminates
// a gapped dirty set when `gapped` is asked for, else the closure of the
// middle supernode.
void expect_engines_agree_both_blocks(const char* name, bool gapped) {
  SCOPED_TRACE(name);
  const auto A = sparse::testbed_entry(name).make();
  for (const index_t max_block : {24, 48}) {
    SCOPED_TRACE("max_block " + std::to_string(max_block));
    SolverOptions opt;
    opt.symbolic.max_block = max_block;
    const auto tr = compute_transform(A, opt);
    const auto sym = std::make_shared<const symbolic::SymbolicLU>(
        symbolic::analyze(tr.At, opt.symbolic, tr.etree));
    EXPECT_TRUE(some_band_hits_bound(*sym));
    std::vector<char> dirty = gapped_dirty_set(*sym);
    if (gapped) {
      ASSERT_FALSE(dirty.empty()) << "no gapped dirty set";
    } else {
      dirty.assign(static_cast<std::size_t>(sym->nsup), 0);
      dirty[sym->nsup / 2] = 1;
      symbolic::close_update_reachable(*sym, dirty);
    }
    ASSERT_LT(std::count(dirty.begin(), dirty.end(), 1), sym->nsup);
    expect_engines_agree(sym, tr.At, dirty);
    expect_engines_agree(sym, with_values<float>(tr.At), dirty);
    expect_engines_agree(sym, sparse::randomize_phases(tr.At, 5), dirty);
  }
}

TEST(StackedUpdate, EnginesAgreeWhereABandHitsTheBound) {
  expect_engines_agree_both_blocks("jpwh991-s", /*gapped=*/false);
}

TEST(StackedUpdate, EnginesAgreeOnAGappedPartialSweep) {
  expect_engines_agree_both_blocks("twotone-s", /*gapped=*/true);
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
    opt.delta.max_dirty_fraction = 1.0;  // never bail to full
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
