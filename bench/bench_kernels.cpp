// Microbenchmarks (google-benchmark): the dense block kernels at the
// paper's block sizes, the sparse kernels, and each phase of the GESP
// pipeline — the per-component numbers behind the end-to-end tables.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "dense/kernels.hpp"
#include "matching/matching.hpp"
#include "numeric/gepp.hpp"
#include "numeric/lu_factors.hpp"
#include "ordering/amd.hpp"
#include "ordering/patterns.hpp"
#include "sparse/equilibrate.hpp"
#include "sparse/generators.hpp"
#include "sparse/ops.hpp"
#include "symbolic/symbolic.hpp"

namespace {

using namespace gesp;

template <class T>
std::vector<T> random_block_t(index_t rows, index_t cols,
                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> v(static_cast<std::size_t>(rows) * cols);
  for (auto& x : v) x = static_cast<T>(rng.uniform(-1.0, 1.0));
  return v;
}

std::vector<double> random_block(index_t rows, index_t cols,
                                 std::uint64_t seed) {
  return random_block_t<double>(rows, cols, seed);
}

// Both compute precisions share one body: the float instantiation runs the
// wider 16×6 microtile and should show the ~2× lane advantage in GF/s.
template <class T>
void gemm_minus_precision(benchmark::State& state) {
  const index_t b = static_cast<index_t>(state.range(0));
  const index_t m = 4 * b, c = 2 * b;
  const auto A = random_block_t<T>(m, b, 1);
  const auto B = random_block_t<T>(b, c, 2);
  auto C = random_block_t<T>(m, c, 3);
  for (auto _ : state) {
    dense::gemm_minus(m, c, b, A.data(), m, B.data(), b, C.data(), m);
    benchmark::DoNotOptimize(C.data());
  }
  // Widen before multiplying: the flop product overflows 32-bit at b=48.
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 * m *
                          b * c);
}

void BM_GemmMinus(benchmark::State& state) {
  gemm_minus_precision<double>(state);
}
BENCHMARK(BM_GemmMinus)->Arg(8)->Arg(16)->Arg(24)->Arg(32)->Arg(48);

void BM_GemmMinusFloat(benchmark::State& state) {
  gemm_minus_precision<float>(state);
}
BENCHMARK(BM_GemmMinusFloat)->Arg(8)->Arg(16)->Arg(24)->Arg(32)->Arg(48);

// The naive triple loop the tiled kernel replaced — kept benchmarked so the
// speedup is visible in the same run.
void BM_GemmMinusNaive(benchmark::State& state) {
  const index_t b = static_cast<index_t>(state.range(0));
  const index_t m = 4 * b, c = 2 * b;
  const auto A = random_block(m, b, 1);
  const auto B = random_block(b, c, 2);
  auto C = random_block(m, c, 3);
  for (auto _ : state) {
    dense::ref::gemm_minus(m, c, b, A.data(), m, B.data(), b, C.data(), m);
    benchmark::DoNotOptimize(C.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 * m *
                          b * c);
}
BENCHMARK(BM_GemmMinusNaive)->Arg(8)->Arg(16)->Arg(24)->Arg(32)->Arg(48);

// The trailing update at the sizes the factorizations mostly run it at:
// one gemm_minus_scatter call per (m, n, k) — the product kept in
// registers and added through row/column positions into a larger
// destination block, as update_owner does for a subset pair. Reported as
// time per call.
void BM_GemmMinusScatterSmall(benchmark::State& state) {
  const index_t m = static_cast<index_t>(state.range(0));
  const index_t n = static_cast<index_t>(state.range(1));
  const index_t k = static_cast<index_t>(state.range(2));
  const index_t ldd = 2 * m;
  const auto A = random_block(m, k, 1);
  const auto B = random_block(k, n, 2);
  auto D = random_block(ldd, 2 * n, 3);
  std::vector<index_t> rpos(static_cast<std::size_t>(m)),
      cpos(static_cast<std::size_t>(n));
  for (index_t i = 0; i < m; ++i) rpos[i] = 2 * i;
  for (index_t j = 0; j < n; ++j) cpos[j] = 2 * j + 1;
  for (auto _ : state) {
    dense::gemm_minus_scatter(m, n, k, A.data(), m, B.data(), k, D.data(),
                              ldd, rpos.data(), cpos.data());
    benchmark::DoNotOptimize(D.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 * m *
                          n * k);
}
BENCHMARK(BM_GemmMinusScatterSmall)
    ->ArgNames({"m", "n", "k"})
    ->ArgsProduct({{1, 2, 3, 4, 8}, {1, 2, 3, 4, 8}, {1, 2, 3, 4, 8}});

void BM_GetrfNoPiv(benchmark::State& state) {
  const index_t b = static_cast<index_t>(state.range(0));
  const auto base = random_block(b, b, 4);
  dense::PivotPolicy policy;
  policy.tiny_threshold = 1e-30;
  for (auto _ : state) {
    auto a = base;
    // Diagonal dominance keeps the kernel on the no-replacement path.
    for (index_t k = 0; k < b; ++k) a[k + k * b] += b;
    dense::PivotStats stats;
    dense::getrf(a.data(), b, b, policy, stats);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 * b *
                          b * b / 3);
}
BENCHMARK(BM_GetrfNoPiv)->Arg(8)->Arg(24)->Arg(64);

void BM_GetrfNoPivFloat(benchmark::State& state) {
  const index_t b = static_cast<index_t>(state.range(0));
  const auto base = random_block_t<float>(b, b, 4);
  dense::PivotPolicy policy;
  policy.tiny_threshold = 1e-30;
  for (auto _ : state) {
    auto a = base;
    for (index_t k = 0; k < b; ++k)
      a[k + k * b] += static_cast<float>(b);
    dense::PivotStats stats;
    dense::getrf(a.data(), b, b, policy, stats);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 * b *
                          b * b / 3);
}
BENCHMARK(BM_GetrfNoPivFloat)->Arg(8)->Arg(24)->Arg(64);

void BM_TrsmRightUpper(benchmark::State& state) {
  const index_t b = 24, m = 256;
  auto U = random_block(b, b, 5);
  for (index_t k = 0; k < b; ++k) U[k + k * b] += b;
  const auto base = random_block(m, b, 6);
  for (auto _ : state) {
    auto X = base;
    dense::trsm_right_upper(U.data(), b, b, X.data(), m, m);
    benchmark::DoNotOptimize(X.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * m * b *
                          b);
}
BENCHMARK(BM_TrsmRightUpper);

void BM_TrsmRightUpperFloat(benchmark::State& state) {
  const index_t b = 24, m = 256;
  auto U = random_block_t<float>(b, b, 5);
  for (index_t k = 0; k < b; ++k) U[k + k * b] += static_cast<float>(b);
  const auto base = random_block_t<float>(m, b, 6);
  for (auto _ : state) {
    auto X = base;
    dense::trsm_right_upper(U.data(), b, b, X.data(), m, m);
    benchmark::DoNotOptimize(X.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * m * b *
                          b);
}
BENCHMARK(BM_TrsmRightUpperFloat);

void BM_Spmv(benchmark::State& state) {
  const auto A = sparse::convdiff2d(100, 100, 1.0, 0.5);
  std::vector<double> x(static_cast<std::size_t>(A.ncols), 1.0);
  std::vector<double> y(x.size());
  for (auto _ : state) {
    sparse::spmv<double>(A, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 *
                          A.nnz());
}
BENCHMARK(BM_Spmv);

void BM_Equilibrate(benchmark::State& state) {
  const auto A = sparse::chemical_like(60, 40, 8.0, 7);
  for (auto _ : state) {
    auto s = sparse::equilibrate(A);
    benchmark::DoNotOptimize(s.row.data());
  }
}
BENCHMARK(BM_Equilibrate);

void BM_Mc64(benchmark::State& state) {
  const auto A = sparse::with_zero_diagonal(
      sparse::circuit_like(5000, 10, 30, 8), 0.2, 9);
  for (auto _ : state) {
    auto res = matching::mc64_product_matching(A);
    benchmark::DoNotOptimize(res.row_of_col.data());
  }
}
BENCHMARK(BM_Mc64);

void BM_AmdOrdering(benchmark::State& state) {
  const auto A = sparse::convdiff2d(60, 60, 1.0, 0.5);
  const auto P = ordering::ata_pattern(A);
  for (auto _ : state) {
    auto perm = ordering::amd_order(P);
    benchmark::DoNotOptimize(perm.data());
  }
}
BENCHMARK(BM_AmdOrdering);

void BM_SymbolicAnalyze(benchmark::State& state) {
  const auto A = sparse::convdiff2d(60, 60, 1.0, 0.5);
  for (auto _ : state) {
    auto S = symbolic::analyze(A, {});
    benchmark::DoNotOptimize(S.nnz_L);
  }
}
BENCHMARK(BM_SymbolicAnalyze);

void BM_NumericFactor(benchmark::State& state) {
  const auto A = sparse::convdiff2d(60, 60, 1.0, 0.5);
  auto sym = std::make_shared<const symbolic::SymbolicLU>(
      symbolic::analyze(A, {}));
  for (auto _ : state) {
    numeric::LUFactors<double> F(sym, A, {});
    benchmark::DoNotOptimize(F.pivot_growth());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          sym->flops);
}
BENCHMARK(BM_NumericFactor);

// Threaded factorization on the etree task DAG at the thread counts of
// the perf trajectory (arg = threads; 1 runs the sweep in its stated
// order). Real time, since CPU time sums over workers.
void BM_NumericFactorThreads(benchmark::State& state) {
  const auto A = sparse::convdiff2d(60, 60, 1.0, 0.5);
  auto sym = std::make_shared<const symbolic::SymbolicLU>(
      symbolic::analyze(A, {}));
  numeric::NumericOptions opt;
  opt.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    numeric::LUFactors<double> F(sym, A, opt);
    benchmark::DoNotOptimize(F.pivot_growth());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          sym->flops);
}
BENCHMARK(BM_NumericFactorThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_GeppFactor(benchmark::State& state) {
  const auto A = sparse::convdiff2d(60, 60, 1.0, 0.5);
  for (auto _ : state) {
    numeric::GeppLU<double> F(A);
    benchmark::DoNotOptimize(F.pivot_growth());
  }
}
BENCHMARK(BM_GeppFactor);

void BM_TriangularSolve(benchmark::State& state) {
  const auto A = sparse::convdiff2d(60, 60, 1.0, 0.5);
  auto sym = std::make_shared<const symbolic::SymbolicLU>(
      symbolic::analyze(A, {}));
  numeric::LUFactors<double> F(sym, A, {});
  std::vector<double> x(static_cast<std::size_t>(A.ncols), 1.0);
  for (auto _ : state) {
    auto y = x;
    F.solve(y);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_TriangularSolve);

}  // namespace

BENCHMARK_MAIN();
