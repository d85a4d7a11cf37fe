// Distributed-backend benchmark: pipelined vs strict schedule across grid
// shapes, in both the performance model (simulated makespan, the paper's
// "10-40% on 64 T3E processors" pipelining gain) and the real MiniMPI
// execution (message/byte counters, look-ahead hits, bitwise check against
// the serial factorization).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "dist/dist_lu.hpp"
#include "dist/minimpi.hpp"
#include "dist/perfmodel.hpp"
#include "numeric/lu_factors.hpp"
#include "sparse/generators.hpp"

namespace {

/// max_ij |A - B| over the union pattern (dense difference, bench-local).
double max_abs_diff(const gesp::sparse::CscMatrix<double>& A,
                    const gesp::sparse::CscMatrix<double>& B) {
  const std::size_t nr = static_cast<std::size_t>(A.nrows);
  std::vector<double> d(nr * static_cast<std::size_t>(A.ncols), 0.0);
  for (gesp::index_t j = 0; j < A.ncols; ++j)
    for (gesp::index_t p = A.colptr[j]; p < A.colptr[j + 1]; ++p)
      d[A.rowind[p] + static_cast<std::size_t>(j) * nr] += A.values[p];
  for (gesp::index_t j = 0; j < B.ncols; ++j)
    for (gesp::index_t p = B.colptr[j]; p < B.colptr[j + 1]; ++p)
      d[B.rowind[p] + static_cast<std::size_t>(j) * nr] -= B.values[p];
  double m = 0.0;
  for (const double v : d) m = std::max(m, std::abs(v));
  return m;
}

struct RealRun {
  gesp::count_t messages = 0;
  gesp::count_t bytes = 0;
  gesp::count_t lookahead_hits = 0;
  double wall_s = 0.0;
  bool bitwise = false;
};

}  // namespace

int main() {
  using namespace gesp;
  const auto A = sparse::convdiff2d(40, 40, 1.5, 0.75);
  auto sym = std::make_shared<const symbolic::SymbolicLU>(
      symbolic::analyze(A, {}));
  numeric::LUFactors<double> serial(sym, A, {});
  const auto Lref = serial.l_matrix();
  const auto Uref = serial.u_matrix();

  std::printf("bench_dist_backend: convdiff2d 40x40, n = %d, nnz = %lld, "
              "%d supernodes\n\n",
              A.ncols, static_cast<long long>(A.nnz()),
              sym->nsup);

  const std::vector<std::pair<int, int>> grids = {
      {1, 1}, {2, 2}, {2, 3}, {4, 4}};

  auto real_run = [&](const dist::ProcessGrid& grid,
                      bool pipelined) -> RealRun {
    RealRun r;
    minimpi::World world(grid.nprocs());
    sparse::CscMatrix<double> Ld, Ud;
    const auto t0 = std::chrono::steady_clock::now();
    const auto stats = world.run([&](minimpi::Comm& comm) {
      dist::DistOptions opt;
      opt.pipelined = pipelined;
      dist::DistributedLU<double> lu(comm, grid, sym, A, opt);
      const double hits = comm.reduce_sum(
          0, 20 * sym->nsup, static_cast<double>(lu.lookahead_hits()));
      auto L = lu.gather_l(comm);
      auto U = lu.gather_u(comm);
      if (comm.rank() == 0) {
        Ld = std::move(L);
        Ud = std::move(U);
        r.lookahead_hits = static_cast<count_t>(hits);
      }
    });
    r.wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    for (const auto& s : stats) {
      r.messages += s.messages_sent;
      r.bytes += s.bytes_sent;
    }
    r.bitwise = max_abs_diff(Lref, Ld) == 0.0 &&
                max_abs_diff(Uref, Ud) == 0.0;
    return r;
  };

  Table table({"Grid", "Model strict(s)", "Model piped(s)", "Gain%",
               "Model msgs pruned/full", "Real piped(s)", "Real msgs",
               "Real bytes", "Lookahead", "Bitwise"});
  for (const auto& [pr, pc] : grids) {
    const dist::ProcessGrid grid{pr, pc};
    dist::PerfOptions strict_opt, piped_opt;
    strict_opt.pipelined = false;
    piped_opt.pipelined = true;
    const auto ms = dist::simulate_factorization(*sym, grid, {}, strict_opt);
    const auto mp = dist::simulate_factorization(*sym, grid, {}, piped_opt);
    const auto comm_pruned = dist::count_factorization_comm(*sym, grid, true);
    const auto comm_full = dist::count_factorization_comm(*sym, grid, false);
    const RealRun piped = real_run(grid, true);
    const RealRun strict = real_run(grid, false);

    table.add_row({std::to_string(pr) + "x" + std::to_string(pc),
                   Table::fmt(ms.time, 4), Table::fmt(mp.time, 4),
                   Table::fmt((ms.time / mp.time - 1.0) * 100.0, 1),
                   std::to_string(comm_pruned.messages) + "/" +
                       std::to_string(comm_full.messages),
                   Table::fmt(piped.wall_s, 4),
                   std::to_string(piped.messages),
                   std::to_string(piped.bytes),
                   std::to_string(piped.lookahead_hits),
                   piped.bitwise && strict.bitwise ? "yes" : "NO"});
  }

  table.print(std::cout);
  return 0;
}
