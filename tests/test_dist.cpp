// Distributed factorization and triangular solve tests: the MiniMPI
// substrate itself, then the 2-D block-cyclic factorization (Fig 8) and the
// message-driven solves (Fig 9) verified bit-for-bit against the serial
// supernodal factorization on several grid shapes, with and without EDAG
// communication pruning.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <tuple>

#include "core/solver.hpp"
#include "dist/dist_lu.hpp"
#include "dist/minimpi.hpp"
#include "numeric/lu_factors.hpp"
#include "sparse/generators.hpp"
#include "sparse/ops.hpp"
#include "symbolic/symbolic.hpp"
#include "test_helpers.hpp"

namespace gesp {
namespace {

using dist::DistOptions;
using dist::DistributedLU;
using dist::ProcessGrid;
using sparse::CscMatrix;

TEST(MiniMpi, PointToPoint) {
  minimpi::World world(2);
  world.run([](minimpi::Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<double> payload{1.0, 2.5, -3.0};
      comm.send_vec(1, 42, payload);
    } else {
      const auto msg = comm.recv(0, 42);
      const auto v = msg.as<double>();
      ASSERT_EQ(v.size(), 3u);
      EXPECT_EQ(v[1], 2.5);
    }
  });
}

TEST(MiniMpi, TagAndSourceMatching) {
  minimpi::World world(3);
  world.run([](minimpi::Comm& comm) {
    if (comm.rank() != 2) {
      comm.send_value(2, 10 + comm.rank(), comm.rank());
    } else {
      // Receive in the *opposite* order of likely arrival.
      const auto m1 = comm.recv(1, 11);
      const auto m0 = comm.recv(0, 10);
      EXPECT_EQ(m1.src, 1);
      EXPECT_EQ(m0.src, 0);
    }
  });
}

TEST(MiniMpi, BarrierAndReduce) {
  minimpi::World world(4);
  world.run([](minimpi::Comm& comm) {
    comm.barrier();
    const double sum = comm.reduce_sum(0, 99, comm.rank() + 1.0);
    if (comm.rank() == 0) {
      EXPECT_DOUBLE_EQ(sum, 10.0);
    }
    comm.barrier();
  });
}

TEST(MiniMpi, StatsCountMessages) {
  minimpi::World world(2);
  const auto stats = world.run([](minimpi::Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<double> v(10, 1.0);
      comm.send_vec(1, 7, v);
    } else {
      comm.recv(0, 7);
    }
  });
  EXPECT_EQ(stats[0].messages_sent, 1);
  EXPECT_EQ(stats[0].bytes_sent, 80);
  EXPECT_EQ(stats[1].messages_received, 1);
}

/// Factor A on a pr x pc grid, verify LU == serial LU bitwise, and check
/// the distributed solve against a known solution.
void check_distributed(const CscMatrix<double>& A, int pr, int pc,
                       bool edag_pruning, double solve_tol = 1e-10,
                       bool pipelined = true) {
  auto sym = std::make_shared<const symbolic::SymbolicLU>(
      symbolic::analyze(A, {}));
  // Serial reference.
  numeric::LUFactors<double> serial(sym, A, {});
  const auto Lref = serial.l_matrix();
  const auto Uref = serial.u_matrix();

  const ProcessGrid grid{pr, pc};
  minimpi::World world(grid.nprocs());
  const index_t n = A.ncols;
  std::vector<double> x_true(n, 1.0), b(n);
  sparse::spmv<double>(A, x_true, b);

  std::vector<double> x0;
  CscMatrix<double> Ldist, Udist;
  world.run([&](minimpi::Comm& comm) {
    DistOptions opt;
    opt.edag_pruning = edag_pruning;
    opt.pipelined = pipelined;
    DistributedLU<double> dlu(comm, grid, sym, A, opt);
    const auto L = dlu.gather_l(comm);
    const auto U = dlu.gather_u(comm);
    std::vector<double> x(b.size());
    dlu.solve(comm, b, x);
    if (comm.rank() == 0) {
      Ldist = L;
      Udist = U;
      x0 = x;
    } else {
      // The solution is replicated: every rank must agree.
      EXPECT_LT(sparse::relative_error_inf<double>(x_true, x), solve_tol);
    }
  });
  // Identical block operations in identical order: bitwise equality.
  EXPECT_EQ(testing::max_abs_diff(Lref, Ldist), 0.0);
  EXPECT_EQ(testing::max_abs_diff(Uref, Udist), 0.0);
  EXPECT_LT(sparse::relative_error_inf<double>(x_true, x0), solve_tol);
}

TEST(DistLU, Grid1x1MatchesSerial) {
  check_distributed(sparse::convdiff2d(12, 12, 1.0, 0.5), 1, 1, true);
}

TEST(DistLU, Grid2x2MatchesSerial) {
  check_distributed(sparse::convdiff2d(12, 12, 1.0, 0.5), 2, 2, true);
}

TEST(DistLU, Grid2x4MatchesSerial) {
  check_distributed(sparse::convdiff2d(14, 10, 2.0, 0.25), 2, 4, true);
}

TEST(DistLU, Grid4x2MatchesSerial) {
  check_distributed(sparse::convdiff2d(10, 14, 0.5, 1.5), 4, 2, true);
}

TEST(DistLU, Grid3x3MatchesSerial) {
  // Non-power-of-two grids are explicitly supported by the paper.
  check_distributed(sparse::laplacian2d(13, 11), 3, 3, true);
}

TEST(DistLU, NoPruningSameResult) {
  // EDAG pruning changes the communication, never the numbers.
  check_distributed(sparse::convdiff2d(12, 12, 1.0, 0.5), 2, 2, false);
}

TEST(DistLU, StrictOrderSameResult) {
  // Disabling the pipelined schedule replays the per-K loop; the factors
  // must still be bitwise-identical to serial.
  check_distributed(sparse::convdiff2d(12, 12, 1.0, 0.5), 2, 2, true, 1e-10,
                    /*pipelined=*/false);
}

TEST(DistLU, StrictOrderNoPruningSameResult) {
  check_distributed(sparse::convdiff2d(12, 12, 1.0, 0.5), 2, 3, false, 1e-10,
                    /*pipelined=*/false);
}

TEST(DistLU, PipelinedMatchesStrictBitwise) {
  // The message-driven pipelined schedule and the strict per-K loop must
  // produce bitwise-identical factors (deterministic tie-break, ascending K).
  // Ordered first: a natural-order band amalgamates into one supernode
  // chain, where no look-ahead can engage.
  const auto A =
      compute_transform(sparse::convdiff2d(14, 12, 1.0, 0.5), SolverOptions{})
          .At;
  auto sym = std::make_shared<const symbolic::SymbolicLU>(
      symbolic::analyze(A, {}));
  const ProcessGrid grid{2, 2};
  auto factor_gather = [&](bool pipelined) {
    minimpi::World world(grid.nprocs());
    CscMatrix<double> L, U;
    count_t lookahead = 0;
    world.run([&](minimpi::Comm& comm) {
      DistOptions opt;
      opt.pipelined = pipelined;
      DistributedLU<double> dlu(comm, grid, sym, A, opt);
      auto Lg = dlu.gather_l(comm);
      auto Ug = dlu.gather_u(comm);
      const count_t hits = comm.reduce_sum(
          0, 12345, static_cast<double>(dlu.lookahead_hits()));
      if (comm.rank() == 0) {
        L = std::move(Lg);
        U = std::move(Ug);
        lookahead = static_cast<count_t>(hits);
      }
    });
    return std::tuple{std::move(L), std::move(U), lookahead};
  };
  const auto [Lp, Up, hits_p] = factor_gather(true);
  const auto [Ls, Us, hits_s] = factor_gather(false);
  EXPECT_EQ(testing::max_abs_diff(Lp, Ls), 0.0);
  EXPECT_EQ(testing::max_abs_diff(Up, Us), 0.0);
  EXPECT_GT(hits_p, 0);  // look-ahead actually engaged on a 2x2 grid
  EXPECT_EQ(hits_s, 0);  // strict mode never looks ahead
}

TEST(DistLU, DeviceMatrixWideSupernodes) {
  check_distributed(sparse::device_like(12, 12, 100, 5), 2, 2, true, 1e-8);
}

TEST(DistLU, CircuitMatrixTinySupernodes) {
  check_distributed(sparse::circuit_like(300, 4, 10, 6), 2, 2, true, 1e-8);
}

TEST(DistLU, EdagPruningReducesMessages) {
  const auto A = sparse::convdiff2d(16, 16, 1.0, 0.5);
  auto sym = std::make_shared<const symbolic::SymbolicLU>(
      symbolic::analyze(A, {}));
  const ProcessGrid grid{2, 4};
  auto count_messages = [&](bool pruning) {
    minimpi::World world(grid.nprocs());
    const auto stats = world.run([&](minimpi::Comm& comm) {
      DistOptions opt;
      opt.edag_pruning = pruning;
      DistributedLU<double> dlu(comm, grid, sym, A, opt);
    });
    count_t total = 0;
    for (const auto& s : stats) total += s.messages_sent;
    return total;
  };
  const count_t pruned = count_messages(true);
  const count_t full = count_messages(false);
  EXPECT_LT(pruned, full);  // the paper: ~16% fewer messages on AF23560
}

TEST(DistLU, ComplexDistributedFactorization) {
  const auto A =
      sparse::randomize_phases(sparse::convdiff2d(10, 10, 1.0, 0.5), 3);
  auto sym = std::make_shared<const symbolic::SymbolicLU>(
      symbolic::analyze(A, {}));
  numeric::LUFactors<Complex> serial(sym, A, {});
  const auto Lref = serial.l_matrix();
  const auto Uref = serial.u_matrix();

  const ProcessGrid grid{2, 2};
  minimpi::World world(grid.nprocs());
  CscMatrix<Complex> Ldist, Udist;
  world.run([&](minimpi::Comm& comm) {
    DistributedLU<Complex> dlu(comm, grid, sym, A, {});
    auto L = dlu.gather_l(comm);
    auto U = dlu.gather_u(comm);
    if (comm.rank() == 0) {
      Ldist = std::move(L);
      Udist = std::move(U);
    }
  });
  EXPECT_EQ(testing::max_abs_diff(Lref, Ldist), 0.0);
  EXPECT_EQ(testing::max_abs_diff(Uref, Udist), 0.0);
}

}  // namespace
}  // namespace gesp
