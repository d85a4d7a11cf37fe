// Performance-model tests: the discrete-event simulator must reproduce the
// qualitative behaviour the paper reports — speedup with more processors,
// pipelining gains, EDAG message reduction, rising communication fractions,
// and sane invariants (B in (0,1], conservation of flops).
#include <gtest/gtest.h>

#include "core/solver.hpp"
#include "dist/perfmodel.hpp"
#include "sparse/generators.hpp"
#include "symbolic/symbolic.hpp"

namespace gesp {
namespace {

using dist::MachineModel;
using dist::PerfOptions;
using dist::PerfResult;
using dist::ProcessGrid;

// The grid goes through the solver's transform (fill-reducing order and
// etree postorder) first: in natural order its band amalgamates into a
// single supernode chain, which leaves nothing to pipeline.
symbolic::SymbolicLU medium_structure() {
  static symbolic::SymbolicLU S = symbolic::analyze(
      compute_transform(sparse::convdiff2d(40, 40, 1.0, 0.5), SolverOptions{})
          .At,
      {});
  return S;
}

TEST(PerfModel, SerialTimeMatchesFlopsOverRate) {
  const auto S = medium_structure();
  MachineModel m;
  const PerfResult r =
      dist::simulate_factorization(S, ProcessGrid{1, 1}, m, {});
  EXPECT_GT(r.time, 0.0);
  // One process: no messages, no idling, B = 1.
  EXPECT_EQ(r.total_messages, 0);
  EXPECT_NEAR(r.load_balance, 1.0, 1e-9);
  EXPECT_NEAR(r.comm_fraction, 0.0, 1e-9);
  // The symbolic count uses integer 2b³/3; the model uses the real value.
  EXPECT_NEAR(static_cast<double>(r.total_flops),
              static_cast<double>(S.flops),
              1e-3 * static_cast<double>(S.flops));
}

TEST(PerfModel, SpeedupWithMoreProcessors) {
  const auto S = medium_structure();
  MachineModel m;
  double prev = dist::simulate_factorization(S, ProcessGrid{1, 1}, m, {}).time;
  for (int P : {4, 16}) {
    const auto grid = ProcessGrid::near_square(P);
    const double t = dist::simulate_factorization(S, grid, m, {}).time;
    EXPECT_LT(t, prev) << "no speedup at P=" << P;
    prev = t;
  }
}

TEST(PerfModel, PipeliningHelps) {
  const auto S = medium_structure();
  MachineModel m;
  const auto grid = ProcessGrid::near_square(16);
  PerfOptions piped, strict;
  piped.pipelined = true;
  strict.pipelined = false;
  const double tp = dist::simulate_factorization(S, grid, m, piped).time;
  const double ts = dist::simulate_factorization(S, grid, m, strict).time;
  EXPECT_LT(tp, ts);  // paper: 10-40% gains on 64 PEs
}

TEST(PerfModel, EdagPruningReducesMessages) {
  const auto S = medium_structure();
  const auto grid = ProcessGrid::near_square(32);
  const auto pruned = dist::count_factorization_comm(S, grid, true);
  const auto full = dist::count_factorization_comm(S, grid, false);
  EXPECT_LT(pruned.messages, full.messages);
  EXPECT_GT(pruned.messages, 0);
}

TEST(PerfModel, CommFractionRisesWithP) {
  const auto S = medium_structure();
  MachineModel m;
  const double c4 =
      dist::simulate_factorization(S, ProcessGrid::near_square(4), m, {})
          .comm_fraction;
  const double c64 =
      dist::simulate_factorization(S, ProcessGrid::near_square(64), m, {})
          .comm_fraction;
  EXPECT_GT(c64, c4);
  EXPECT_LE(c64, 1.0);
}

TEST(PerfModel, LoadBalanceInRange) {
  const auto S = medium_structure();
  MachineModel m;
  for (int P : {4, 16, 64}) {
    const auto r =
        dist::simulate_factorization(S, ProcessGrid::near_square(P), m, {});
    EXPECT_GT(r.load_balance, 0.0);
    EXPECT_LE(r.load_balance, 1.0 + 1e-12);
  }
}

TEST(PerfModel, SolveCommBound) {
  // Paper Table 5: the solve spends >95% of its time communicating on 64
  // processors; also solve time is far below factorization time.
  const auto S = medium_structure();
  MachineModel m;
  const auto grid = ProcessGrid::near_square(64);
  const auto fact = dist::simulate_factorization(S, grid, m, {});
  const auto solve = dist::simulate_solve(S, grid, m);
  EXPECT_GT(solve.comm_fraction, 0.8);
  EXPECT_LT(solve.time, fact.time);
}

TEST(PerfModel, SolveTimePlateausAtHighP) {
  // Paper Table 4: beyond ~64 processors the solve time stops improving.
  const auto S = medium_structure();
  MachineModel m;
  const double t64 =
      dist::simulate_solve(S, ProcessGrid::near_square(64), m).time;
  const double t256 =
      dist::simulate_solve(S, ProcessGrid::near_square(256), m).time;
  // Within a factor of two — no near-linear scaling in this regime.
  EXPECT_GT(t256, 0.5 * t64);
}

TEST(PerfModel, FlopsConservedAcrossGrids) {
  const auto S = medium_structure();
  MachineModel m;
  const auto r1 = dist::simulate_factorization(S, ProcessGrid{1, 1}, m, {});
  const auto r2 =
      dist::simulate_factorization(S, ProcessGrid::near_square(16), m, {});
  EXPECT_NEAR(static_cast<double>(r1.total_flops),
              static_cast<double>(r2.total_flops),
              1e-6 * static_cast<double>(r1.total_flops));
}

}  // namespace
}  // namespace gesp
