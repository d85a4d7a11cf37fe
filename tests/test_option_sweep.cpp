// Cartesian option sweep: every row-permutation strategy x column ordering
// x tiny-pivot policy combination must either solve the system accurately
// or fail loudly (throw) — never return garbage silently. This is the
// contract behind the paper's "flexible interface so the user is able to
// turn on or off any of these options." The OptionsContract tests pin the
// other half: which options combine at all, on every entry point.
#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <string>
#include <tuple>

#include "common/error.hpp"
#include "core/solver.hpp"
#include "dist/dist_solver.hpp"
#include "serve/service.hpp"
#include "sparse/generators.hpp"
#include "sparse/ops.hpp"

namespace gesp {
namespace {

using Combo = std::tuple<RowPermOption, ColOrderOption, bool /*equil*/>;

class OptionSweep : public ::testing::TestWithParam<Combo> {};

TEST_P(OptionSweep, SolvesOrFailsLoudly) {
  const auto [rowperm, colorder, equil] = GetParam();
  SolverOptions opt;
  opt.row_perm = rowperm;
  opt.col_order = colorder;
  opt.equilibrate = equil;
  // A well-conditioned matrix with a full diagonal: every combination has
  // to handle it (row_perm == none included, since the diagonal is safe).
  const auto A = sparse::convdiff2d(16, 14, 1.5, 0.75);
  const index_t n = A.ncols;
  std::vector<double> x_true(n, 1.0), b(n), x(n);
  sparse::spmv<double>(A, x_true, b);
  Solver<double> solver(A, opt);
  solver.solve(b, x);
  EXPECT_LT(sparse::relative_error_inf<double>(x_true, x), 1e-10);
  EXPECT_LE(solver.stats().berr, 1e-12);
}

TEST_P(OptionSweep, ZeroDiagonalMatrixNeedsMatching) {
  const auto [rowperm, colorder, equil] = GetParam();
  SolverOptions opt;
  opt.row_perm = rowperm;
  opt.col_order = colorder;
  opt.equilibrate = equil;
  const auto A = sparse::with_zero_diagonal(
      sparse::circuit_like(300, 4, 8, 31), 0.25, 32);
  const index_t n = A.ncols;
  std::vector<double> x_true(n, 1.0), b(n), x(n);
  sparse::spmv<double>(A, x_true, b);
  // MC21 is magnitude-blind: like "none", it may put arbitrarily small
  // entries on the diagonal, so it only has to fail *loudly*.
  if (rowperm == RowPermOption::none || rowperm == RowPermOption::mc21) {
    // Structural zero pivots: with replacement the solver limps through a
    // rank-deficient-looking factorization; berr/refinement expose it, or
    // it throws. Either way the error must not be silently reported small.
    try {
      Solver<double> solver(A, opt);
      solver.solve(b, x);
      const double err = sparse::relative_error_inf<double>(x_true, x);
      if (err <= 1e-6) {
        // If it claims accuracy, refinement must have converged for real.
        EXPECT_LE(solver.stats().berr, 1e-10);
      }  // otherwise: the garbage is visible through err/berr — fine
    } catch (const Error&) {
      SUCCEED();
    }
  } else {
    Solver<double> solver(A, opt);
    solver.solve(b, x);
    EXPECT_LT(sparse::relative_error_inf<double>(x_true, x), 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, OptionSweep,
    ::testing::Combine(
        ::testing::Values(RowPermOption::none, RowPermOption::mc21,
                          RowPermOption::mc64, RowPermOption::bottleneck),
        ::testing::Values(ColOrderOption::natural, ColOrderOption::amd_ata,
                          ColOrderOption::amd_aplusat, ColOrderOption::rcm,
                          ColOrderOption::nested_dissection),
        ::testing::Bool()),
    [](const ::testing::TestParamInfo<Combo>& info) {
      // (std::get, not a structured binding: bracketed commas would split
      // the INSTANTIATE macro's arguments.)
      const RowPermOption rp = std::get<0>(info.param);
      const ColOrderOption co = std::get<1>(info.param);
      const bool eq = std::get<2>(info.param);
      std::string name;
      switch (rp) {
        case RowPermOption::none: name += "none"; break;
        case RowPermOption::mc21: name += "mc21"; break;
        case RowPermOption::mc64: name += "mc64"; break;
        case RowPermOption::bottleneck: name += "bottleneck"; break;
      }
      switch (co) {
        case ColOrderOption::natural: name += "_natural"; break;
        case ColOrderOption::amd_ata: name += "_amdata"; break;
        case ColOrderOption::amd_aplusat: name += "_amdapa"; break;
        case ColOrderOption::rcm: name += "_rcm"; break;
        case ColOrderOption::nested_dissection: name += "_nd"; break;
      }
      name += eq ? "_equil" : "_noequil";
      return name;
    });

// ---------------------------------------------------------------------------
// The options contract (validate()): one table of option combinations,
// checked on every entry point. A rejected combination throws
// Errc::invalid_argument at construction — dist::solve before any rank
// runs, so the recovery fallback cannot absorb it — and every other
// combination constructs.

enum EntryPoint {
  kSolverDouble,
  kSolverComplex,
  kDistSolve,
  kServiceSingle,
  kServiceDist,
  kNumEntryPoints
};
const char* const kEntryPointNames[kNumEntryPoints] = {
    "Solver<double>", "Solver<Complex>", "dist::solve",
    "SolverService(serial)", "SolverService(dist)"};

struct ContractCase {
  const char* name;
  /// Applied to a default ServiceOptions; the core entry points take its
  /// `solver` member.
  void (*set)(serve::ServiceOptions&);
  std::array<bool, kNumEntryPoints> rejected;
};

constexpr bool Y = true, N = false;

const ContractCase kContract[] = {
    // Defaults are accepted everywhere.
    {"defaults", [](serve::ServiceOptions&) {}, {N, N, N, N, N}},
    // Precision: real double solvers only, and no dist.
    {"single", [](serve::ServiceOptions& o) {
       o.solver.precision = Precision::single;
     }, {N, Y, Y, N, Y}},
    // A dist service with fall-through hands patterns to DistSolver.
    {"mixed", [](serve::ServiceOptions& o) {
       o.solver.precision = Precision::mixed;
     }, {N, Y, Y, N, Y}},
    {"mixed, no fall-through", [](serve::ServiceOptions& o) {
       o.solver.precision = Precision::mixed;
       o.shard.dist_fallthrough = false;  // a ShardOptions on single node
     }, {N, Y, Y, Y, N}},
    {"mixed + aggressive_smw", [](serve::ServiceOptions& o) {
       o.solver.precision = Precision::mixed;
       o.solver.tiny_pivot = TinyPivotOption::aggressive_smw;
     }, {Y, Y, Y, Y, Y}},
    {"single + compensated residual", [](serve::ServiceOptions& o) {
       o.solver.precision = Precision::single;
       o.solver.refine.compensated_residual = true;
     }, {Y, Y, Y, Y, Y}},
    // SMW assumes the unpivoted factorization.
    {"aggressive_smw + threshold pivoting", [](serve::ServiceOptions& o) {
       o.solver.tiny_pivot = TinyPivotOption::aggressive_smw;
       o.solver.panel_pivot = dense::PanelPivot::threshold;
     }, {Y, Y, Y, Y, Y}},
    // What the dist engine does not run.
    {"aggressive_smw", [](serve::ServiceOptions& o) {
       o.solver.tiny_pivot = TinyPivotOption::aggressive_smw;
     }, {N, N, Y, N, Y}},
    {"ferr", [](serve::ServiceOptions& o) { o.solver.estimate_ferr = true; },
     {N, N, Y, N, Y}},
    {"ferr, ladder armed", [](serve::ServiceOptions& o) {
       o.solver.estimate_ferr = true;
       o.solver.recovery.enabled = true;
     }, {N, N, Y, N, Y}},
    {"rcond", [](serve::ServiceOptions& o) { o.solver.estimate_rcond = true; },
     {N, N, Y, N, Y}},
    {"compensated residual", [](serve::ServiceOptions& o) {
       o.solver.refine.compensated_residual = true;
     }, {N, N, Y, N, Y}},
    {"panel_rrp", [](serve::ServiceOptions& o) {
       o.solver.panel_pivot = dense::PanelPivot::panel_rrp;
     }, {N, N, Y, N, Y}},
    {"threshold pivoting", [](serve::ServiceOptions& o) {
       o.solver.panel_pivot = dense::PanelPivot::threshold;
     }, {N, N, Y, N, Y}},
    {"growth_abort > 0", [](serve::ServiceOptions& o) {
       o.solver.growth_abort = 10.0;
     }, {N, N, Y, N, Y}},
    {"growth_abort < 0", [](serve::ServiceOptions& o) {
       o.solver.growth_abort = -1.0;
     }, {N, N, N, N, N}},
    // ShardOptions are dist-only; the worker-pool knobs single-node only.
    {"shard replication", [](serve::ServiceOptions& o) {
       o.shard.replication = 3;
     }, {N, N, N, Y, N}},
    {"num_workers", [](serve::ServiceOptions& o) { o.num_workers = 4; },
     {N, N, N, N, Y}},
    {"max_batch", [](serve::ServiceOptions& o) { o.max_batch = 1; },
     {N, N, N, N, Y}},
    {"per_column batches", [](serve::ServiceOptions& o) {
       o.batch_mode = serve::BatchMode::per_column;
     }, {N, N, N, N, Y}},
    {"no shed", [](serve::ServiceOptions& o) { o.shed_refinement = false; },
     {N, N, N, N, Y}},
};

/// Construct `entry` under `o`: the error code it throws, or nullopt.
std::optional<Errc> construct(EntryPoint entry, serve::ServiceOptions o) {
  const auto A = sparse::convdiff2d(8, 8, 1.0, 0.5);
  const std::vector<double> b(static_cast<std::size_t>(A.ncols), 1.0);
  try {
    switch (entry) {
      case kSolverDouble:
        Solver<double>(A, o.solver);
        break;
      case kSolverComplex:
        Solver<Complex>(sparse::randomize_phases(A, 7), o.solver);
        break;
      case kDistSolve:
        o.solver.backend = Backend::dist;
        dist::solve<double>(A, b, o.solver);
        break;
      case kServiceSingle:
        o.backend = Backend::serial;
        serve::SolverService<double>{o};
        break;
      case kServiceDist:
        o.backend = Backend::dist;
        serve::SolverService<double>{o};
        break;
      case kNumEntryPoints:
        break;
    }
  } catch (const Error& e) {
    return e.code();
  }
  return std::nullopt;
}

TEST(OptionsContract, EveryRuleOnEveryEntryPoint) {
  for (const ContractCase& c : kContract) {
    for (int d = 0; d < kNumEntryPoints; ++d) {
      SCOPED_TRACE(std::string(c.name) + " on " + kEntryPointNames[d]);
      serve::ServiceOptions o;
      c.set(o);
      const std::optional<Errc> got = construct(static_cast<EntryPoint>(d), o);
      if (c.rejected[static_cast<std::size_t>(d)])
        EXPECT_TRUE(got == Errc::invalid_argument)
            << (got ? errc_name(*got) : "accepted");
      else
        EXPECT_FALSE(got.has_value()) << "rejected: " << errc_name(*got);
    }
  }
}

TEST(OptionsContract, DistSolverAnswersToTheDistRulesWhateverBackendItIsNamed) {
  // DistSolver is the dist engine even when its options name another
  // backend, so it rejects what the engine would otherwise drop.
  const auto A = sparse::convdiff2d(6, 6, 1.0, 0.5);
  SolverOptions opt;  // backend = threaded
  opt.dist.pr = opt.dist.pc = 1;
  opt.panel_pivot = dense::PanelPivot::panel_rrp;
  minimpi::World world(1);
  const auto reports = world.run_report([&](minimpi::Comm& comm) {
    dist::DistSolver<double> ds(comm, A, opt);
  });
  ASSERT_TRUE(reports[0].failed());
  EXPECT_EQ(reports[0].error_code(), Errc::invalid_argument);
}

}  // namespace
}  // namespace gesp
