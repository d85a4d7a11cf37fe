// Shared harness for the table/figure reproduction binaries: run GESP (and
// GEPP) over testbed entries, collect the statistics the paper reports, and
// handle the command-line subsetting flags every bench binary supports:
//   --matrices=a,b,c   run only the named testbed entries
//   --quick            skip the large-eight matrices (fast smoke run)
#pragma once

#include <string>
#include <vector>

#include "core/solver.hpp"
#include "sparse/testbed.hpp"

namespace gesp::bench {

/// Everything one GESP run on one matrix produces, in paper-report shape.
struct MatrixRun {
  std::string name;
  std::string discipline;
  index_t n = 0;
  count_t nnz = 0;
  count_t nnz_lu = 0;  ///< nnz(L+U), exact (unit diagonal counted once)
  count_t flops = 0;
  index_t nsup = 0;
  double gen_time = 0;
  double rowperm_time = 0;   ///< MC64 permute-large-diagonal (Fig 6)
  double colorder_time = 0;  ///< AMD + postorder
  double symbolic_time = 0;
  double factor_time = 0;
  double solve_time = 0;     ///< one pair of triangular solves
  double residual_time = 0;  ///< one sparse mat-vec residual
  double refine_time = 0;
  double ferr_time = 0;      ///< error-bound estimation (when requested)
  int refine_iters = 0;
  double berr = 0;
  double err = 0;  ///< ‖x - x̂‖∞ / ‖x‖∞ against the all-ones solution
  double ferr = -1;
  double growth = 0;
  count_t pivots_replaced = 0;
  bool failed = false;        ///< solver threw
  std::string fail_reason;
};

/// The paper's pipeline: the library defaults with the column order pinned
/// to AMD on AᵀA (the paper's MMD(AᵀA)) and the paper's block size,
/// max_block 24. The library default orders on A+Aᵀ and splits at 48;
/// Tables 1–5 and Figs 2–6 run these options so they keep reproducing the
/// paper's setting.
SolverOptions paper_options();

/// Run the full GESP pipeline (Fig 1) on one testbed entry with the right
/// hand side built from the all-ones solution, as in the paper.
MatrixRun run_gesp(const sparse::TestbedEntry& entry,
                   const SolverOptions& opt = paper_options(),
                   bool with_ferr = false);

/// Run the GEPP baseline (Gilbert–Peierls partial pivoting, SuperLU's
/// algorithm) on the same problem; returns the Fig-4 error metric.
struct GeppRun {
  double err = 0;
  double growth = 0;
  double factor_time = 0;
  bool failed = false;
  std::string fail_reason;
};
GeppRun run_gepp(const sparse::TestbedEntry& entry);

/// Testbed subset honoring --matrices= / --quick flags.
std::vector<sparse::TestbedEntry> select_testbed(int argc, char** argv);

/// Large-eight subset honoring the same flags.
std::vector<sparse::TestbedEntry> select_large(int argc, char** argv);

/// The processor counts of Tables 3-5 (honors --quick by stopping at 64).
std::vector<int> processor_counts(int argc, char** argv);

}  // namespace gesp::bench
