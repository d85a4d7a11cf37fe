#include "bench_util.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/timer.hpp"
#include "numeric/gepp.hpp"
#include "sparse/ops.hpp"

namespace gesp::bench {
namespace {

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return true;
  return false;
}

std::vector<std::string> matrices_arg(int argc, char** argv) {
  std::vector<std::string> names;
  for (int i = 1; i < argc; ++i) {
    const char* prefix = "--matrices=";
    if (std::strncmp(argv[i], prefix, std::strlen(prefix)) == 0) {
      std::stringstream ss(argv[i] + std::strlen(prefix));
      std::string tok;
      while (std::getline(ss, tok, ',')) names.push_back(tok);
    }
  }
  return names;
}

}  // namespace

SolverOptions paper_options() {
  SolverOptions opt;
  opt.col_order = ColOrderOption::amd_ata;
  opt.symbolic.max_block = 24;  // the paper's block size
  return opt;
}

MatrixRun run_gesp(const sparse::TestbedEntry& entry,
                   const SolverOptions& opt, bool with_ferr) {
  MatrixRun r;
  r.name = entry.name;
  r.discipline = entry.discipline;
  Timer t;
  const auto A = entry.make();
  r.gen_time = t.seconds();
  r.n = A.ncols;
  r.nnz = A.nnz();
  std::vector<double> x_true(static_cast<std::size_t>(A.ncols), 1.0);
  std::vector<double> b(x_true.size()), x(x_true.size());
  sparse::spmv<double>(A, x_true, b);
  try {
    SolverOptions o = opt;
    o.estimate_ferr = with_ferr;
    Solver<double> solver(A, o);
    solver.solve(b, x);
    const SolveStats& s = solver.stats();
    r.nnz_lu = s.nnz_l + s.nnz_u - A.ncols;
    r.flops = s.flops;
    r.nsup = s.nsup;
    r.rowperm_time = s.times.get("rowperm");
    r.colorder_time = s.times.get("colorder");
    r.symbolic_time = s.times.get("symbolic");
    r.factor_time = s.times.get("factor");
    r.solve_time = s.times.get("solve");
    r.residual_time = s.times.get("residual");
    r.refine_time = s.times.get("refine");
    r.ferr_time = s.times.get("ferr");
    r.refine_iters = s.refine_iterations;
    r.berr = s.berr;
    r.ferr = s.ferr;
    r.growth = s.pivot_growth;
    r.pivots_replaced = s.pivots_replaced;
    r.err = sparse::relative_error_inf<double>(x_true, x);
  } catch (const Error& e) {
    r.failed = true;
    r.fail_reason = e.what();
  }
  return r;
}

GeppRun run_gepp(const sparse::TestbedEntry& entry) {
  GeppRun r;
  const auto A = entry.make();
  std::vector<double> x_true(static_cast<std::size_t>(A.ncols), 1.0);
  std::vector<double> b(x_true.size()), x(x_true.size());
  sparse::spmv<double>(A, x_true, b);
  try {
    Timer t;
    numeric::GeppLU<double> lu(A);
    r.factor_time = t.seconds();
    lu.solve(b, x);
    r.err = sparse::relative_error_inf<double>(x_true, x);
    r.growth = lu.pivot_growth();
  } catch (const Error& e) {
    r.failed = true;
    r.fail_reason = e.what();
  }
  return r;
}

std::vector<sparse::TestbedEntry> select_testbed(int argc, char** argv) {
  const auto names = matrices_arg(argc, argv);
  const bool quick = has_flag(argc, argv, "--quick");
  std::vector<sparse::TestbedEntry> out;
  for (const auto& e : sparse::testbed()) {
    if (!names.empty()) {
      if (std::find(names.begin(), names.end(), e.name) != names.end())
        out.push_back(e);
      continue;
    }
    if (quick && e.large) continue;
    out.push_back(e);
  }
  return out;
}

std::vector<sparse::TestbedEntry> select_large(int argc, char** argv) {
  const auto names = matrices_arg(argc, argv);
  std::vector<sparse::TestbedEntry> out;
  for (const auto& e : sparse::large_testbed()) {
    if (!names.empty() &&
        std::find(names.begin(), names.end(), e.name) == names.end())
      continue;
    out.push_back(e);
  }
  if (has_flag(argc, argv, "--quick") && out.size() > 2) out.resize(2);
  return out;
}

std::vector<int> processor_counts(int argc, char** argv) {
  if (has_flag(argc, argv, "--quick")) return {4, 16, 64};
  return {4, 8, 16, 32, 64, 128, 256, 512};
}

}  // namespace gesp::bench
