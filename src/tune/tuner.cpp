#include "tune/tuner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace gesp::tune {
namespace {

/// Aggregated structure costs, one pass over the block lists. GEMM flops
/// per supernode separate as 2·w·(Σ rows)(Σ cols) over the L×U block
/// pairs, so this is O(#blocks), not O(#pairs).
struct StructCosts {
  double total_s = 0.0;      ///< serial seconds: flops/rate(w) + pairs·ovh
  double flop_s = 0.0;       ///< compute part of total_s
  double pair_s = 0.0;       ///< overhead part of total_s
  double crit_s = 0.0;       ///< critical-path seconds through the etree
  double mean_width = 0.0;   ///< n / nsup
};

StructCosts structure_costs(const symbolic::SymbolicLU& S,
                            const Calibration& cal) {
  StructCosts out;
  const auto usn = static_cast<std::size_t>(S.nsup);
  std::vector<double> child_crit(usn, 0.0);
  for (index_t K = 0; K < S.nsup; ++K) {
    const double w = static_cast<double>(S.block_cols(K));
    double lrows = 0.0, ucols = 0.0;
    for (const auto& blk : S.L[static_cast<std::size_t>(K)])
      lrows += static_cast<double>(blk.rows.size());
    for (const auto& blk : S.U[static_cast<std::size_t>(K)])
      ucols += static_cast<double>(blk.cols.size());
    const double nl =
        static_cast<double>(S.L[static_cast<std::size_t>(K)].size());
    const double nu =
        static_cast<double>(S.U[static_cast<std::size_t>(K)].size());
    const double panel_flops = (2.0 / 3.0) * w * w * w      // getrf
                               + (lrows + ucols) * w * w;   // trsms
    const double gemm_flops = 2.0 * w * lrows * ucols;      // updates
    // The calibration measures square b^3 GEMMs, but an update pair is a
    // (block rows) x (block cols) x w product — usually skinny. Price it
    // at the rate of the equivalent cubic size cbrt(w*r*c) (mean block
    // dims), otherwise the curve wildly overstates wide blocks on
    // small-supernode matrices where r and c stay tiny.
    const double rbar = nl > 0.0 ? lrows / nl : 1.0;
    const double cbar = nu > 0.0 ? ucols / nu : 1.0;
    const double eq =
        std::cbrt(w * std::max(1.0, rbar) * std::max(1.0, cbar));
    const double flop_sec = panel_flops / cal.rate(std::max(1.0, w)) +
                            gemm_flops / cal.rate(std::max(1.0, eq));
    const double pairs = nl * nu;
    const double pair_sec = pairs * cal.pair_overhead_s;
    const double cost = flop_sec + pair_sec;
    out.flop_s += flop_sec;
    out.pair_s += pair_sec;
    const double crit = cost + child_crit[static_cast<std::size_t>(K)];
    out.crit_s = std::max(out.crit_s, crit);
    const index_t parent = S.sn_parent[static_cast<std::size_t>(K)];
    if (parent >= 0) {
      auto up = static_cast<std::size_t>(parent);
      child_crit[up] = std::max(child_crit[up], crit);
    }
  }
  out.total_s = out.flop_s + out.pair_s;
  out.mean_width = S.nsup > 0 ? static_cast<double>(S.n) /
                                    static_cast<double>(S.nsup)
                              : 0.0;
  return out;
}

/// Divisor pairs of P in deterministic order: (1,P), ..., (P,1).
std::vector<dist::ProcessGrid> grid_candidates(int nprocs) {
  std::vector<dist::ProcessGrid> out;
  for (int pr = 1; pr <= nprocs; ++pr)
    if (nprocs % pr == 0) out.push_back({pr, nprocs / pr});
  return out;
}

}  // namespace

Tuner::Tuner(Calibration cal, TunerOptions opt)
    : cal_(std::move(cal)), opt_(std::move(opt)) {}

double Tuner::correction() const {
  std::lock_guard<std::mutex> lock(mu_);
  return correction_;
}

PredictedCost Tuner::predict(const symbolic::SymbolicLU& S,
                             int num_threads) const {
  const StructCosts c = structure_costs(S, cal_);
  PredictedCost out;
  const int p = std::max(1, num_threads);
  if (p == 1) {
    out.flop_seconds = c.flop_s;
    out.overhead_seconds = c.pair_s;
    out.seconds = c.total_s;
    return out;
  }
  const double lower = std::max(c.total_s / p, c.crit_s);
  // One enqueue+dispatch per supernode task.
  const double sched_over =
      static_cast<double>(S.nsup) * cal_.task_overhead_s;
  out.flop_seconds = c.flop_s / p;
  out.overhead_seconds = c.pair_s / p + sched_over;
  out.seconds = lower + sched_over;
  return out;
}

TuneDecision Tuner::decide(const TuneInputs& in) {
  GESP_CHECK(in.sym != nullptr && in.opt != nullptr, Errc::invalid_argument,
             "tuner inputs need the symbolic analysis and the options");
  GESP_TRACE_SPAN("tune", "decide");
  return in.dist_nprocs > 0 ? decide_dist(in) : decide_shared(in);
}

TuneDecision Tuner::decide_shared(const TuneInputs& in) {
  const SolverOptions& req = *in.opt;
  const double corr = correction();
  const index_t b_req = req.symbolic.max_block;
  const int p_req = std::max(1, in.max_threads);

  // The request's own predicted cost is the bar every candidate must clear.
  TuneDecision d;
  d.max_block = b_req;
  d.num_threads = p_req;
  d.precision = req.precision;
  d.pr = req.dist.pr;
  d.pc = req.dist.pc;
  d.pipelined = req.dist.pipelined;
  const PredictedCost req_cost = predict(*in.sym, p_req);
  d.predicted_default_seconds = req_cost.seconds * corr;
  d.predicted_seconds = d.predicted_default_seconds;

  std::vector<index_t> blocks;
  if (opt_.tune_block) blocks = opt_.block_candidates;
  blocks.push_back(b_req);
  std::sort(blocks.begin(), blocks.end());
  blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());

  std::vector<int> threads{p_req};
  if (opt_.tune_schedule && p_req > 1) threads.insert(threads.begin(), 1);

  index_t best_b = b_req;
  int best_p = p_req;
  double best_t = req_cost.seconds;

  for (const index_t b : blocks) {
    if (b < 1) continue;
    symbolic::SymbolicLU alt;
    const symbolic::SymbolicLU* S = in.sym;
    if (b != b_req) {
      if (!in.analyze) continue;
      symbolic::SymbolicOptions so = req.symbolic;
      so.max_block = b;
      alt = in.analyze(so);
      S = &alt;
    }
    for (const int p : threads) {
      const double t = predict(*S, p).seconds;
      // Strict improvement, deterministic tie-breaks: smaller block, then
      // more threads.
      const bool better =
          t < best_t ||
          (t == best_t && (b < best_b || (b == best_b && p > best_p)));
      if (better) {
        best_b = b;
        best_p = p;
        best_t = t;
      }
    }
  }

  const bool config_differs = best_b != b_req || best_p != p_req;
  if (config_differs && best_t * opt_.min_gain < req_cost.seconds) {
    d.changed = true;
    d.max_block = best_b;
    d.num_threads = best_p;
    d.predicted_seconds = best_t * corr;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "block %lld->%lld threads %d->%d (%.3gs -> %.3gs)",
                  static_cast<long long>(b_req),
                  static_cast<long long>(best_b), p_req, best_p,
                  d.predicted_default_seconds, d.predicted_seconds);
    d.note = buf;
  } else {
    d.note = "request already within the model's noise band";
  }

  // Optional precision proposal: wide supernodes amortize the float
  // kernels' 2x rate; narrow ones are pair-overhead-bound and gain nothing
  // (PR 7's EXPERIMENTS finding). Opt-in because accuracy expectations
  // change with it.
  if (opt_.allow_precision && req.precision == Precision::double_) {
    const StructCosts c = structure_costs(*in.sym, cal_);
    if (c.mean_width >= 8.0 && c.flop_s > 2.0 * c.pair_s) {
      d.changed = true;
      d.precision = Precision::mixed;
      d.note += d.note.empty() ? "" : "; ";
      d.note += "wide supernodes: mixed precision";
    }
  }
  return d;
}

TuneDecision Tuner::decide_dist(const TuneInputs& in) {
  const SolverOptions& req = *in.opt;
  const double corr = correction();
  const index_t b_req = req.symbolic.max_block;
  const int nprocs = in.dist_nprocs;

  dist::ProcessGrid req_grid;
  if (req.dist.pr > 0 && req.dist.pc > 0 &&
      req.dist.pr * req.dist.pc == nprocs)
    req_grid = {req.dist.pr, req.dist.pc};
  else
    req_grid = dist::ProcessGrid::near_square(nprocs);

  TuneDecision d;
  d.max_block = b_req;
  d.num_threads = std::max(1, in.max_threads);
  d.precision = req.precision;
  d.pr = req_grid.pr;
  d.pc = req_grid.pc;
  d.pipelined = req.dist.pipelined;

  const dist::MachineModel machine = cal_.machine();
  dist::PerfOptions perf;
  perf.edag_pruning = req.dist.edag_pruning;
  perf.pipelined = req.dist.pipelined;
  const double req_t =
      dist::simulate_factorization(*in.sym, req_grid, machine, perf).time;
  d.predicted_default_seconds = req_t * corr;
  d.predicted_seconds = d.predicted_default_seconds;

  std::vector<index_t> blocks;
  if (opt_.tune_block) blocks = opt_.block_candidates;
  blocks.push_back(b_req);
  std::sort(blocks.begin(), blocks.end());
  blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());

  const std::vector<dist::ProcessGrid> grids =
      opt_.tune_grid ? grid_candidates(nprocs)
                     : std::vector<dist::ProcessGrid>{req_grid};
  const std::vector<bool> pipes =
      opt_.tune_grid ? std::vector<bool>{true, false}
                     : std::vector<bool>{req.dist.pipelined};

  index_t best_b = b_req;
  dist::ProcessGrid best_g = req_grid;
  bool best_pipe = req.dist.pipelined;
  double best_t = req_t;
  for (const index_t b : blocks) {
    if (b < 1) continue;
    symbolic::SymbolicLU alt;
    const symbolic::SymbolicLU* S = in.sym;
    if (b != b_req) {
      if (!in.analyze) continue;
      symbolic::SymbolicOptions so = req.symbolic;
      so.max_block = b;
      alt = in.analyze(so);
      S = &alt;
    }
    for (const auto& g : grids) {
      for (const bool pipe : pipes) {
        dist::PerfOptions po = perf;
        po.pipelined = pipe;
        const double t =
            dist::simulate_factorization(*S, g, machine, po).time;
        const bool better =
            t < best_t ||
            (t == best_t &&
             (b < best_b ||
              (b == best_b && std::abs(g.pr - g.pc) <
                                  std::abs(best_g.pr - best_g.pc))));
        if (better) {
          best_b = b;
          best_g = g;
          best_pipe = pipe;
          best_t = t;
        }
      }
    }
  }

  const bool config_differs = best_b != b_req ||
                              best_g.pr != req_grid.pr ||
                              best_g.pc != req_grid.pc ||
                              best_pipe != req.dist.pipelined;
  if (config_differs && best_t * opt_.min_gain < req_t) {
    d.changed = true;
    d.max_block = best_b;
    d.pr = best_g.pr;
    d.pc = best_g.pc;
    d.pipelined = best_pipe;
    d.predicted_seconds = best_t * corr;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "block %lld->%lld grid %dx%d->%dx%d %s (%.3gs -> %.3gs)",
                  static_cast<long long>(b_req),
                  static_cast<long long>(best_b), req_grid.pr, req_grid.pc,
                  best_g.pr, best_g.pc,
                  best_pipe ? "pipelined" : "strict",
                  d.predicted_default_seconds, d.predicted_seconds);
    d.note = buf;
  } else {
    d.note = "request already within the model's noise band";
  }
  return d;
}

void Tuner::observe(const TuneDecision& decision, double actual_seconds) {
  if (decision.predicted_seconds <= 0.0 || actual_seconds <= 0.0) return;
  const double ratio = actual_seconds / decision.predicted_seconds;
  std::lock_guard<std::mutex> lock(mu_);
  // EWMA toward the observed scale error, clamped so one outlier
  // (first-touch page faults, a preempted probe) cannot wreck the model.
  correction_ = std::clamp(0.5 * correction_ + 0.5 * correction_ * ratio,
                           0.1, 10.0);
  metrics::global().gauge("tune.model_correction").set(correction_);
  metrics::global().counter("tune.observations").inc();
}

std::shared_ptr<TunerBase> make_tuner(Calibration cal, TunerOptions opt) {
  return std::make_shared<Tuner>(std::move(cal), std::move(opt));
}

std::shared_ptr<TunerBase> default_tuner() {
  static std::shared_ptr<TunerBase> tuner =
      make_tuner(calibrate_cached(), TunerOptions{});
  return tuner;
}

void attach_tuner(SolverOptions& opt, TunePolicy policy,
                  std::shared_ptr<TunerBase> tuner) {
  opt.tune.policy = policy;
  if (policy == TunePolicy::off) {
    opt.tune.tuner = std::move(tuner);
    return;
  }
  opt.tune.tuner = tuner ? std::move(tuner) : default_tuner();
}

}  // namespace gesp::tune
