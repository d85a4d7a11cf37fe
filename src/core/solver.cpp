#include "core/solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "matching/matching.hpp"
#include "ordering/amd.hpp"
#include "ordering/nested_dissection.hpp"
#include "ordering/patterns.hpp"
#include "ordering/rcm.hpp"
#include "refine/error_bounds.hpp"
#include "sparse/ops.hpp"

namespace gesp {
namespace {

/// Factorization failures the ladder may absorb; anything else (bad input,
/// broken invariant) propagates immediately.
bool recoverable(Errc c) {
  return c == Errc::numerically_singular || c == Errc::unstable;
}

std::string format_sci(const char* what, double value, double limit) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%s %.3e above limit %.3e", what, value,
                limit);
  return buf;
}

/// Classify a factorization-time failure for the recovery trail. The
/// in-flight growth monitor throws Errc::unstable; everything else the
/// ladder absorbs is a structural/numerical factorization failure.
RecoveryTrigger trigger_for(Errc c) {
  return c == Errc::unstable ? RecoveryTrigger::growth_abort
                             : RecoveryTrigger::factor_failure;
}

/// Downcast the transformed matrix for the single-precision factorization:
/// same pattern, values rounded to float. Conversion happens here — after
/// scaling and permutation — so the float kernels see the equilibrated,
/// diagonally-dominant matrix, not the raw (possibly wildly scaled) input.
sparse::CscMatrix<float> to_single(const sparse::CscMatrix<double>& A) {
  sparse::CscMatrix<float> B;
  B.nrows = A.nrows;
  B.ncols = A.ncols;
  B.colptr = A.colptr;
  B.rowind = A.rowind;
  B.values.resize(A.values.size());
  for (std::size_t i = 0; i < A.values.size(); ++i)
    B.values[i] = static_cast<float>(A.values[i]);
  return B;
}

}  // namespace

const char* precision_name(Precision p) noexcept {
  switch (p) {
    case Precision::double_:
      return "double";
    case Precision::single:
      return "single";
    case Precision::mixed:
      return "mixed";
  }
  return "unknown";
}

const char* tune_policy_name(TunePolicy p) noexcept {
  switch (p) {
    case TunePolicy::off:
      return "off";
    case TunePolicy::model:
      return "model";
    case TunePolicy::probe:
      return "probe";
  }
  return "unknown";
}

void SolveStats::export_metrics(metrics::Registry& reg) const {
  reg.gauge("solver.nnz_l").set(static_cast<double>(nnz_l));
  reg.gauge("solver.nnz_u").set(static_cast<double>(nnz_u));
  reg.gauge("solver.stored_l").set(static_cast<double>(stored_l));
  reg.gauge("solver.stored_u").set(static_cast<double>(stored_u));
  reg.gauge("solver.flops").set(static_cast<double>(flops));
  reg.gauge("solver.nsup").set(static_cast<double>(nsup));
  reg.gauge("solver.pivots_replaced")
      .set(static_cast<double>(pivots_replaced));
  reg.gauge("solver.pivot_growth").set(pivot_growth);
  reg.gauge("solver.refine_iterations")
      .set(static_cast<double>(refine_iterations));
  reg.gauge("solver.berr").set(berr);
  if (ferr >= 0.0) reg.gauge("solver.ferr").set(ferr);
  if (rcond >= 0.0) reg.gauge("solver.rcond").set(rcond);
  reg.gauge("solver.recovery_attempts")
      .set(static_cast<double>(recovery.attempts.size()));
  reg.gauge("solver.recovery_final_rung")
      .set(static_cast<double>(recovery.final_rung));
  reg.gauge("solver.recovered").set(recovery.recovered ? 1.0 : 0.0);
  if (!recovery.attempts.empty())
    reg.gauge("solver.recovery_last_trigger")
        .set(static_cast<double>(recovery.attempts.back().trigger));
  reg.gauge("solver.solve_wall_seconds").set(solve_wall_seconds);
  reg.gauge("solver.solve_wall_total_seconds").set(solve_wall_total_seconds);
  reg.gauge("solver.solve_calls").set(static_cast<double>(solve_calls));
  reg.gauge("solver.precision.factor_bits")
      .set(factor_precision == Precision::single ? 32.0 : 64.0);
  reg.gauge("solver.precision.promotions")
      .set(static_cast<double>(promotions));
  reg.gauge("solver.delta.calls").set(static_cast<double>(delta.calls));
  reg.gauge("solver.delta.noop").set(static_cast<double>(delta.noop));
  reg.gauge("solver.delta.smw").set(static_cast<double>(delta.smw));
  reg.gauge("solver.delta.partial").set(static_cast<double>(delta.partial));
  reg.gauge("solver.delta.full").set(static_cast<double>(delta.full));
  reg.gauge("solver.delta.changed_entries")
      .set(static_cast<double>(delta.changed_entries));
  reg.gauge("solver.delta.dirty_supernodes")
      .set(static_cast<double>(delta.dirty_supernodes));
  reg.gauge("solver.delta.smw_rank")
      .set(static_cast<double>(delta.smw_rank));
  reg.gauge("solver.tune.policy").set(static_cast<double>(tuning.policy));
  reg.gauge("solver.tune.consulted").set(tuning.consulted ? 1.0 : 0.0);
  reg.gauge("solver.tune.applied").set(tuning.applied ? 1.0 : 0.0);
  if (tuning.consulted) {
    reg.gauge("solver.tune.block")
        .set(static_cast<double>(tuning.decision.max_block > 0
                                     ? tuning.decision.max_block
                                     : tuning.default_block));
    reg.gauge("solver.tune.default_block")
        .set(static_cast<double>(tuning.default_block));
    reg.gauge("solver.tune.num_threads")
        .set(static_cast<double>(tuning.decision.num_threads));
    reg.gauge("solver.tune.predicted_seconds")
        .set(tuning.decision.predicted_seconds);
    reg.gauge("solver.tune.predicted_default_seconds")
        .set(tuning.decision.predicted_default_seconds);
    reg.gauge("solver.tune.actual_factor_seconds")
        .set(tuning.actual_factor_seconds);
    reg.gauge("solver.tune.model_error").set(tuning.model_error);
  }
  for (const auto& [phase, seconds] : times.all())
    reg.gauge("solver.time." + phase).set(seconds);
  for (const auto& [phase, seconds] : times.all_totals())
    reg.gauge("solver.time_total." + phase).set(seconds);
}

const char* backend_name(Backend b) noexcept {
  switch (b) {
    case Backend::serial:
      return "serial";
    case Backend::threaded:
      return "threaded";
    case Backend::dist:
      return "dist";
  }
  return "unknown";
}

const char* recovery_rung_name(RecoveryRung r) noexcept {
  switch (r) {
    case RecoveryRung::gesp:
      return "gesp";
    case RecoveryRung::precision_promote:
      return "precision_promote";
    case RecoveryRung::aggressive_smw:
      return "aggressive_smw";
    case RecoveryRung::unscaled:
      return "unscaled";
    case RecoveryRung::threshold:
      return "threshold";
    case RecoveryRung::panel_rrp:
      return "panel_rrp";
    case RecoveryRung::gepp:
      return "gepp";
  }
  return "unknown";
}

const char* recovery_trigger_name(RecoveryTrigger t) noexcept {
  switch (t) {
    case RecoveryTrigger::none:
      return "none";
    case RecoveryTrigger::berr_stall:
      return "berr_stall";
    case RecoveryTrigger::pivot_growth:
      return "pivot_growth";
    case RecoveryTrigger::growth_abort:
      return "growth_abort";
    case RecoveryTrigger::factor_failure:
      return "factor_failure";
  }
  return "unknown";
}

template <class T>
Solver<T>::Solver(const sparse::CscMatrix<T>& A, const SolverOptions& opt)
    : opt_(opt) {
  GESP_CHECK(A.nrows == A.ncols, Errc::invalid_argument,
             "GESP needs a square matrix");
  GESP_CHECK(opt_.backend != Backend::dist, Errc::invalid_argument,
             "Backend::dist is driven by gesp::dist::solve or "
             "dist::DistSolver, not core::Solver");
  if (opt_.backend == Backend::serial) opt_.num_threads = 1;
  if (opt_.precision != Precision::double_) {
    GESP_CHECK((std::is_same_v<T, double>), Errc::invalid_argument,
               "single/mixed precision requires a real double solver");
    GESP_CHECK(opt_.tiny_pivot != TinyPivotOption::aggressive_smw,
               Errc::invalid_argument,
               "aggressive_smw pivoting is incompatible with single/mixed "
               "precision (the SMW correction is double-typed)");
    GESP_CHECK(!opt_.refine.compensated_residual, Errc::invalid_argument,
               "compensated residuals are pointless below double precision");
  }
  n_ = A.ncols;
  pattern_ = sparse::pattern_key(A);
  if (opt_.recovery.enabled) A_keep_ = A;
  transform(A);
  consult_tuner();
  if (!opt_.recovery.enabled) {
    factor();
    finish_tuning();
    return;
  }
  // A non-default start rung (serve's hostile fast path) skips the rungs
  // a repeat offender is known to burn through.
  rung_ = opt_.recovery.start_rung;
  factor_ladder();
  finish_tuning();
}

template <class T>
void Solver<T>::consult_tuner() {
  if (opt_.tune.policy == TunePolicy::off) return;
  GESP_CHECK(opt_.tune.tuner != nullptr, Errc::invalid_argument,
             "TunePolicy::model/probe need a tuner "
             "(construct one with tune::make_tuner)");
  GESP_TRACE_SPAN("solver", "tune");
  Timer t;
  // The decision prices the structure the request would produce, so the
  // symbolic analysis under the requested options runs first; factor()
  // reuses it unless the tuner picks a different block size.
  if (!sym_) {
    GESP_TRACE_SPAN("solver", "symbolic");
    Timer ts;
    sym_ = std::make_shared<const symbolic::SymbolicLU>(
        symbolic::analyze(At_, opt_.symbolic));
    stats_.times.add("symbolic", ts.seconds());
  }
  TuneInputs in;
  in.n = n_;
  in.nnz = At_.nnz();
  in.sym = sym_.get();
  in.opt = &opt_;
  in.max_threads = opt_.num_threads;
  in.analyze = [this](const symbolic::SymbolicOptions& so) {
    return symbolic::analyze(At_, so);
  };
  TuningReport& rep = stats_.tuning;
  rep.policy = opt_.tune.policy;
  rep.consulted = true;
  rep.default_block = opt_.symbolic.max_block;
  rep.decision = opt_.tune.tuner->decide(in);
  metrics::global().counter("solver.tune.decisions").inc();
  const TuneDecision& d = rep.decision;
  if (d.changed) {
    rep.applied = true;
    metrics::global().counter("solver.tune.applied_events").inc();
    trace::instant("solver", "tune_apply",
                   static_cast<int>(d.max_block > 0 ? d.max_block
                                                    : opt_.symbolic.max_block));
    if (d.max_block > 0 && d.max_block != opt_.symbolic.max_block) {
      opt_.symbolic.max_block = d.max_block;
      sym_.reset();  // factor() re-analyzes under the chosen block
    }
    opt_.num_threads = std::clamp(d.num_threads, 1, std::max(1, in.max_threads));
    if constexpr (std::is_same_v<T, double>) {
      // A precision override must satisfy the same constraints the
      // constructor validates for an explicit request; the tuner only
      // proposes precisions its TunerOptions allow, this re-checks.
      if (d.precision != opt_.precision &&
          opt_.tiny_pivot != TinyPivotOption::aggressive_smw &&
          !opt_.refine.compensated_residual)
        opt_.precision = d.precision;
    }
  }
  stats_.times.add("tune", t.seconds());
}

template <class T>
void Solver<T>::finish_tuning() {
  TuningReport& rep = stats_.tuning;
  if (!rep.consulted) return;
  rep.actual_factor_seconds = stats_.times.total("factor");
  if (rep.decision.predicted_seconds > 0.0 &&
      rep.actual_factor_seconds > 0.0)
    rep.model_error =
        rep.actual_factor_seconds / rep.decision.predicted_seconds;
  if (opt_.tune.policy == TunePolicy::probe)
    opt_.tune.tuner->observe(rep.decision, rep.actual_factor_seconds);
  // Construction has no solve() to export through: publish the tuning
  // gauges now so the decision is observable before the first request.
  stats_.export_metrics(metrics::global());
}

template <class T>
void Solver<T>::factor_ladder() {
  while (true) {
    try {
      apply_rung();
      return;
    } catch (const Error& e) {
      if (!recoverable(e.code())) throw;
      RecoveryAttempt a;
      a.rung = rung_;
      a.trigger = trigger_for(e.code());
      a.detail = e.what();
      stats_.recovery.attempts.push_back(std::move(a));
      if (!advance_rung()) throw;
    }
  }
}

template <class T>
bool Solver<T>::advance_rung() {
  const RecoveryPolicy& p = opt_.recovery;
  while (rung_ != RecoveryRung::gepp) {
    rung_ = static_cast<RecoveryRung>(static_cast<int>(rung_) + 1);
    switch (rung_) {
      case RecoveryRung::precision_promote:
        // Only meaningful while mixed mode still owes a double
        // factorization: either the float one is active, or it failed
        // outright at construction and double is the natural retry.
        if (p.try_precision_promote && opt_.precision == Precision::mixed &&
            !promoted_)
          return true;
        break;
      case RecoveryRung::aggressive_smw:
        // Pointless if the user already factored with aggressive pivots,
        // and invalid once an in-block strategy persisted from an earlier
        // escalation (SMW assumes the unpivoted factorization). The SMW
        // correction is double-typed, so a solver pinned to single skips it.
        if (p.try_aggressive_smw &&
            opt_.tiny_pivot != TinyPivotOption::aggressive_smw &&
            opt_.panel_pivot == dense::PanelPivot::static_ &&
            opt_.precision != Precision::single)
          return true;
        break;
      case RecoveryRung::unscaled:
        if (p.try_unscaled_refactor && opt_.mc64_scaling &&
            opt_.row_perm == RowPermOption::mc64)
          return true;
        break;
      case RecoveryRung::threshold:
        // Pointless if the user already factored with this (or a stronger)
        // in-block strategy.
        if (p.try_threshold &&
            opt_.panel_pivot == dense::PanelPivot::static_)
          return true;
        break;
      case RecoveryRung::panel_rrp:
        if (p.try_panel_rrp &&
            opt_.panel_pivot != dense::PanelPivot::panel_rrp)
          return true;
        break;
      case RecoveryRung::gepp:
        if (p.try_gepp) return true;
        break;
      case RecoveryRung::gesp:
        break;
    }
  }
  return false;
}

template <class T>
void Solver<T>::apply_rung() {
  if (rung_ != RecoveryRung::gesp) {
    trace::instant("solver", "recovery_escalate", static_cast<int>(rung_));
    metrics::global().counter("solver.recovery_escalations").inc();
    // Mixed mode never carries the float factorization past the first rung:
    // the pivoting rescues assume full-precision kernels, and a rescue that
    // still refines like float would re-trip the same berr trigger.
    // (Precision::single keeps its word and stays single on the in-block
    // rungs; gepp is double regardless.)
    if (opt_.precision == Precision::mixed) promoted_ = true;
  }
  switch (rung_) {
    case RecoveryRung::gesp:
      factor();
      break;
    case RecoveryRung::precision_promote:
      promote_to_double();
      break;
    case RecoveryRung::aggressive_smw:
      opt_.tiny_pivot = TinyPivotOption::aggressive_smw;
      factor();
      break;
    case RecoveryRung::unscaled:
      opt_.mc64_scaling = false;
      sym_.reset();  // the transformed matrix changes: full re-analysis
      transform(A_keep_);
      factor();
      break;
    case RecoveryRung::threshold:
      // In-block pivoting cannot carry the SMW correction: drop back to
      // plain tiny-pivot replacement alongside the stronger strategy.
      opt_.tiny_pivot = TinyPivotOption::replace;
      opt_.panel_pivot = dense::PanelPivot::threshold;
      factor();
      break;
    case RecoveryRung::panel_rrp:
      opt_.tiny_pivot = TinyPivotOption::replace;
      opt_.panel_pivot = dense::PanelPivot::panel_rrp;
      factor();
      break;
    case RecoveryRung::gepp: {
      GESP_TRACE_SPAN("solver", "factor_gepp");
      Timer t;
      factors_f_.reset();  // GEPP answers are double whatever came before
      stats_.factor_precision = Precision::double_;
      gepp_ = std::make_unique<numeric::GeppLU<T>>(A_keep_);
      stats_.times.add("factor", t.seconds());
      // The static factors no longer produce the answer: make SolveStats
      // describe the factorization that does (GEPP swaps, never perturbs).
      stats_.pivots_replaced = 0;
      stats_.pivot_growth = gepp_->pivot_growth();
      stats_.nnz_l = gepp_->nnz_l();
      stats_.nnz_u = gepp_->nnz_u();
      stats_.stored_l = gepp_->nnz_l();
      stats_.stored_u = gepp_->nnz_u();
      stats_.nsup = 0;
      break;
    }
  }
}

template <class T>
double Solver<T>::berr_threshold() const {
  if (opt_.recovery.max_berr > 0) return opt_.recovery.max_berr;
  // The acceptable berr follows the *requested* precision: single promises
  // float-quality answers, so sqrt(eps_f); mixed promises double-quality
  // answers (that is what promotion enforces), so sqrt(eps_d).
  const double eps =
      opt_.precision == Precision::single
          ? static_cast<double>(std::numeric_limits<float>::epsilon())
          : std::numeric_limits<double>::epsilon();
  return std::sqrt(eps);
}

template <class T>
TransformResult<T> compute_transform(const sparse::CscMatrix<T>& A,
                                     const SolverOptions& opt,
                                     PhaseTimes* times) {
  GESP_TRACE_SPAN("solver", "transform");
  const index_t n = A.ncols;
  TransformResult<T> out;
  Timer t;
  // --- step (1a): equilibration.
  out.row_scale.assign(static_cast<std::size_t>(n), 1.0);
  out.col_scale.assign(static_cast<std::size_t>(n), 1.0);
  sparse::CscMatrix<T> As = A;
  if (opt.equilibrate) {
    GESP_TRACE_SPAN("solver", "equilibrate");
    const sparse::Scaling s = sparse::equilibrate(A);
    out.row_scale = s.row;
    out.col_scale = s.col;
    As = sparse::apply_scaling(A, out.row_scale, out.col_scale);
  }
  if (times) times->add("equilibrate", t.seconds());

  // --- step (1b): permutation moving large entries onto the diagonal.
  t.reset();
  trace::Span rowperm_span("solver", "rowperm");
  std::vector<index_t> pr;
  switch (opt.row_perm) {
    case RowPermOption::none:
      pr = ordering::natural_order(n);
      break;
    case RowPermOption::mc21: {
      const auto m = matching::max_transversal(As);
      GESP_CHECK(m.size == n, Errc::structurally_singular,
                 "no zero-free diagonal exists");
      pr = matching::matching_to_row_perm(m.row_of_col);
      break;
    }
    case RowPermOption::mc64: {
      const auto m = matching::mc64_product_matching(As);
      if (opt.mc64_scaling) {
        for (index_t i = 0; i < n; ++i) out.row_scale[i] *= m.row_scale[i];
        for (index_t j = 0; j < n; ++j) out.col_scale[j] *= m.col_scale[j];
        As = sparse::apply_scaling(As, m.row_scale, m.col_scale);
      }
      pr = matching::matching_to_row_perm(m.row_of_col);
      break;
    }
    case RowPermOption::bottleneck: {
      const auto m = matching::bottleneck_matching(As);
      pr = matching::matching_to_row_perm(m.row_of_col);
      break;
    }
  }
  sparse::CscMatrix<T> Ap = sparse::permute(As, pr, {});
  if (times) times->add("rowperm", t.seconds());
  rowperm_span.end();

  // --- step (2): fill-reducing column ordering, applied symmetrically so
  // the large diagonal stays on the diagonal.
  t.reset();
  trace::Span colorder_span("solver", "colorder");
  std::vector<index_t> pc;
  switch (opt.col_order) {
    case ColOrderOption::natural:
      pc = ordering::natural_order(n);
      break;
    case ColOrderOption::amd_ata:
      pc = ordering::amd_order(ordering::ata_pattern(Ap));
      break;
    case ColOrderOption::amd_aplusat:
      pc = ordering::amd_order(ordering::aplusat_pattern(Ap));
      break;
    case ColOrderOption::rcm:
      pc = ordering::rcm_order(ordering::aplusat_pattern(Ap));
      break;
    case ColOrderOption::nested_dissection:
      pc = ordering::nested_dissection_order(ordering::aplusat_pattern(Ap));
      break;
  }
  sparse::CscMatrix<T> Ao = sparse::permute(Ap, pc, pc);
  // Etree postorder refinement (fill-neutral, makes supernodes contiguous).
  const std::vector<index_t> pe = symbolic::etree_postorder(Ao);
  if (times) times->add("colorder", t.seconds());
  colorder_span.end();

  // Combined new-from-old transforms.
  out.row_perm.resize(static_cast<std::size_t>(n));
  out.col_perm.resize(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) out.row_perm[i] = pe[pc[pr[i]]];
  for (index_t j = 0; j < n; ++j) out.col_perm[j] = pe[pc[j]];
  // Build the transformed matrix from the ORIGINAL A with the combined
  // scalings and permutations — the exact arithmetic refactorize() uses.
  // The staged pipeline above scales twice when MC64 scaling is stacked on
  // equilibration (a·(r1c1) then ·(r2c2)), which rounds differently from
  // the combined a·((r1r2)·(c1c2)); factoring the staged matrix would make
  // a refactorize with identical values differ from the original
  // factorization in the last bits, i.e. the factors would depend on the
  // call history rather than only on (analysis, values).
  sparse::CscMatrix<T> Asc =
      sparse::apply_scaling(A, out.row_scale, out.col_scale);
  out.At = sparse::permute(Asc, out.row_perm, out.col_perm);
  return out;
}

std::size_t factor_asset_bytes(count_t stored_l, count_t stored_u,
                               count_t nnz_l, count_t nnz_u, index_t n,
                               count_t nnz, std::size_t factor_scalar,
                               std::size_t value_scalar) noexcept {
  const auto un = static_cast<std::size_t>(n);
  std::size_t b = 0;
  b += static_cast<std::size_t>(stored_l + stored_u) * factor_scalar;
  b += static_cast<std::size_t>(nnz_l + nnz_u) * sizeof(index_t);
  b += static_cast<std::size_t>(nnz) *
       (2 * value_scalar + sizeof(index_t));
  b += (un + 1) * sizeof(index_t);
  b += 6 * un * sizeof(double);  // row/col scales + permutations + workspace
  return b;
}

template <class T>
std::size_t estimate_factor_bytes(const sparse::CscMatrix<T>& A,
                                  const SolverOptions& opt) {
  const TransformResult<T> tr = compute_transform(A, opt);
  const symbolic::SymbolicLU sym = symbolic::analyze(tr.At, opt.symbolic);
  const std::size_t factor_scalar =
      opt.precision == Precision::double_ ? sizeof(T) : sizeof(float);
  return factor_asset_bytes(sym.stored_L, sym.stored_U, sym.nnz_L, sym.nnz_U,
                            A.ncols, A.nnz(), factor_scalar, sizeof(T));
}

template <class T>
void Solver<T>::transform(const sparse::CscMatrix<T>& A) {
  TransformResult<T> r = compute_transform(A, opt_, &stats_.times);
  row_scale_ = std::move(r.row_scale);
  col_scale_ = std::move(r.col_scale);
  row_perm_ = std::move(r.row_perm);
  col_perm_ = std::move(r.col_perm);
  At_ = std::move(r.At);
  // Pin ||Â|| here, NOT per factorization: the tiny-pivot threshold derived
  // from it is a static decision of the analysis, exactly like the scalings
  // and permutations. Recomputing it from each refactorize's values would
  // make clean blocks retained by a delta refactorization encode a
  // different threshold than the dirty ones — and partial would no longer
  // be bitwise identical to full for pivots falling between the two.
  at_norm_ = sparse::norm_max(At_);
}

template <class T>
numeric::NumericOptions Solver<T>::numeric_options(bool use_single) const {
  numeric::NumericOptions nopt;
  nopt.num_threads = opt_.num_threads;
  nopt.schedule = opt_.schedule;
  nopt.panel_pivot = opt_.panel_pivot;
  nopt.pivot_threshold_tau = opt_.pivot_threshold_tau;
  // In-flight growth abort: an explicit threshold wins; otherwise inherit
  // the ladder's growth limit so a blowing-up factorization fails fast
  // (and escalates at construction time) instead of completing garbage.
  if (opt_.growth_abort > 0.0)
    nopt.growth_abort = opt_.growth_abort;
  else if (opt_.growth_abort == 0.0 && opt_.recovery.enabled)
    nopt.growth_abort = opt_.recovery.max_pivot_growth;
  if (opt_.tiny_pivot != TinyPivotOption::fail) {
    // Tiny-pivot threshold at the compute precision's sqrt(eps) scale: a
    // double-scale threshold would leave pivots the float kernels cannot
    // distinguish from zero, and refinement cannot undo a division by
    // float-noise.
    const double eps =
        use_single
            ? static_cast<double>(std::numeric_limits<float>::epsilon())
            : std::numeric_limits<double>::epsilon();
    nopt.tiny_threshold = std::sqrt(eps) * at_norm_;
  }
  if (opt_.tiny_pivot == TinyPivotOption::aggressive_smw) {
    nopt.aggressive_replacement = true;
    nopt.record_replacements = true;
  }
  return nopt;
}

template <class T>
void Solver<T>::factor() {
  Timer t;
  if (!sym_) {
    GESP_TRACE_SPAN("solver", "symbolic");
    sym_ = std::make_shared<const symbolic::SymbolicLU>(
        symbolic::analyze(At_, opt_.symbolic));
    stats_.times.add("symbolic", t.seconds());
  }
  // Refresh on every factorization, not just the first analysis: a GEPP
  // recovery rung may have overwritten these with the fallback's counts.
  stats_.nnz_l = sym_->nnz_L;
  stats_.nnz_u = sym_->nnz_U;
  stats_.stored_l = sym_->stored_L;
  stats_.stored_u = sym_->stored_U;
  stats_.flops = sym_->flops;
  stats_.nsup = sym_->nsup;

  const bool use_single = std::is_same_v<T, double> &&
                          opt_.precision != Precision::double_ && !promoted_;
  const numeric::NumericOptions nopt = numeric_options(use_single);
  t.reset();
  {
    GESP_TRACE_SPAN("solver", "factor");
    smw_.reset();  // holds a reference into factors_: drop it first
    delta_smw_.reset();  // any low-rank correction is against old factors
    smw_base_values_.clear();
    stats_.delta.smw_rank = 0;
    factors_f_.reset();
    factors_.reset();
    if constexpr (std::is_same_v<T, double>) {
      if (use_single)
        factors_f_ = std::make_unique<numeric::LUFactors<float>>(
            sym_, to_single(At_), nopt);
    }
    if (!factors_f_)
      factors_ = std::make_shared<numeric::LUFactors<T>>(sym_, At_, nopt);
  }
  stats_.times.add("factor", t.seconds());
  stats_.factor_precision =
      factors_f_ ? Precision::single : Precision::double_;
  stats_.pivots_replaced = factors_f_ ? factors_f_->pivots_replaced()
                                      : factors_->pivots_replaced();
  stats_.pivot_growth =
      factors_f_ ? factors_f_->pivot_growth() : factors_->pivot_growth();
  metrics::global().counter("solver.factorizations").inc();
  if (opt_.tiny_pivot == TinyPivotOption::aggressive_smw &&
      !factors_->replacements().empty())
    smw_ = std::make_unique<refine::SmwSolver<T>>(factors_);
}

template <class T>
void Solver<T>::apply_solver(std::span<T> x) const {
  if constexpr (std::is_same_v<T, double>) {
    if (factors_f_) {
      // Round-trip through float: the triangular solves run entirely in
      // single precision; the caller (refinement) carries the residual and
      // accumulates corrections in double.
      std::vector<float> xf(x.size());
      for (std::size_t i = 0; i < x.size(); ++i)
        xf[i] = static_cast<float>(x[i]);
      factors_f_->solve(xf);
      for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<double>(xf[i]);
      return;
    }
  }
  if (delta_smw_)
    delta_smw_->solve(x);  // factors_ hold the base; correct to the target
  else if (smw_)
    smw_->solve(x);
  else
    factors_->solve(x);
}

template <class T>
void Solver<T>::apply_solver_multi(std::span<T> X, index_t nrhs) const {
  if constexpr (std::is_same_v<T, double>) {
    if (factors_f_) {
      std::vector<float> Xf(X.size());
      for (std::size_t i = 0; i < X.size(); ++i)
        Xf[i] = static_cast<float>(X[i]);
      factors_f_->solve_multi(Xf, nrhs);
      for (std::size_t i = 0; i < X.size(); ++i)
        X[i] = static_cast<double>(Xf[i]);
      return;
    }
  }
  if (delta_smw_) {
    // Unlike the tiny-pivot smw_ (whose correction refinement recovers),
    // the delta correction can be arbitrarily large — refinement against
    // uncorrected factors need not converge, so each column gets the exact
    // corrected solve.
    for (index_t c = 0; c < nrhs; ++c)
      delta_smw_->solve(X.subspan(c * static_cast<std::size_t>(n_),
                                  static_cast<std::size_t>(n_)));
    return;
  }
  factors_->solve_multi(X, nrhs);
}

template <class T>
void Solver<T>::apply_solver_transposed(std::span<T> x) const {
  if constexpr (std::is_same_v<T, double>) {
    if (factors_f_) {
      std::vector<float> xf(x.size());
      for (std::size_t i = 0; i < x.size(); ++i)
        xf[i] = static_cast<float>(x[i]);
      factors_f_->solve_transposed(xf);
      for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<double>(xf[i]);
      return;
    }
  }
  if (delta_smw_)
    delta_smw_->solve_transposed(x);
  else
    factors_->solve_transposed(x);
}

template <class T>
refine::RefineOptions Solver<T>::effective_refine(
    const refine::RefineOptions* ov) const {
  refine::RefineOptions r = ov ? *ov : opt_.refine;
  // Precision::single only promises float-quality answers: lift a
  // still-default double target up to float epsilon. mixed keeps the double
  // target — reaching it (or promoting) is the whole contract.
  if (opt_.precision == Precision::single && factors_f_ &&
      r.target_berr <= std::numeric_limits<double>::epsilon())
    r.target_berr =
        static_cast<double>(std::numeric_limits<float>::epsilon());
  return r;
}

template <class T>
bool Solver<T>::needs_promotion() const {
  return opt_.precision == Precision::mixed && factors_f_ != nullptr &&
         stats_.berr > promotion_target();
}

// The mixed contract is double-target accuracy: double-precision
// refinement over float factors normally converges to O(eps_d), so a berr
// stalled two orders of magnitude above the refinement target means the
// float factorization itself is the bottleneck — refactorize in double.
// Deliberately much tighter than berr_threshold() (the sqrt(eps)
// acceptability gate of the recovery ladder): a solve can be "acceptable"
// there yet still miss the accuracy mixed mode promises.
template <class T>
double Solver<T>::promotion_target() const {
  return 100.0 * std::max(opt_.refine.target_berr,
                          std::numeric_limits<double>::epsilon());
}

template <class T>
void Solver<T>::promote_to_double() {
  trace::instant("solver", "precision_promote");
  // Counter, distinct from the solver.precision.promotions gauge (that one
  // snapshots this solver's stats; this one counts events process-wide).
  metrics::global().counter("solver.precision.promote_events").inc();
  promoted_ = true;
  ++stats_.promotions;
  factor();
}

template <class T>
void Solver<T>::finish_solve(const Timer& wall) {
  stats_.solve_wall_seconds = wall.seconds();
  stats_.solve_wall_total_seconds += stats_.solve_wall_seconds;
  ++stats_.solve_calls;
  stats_.export_metrics(metrics::global());
}

template <class T>
void Solver<T>::solve(std::span<const T> b, std::span<T> x,
                      const refine::RefineOptions* refine_override) {
  GESP_CHECK(b.size() == static_cast<std::size_t>(n_) && x.size() == b.size(),
             Errc::invalid_argument, "solve dimension mismatch");
  // One public call == one timing epoch: get() then reports this call's
  // phase times while total() keeps the cumulative sums.
  stats_.times.new_epoch();
  metrics::global().counter("solver.solves").inc();
  GESP_TRACE_SPAN("solver", "solve_call");
  Timer wall;
  if (!opt_.recovery.enabled) {
    solve_once(b, x, refine_override);
    // Mixed mode without the ladder still keeps its promise: a berr the
    // double-accumulating refinement could not push to the double-path
    // target means the float factors are the bottleneck — refactor in
    // double and resolve. A per-call override (serve's shed mode) skips
    // refinement, so a berr judged under it would mislead the trigger.
    if (!refine_override && needs_promotion()) {
      promote_to_double();
      solve_once(b, x, nullptr);
    }
    finish_solve(wall);
    return;
  }
  RecoveryTrail& trail = stats_.recovery;
  const double threshold = berr_threshold();
  bool have_solution = false;
  while (true) {
    RecoveryAttempt a;
    a.rung = rung_;
    try {
      if (rung_ == RecoveryRung::gepp) {
        solve_gepp(b, x);
        have_solution = true;
        a.berr = stats_.berr;
        a.pivot_growth = gepp_->pivot_growth();
        a.success = a.berr <= threshold;
        if (!a.success) {
          a.trigger = RecoveryTrigger::berr_stall;
          a.detail = format_sci("berr", a.berr, threshold);
        }
      } else {
        // The ladder's berr thresholds assume refinement ran: ignore any
        // per-call override here.
        solve_once(b, x, nullptr);
        have_solution = true;
        a.berr = stats_.berr;
        a.pivot_growth = stats_.pivot_growth;
        const bool berr_ok = a.berr <= threshold;
        const bool growth_ok =
            a.pivot_growth <= opt_.recovery.max_pivot_growth;
        a.success = berr_ok && growth_ok;
        if (!berr_ok) {
          a.trigger = RecoveryTrigger::berr_stall;
          a.detail = format_sci("berr", a.berr, threshold);
        } else if (!growth_ok) {
          a.trigger = RecoveryTrigger::pivot_growth;
          a.detail = format_sci("pivot growth", a.pivot_growth,
                                opt_.recovery.max_pivot_growth);
        }
      }
    } catch (const Error& e) {
      if (!recoverable(e.code())) throw;
      a.trigger = trigger_for(e.code());
      a.detail = e.what();
    }
    const bool success = a.success;
    trail.attempts.push_back(std::move(a));
    if (success) {
      trail.final_rung = rung_;
      trail.recovered = true;
      finish_solve(wall);
      return;
    }
    // Escalate: find the next rung whose factorization succeeds.
    bool advanced = false;
    while (advance_rung()) {
      try {
        apply_rung();
        advanced = true;
        break;
      } catch (const Error& e) {
        if (!recoverable(e.code())) throw;
        RecoveryAttempt failed;
        failed.rung = rung_;
        failed.trigger = trigger_for(e.code());
        failed.detail = e.what();
        trail.attempts.push_back(std::move(failed));
      }
    }
    if (!advanced) {
      // Ladder exhausted: keep the best-effort answer if any rung produced
      // one, and let the trail say how far we got.
      trail.final_rung = rung_;
      trail.recovered = false;
      GESP_CHECK(have_solution, Errc::unstable,
                 "recovery ladder exhausted without a usable solution");
      finish_solve(wall);
      return;
    }
  }
}

template <class T>
void Solver<T>::solve_gepp(std::span<const T> b, std::span<T> x) {
  // Rung (c) bypasses the static pipeline entirely: GEPP factors the
  // original A, so b and x stay in the user's variables.
  Timer t;
  {
    GESP_TRACE_SPAN("solver", "solve_gepp");
    gepp_->solve(b, x);
  }
  stats_.times.add("solve", t.seconds());
  t.reset();
  GESP_TRACE_SPAN("solver", "refine");
  const auto rres = refine::iterative_refinement<T>(
      A_keep_, b, x,
      [this](std::span<T> v) {
        const std::vector<T> rhs(v.begin(), v.end());
        gepp_->solve(rhs, v);
      },
      opt_.refine);
  stats_.times.add("refine", t.seconds());
  stats_.refine_iterations = rres.iterations;
  stats_.berr = rres.final_berr;
  stats_.berr_history = rres.berr_history;
}

template <class T>
void Solver<T>::solve_once(std::span<const T> b, std::span<T> x,
                           const refine::RefineOptions* ov) {
  // Transform the right-hand side into the factored space.
  std::vector<T> bhat(static_cast<std::size_t>(n_));
  for (index_t i = 0; i < n_; ++i) bhat[row_perm_[i]] = b[i] * T{row_scale_[i]};
  std::vector<T> xhat = bhat;

  Timer t;
  {
    GESP_TRACE_SPAN("solver", "solve");
    apply_solver(xhat);
  }
  stats_.times.add("solve", t.seconds());

  // Time one residual evaluation (reported separately in Figure 6).
  t.reset();
  {
    GESP_TRACE_SPAN("solver", "residual");
    std::vector<T> r(static_cast<std::size_t>(n_));
    sparse::residual<T>(At_, xhat, bhat, r);
  }
  stats_.times.add("residual", t.seconds());

  // --- step (4): iterative refinement.
  t.reset();
  trace::Span refine_span("solver", "refine");
  const auto rres = refine::iterative_refinement<T>(
      At_, bhat, xhat, [this](std::span<T> v) { apply_solver(v); },
      effective_refine(ov));
  refine_span.end();
  stats_.times.add("refine", t.seconds());
  stats_.refine_iterations = rres.iterations;
  stats_.berr = rres.final_berr;
  stats_.berr_history = rres.berr_history;

  // Optional expensive diagnostics.
  if (opt_.estimate_ferr || opt_.estimate_rcond) {
    GESP_TRACE_SPAN("solver", "ferr");
    t.reset();
    refine::SolveOps<T> ops;
    ops.solve = [this](std::span<T> v) { apply_solver(v); };
    ops.solve_transposed = [this](std::span<T> v) {
      apply_solver_transposed(v);
    };
    if (opt_.estimate_ferr) {
      std::vector<T> r(static_cast<std::size_t>(n_));
      sparse::residual<T>(At_, xhat, bhat, r);
      stats_.ferr = refine::forward_error_bound<T>(At_, xhat, bhat, r, ops);
    }
    if (opt_.estimate_rcond)
      stats_.rcond = refine::rcond_estimate<T>(At_, ops);
    stats_.times.add("ferr", t.seconds());
  }

  // Back-transform.
  for (index_t j = 0; j < n_; ++j)
    x[j] = xhat[col_perm_[j]] * T{col_scale_[j]};

  // The forward error bound above is relative to the SCALED solution x̂;
  // the user's error lives in the original variables x = Dc·Pᵀ·x̂.
  // Componentwise |δx_j| <= dc_j·|δx̂| <= max(dc)·‖δx̂‖∞, so convert the
  // bound conservatively through the scalings (exact when Dc = I).
  if (stats_.ferr >= 0.0) {
    const double xhat_norm = sparse::vec_norm_inf<T>(xhat);
    const double x_norm = sparse::vec_norm_inf<T>(std::span<const T>(x));
    double dc_max = 0.0;
    for (double d : col_scale_) dc_max = std::max(dc_max, d);
    if (x_norm > 0.0)
      stats_.ferr = stats_.ferr * xhat_norm * dc_max / x_norm;
  }
}

template <class T>
void Solver<T>::solve_multi(std::span<const T> B, std::span<T> X,
                            index_t nrhs,
                            const refine::RefineOptions* refine_override) {
  GESP_CHECK(nrhs >= 1 &&
                 B.size() == static_cast<std::size_t>(n_) * nrhs &&
                 X.size() == B.size(),
             Errc::invalid_argument, "solve_multi dimension mismatch");
  stats_.times.new_epoch();
  if (opt_.recovery.enabled) {
    // Route each column through the ladder; once escalated, later columns
    // reuse the surviving rung so the blocked fast path is only lost when
    // recovery is actually in play. Each column is its own solve() call
    // for stats purposes (wall latency, epochs).
    for (index_t c = 0; c < nrhs; ++c) {
      std::span<const T> bc(B.data() + c * static_cast<std::size_t>(n_),
                            static_cast<std::size_t>(n_));
      std::span<T> xc(X.data() + c * static_cast<std::size_t>(n_),
                      static_cast<std::size_t>(n_));
      solve(bc, xc);
    }
    return;
  }
  metrics::global().counter("solver.solves").inc();
  Timer wall;
  // Transform all right-hand sides into the factored space.
  std::vector<T> Bhat(B.size());
  for (index_t c = 0; c < nrhs; ++c) {
    const T* bc = B.data() + c * static_cast<std::size_t>(n_);
    T* bh = Bhat.data() + c * static_cast<std::size_t>(n_);
    for (index_t i = 0; i < n_; ++i)
      bh[row_perm_[i]] = bc[i] * T{row_scale_[i]};
  }
  std::vector<T> Xhat;
  double worst_berr = 0.0;
  const auto run_block = [&]() {
    Xhat = Bhat;
    Timer t;
    apply_solver_multi(std::span<T>(Xhat), nrhs);
    stats_.times.add("solve", t.seconds());
    // Per-column refinement (and the SMW correction path when active).
    t.reset();
    worst_berr = 0.0;
    const refine::RefineOptions ropt = effective_refine(refine_override);
    for (index_t c = 0; c < nrhs; ++c) {
      std::span<T> xc(Xhat.data() + c * static_cast<std::size_t>(n_),
                      static_cast<std::size_t>(n_));
      std::span<const T> bc(Bhat.data() + c * static_cast<std::size_t>(n_),
                            static_cast<std::size_t>(n_));
      const auto rres = refine::iterative_refinement<T>(
          At_, bc, xc, [this](std::span<T> v) { apply_solver(v); }, ropt);
      stats_.refine_iterations = rres.iterations;
      stats_.berr = rres.final_berr;
      stats_.berr_history = rres.berr_history;
      worst_berr = std::max(worst_berr, rres.final_berr);
    }
    stats_.times.add("refine", t.seconds());
  };
  run_block();
  // Mixed-mode promotion judged against the worst column, so one hard
  // right-hand side is enough to buy every column the double factors.
  if (!refine_override && opt_.precision == Precision::mixed && factors_f_ &&
      worst_berr > promotion_target()) {
    promote_to_double();
    run_block();
  }
  for (index_t c = 0; c < nrhs; ++c) {
    const T* xh = Xhat.data() + c * static_cast<std::size_t>(n_);
    T* xc = X.data() + c * static_cast<std::size_t>(n_);
    for (index_t j = 0; j < n_; ++j)
      xc[j] = xh[col_perm_[j]] * T{col_scale_[j]};
  }
  finish_solve(wall);
}

template <class T>
void Solver<T>::refactorize(const sparse::CscMatrix<T>& A_new) {
  GESP_CHECK(A_new.nrows == n_ && A_new.ncols == n_, Errc::invalid_argument,
             "refactorize dimension mismatch");
  // Same dimensions are not enough: the scalings, permutations and symbolic
  // structure being reused below are only valid for the analysed sparsity
  // pattern. A different pattern must fail loudly, not solve wrongly.
  GESP_CHECK(sparse::pattern_key(A_new) == pattern_, Errc::invalid_argument,
             "refactorize: matrix sparsity pattern differs from the "
             "analysed pattern (same-size is not same-structure)");
  // New epoch: "factor" reports this refactorization, not the sum of every
  // factorization this Solver ever ran.
  stats_.times.new_epoch();
  GESP_TRACE_SPAN("solver", "refactorize");
  // Reuse every static decision: scalings, permutations, symbolic structure.
  sparse::CscMatrix<T> As =
      sparse::apply_scaling(A_new, row_scale_, col_scale_);
  At_ = sparse::permute(As, row_perm_, col_perm_);
  if (!opt_.recovery.enabled) {
    factor();
    return;
  }
  // New values restart the ladder (the escalated *configuration* persists:
  // an unscaled transform stays unscaled) from the policy's start rung.
  A_keep_ = A_new;
  stats_.recovery = {};
  gepp_.reset();
  rung_ = opt_.recovery.start_rung;
  factor_ladder();
}

template <class T>
void Solver<T>::refactorize_delta(const sparse::CscMatrix<T>& A_new) {
  GESP_CHECK(A_new.nrows == n_ && A_new.ncols == n_, Errc::invalid_argument,
             "refactorize_delta dimension mismatch");
  GESP_CHECK(sparse::pattern_key(A_new) == pattern_, Errc::invalid_argument,
             "refactorize_delta: matrix sparsity pattern differs from the "
             "analysed pattern (same-size is not same-structure)");
  stats_.times.new_epoch();
  GESP_TRACE_SPAN("solver", "refactorize_delta");
  ++stats_.delta.calls;
  metrics::global().counter("solver.delta.call_events").inc();
  const auto fall_back_to_full = [&] {
    ++stats_.delta.full;
    metrics::global().counter("solver.delta.full_events").inc();
    stats_.delta.smw_rank = 0;
    refactorize(A_new);
  };
  // An escalated ladder or the GEPP fallback means the static factors no
  // longer produce the answer as-is; only a full refactorize restarts that
  // machinery correctly (and identically to refactorize(A_new), which is
  // what keeps delta-vs-full comparable on hostile matrices).
  if (rung_ != RecoveryRung::gesp || gepp_ || (!factors_ && !factors_f_)) {
    fall_back_to_full();
    return;
  }

  // Same arithmetic as refactorize(): combined scaling, then permutation.
  // Both are value-independent layout transforms, so At_new's colptr and
  // rowind are identical to At_'s and the value arrays align positionally.
  sparse::CscMatrix<T> As =
      sparse::apply_scaling(A_new, row_scale_, col_scale_);
  sparse::CscMatrix<T> At_new = sparse::permute(As, row_perm_, col_perm_);
  // Diff against the values the current factors CONSUMED — with an active
  // low-rank correction that is the stashed base, not At_ (which already
  // holds the previous target). memcmp, not ==: matches the serve layer's
  // value-hash semantics (distinguishes ±0.0, treats identical NaNs equal).
  const std::vector<T>& base = delta_smw_ ? smw_base_values_ : At_.values;
  std::vector<index_t> changed_pos, changed_col;
  for (index_t j = 0; j < n_; ++j)
    for (index_t p = At_.colptr[j]; p < At_.colptr[j + 1]; ++p)
      if (std::memcmp(&base[p], &At_new.values[p], sizeof(T)) != 0) {
        changed_pos.push_back(p);
        changed_col.push_back(j);
      }
  stats_.delta.changed_entries = changed_pos.size();
  stats_.delta.dirty_supernodes = 0;

  if (changed_pos.empty()) {
    ++stats_.delta.noop;
    metrics::global().counter("solver.delta.noop_events").inc();
    if (delta_smw_) {
      // A_new IS the base the factors consumed: retire the correction.
      delta_smw_.reset();
      smw_base_values_.clear();
      stats_.delta.smw_rank = 0;
      At_ = std::move(At_new);
    }
    if (opt_.recovery.enabled) {
      A_keep_ = A_new;
      stats_.recovery = {};
    }
    return;
  }

  // Route 1: a handful of changed entries — exact SMW correction over the
  // unchanged factors, no refactorization. Excluded while the tiny-pivot
  // smw_ correction is active (stacking corrections would compound) and on
  // the float path (the correction solves in T).
  if (opt_.delta.smw_max_rank > 0 &&
      static_cast<index_t>(changed_pos.size()) <= opt_.delta.smw_max_rank &&
      factors_ && !factors_f_ && !smw_) {
    Timer t;
    std::vector<typename refine::SmwSolver<T>::Update> ups;
    ups.reserve(changed_pos.size());
    for (std::size_t k = 0; k < changed_pos.size(); ++k) {
      const index_t p = changed_pos[k];
      ups.push_back(
          {At_.rowind[p], changed_col[k], At_new.values[p] - base[p]});
    }
    try {
      auto corr = std::make_unique<refine::SmwSolver<T>>(factors_, ups);
      if (!delta_smw_) smw_base_values_ = At_.values;
      delta_smw_ = std::move(corr);
      At_ = std::move(At_new);  // refinement and residuals target A_new
      stats_.delta.smw_rank = static_cast<index_t>(ups.size());
      ++stats_.delta.smw;
      stats_.times.add("factor", t.seconds());
      metrics::global().counter("solver.delta.smw_events").inc();
      if (opt_.recovery.enabled) {
        A_keep_ = A_new;
        stats_.recovery = {};
      }
      return;
    } catch (const Error& e) {
      if (!recoverable(e.code())) throw;
      // Singular capacitance: the update is not absorbable as a low-rank
      // correction of this base. State untouched — fall through and
      // refactorize instead.
    }
  }

  // Route 2: partial re-elimination. Mark the owner supernode of every
  // changed entry dirty, close under the update dependencies, and redo only
  // those — bitwise identical to a full refactorize. The double diff is
  // computed before any float rounding, so on the float path it can only
  // over-mark (a superset of the float diff): still correct.
  const symbolic::SymbolicLU& S = *sym_;
  std::vector<char> dirty(static_cast<std::size_t>(S.nsup), 0);
  for (std::size_t k = 0; k < changed_pos.size(); ++k) {
    const index_t i = At_.rowind[changed_pos[k]];
    const index_t j = changed_col[k];
    dirty[std::min(S.col_to_sn[i], S.col_to_sn[j])] = 1;
  }
  symbolic::close_update_reachable(S, dirty);
  index_t ndirty = 0;
  for (char d : dirty) ndirty += d;
  stats_.delta.dirty_supernodes = ndirty;
  if (static_cast<double>(ndirty) >
      opt_.delta.max_dirty_fraction * static_cast<double>(S.nsup)) {
    fall_back_to_full();
    return;
  }

  Timer t;
  GESP_TRACE_SPAN("solver", "factor_partial");
  // Corrections reference the pre-update factors: drop them before the
  // in-place rewrite (smw_ is rebuilt below from the fresh replacements).
  delta_smw_.reset();
  smw_base_values_.clear();
  stats_.delta.smw_rank = 0;
  smw_.reset();
  At_ = std::move(At_new);
  try {
    if (factors_f_) {
      if constexpr (std::is_same_v<T, double>)
        factors_f_->refactorize_partial(to_single(At_), dirty,
                                        numeric_options(true));
    } else {
      factors_->refactorize_partial(At_, dirty, numeric_options(false));
    }
  } catch (const Error& e) {
    if (!opt_.recovery.enabled || !recoverable(e.code())) throw;
    // The partial step is bitwise-equal to a full factorization of the
    // same values, so a full retry at this rung would fail identically:
    // restart the ladder exactly as refactorize() would, with the failed
    // gesp attempt on record, and escalate.
    A_keep_ = A_new;
    stats_.recovery = {};
    gepp_.reset();
    RecoveryAttempt a;
    a.rung = rung_;
    a.trigger = trigger_for(e.code());
    a.detail = e.what();
    stats_.recovery.attempts.push_back(std::move(a));
    if (!advance_rung()) throw;
    factor_ladder();
    ++stats_.delta.full;
    metrics::global().counter("solver.delta.full_events").inc();
    return;
  }
  stats_.times.add("factor", t.seconds());
  // Same stats contract as factor(): the partial refactorization IS the
  // factorization now producing answers.
  stats_.nnz_l = sym_->nnz_L;
  stats_.nnz_u = sym_->nnz_U;
  stats_.stored_l = sym_->stored_L;
  stats_.stored_u = sym_->stored_U;
  stats_.flops = sym_->flops;
  stats_.nsup = sym_->nsup;
  stats_.factor_precision =
      factors_f_ ? Precision::single : Precision::double_;
  stats_.pivots_replaced = factors_f_ ? factors_f_->pivots_replaced()
                                      : factors_->pivots_replaced();
  stats_.pivot_growth =
      factors_f_ ? factors_f_->pivot_growth() : factors_->pivot_growth();
  metrics::global().counter("solver.factorizations").inc();
  if (opt_.tiny_pivot == TinyPivotOption::aggressive_smw && factors_ &&
      !factors_->replacements().empty())
    smw_ = std::make_unique<refine::SmwSolver<T>>(factors_);
  ++stats_.delta.partial;
  metrics::global().counter("solver.delta.partial_events").inc();
  if (opt_.recovery.enabled) {
    A_keep_ = A_new;
    stats_.recovery = {};
  }
}

template <class T>
std::vector<T> solve(const sparse::CscMatrix<T>& A, std::span<const T> b,
                     const SolverOptions& opt, SolveStats* stats_out) {
  Solver<T> solver(A, opt);
  std::vector<T> x(b.size());
  solver.solve(b, x);
  if (stats_out) *stats_out = solver.stats();
  return x;
}

template struct TransformResult<double>;
template struct TransformResult<Complex>;
template TransformResult<double> compute_transform(
    const sparse::CscMatrix<double>&, const SolverOptions&, PhaseTimes*);
template TransformResult<Complex> compute_transform(
    const sparse::CscMatrix<Complex>&, const SolverOptions&, PhaseTimes*);
template std::size_t estimate_factor_bytes(const sparse::CscMatrix<double>&,
                                           const SolverOptions&);
template std::size_t estimate_factor_bytes(const sparse::CscMatrix<Complex>&,
                                           const SolverOptions&);
template class Solver<double>;
template class Solver<Complex>;
template std::vector<double> solve(const sparse::CscMatrix<double>&,
                                   std::span<const double>,
                                   const SolverOptions&, SolveStats*);
template std::vector<Complex> solve(const sparse::CscMatrix<Complex>&,
                                    std::span<const Complex>,
                                    const SolverOptions&, SolveStats*);

}  // namespace gesp
