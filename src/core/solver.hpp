// The GESP driver — the algorithm of the paper's Figure 1.
//
//   (1) Row/column equilibration (DGEEQU) and a row permutation moving
//       large entries onto the diagonal (weighted bipartite matching, with
//       the dual-variable scalings), making diagonal pivoting safe.
//   (2) A fill-reducing column ordering (AMD on A+Aᵀ by default; the
//       paper's MMD on AᵀA is ColOrderOption::amd_ata) applied
//       symmetrically so the large diagonal survives, refined by a
//       postorder of the A+Aᵀ etree.
//   (3) Static-pivot supernodal LU factorization, replacing pivots smaller
//       than sqrt(eps)·||A|| (or failing, or aggressively promoting them
//       for SMW recovery — every knob the paper describes is exposed,
//       because "we provide a flexible interface so the user is able to
//       turn on or off any of these options").
//   (4) Iterative refinement until berr <= eps or stagnation.
//
// Optional diagnostics: forward error bound and condition estimate (the
// expensive extra triangular solves the paper only runs on demand).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "numeric/gepp.hpp"
#include "numeric/lu_factors.hpp"
#include "refine/refine.hpp"
#include "refine/smw.hpp"
#include "sparse/csc.hpp"
#include "sparse/equilibrate.hpp"
#include "symbolic/symbolic.hpp"

namespace gesp {

enum class RowPermOption {
  none,        ///< identity (plain no-pivoting once other options are off)
  mc21,        ///< structural maximum transversal only
  mc64,        ///< Duff–Koster product matching (the paper's choice)
  bottleneck,  ///< maximize the smallest diagonal magnitude
};

enum class ColOrderOption {
  natural,
  /// AMD on the AᵀA pattern: the paper's order (the MMD(AᵀA) successor).
  /// It bounds the fill of any row pivoting, which the static path never
  /// does.
  amd_ata,
  /// AMD on A+Aᵀ, the default. With the diagonal pivots fixed,
  /// struct(L+U) lies inside the Cholesky structure of A+Aᵀ, so this is
  /// the pattern whose fill the factorization pays (SuperLU_DIST orders
  /// on it after MC64 too).
  amd_aplusat,
  rcm,          ///< reverse Cuthill–McKee
  nested_dissection,  ///< George's nested dissection on A+Aᵀ
};

enum class TinyPivotOption {
  fail,     ///< throw on zero pivots (GENP behaviour)
  replace,  ///< set to sqrt(eps)·||A|| — the paper's step (3)
  aggressive_smw,  ///< promote to the column max and recover via SMW (§4)
};

/// Compute precision of the numeric factorization and triangular solves.
/// The analysis pipeline (equilibration, MC64, ordering, symbolic) always
/// runs in double; values convert to float only after scaling and
/// permutation, so the single-precision factorization sees the same
/// well-conditioned diagonal the double one does. Non-double precisions are
/// only meaningful for Solver<double> (Solver<Complex> rejects them).
enum class Precision {
  double_,  ///< factor and solve in double (the default)
  single,   ///< factor and solve in float; refinement targets float eps
  mixed,    ///< factor/solve in float, refine with double residual and
            ///< correction accumulation toward the double target; a berr
            ///< stalled above it promotes to a double refactorization
};

const char* precision_name(Precision p) noexcept;

/// One rung of the graceful-degradation ladder, cheapest first. The middle
/// rungs stay inside the static symbolic structure (only the numeric phase
/// is redone); gepp abandons it entirely.
enum class RecoveryRung {
  gesp,            ///< the configured GESP pipeline as-is
  precision_promote,  ///< re-factor in double after a defeated float
                      ///< factorization (Precision::mixed only) — the
                      ///< cheapest rung: same pivoting, full precision
  aggressive_smw,  ///< re-factor with SMW-corrected aggressive pivots
  unscaled,        ///< re-transform + re-factor without the mc64 scalings
                   ///< (the paper's FIDAPM11 / JPWH_991 observation)
  threshold,       ///< re-factor with in-block threshold pivoting
                   ///< (dense::PanelPivot::threshold)
  panel_rrp,       ///< re-factor with panel rank-revealing pivoting
                   ///< (dense::PanelPivot::panel_rrp)
  gepp,            ///< fall back to the GEPP reference factorization
};

const char* recovery_rung_name(RecoveryRung r) noexcept;

/// Why a ladder escalation happened (recorded per attempt).
enum class RecoveryTrigger {
  none,            ///< attempt succeeded (or not yet judged)
  berr_stall,      ///< refinement stalled above the berr threshold
  pivot_growth,    ///< completed factorization, growth above the limit
  growth_abort,    ///< in-flight growth monitor aborted the factorization
  factor_failure,  ///< factorization threw (zero pivot, singular, ...)
};

const char* recovery_trigger_name(RecoveryTrigger t) noexcept;

/// When and how solve() is allowed to escalate down the ladder. Escalation
/// triggers on: berr above max_berr after refinement, pivot growth above
/// max_pivot_growth, an in-flight growth abort, or a numerically_singular /
/// unstable factorization.
struct RecoveryPolicy {
  bool enabled = false;
  /// Acceptable backward error after refinement; <= 0 means sqrt(eps).
  double max_berr = 0.0;
  /// Pivot growth beyond this marks the static factorization unreliable.
  /// Doubles as the default in-flight growth-abort threshold (see
  /// SolverOptions::growth_abort).
  double max_pivot_growth = 1e10;
  /// Float→double promotion rung; only offered under Precision::mixed
  /// while the single-precision factorization is (or would be) active.
  bool try_precision_promote = true;
  bool try_aggressive_smw = true;   ///< rung (a)
  bool try_unscaled_refactor = true;  ///< rung (b)
  bool try_threshold = true;   ///< in-block threshold-pivot refactor rung
  bool try_panel_rrp = true;   ///< panel rank-revealing refactor rung
  bool try_gepp = true;             ///< last-resort rung
  /// First rung to try; rungs below it are skipped entirely. The serve
  /// layer points repeat offenders ("hostile" patterns) straight at a
  /// strong rung instead of re-climbing the ladder on every request.
  RecoveryRung start_rung = RecoveryRung::gesp;
};

/// One attempted rung and what came of it.
struct RecoveryAttempt {
  RecoveryRung rung = RecoveryRung::gesp;
  bool success = false;
  double berr = -1.0;          ///< berr achieved (-1: factorization failed)
  double pivot_growth = -1.0;  ///< growth observed (-1: not measured)
  /// What pushed the ladder off this rung; none on success.
  RecoveryTrigger trigger = RecoveryTrigger::none;
  std::string detail;          ///< failure reason; empty on success
};

/// The full trail of how the answer was obtained.
struct RecoveryTrail {
  std::vector<RecoveryAttempt> attempts;
  RecoveryRung final_rung = RecoveryRung::gesp;
  bool recovered = true;  ///< final answer met the policy thresholds
};

/// Which engine executes the numeric factorization + solves. The analysis
/// pipeline (equilibrate → row perm → column order → symbolic) is identical
/// and bitwise-deterministic for all three.
enum class Backend {
  serial,    ///< single-threaded in-process factorization
  threaded,  ///< shared-memory task-DAG factorization (num_threads)
  dist,      ///< 2-D block-cyclic message-passing factorization over
             ///< MiniMPI — handled by gesp::dist::solve / dist::DistSolver;
             ///< core::Solver rejects it (it cannot run inside World::run)
};

const char* backend_name(Backend b) noexcept;

/// Knobs specific to Backend::dist (plain data here so core carries no
/// dependency on the dist layer).
struct DistBackendOptions {
  int nprocs = 4;  ///< simulated ranks when pr/pc are not both set
  int pr = 0, pc = 0;  ///< explicit grid shape; 0 = near-square from nprocs
  bool pipelined = true;      ///< look-ahead schedule (Fig 8); false = strict
  bool edag_pruning = true;   ///< prune panel broadcasts via the EDAG rule
  double recv_timeout_s = 0.0;  ///< transport watchdog; 0 = no timeout
};

/// Opt-in autotuning policy (implemented in src/tune; core carries only the
/// plain-data types and the abstract hook so the dependency points
/// tune → core, never the reverse).
///
///   off    never consult a tuner — the pre-tuning code path, bitwise
///          identical to a solver built without tuning at all.
///   model  consult the tuner once, after symbolic analysis, using its
///          calibrated performance model to pick the configuration.
///   probe  model, plus the tuner refines its machine constants from the
///          measured factorization time (the first factorization is the
///          probe; later same-process decisions use the corrected model).
enum class TunePolicy { off, model, probe };

const char* tune_policy_name(TunePolicy p) noexcept;

struct SolverOptions;  // fwd — TuneInputs points back at the request

/// Everything the solver hands the tuner after symbolic analysis.
struct TuneInputs {
  index_t n = 0;
  count_t nnz = 0;
  /// Symbolic analysis under the *requested* options — supernode widths,
  /// stored nnz(L+U), flop count, etree structure.
  const symbolic::SymbolicLU* sym = nullptr;
  const SolverOptions* opt = nullptr;  ///< the requested configuration
  int max_threads = 1;  ///< thread budget the tuner may spend (the request's
                        ///< num_threads; the tuner only ever scales DOWN)
  int dist_nprocs = 0;  ///< >0: tuning a distributed factorization over this
                        ///< many ranks (grid reshapes must preserve it)
  /// Re-run symbolic analysis under candidate options — cheap and
  /// deterministic, so the tuner can price alternative block sizes against
  /// the structure they would actually produce.
  std::function<symbolic::SymbolicLU(const symbolic::SymbolicOptions&)>
      analyze;
};

/// The tuner's verdict. Fields mirror the knobs a tuner may override;
/// `changed == false` means "the request is already what I would pick" and
/// the solver applies nothing.
struct TuneDecision {
  bool changed = false;
  index_t max_block = 0;  ///< chosen symbolic.max_block (0 = keep request)
  int num_threads = 1;
  Precision precision = Precision::double_;
  int pr = 0, pc = 0;     ///< dist only: grid shape, pr·pc == dist_nprocs
  bool pipelined = true;  ///< dist only: look-ahead on (depth 1) or off
  double predicted_seconds = -1.0;          ///< model cost of the choice
  double predicted_default_seconds = -1.0;  ///< model cost of the request
  std::string note;  ///< human-readable rationale ("small flops: serial")
};

/// Abstract tuner hook. The concrete implementation (tune::Tuner) lives in
/// src/tune with the calibration machinery; core only ever calls through
/// this interface. decide() must be deterministic in its inputs — the
/// distributed driver calls it collectively on every rank and the ranks
/// must agree.
class TunerBase {
 public:
  virtual ~TunerBase() = default;
  virtual TuneDecision decide(const TuneInputs& in) = 0;
  /// TunePolicy::probe feedback: the measured factorization seconds for a
  /// decision this tuner produced. Default: ignore.
  virtual void observe(const TuneDecision& decision, double actual_seconds) {
    (void)decision;
    (void)actual_seconds;
  }
};

struct TuneOptions {
  TunePolicy policy = TunePolicy::off;
  /// Consulted when policy != off. Construct one with tune::make_tuner()
  /// (src/tune); a non-off policy with a null tuner is rejected at solver
  /// construction — core cannot build the concrete tuner itself.
  std::shared_ptr<TunerBase> tuner;
};

/// SolveStats::tuning — what the tuner chose and how well its model did.
struct TuningReport {
  TunePolicy policy = TunePolicy::off;
  bool consulted = false;  ///< a tuner ran after symbolic analysis
  bool applied = false;    ///< ...and changed at least one knob
  TuneDecision decision;   ///< the verdict (meaningful when consulted)
  index_t default_block = 0;  ///< the requested max_block, for the report
  double actual_factor_seconds = -1.0;  ///< measured cost of the choice
  /// actual / predicted factor seconds (1.0 = perfect model; -1 until both
  /// sides are known). The misprediction signal probe mode feeds back.
  double model_error = -1.0;
};

/// Routing policy for Solver::refactorize_delta(): how a same-pattern
/// value update is absorbed, cheapest route first.
struct DeltaPolicy {
  /// Value diffs of at most this many changed entries route to the
  /// Sherman–Morrison–Woodbury low-rank correction — no refactorization at
  /// all, just rank-r extra triangular solves. 0 disables the SMW route.
  index_t smw_max_rank = 16;
  /// Partial re-elimination only pays while the closed dirty set stays a
  /// fraction of the supernodes; above this share, a full refactorization
  /// is cheaper than the bookkeeping.
  double max_dirty_fraction = 0.6;
};

struct SolverOptions {
  /// Execution engine. serial/threaded run in-process via Solver;
  /// Backend::dist is driven by gesp::dist::solve (one-shot) or
  /// dist::DistSolver inside minimpi::World::run.
  Backend backend = Backend::threaded;
  DistBackendOptions dist;
  bool equilibrate = true;
  RowPermOption row_perm = RowPermOption::mc64;
  /// Apply the Dr/Dc scalings produced by the mc64 duals. The paper notes
  /// matrices (FIDAPM11, JPWH_991, ORSIRR_1) that do *better* without them.
  bool mc64_scaling = true;
  ColOrderOption col_order = ColOrderOption::amd_aplusat;
  TinyPivotOption tiny_pivot = TinyPivotOption::replace;
  /// Diagonal-block pivot strategy for the static factorization. The
  /// default (static_) is the paper's pipeline, bitwise identical to the
  /// pre-portfolio solver; the recovery ladder escalates through the
  /// stronger strategies on its own. Exclusive with
  /// TinyPivotOption::aggressive_smw (SMW assumes unpivoted factors).
  dense::PanelPivot panel_pivot = dense::PanelPivot::static_;
  /// Tau for PanelPivot::threshold (see dense::PivotPolicy).
  double pivot_threshold_tau = 0.1;
  /// In-flight element-growth abort threshold for the factorization:
  /// > 0 uses that value; 0 (default) inherits recovery.max_pivot_growth
  /// whenever the recovery ladder is enabled (fail fast instead of
  /// finishing a garbage factorization); < 0 disables the abort even with
  /// recovery on.
  double growth_abort = 0.0;
  /// Compute precision of the numeric phase (factorization + triangular
  /// solves). single/mixed require Solver<double>; mixed promotes to a
  /// double refactorization when double-target refinement stalls. Exclusive
  /// with TinyPivotOption::aggressive_smw (the SMW correction is
  /// double-typed) and compensated residuals (already double-double).
  Precision precision = Precision::double_;
  symbolic::SymbolicOptions symbolic;
  refine::RefineOptions refine;
  bool estimate_ferr = false;   ///< forward error bound (expensive)
  bool estimate_rcond = false;  ///< condition estimate (expensive)
  /// Shared-memory threads for the numeric factorization (bitwise
  /// identical results at any count). 1 runs the elimination sweep in its
  /// stated order; more runs it as a task DAG.
  int num_threads = 1;
  /// Single-valued (kAuto): the thread count alone selects the engine. Kept
  /// because callers still copy it into NumericOptions::schedule.
  numeric::Schedule schedule = numeric::Schedule::kAuto;
  /// Graceful-degradation ladder (keeps a copy of A while enabled).
  RecoveryPolicy recovery;
  /// Delta-refactorization routing (see refactorize_delta()).
  DeltaPolicy delta;
  /// Opt-in autotuning (see TunePolicy); off by default, and off is
  /// guaranteed bitwise identical to a build without tuning.
  TuneOptions tune;
};

/// Accounting of refactorize_delta() routing. Counters are cumulative over
/// the solver's lifetime; the per-call fields describe the last call.
struct DeltaStats {
  count_t calls = 0;    ///< refactorize_delta() invocations
  count_t noop = 0;     ///< values bitwise identical to the factored base
  count_t smw = 0;      ///< absorbed by the SMW low-rank correction
  count_t partial = 0;  ///< partial supernode re-elimination
  count_t full = 0;     ///< fell back to a full refactorization
  count_t changed_entries = 0;   ///< last call: size of the value diff
  index_t dirty_supernodes = 0;  ///< last call: closed dirty set size (0
                                 ///< when the diff never reached routing)
  index_t smw_rank = 0;  ///< rank of the ACTIVE SMW correction (0 = none)
};

struct SolveStats {
  PhaseTimes times;  ///< "equilibrate", "rowperm", "colorder", "symbolic",
                     ///< "factor", "solve", "residual", "refine", "ferr"
  count_t nnz_l = 0;      ///< exact nnz(L) incl. unit diagonal
  count_t nnz_u = 0;      ///< exact nnz(U) incl. diagonal
  count_t stored_l = 0;   ///< supernodal stored entries of L
  count_t stored_u = 0;   ///< supernodal stored entries of U
  count_t flops = 0;      ///< factorization flop count
  index_t nsup = 0;       ///< number of supernodes
  count_t pivots_replaced = 0;
  double pivot_growth = 0.0;
  int refine_iterations = 0;
  double berr = 0.0;                 ///< final componentwise backward error
  std::vector<double> berr_history;  ///< per refinement step
  double ferr = -1.0;   ///< forward error bound (-1 = not requested)
  double rcond = -1.0;  ///< reciprocal condition estimate (-1 = not requested)
  /// Monotonic wall-clock duration of the last solve()/solve_multi() call,
  /// end to end — the per-request latency a serving layer histograms.
  /// Relationship to `times`: each public call opens a new PhaseTimes
  /// epoch, so the same call's instrumented phases are times.get("solve"),
  /// times.get("refine"), ...; solve_wall_seconds covers the whole call
  /// (RHS permutation/scaling, stats export, everything between phases),
  /// hence solve_wall_seconds >= the sum of that epoch's phase times,
  /// while times.total(p) keeps the cumulative per-phase sums. With the
  /// recovery ladder enabled, solve_multi routes each column through
  /// solve(), and these fields describe the last column's call.
  double solve_wall_seconds = 0.0;
  double solve_wall_total_seconds = 0.0;  ///< summed over all solve calls
  count_t solve_calls = 0;                ///< solve()/solve_multi() calls
  /// Precision of the factors behind the current answer (single until a
  /// promotion or an escalation past the float path).
  Precision factor_precision = Precision::double_;
  /// Float→double promotion refactorizations performed (mixed mode).
  count_t promotions = 0;
  /// How the answer was obtained: every ladder rung attempted, in order.
  /// Empty attempts == recovery disabled or never triggered.
  RecoveryTrail recovery;
  /// refactorize_delta() routing accounting.
  DeltaStats delta;
  /// Autotuning decision + predicted-vs-actual cost (inert under
  /// TunePolicy::off).
  TuningReport tuning;

  /// Publish every field into `reg` as typed metrics under "solver.*"
  /// (gauges for snapshots, "solver.time.<phase>" for the last call's
  /// phase seconds, "solver.time_total.<phase>" for the cumulative sums).
  /// The solver calls this on the global registry after each solve; tools
  /// can call it on a private registry to serialize a SolveStats as JSON.
  void export_metrics(metrics::Registry& reg) const;
};

/// Result of GESP steps (1)-(2): the combined transforms and the fully
/// transformed matrix Â = P·(Dr·A·Dc)·Pᵀ ready for static-pivot
/// factorization. Shared by core::Solver and dist::DistSolver (the
/// pre-factorization pipeline is cheap, deterministic, and replicated on
/// every rank in the distributed driver).
template <class T>
struct TransformResult {
  std::vector<double> row_scale, col_scale;
  std::vector<index_t> row_perm, col_perm;  ///< new-from-old, combined
  sparse::CscMatrix<T> At;
};

/// Run equilibration, the row permutation and the column ordering exactly
/// as Solver's analysis does; `times` (optional) receives the
/// "equilibrate"/"rowperm"/"colorder" phase entries.
template <class T>
TransformResult<T> compute_transform(const sparse::CscMatrix<T>& A,
                                     const SolverOptions& opt,
                                     PhaseTimes* times = nullptr);

/// Byte footprint of one resident factorization asset: supernodal factor
/// storage (at `factor_scalar` bytes per stored entry), factor index
/// structure, a retained copy of A (values twice — original + transformed —
/// at `value_scalar` each, plus row indices and column pointers), and the
/// n-proportional scales/permutations/workspace. This is the accounting the
/// serve-layer cache charges per entry and the sharded tier budgets shards
/// by — one formula, used by both, so the budgets agree.
std::size_t factor_asset_bytes(count_t stored_l, count_t stored_u,
                               count_t nnz_l, count_t nnz_u, index_t n,
                               count_t nnz, std::size_t factor_scalar,
                               std::size_t value_scalar) noexcept;

/// Pre-factorization estimate of factor_asset_bytes for A under `opt`:
/// runs the analysis pipeline only (transform + symbolic — cheap,
/// deterministic, no numeric phase) and prices the resulting structure.
/// Exact for the serial/threaded engines, whose numeric factorization
/// fills exactly the symbolic structure. The sharded serving tier routes
/// on this: a matrix whose estimate exceeds a shard's byte budget goes to
/// the cooperative multi-rank path instead of a single owner.
template <class T>
std::size_t estimate_factor_bytes(const sparse::CscMatrix<T>& A,
                                  const SolverOptions& opt);

/// GESP solver: construction runs steps (1)-(3) (analysis + factorization);
/// solve() runs step (4) per right-hand side.
template <class T>
class Solver {
 public:
  Solver(const sparse::CscMatrix<T>& A, const SolverOptions& opt = {});

  index_t n() const { return n_; }
  const SolverOptions& options() const { return opt_; }
  const SolveStats& stats() const { return stats_; }

  /// Structural fingerprint of the analysed matrix. refactorize() accepts
  /// only matrices with this key; the serve-layer cache uses it to route
  /// requests to an existing analysis.
  const sparse::PatternKey& pattern() const { return pattern_; }

  /// Solve A·x = b with iterative refinement; updates the refinement and
  /// error fields of stats(). With recovery enabled, escalates down the
  /// ladder until the policy thresholds are met (stats().recovery records
  /// every rung attempted); an escalated configuration persists for later
  /// solves and refactorizations.
  ///
  /// `refine_override`, when non-null, replaces opt_.refine for THIS call
  /// only (the serve layer's shed mode passes max_iters = 0 to skip
  /// refinement under load). The recovery ladder ignores the override:
  /// its berr thresholds are meaningless without refinement.
  void solve(std::span<const T> b, std::span<T> x,
             const refine::RefineOptions* refine_override = nullptr);

  /// Multiple right-hand sides: B and X are n-by-nrhs column-major. The
  /// triangular solves run blocked over all columns (matrix-matrix
  /// kernels); refinement then polishes each column. stats() reflects the
  /// last column's refinement. `refine_override` as in solve().
  void solve_multi(std::span<const T> B, std::span<T> X, index_t nrhs,
                   const refine::RefineOptions* refine_override = nullptr);

  /// Re-factorize for a matrix with the SAME nonzero pattern but new values
  /// (the repeated-solve scenario the paper amortizes the ordering over).
  /// All permutations, scalings and the symbolic structure are reused —
  /// which is exactly why the pattern is validated here: a same-size matrix
  /// with a different pattern would silently reuse a wrong symbolic
  /// structure. Throws Errc::invalid_argument on a pattern() mismatch.
  void refactorize(const sparse::CscMatrix<T>& A_new);

  /// Like refactorize(), but diff the new values against the ones the
  /// current factors consumed and absorb only the change — the transient
  /// workload (circuit time stepping, Newton sweeps) where most columns are
  /// unchanged between steps. Three routes, cheapest first, governed by
  /// SolverOptions::delta:
  ///
  ///   noop     values bitwise identical: keep everything.
  ///   smw      at most delta.smw_max_rank changed entries: wrap the
  ///            existing factors in an exact Sherman–Morrison–Woodbury
  ///            correction (no refactorization).
  ///   partial  mark the supernodes owning changed entries dirty, close the
  ///            set under the update dependencies, re-eliminate only those
  ///            — bitwise identical to a full refactorize(A_new).
  ///   full     large diffs, or an escalated/GEPP configuration where the
  ///            static factors no longer produce the answer: plain
  ///            refactorize(A_new).
  ///
  /// stats().delta records the route taken; the partial route refreshes
  /// the factorization fields of stats() exactly as refactorize() does.
  void refactorize_delta(const sparse::CscMatrix<T>& A_new);

  /// The factored, fully transformed matrix Â = P·(Dr·A·Dc)·Pᵀ (testing).
  const sparse::CscMatrix<T>& transformed_matrix() const { return At_; }
  const numeric::LUFactors<T>& factors() const { return *factors_; }

  /// Precision of the factors currently producing answers. single while the
  /// float factorization is active (Precision::single, or mixed before any
  /// promotion); double_ otherwise — including after a promotion or a GEPP
  /// fallback. The serve layer uses this for cache byte accounting.
  Precision active_precision() const {
    return factors_f_ ? Precision::single : Precision::double_;
  }
  /// The single-precision factors when the float path is active, else null.
  const numeric::LUFactors<float>* factors_single() const {
    return factors_f_.get();
  }

 private:
  void transform(const sparse::CscMatrix<T>& A);
  /// TunePolicy::model/probe: run symbolic analysis under the requested
  /// options, hand the tuner the stats, apply its decision (re-analyzing if
  /// it picked another block size). No-op under TunePolicy::off.
  void consult_tuner();
  /// Record predicted-vs-actual factor cost and feed probe-mode feedback.
  void finish_tuning();
  void factor();
  /// Numeric options for the current configuration. The tiny-pivot
  /// threshold uses the ||Â|| pinned at transform() time, so delta and full
  /// refactorizations of the same analysis agree bitwise (the threshold is
  /// a static decision, like the scalings and permutations it rides with).
  numeric::NumericOptions numeric_options(bool use_single) const;
  void apply_solver(std::span<T> x) const;  ///< LU or SMW-corrected solve
  void apply_solver_multi(std::span<T> X, index_t nrhs) const;
  void apply_solver_transposed(std::span<T> x) const;
  /// Refinement options for this solve: per-precision default target_berr
  /// unless the caller pinned one explicitly.
  refine::RefineOptions effective_refine(
      const refine::RefineOptions* ov) const;
  /// Mixed mode, float factors active, berr still above the double-path
  /// target after refinement — time for the double refactorization.
  bool needs_promotion() const;
  /// Accuracy the mixed path must deliver to keep its float factors —
  /// ~100x the double refinement target (tighter than berr_threshold()).
  double promotion_target() const;
  void promote_to_double();  ///< precision_promote rung body
  // Recovery ladder plumbing.
  void factor_ladder();  ///< factor via apply_rung, escalating on throw
  bool advance_rung();   ///< move to the next policy-enabled rung
  void apply_rung();     ///< reconfigure + refactor for the current rung
  void solve_once(std::span<const T> b, std::span<T> x,
                  const refine::RefineOptions* ov);       ///< static path
  void solve_gepp(std::span<const T> b, std::span<T> x);  ///< rung (c) path
  void finish_solve(const Timer& wall);  ///< wall latency + metrics export
  double berr_threshold() const;

  SolverOptions opt_;
  SolveStats stats_;
  index_t n_ = 0;
  sparse::PatternKey pattern_;  ///< fingerprint of the analysed matrix
  // Combined transforms: x solves A·x = b via
  //   b̂[row_perm_[i]] = row_scale_[i]·b[i];  Â·x̂ = b̂;
  //   x[j] = col_scale_[j]·x̂[col_perm_[j]].
  std::vector<double> row_scale_, col_scale_;
  std::vector<index_t> row_perm_, col_perm_;  ///< new-from-old, combined
  sparse::CscMatrix<T> At_;                   ///< transformed matrix
  double at_norm_ = 0.0;  ///< ||Â||_max pinned at transform() time
  std::shared_ptr<const symbolic::SymbolicLU> sym_;
  /// shared_ptr so SMW corrections (tiny-pivot recovery, delta updates) tie
  /// the factors' lifetime to their own instead of dangling on a rebuild.
  std::shared_ptr<numeric::LUFactors<T>> factors_;
  /// Single-precision factors (Precision::single/mixed); exactly one of
  /// factors_ / factors_f_ is live outside the gepp rung.
  std::unique_ptr<numeric::LUFactors<float>> factors_f_;
  bool promoted_ = false;  ///< mixed mode fell back to double for good
  std::unique_ptr<refine::SmwSolver<T>> smw_;
  /// Active low-rank delta correction (refactorize_delta's smw route):
  /// factors_ describe the BASE values in smw_base_values_, At_ holds the
  /// TARGET values, and delta_smw_ solves the target exactly.
  std::unique_ptr<refine::SmwSolver<T>> delta_smw_;
  std::vector<T> smw_base_values_;  ///< Â values factors_ consumed
  // Recovery state (inert unless opt_.recovery.enabled).
  sparse::CscMatrix<T> A_keep_;  ///< original A for re-transform / GEPP
  std::unique_ptr<numeric::GeppLU<T>> gepp_;  ///< active at the gepp rung
  RecoveryRung rung_ = RecoveryRung::gesp;
};

/// One-shot convenience wrapper.
template <class T>
std::vector<T> solve(const sparse::CscMatrix<T>& A, std::span<const T> b,
                     const SolverOptions& opt = {},
                     SolveStats* stats_out = nullptr);

extern template struct TransformResult<double>;
extern template struct TransformResult<Complex>;
extern template TransformResult<double> compute_transform(
    const sparse::CscMatrix<double>&, const SolverOptions&, PhaseTimes*);
extern template TransformResult<Complex> compute_transform(
    const sparse::CscMatrix<Complex>&, const SolverOptions&, PhaseTimes*);
extern template std::size_t estimate_factor_bytes(
    const sparse::CscMatrix<double>&, const SolverOptions&);
extern template std::size_t estimate_factor_bytes(
    const sparse::CscMatrix<Complex>&, const SolverOptions&);
extern template class Solver<double>;
extern template class Solver<Complex>;
extern template std::vector<double> solve(const sparse::CscMatrix<double>&,
                                          std::span<const double>,
                                          const SolverOptions&, SolveStats*);
extern template std::vector<Complex> solve(const sparse::CscMatrix<Complex>&,
                                           std::span<const Complex>,
                                           const SolverOptions&, SolveStats*);

}  // namespace gesp
