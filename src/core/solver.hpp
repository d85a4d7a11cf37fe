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
//       turn on or off any of these options"; validate() holds the rules
//       on which of them combine).
//   (4) Iterative refinement until berr <= eps or stagnation.
//
// Optional diagnostics: forward error bound and condition estimate (the
// expensive extra triangular solves the paper only runs on demand).
#pragma once

#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
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

/// Failures the recovery ladder (and the serve layer's evict-and-retry)
/// may absorb; anything else — bad input, a broken invariant — propagates.
inline bool recoverable(Errc c) noexcept {
  return c == Errc::numerically_singular || c == Errc::unstable;
}

/// When and how solve() is allowed to escalate down the ladder. Escalation
/// triggers on: berr above max_berr() after refinement, pivot growth above
/// max_pivot_growth, an in-flight growth abort, or a numerically_singular /
/// unstable factorization. Both limits are fixed.
struct RecoveryPolicy {
  /// Acceptable backward error after refinement: sqrt(eps) of the
  /// *requested* precision (mixed promises double-quality answers).
  static double max_berr(Precision requested) noexcept {
    return std::sqrt(requested == Precision::single
                         ? double{std::numeric_limits<float>::epsilon()}
                         : std::numeric_limits<double>::epsilon());
  }
  /// Pivot growth beyond this marks the static factorization unreliable.
  /// Doubles as the default in-flight growth-abort threshold (see
  /// SolverOptions::growth_abort).
  static constexpr double max_pivot_growth = 1e10;

  bool enabled = false;
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

/// Judge an attempt of the static path from its berr and pivot_growth
/// against RecoveryPolicy's limits for the `requested` precision: sets
/// success and, on a miss, the trigger (berr_stall before pivot_growth) and
/// a "<what> <value> above limit <limit>" detail. The in-process ladder and
/// the dist backend's fallback both judge with it.
void judge_attempt(RecoveryAttempt& a, Precision requested);

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

/// Routing policy for Solver::refactorize_delta(): how a same-pattern
/// value update is absorbed, cheapest route first.
struct DeltaPolicy {
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
  /// stronger strategies on its own.
  dense::PanelPivot panel_pivot = dense::PanelPivot::static_;
  /// Tau for PanelPivot::threshold (see dense::PivotPolicy).
  double pivot_threshold_tau = 0.1;
  /// In-flight element-growth abort threshold for the factorization:
  /// > 0 uses that value; 0 (default) inherits
  /// RecoveryPolicy::max_pivot_growth whenever the recovery ladder is
  /// enabled (fail fast instead of finishing a garbage factorization);
  /// < 0 disables the abort even with recovery on.
  double growth_abort = 0.0;
  /// Compute precision of the numeric phase (factorization + triangular
  /// solves); mixed promotes to a double refactorization when
  /// double-target refinement stalls.
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
};

/// The options contract: every rule tying one SolverOptions field to
/// another, for a solver over T on opt.backend (INTERNALS.md §9 "Options
/// contract" lists them). Throws Errc::invalid_argument naming the first
/// rule broken. Every solver entry point calls it at construction, so a
/// combination no engine honours fails there instead of being dropped or
/// failing late.
template <class T>
void validate(const SolverOptions& opt);

/// Accounting of refactorize_delta() routing. Counters are cumulative over
/// the solver's lifetime; the per-call fields describe the last call.
struct DeltaStats {
  count_t calls = 0;    ///< refactorize_delta() invocations
  count_t noop = 0;     ///< values bitwise identical to the factored base
  /// Always 0 (no route answers through a low-rank correction); kept only
  /// because the repository benchmark still reads it.
  count_t smw = 0;
  count_t partial = 0;  ///< partial supernode re-elimination
  count_t full = 0;     ///< fell back to a full refactorization
  count_t changed_entries = 0;   ///< last call: size of the value diff
  index_t dirty_supernodes = 0;  ///< last call: closed dirty set size (0
                                 ///< when the diff never reached routing)
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

  /// Copy the structure fields (nnz_l/nnz_u, stored_l/stored_u, flops,
  /// nsup) from the symbolic analysis the factors were built on.
  void record_structure(const symbolic::SymbolicLU& S);

  /// Publish every field into `reg` as typed metrics under "solver.*"
  /// (gauges for snapshots, "solver.time.<phase>" for the last call's
  /// phase seconds, "solver.time_total.<phase>" for the cumulative sums).
  /// The solver publishes through a StatsGauges it keeps for the global
  /// registry after each solve; tools can call this on a private registry
  /// to serialize a SolveStats as JSON.
  void export_metrics(metrics::Registry& reg) const;
};

/// SolveStats::export_metrics with the gauges looked up once per registry:
/// each gauge name is built and resolved under the registry's lock the
/// first time it is published, after which publish() only stores values.
/// A gauge export_metrics writes conditionally (ferr, rcond, the last
/// recovery trigger) is still created only when first written, so the
/// registry holds exactly the names export_metrics would have created.
/// The registry must outlive this object.
class StatsGauges {
 public:
  explicit StatsGauges(metrics::Registry& reg) : reg_(reg) {}
  void publish(const SolveStats& s);

 private:
  metrics::Registry& reg_;
  std::vector<metrics::Gauge*> fields_;  ///< per stats field, lazily
  /// "solver.time.<phase>" / "solver.time_total.<phase>" per phase.
  std::map<std::string, std::pair<metrics::Gauge*, metrics::Gauge*>> phases_;
};

/// Result of GESP steps (1)-(2): the combined transforms and the fully
/// transformed matrix Â = P·(Dr·A·Dc)·Pᵀ ready for static-pivot
/// factorization; build_analysis moves it into an Analysis (the
/// pre-factorization pipeline is cheap, deterministic, and replicated on
/// every rank in the distributed driver).
template <class T>
struct TransformResult {
  std::vector<double> row_scale, col_scale;
  std::vector<index_t> row_perm, col_perm;  ///< new-from-old, combined
  sparse::CscMatrix<T> At;
  /// symbolic::elimination_tree(At), the A+Aᵀ etree the postorder was
  /// taken from, relabelled; hand it to symbolic::analyze.
  std::vector<index_t> etree;
  /// At position of every stored entry of A (permute's `dest` map):
  /// refactorizations on the same pattern scale each entry straight there.
  std::vector<index_t> at_pos;
};

/// Run equilibration, the row permutation and the column ordering (the
/// first half of build_analysis); `times` (optional) receives the
/// "equilibrate"/"rowperm"/"colorder" phase entries. The A+Aᵀ graph of the
/// row-permuted matrix is built once: it is the ordering graph (except for
/// amd_ata) and gives the etree that is postordered and returned.
template <class T>
TransformResult<T> compute_transform(const sparse::CscMatrix<T>& A,
                                     const SolverOptions& opt,
                                     PhaseTimes* times = nullptr);

/// Every static decision GESP makes for one pattern, taken from its first
/// values: steps (1)-(2), the symbolic structure and the tiny-pivot
/// threshold. Under static pivoting only the numeric values change between
/// factorizations of a pattern (SuperLU_DIST's SamePattern_SameRowPerm).
/// Immutable once built and held through shared_ptr<const Analysis>;
/// Solver and DistSolver keep one each, next to Â's current values.
template <class T>
struct Analysis {
  sparse::PatternKey key;  ///< fingerprint of the analysed pattern
  // Combined transforms: x solves A·x = b via
  //   b̂[row_perm[i]] = row_scale[i]·b[i];  Â·x̂ = b̂;
  //   x[j] = col_scale[j]·x̂[col_perm[j]].
  std::vector<double> row_scale, col_scale;
  std::vector<index_t> row_perm, col_perm;  ///< new-from-old, combined
  std::vector<index_t> at_pos;  ///< Â position of each stored entry of A
  /// ||Â||_max of the first values, pinned: the tiny-pivot threshold is a
  /// static decision like the scalings it rides with, so every
  /// refactorization of the pattern replaces pivots by the same rule.
  double at_norm = 0.0;
  std::shared_ptr<const symbolic::SymbolicLU> sym;

  /// Â's values for A_new, in Â's storage order: each entry of A_new is
  /// scaled straight into its at_pos position, one pass, bitwise
  /// apply_scaling then permute. Throws Errc::invalid_argument unless A_new
  /// has the analysed dimension and pattern_key (a same-size matrix with
  /// another pattern would silently reuse a wrong symbolic structure).
  std::vector<T> refill(const sparse::CscMatrix<T>& A_new) const;
  /// The tiny-pivot threshold sqrt(eps)·||Â|| under `rule`, at the compute
  /// precision's eps (float when `single`); 0 under TinyPivotOption::fail.
  double tiny_threshold(TinyPivotOption rule, bool single) const;
  /// b̂ = P·Dr·b, for each n-long column of b.
  void to_factored(std::span<const T> b, std::span<T> bhat) const;
  /// x = Dc·Pᵀ·x̂, for each n-long column of x̂.
  void from_factored(std::span<const T> xhat, std::span<T> x) const;
};

/// The one Analysis builder: compute_transform, then symbolic::analyze on
/// the transform's etree (`times`, optional, also receives "symbolic").
/// Returns the Analysis and the first Â.
template <class T>
std::pair<std::shared_ptr<const Analysis<T>>, sparse::CscMatrix<T>>
build_analysis(const sparse::CscMatrix<T>& A, const SolverOptions& opt,
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
/// builds the Analysis only (transform + symbolic — cheap, deterministic,
/// no numeric phase) and prices its structure.
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
  const sparse::PatternKey& pattern() const { return an_->key; }

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
  ///
  /// The numeric work re-eliminates the existing factor storage in place
  /// (LUFactors::refactorize_partial with every supernode dirty), the same
  /// path as every refactorize_delta() route and every recovery rung that
  /// keeps the analysis; only the constructor, the unscaled rung, GEPP and
  /// a precision promotion lay out fresh factors. A refactorization that
  /// throws leaves no factors: solve() and solve_multi() then throw
  /// Errc::invalid_argument until a later (re)factorization succeeds.
  void refactorize(const sparse::CscMatrix<T>& A_new);

  /// Same result as refactorize(A_new), but diff the new values against the
  /// ones the current factors consumed and redo only what the change
  /// reaches — the transient workload (circuit time stepping, Newton
  /// sweeps) where most columns are unchanged between steps. Three routes,
  /// cheapest first, governed by SolverOptions::delta; each leaves factors
  /// and answers bitwise identical to refactorize(A_new):
  ///
  ///   noop     values bitwise identical: keep everything.
  ///   partial  mark the supernodes owning changed entries dirty, close the
  ///            set under the update dependencies, re-eliminate only those.
  ///   full     a closed dirty set above delta.max_dirty_fraction, or an
  ///            escalated/GEPP configuration where the static factors no
  ///            longer produce the answer: the refactorize(A_new) body,
  ///            i.e. the partial sweep with every supernode dirty.
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
  /// Factor At_ at the current rung's configuration: eliminate() with
  /// every supernode dirty.
  void factor();
  /// The one numeric entry: re-eliminate the `dirty` supernodes of the
  /// factors of the requested precision in place when they exist over
  /// an_->sym, else lay out fresh ones (every supernode must then be dirty).
  /// A throw drops the factors.
  void eliminate(const std::vector<char>& dirty, bool use_single);
  /// Throws Errc::invalid_argument when no factorization can answer (the
  /// last one failed).
  void require_factors() const;
  /// New values restart the recovery ladder from the policy's start rung
  /// (the escalated *configuration* persists: an unscaled transform stays
  /// unscaled). Nothing to do with the ladder off.
  void restart_ladder(const sparse::CscMatrix<T>& A_new);
  /// Make stats_ describe the static factors now producing answers
  /// (structure, precision, replaced pivots, growth), count the
  /// factorization, and rebuild the aggressive-SMW correction from their
  /// pivot replacements. Shared by factor() and the partial delta route.
  void record_factorization();
  /// Numeric options for the current configuration. The tiny-pivot
  /// threshold is an_'s (the ||Â|| pinned at analysis), so delta and full
  /// refactorizations of the same analysis agree bitwise.
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
  /// ~100x the double refinement target (tighter than
  /// RecoveryPolicy::max_berr).
  double promotion_target() const;
  void promote_to_double();  ///< precision_promote rung body
  // Recovery ladder plumbing.
  /// Factor via apply_rung, escalating past each failure escalate() takes.
  void factor_ladder();
  /// The one escalation step: with the ladder on, record the recoverable
  /// failure `e` at the current rung and advance_rung(); false = rethrow.
  bool escalate(const Error& e);
  bool advance_rung();   ///< move to the next policy-enabled rung
  void apply_rung();     ///< reconfigure + refactor for the current rung
  void solve_once(std::span<const T> b, std::span<T> x,
                  const refine::RefineOptions* ov);       ///< static path
  void solve_gepp(std::span<const T> b, std::span<T> x);  ///< rung (c) path
  void finish_solve(const Timer& wall);  ///< wall latency + metrics export

  SolverOptions opt_;
  SolveStats stats_;
  /// stats_'s gauges in metrics::global(), resolved at the first solve.
  std::unique_ptr<StatsGauges> gauges_;
  index_t n_ = 0;
  /// Every static decision; replaced only by the unscaled rung.
  std::shared_ptr<const Analysis<T>> an_;
  sparse::CscMatrix<T> At_;  ///< Â at the values last factored
  /// shared_ptr so the tiny-pivot SMW correction ties the factors' lifetime
  /// to its own instead of dangling on a rebuild.
  std::shared_ptr<numeric::LUFactors<T>> factors_;
  /// Single-precision factors (Precision::single/mixed); exactly one of
  /// factors_ / factors_f_ is live outside the gepp rung.
  std::unique_ptr<numeric::LUFactors<float>> factors_f_;
  bool promoted_ = false;  ///< mixed mode fell back to double for good
  std::unique_ptr<refine::SmwSolver<T>> smw_;
  // Recovery state (inert unless opt_.recovery.enabled).
  sparse::CscMatrix<T> A_keep_;  ///< original A for re-analysis / GEPP
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
extern template struct Analysis<double>;
extern template struct Analysis<Complex>;
extern template std::pair<std::shared_ptr<const Analysis<double>>,
                          sparse::CscMatrix<double>>
build_analysis(const sparse::CscMatrix<double>&, const SolverOptions&,
               PhaseTimes*);
extern template std::pair<std::shared_ptr<const Analysis<Complex>>,
                          sparse::CscMatrix<Complex>>
build_analysis(const sparse::CscMatrix<Complex>&, const SolverOptions&,
               PhaseTimes*);
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
