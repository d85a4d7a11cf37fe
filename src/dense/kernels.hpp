// Dense kernels for supernodal block operations: unpivoted (static-pivot)
// LU with tiny-pivot replacement, within-block partial pivoting, triangular
// solves and rank-k updates. All matrices are column-major with an explicit
// leading dimension, matching the paper's Fortran-style nzval[] storage.
//
// The tiny-pivot rule is GESP step (3): a pivot smaller in magnitude than
// sqrt(eps)·||A|| is set to that threshold (keeping its phase), a
// half-precision perturbation of the problem that iterative refinement
// corrects afterwards.
#pragma once

#include <cmath>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace gesp::dense {

/// Per-panel pivot-selection strategy for the diagonal-block factorization.
/// All three confine row interchanges to the diagonal block, so the
/// supernodal structure (and therefore the symbolic analysis) is unchanged
/// — only the numeric phase differs.
enum class PanelPivot {
  /// No interchanges: pure static pivoting with tiny-pivot replacement
  /// (the paper's GESP step (3)). The default, bitwise identical to the
  /// pre-portfolio factorization.
  static_,
  /// Threshold pivoting within the block (Hogg–Scott style): a row swap is
  /// performed only when |a_kk| < tau·max_col, and then to the
  /// largest-magnitude row. Bounds multipliers by 1/tau while keeping the
  /// static pivot order wherever it is already acceptable.
  threshold,
  /// Panel rank-revealing pivoting (Khabou–Demmel–Grigori LU_PRRP flavor):
  /// before each panel is eliminated, pivot rows are selected by a
  /// column-pivoted QR (modified Gram–Schmidt) of the panel transpose, so
  /// element growth is bounded at panel granularity even when every
  /// individual pivot passes a magnitude test.
  panel_rrp,
};

const char* panel_pivot_name(PanelPivot p) noexcept;

/// Policy for pivots encountered during elimination.
struct PivotPolicy {
  /// Replacement threshold: sqrt(eps)*||A||. <= 0 disables replacement
  /// (a zero pivot then throws Errc::numerically_singular).
  double tiny_threshold = 0.0;
  /// When true, pivot with row swaps *within* the diagonal block (the
  /// paper's "mix static and partial pivoting within a diagonal block"
  /// extension). Swaps are reported through the perm output of getrf.
  /// Exclusive with a non-static `strategy`.
  bool pivot_in_block = false;
  /// Aggressive pivot size control (paper §4): replace a tiny pivot by the
  /// largest magnitude in the current block column instead of the
  /// threshold. Pairs with the Sherman–Morrison–Woodbury recovery.
  bool aggressive = false;
  /// Panel strategy; non-static values require a perm output (like
  /// pivot_in_block) and report swaps through PivotStats::swaps.
  PanelPivot strategy = PanelPivot::static_;
  /// Threshold-pivoting relaxation factor tau in (0, 1]: keep the static
  /// pivot when |a_kk| >= tau·colmax (multipliers are then bounded by
  /// 1/tau). Ignored by the other strategies.
  double threshold_tau = 0.1;
};

/// Counters updated by the factorization kernels.
struct PivotStats {
  count_t replaced = 0;  ///< tiny pivots replaced by the threshold
  count_t swaps = 0;     ///< within-block row swaps performed
};

/// One tiny-pivot replacement: local column index within the block and the
/// value added to the pivot (new - old). Collected when the caller intends
/// to undo the perturbation through Sherman–Morrison–Woodbury (the paper's
/// aggressive pivot-size-control extension).
template <class T>
struct PivotReplacement {
  index_t col;
  T delta;
};

/// In-place LU of the b-by-b block `a` (column-major, leading dim lda),
/// unit L below the diagonal, U on and above. With policy.pivot_in_block
/// or a non-static policy.strategy, perm (size b, may be empty otherwise)
/// receives the local row permutation: perm[r] = original local row now in
/// position r. Throws Errc::numerically_singular on a zero pivot when
/// replacement is disabled.
template <class T>
void getrf(T* a, index_t b, index_t lda, const PivotPolicy& policy,
           PivotStats& stats, std::span<index_t> perm = {},
           std::vector<PivotReplacement<T>>* replacements = nullptr);

/// Solve L·X = B in place, L the b-by-b unit lower triangle of `l`.
/// B is b-by-ncols with leading dimension ldb.
template <class T>
void trsm_left_lower_unit(const T* l, index_t b, index_t lda, T* bmat,
                          index_t ncols, index_t ldb);

/// Solve X·U = B in place, U the b-by-b upper triangle of `u`.
/// B is mrows-by-b with leading dimension ldb.
template <class T>
void trsm_right_upper(const T* u, index_t b, index_t lda, T* bmat,
                      index_t mrows, index_t ldb);

/// C -= A·B, with A m-by-k (lda), B k-by-n (ldb), C m-by-n (ldc).
/// Large shapes go through a packed, register-tiled microkernel; tiny ones
/// through the reference loops. Dispatch depends only on (m, n, k), so for
/// a fixed shape the result is identical on every engine — the property the
/// serial/SMP/distributed bitwise-equality tests rely on.
template <class T>
void gemm_minus(index_t m, index_t n, index_t k, const T* a, index_t lda,
                const T* b, index_t ldb, T* c, index_t ldc);

/// D(r(i), c(j)) += -(A·B)(i, j) for i < m, j < n: the trailing update of
/// the factorizations, fused with its scatter into the destination block.
/// A is m-by-k (lda), B k-by-n (ldb), D has leading dimension ldd; `rpos`
/// (m entries) and `cpos` (n entries) map product rows/columns to rows/
/// columns of D, nullptr meaning the identity. Each product entry is formed
/// exactly as gemm_minus would form it in a zero-filled C (same dispatch,
/// same term order and zero-skip) and then added once into D, so the result
/// is bitwise equal to "zero-fill, gemm_minus, add at each position" — on
/// every engine, since they all call this one kernel. Small shapes keep the
/// products in registers (no scratch); tiled shapes go through a per-thread
/// buffer. B may point into the same array as D when the entries it reads
/// are disjoint from the entries written (the multi-RHS forward solve).
template <class T>
void gemm_minus_scatter(index_t m, index_t n, index_t k, const T* a,
                        index_t lda, const T* b, index_t ldb, T* d,
                        index_t ldd, const index_t* rpos,
                        const index_t* cpos);

/// y -= A·x for a dense m-by-n block (used by the triangular solves).
template <class T>
void gemv_minus(index_t m, index_t n, const T* a, index_t lda, const T* x,
                T* y);

/// In-place forward substitution with the unit lower triangle of `a`.
template <class T>
void trsv_lower_unit(const T* a, index_t b, index_t lda, T* x);

/// In-place backward substitution with the upper triangle of `a`.
template <class T>
void trsv_upper(const T* a, index_t b, index_t lda, T* x);

/// Solve Uᵀ·x = b in place (forward substitution on the transpose of the
/// upper triangle of `a`); used by the Aᵀ solves of condition estimation.
template <class T>
void trsv_upper_trans(const T* a, index_t b, index_t lda, T* x);

/// Solve Lᵀ·x = b in place (backward substitution on the transpose of the
/// unit lower triangle of `a`).
template <class T>
void trsv_lower_unit_trans(const T* a, index_t b, index_t lda, T* x);

/// Naive reference kernels: the unblocked triple loops the tiled versions
/// are checked against (tests) and benchmarked against (bench_kernels).
/// ref::getrf is the plain right-looking elimination without in-block
/// pivoting (policy.pivot_in_block must be false).
namespace ref {

template <class T>
void gemm_minus(index_t m, index_t n, index_t k, const T* a, index_t lda,
                const T* b, index_t ldb, T* c, index_t ldc);

template <class T>
void trsm_left_lower_unit(const T* l, index_t b, index_t lda, T* bmat,
                          index_t ncols, index_t ldb);

template <class T>
void trsm_right_upper(const T* u, index_t b, index_t lda, T* bmat,
                      index_t mrows, index_t ldb);

template <class T>
void getrf(T* a, index_t b, index_t lda, const PivotPolicy& policy,
           PivotStats& stats,
           std::vector<PivotReplacement<T>>* replacements = nullptr);

extern template void gemm_minus(index_t, index_t, index_t, const double*,
                                index_t, const double*, index_t, double*,
                                index_t);
extern template void gemm_minus(index_t, index_t, index_t, const float*,
                                index_t, const float*, index_t, float*,
                                index_t);
extern template void gemm_minus(index_t, index_t, index_t, const Complex*,
                                index_t, const Complex*, index_t, Complex*,
                                index_t);
extern template void trsm_left_lower_unit(const double*, index_t, index_t,
                                          double*, index_t, index_t);
extern template void trsm_left_lower_unit(const float*, index_t, index_t,
                                          float*, index_t, index_t);
extern template void trsm_left_lower_unit(const Complex*, index_t, index_t,
                                          Complex*, index_t, index_t);
extern template void trsm_right_upper(const double*, index_t, index_t,
                                      double*, index_t, index_t);
extern template void trsm_right_upper(const float*, index_t, index_t,
                                      float*, index_t, index_t);
extern template void trsm_right_upper(const Complex*, index_t, index_t,
                                      Complex*, index_t, index_t);
extern template void getrf(double*, index_t, index_t, const PivotPolicy&,
                           PivotStats&,
                           std::vector<PivotReplacement<double>>*);
extern template void getrf(float*, index_t, index_t, const PivotPolicy&,
                           PivotStats&,
                           std::vector<PivotReplacement<float>>*);
extern template void getrf(Complex*, index_t, index_t, const PivotPolicy&,
                           PivotStats&,
                           std::vector<PivotReplacement<Complex>>*);

}  // namespace ref

extern template void getrf(double*, index_t, index_t, const PivotPolicy&,
                           PivotStats&, std::span<index_t>,
                           std::vector<PivotReplacement<double>>*);
extern template void getrf(float*, index_t, index_t, const PivotPolicy&,
                           PivotStats&, std::span<index_t>,
                           std::vector<PivotReplacement<float>>*);
extern template void getrf(Complex*, index_t, index_t, const PivotPolicy&,
                           PivotStats&, std::span<index_t>,
                           std::vector<PivotReplacement<Complex>>*);
extern template void trsm_left_lower_unit(const double*, index_t, index_t,
                                          double*, index_t, index_t);
extern template void trsm_left_lower_unit(const float*, index_t, index_t,
                                          float*, index_t, index_t);
extern template void trsm_left_lower_unit(const Complex*, index_t, index_t,
                                          Complex*, index_t, index_t);
extern template void trsm_right_upper(const double*, index_t, index_t,
                                      double*, index_t, index_t);
extern template void trsm_right_upper(const float*, index_t, index_t,
                                      float*, index_t, index_t);
extern template void trsm_right_upper(const Complex*, index_t, index_t,
                                      Complex*, index_t, index_t);
extern template void gemm_minus(index_t, index_t, index_t, const double*,
                                index_t, const double*, index_t, double*,
                                index_t);
extern template void gemm_minus(index_t, index_t, index_t, const float*,
                                index_t, const float*, index_t, float*,
                                index_t);
extern template void gemm_minus(index_t, index_t, index_t, const Complex*,
                                index_t, const Complex*, index_t, Complex*,
                                index_t);
extern template void gemm_minus_scatter(index_t, index_t, index_t,
                                        const double*, index_t, const double*,
                                        index_t, double*, index_t,
                                        const index_t*, const index_t*);
extern template void gemm_minus_scatter(index_t, index_t, index_t,
                                        const float*, index_t, const float*,
                                        index_t, float*, index_t,
                                        const index_t*, const index_t*);
extern template void gemm_minus_scatter(index_t, index_t, index_t,
                                        const Complex*, index_t,
                                        const Complex*, index_t, Complex*,
                                        index_t, const index_t*,
                                        const index_t*);
extern template void gemv_minus(index_t, index_t, const double*, index_t,
                                const double*, double*);
extern template void gemv_minus(index_t, index_t, const float*, index_t,
                                const float*, float*);
extern template void gemv_minus(index_t, index_t, const Complex*, index_t,
                                const Complex*, Complex*);
extern template void trsv_lower_unit(const double*, index_t, index_t,
                                     double*);
extern template void trsv_lower_unit(const float*, index_t, index_t, float*);
extern template void trsv_lower_unit(const Complex*, index_t, index_t,
                                     Complex*);
extern template void trsv_upper(const double*, index_t, index_t, double*);
extern template void trsv_upper(const float*, index_t, index_t, float*);
extern template void trsv_upper(const Complex*, index_t, index_t, Complex*);
extern template void trsv_upper_trans(const double*, index_t, index_t,
                                      double*);
extern template void trsv_upper_trans(const float*, index_t, index_t,
                                      float*);
extern template void trsv_upper_trans(const Complex*, index_t, index_t,
                                      Complex*);
extern template void trsv_lower_unit_trans(const double*, index_t, index_t,
                                           double*);
extern template void trsv_lower_unit_trans(const float*, index_t, index_t,
                                           float*);
extern template void trsv_lower_unit_trans(const Complex*, index_t, index_t,
                                           Complex*);

}  // namespace gesp::dense
