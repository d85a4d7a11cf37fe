#include "dense/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace gesp::dense {
namespace {

/// Replace a tiny or zero pivot by the threshold, preserving its phase
/// (sign for real, direction for complex); a zero pivot becomes +tau.
/// static_cast, not braced init: the threshold is carried in double and
/// narrows when the compute precision is float.
template <class T>
T replaced_pivot(T pivot, double tau) {
  using std::abs;
  const double mag = abs(pivot);
  if (mag == 0.0) return static_cast<T>(tau);
  return pivot * static_cast<T>(tau / mag);
}

// ---------------------------------------------------------------------------
// Naive kernels (the reference implementations; also the small-shape paths).
// ---------------------------------------------------------------------------

// x - a·b for the naive kernels. A real multiply-subtract is spelled out:
// one rounding (fma) when the target has FMA — what contraction makes of
// the plain expression there — and two otherwise, where nothing can
// contract. Left to the compiler, two inlined copies of the same loop do
// not always contract alike, which would break the cross-engine bitwise
// guarantee of INTERNALS §10.
template <class T>
inline T minus_product(T x, T a, T b) {
#ifdef __FP_FAST_FMA
  if constexpr (std::is_same_v<T, double>) return std::fma(-a, b, x);
#endif
#ifdef __FP_FAST_FMAF
  if constexpr (std::is_same_v<T, float>) return std::fma(-a, b, x);
#endif
  return x - a * b;
}

// The small-shape arithmetic: acc[r] -= a(r,p)·b(p) for R consecutive rows,
// in ascending p, skipping b(p) == 0 — the jki loop of a naive gemm. R is a
// compile-time constant, so the rows stay in registers across the k loop.
// gemm_minus and gemm_minus_scatter run it on real shapes below
// gemm_is_small, and ref::gemm_minus on every shape.
template <index_t R, class T>
inline void column_chunk(index_t k, const T* a, index_t lda, const T* bj,
                         T* acc) {
  T x[R];
  for (index_t r = 0; r < R; ++r) x[r] = acc[r];
  for (index_t p = 0; p < k; ++p) {
    const T bpj = bj[p];
    if (bpj == T{}) continue;
    const T* ap = a + p * static_cast<std::size_t>(lda);
    for (index_t r = 0; r < R; ++r) x[r] = minus_product(x[r], ap[r], bpj);
  }
  for (index_t r = 0; r < R; ++r) acc[r] = x[r];
}

// Calls chunk(rows, i) over rows [0, m) in chunks of at most 8, `rows` a
// std::integral_constant so each chunk's height is fixed at compile time.
template <class Fn>
inline void for_row_chunks(index_t m, Fn&& chunk) {
  using std::integral_constant;
  index_t i = 0;
  for (; i + 8 <= m; i += 8) chunk(integral_constant<index_t, 8>{}, i);
  switch (m - i) {
    case 1: chunk(integral_constant<index_t, 1>{}, i); break;
    case 2: chunk(integral_constant<index_t, 2>{}, i); break;
    case 3: chunk(integral_constant<index_t, 3>{}, i); break;
    case 4: chunk(integral_constant<index_t, 4>{}, i); break;
    case 5: chunk(integral_constant<index_t, 5>{}, i); break;
    case 6: chunk(integral_constant<index_t, 6>{}, i); break;
    case 7: chunk(integral_constant<index_t, 7>{}, i); break;
    default: break;
  }
}

// C -= A·B by the naive loop, one register chunk of a C column at a time.
template <class T>
void gemm_minus_naive(index_t m, index_t n, index_t k, const T* a,
                      index_t lda, const T* b, index_t ldb, T* c,
                      index_t ldc) {
  for_row_chunks(m, [&](auto rows, index_t i) {
    for (index_t j = 0; j < n; ++j)
      column_chunk<decltype(rows)::value>(
          k, a + i, lda, b + j * static_cast<std::size_t>(ldb),
          c + i + j * static_cast<std::size_t>(ldc));
  });
}

template <class T>
void trsm_left_lower_unit_naive(const T* l, index_t b, index_t lda, T* bmat,
                                index_t ncols, index_t ldb) {
  for (index_t c = 0; c < ncols; ++c) {
    T* x = bmat + c * ldb;
    for (index_t k = 0; k < b; ++k) {
      const T xk = x[k];
      if (xk == T{}) continue;
      const T* lk = l + k * lda;
      for (index_t r = k + 1; r < b; ++r) x[r] -= lk[r] * xk;
    }
  }
}

// Solve X U = B column-block-wise: X(:,k) = (B(:,k) - sum_{c<k} X(:,c)
// U(c,k)) / U(k,k).
template <class T>
void trsm_right_upper_naive(const T* u, index_t b, index_t lda, T* bmat,
                            index_t mrows, index_t ldb) {
  for (index_t k = 0; k < b; ++k) {
    T* xk = bmat + k * ldb;
    for (index_t c = 0; c < k; ++c) {
      const T uck = u[c + k * lda];
      if (uck == T{}) continue;
      const T* xc = bmat + c * ldb;
      for (index_t r = 0; r < mrows; ++r) xk[r] -= xc[r] * uck;
    }
    const T inv = T{1} / u[k + k * lda];
    for (index_t r = 0; r < mrows; ++r) xk[r] *= inv;
  }
}

// Unblocked right-looking elimination of the m-by-nb panel at `a` (all
// remaining rows, nb pivot columns). `col0` offsets the recorded
// replacement columns so callers see block-local indices.
template <class T>
void getrf_panel(T* a, index_t m, index_t nb, index_t lda,
                 const PivotPolicy& policy, PivotStats& stats, index_t col0,
                 std::vector<PivotReplacement<T>>* replacements) {
  using std::abs;
  for (index_t k = 0; k < nb; ++k) {
    T pivot = a[k + k * lda];
    if (abs(pivot) <= policy.tiny_threshold) {
      GESP_CHECK(policy.tiny_threshold > 0.0 || abs(pivot) != 0.0,
                 Errc::numerically_singular,
                 "zero pivot at column " + std::to_string(col0 + k) +
                     " with replacement disabled");
      if (policy.tiny_threshold > 0.0) {
        const T old = pivot;
        double target = policy.tiny_threshold;
        if (policy.aggressive) {
          // Largest magnitude in the remaining block column.
          for (index_t r = k; r < m; ++r)
            target = std::max<double>(target, abs(a[r + k * lda]));
        }
        pivot = replaced_pivot(pivot, target);
        a[k + k * lda] = pivot;
        ++stats.replaced;
        if (replacements) replacements->push_back({col0 + k, pivot - old});
      }
    }
    const T inv = T{1} / pivot;
    for (index_t r = k + 1; r < m; ++r) a[r + k * lda] *= inv;
    for (index_t c = k + 1; c < nb; ++c) {
      const T ukc = a[k + c * lda];
      if (ukc == T{}) continue;
      T* col = a + c * lda;
      const T* lk = a + k * lda;
      for (index_t r = k + 1; r < m; ++r) col[r] -= lk[r] * ukc;
    }
  }
}

// Unblocked elimination with partial pivoting restricted to the diagonal
// block (the paper's mix of static and partial pivoting). Kept separate
// from the blocked fast path: swaps touch whole rows, so deferring updates
// would need a laswp pass for no gain at these block sizes.
template <class T>
void getrf_pivot_in_block(T* a, index_t b, index_t lda,
                          const PivotPolicy& policy, PivotStats& stats,
                          std::span<index_t> perm,
                          std::vector<PivotReplacement<T>>* replacements) {
  using std::abs;
  GESP_CHECK(perm.size() == static_cast<std::size_t>(b),
             Errc::invalid_argument,
             "pivot_in_block requires a permutation output of size b");
  for (index_t r = 0; r < b; ++r) perm[r] = r;
  for (index_t k = 0; k < b; ++k) {
    index_t best = k;
    double bestmag = abs(a[k + k * lda]);
    for (index_t r = k + 1; r < b; ++r) {
      const double m = abs(a[r + k * lda]);
      if (m > bestmag) {
        bestmag = m;
        best = r;
      }
    }
    if (best != k) {
      for (index_t c = 0; c < b; ++c)
        std::swap(a[k + c * lda], a[best + c * lda]);
      std::swap(perm[k], perm[best]);
      ++stats.swaps;
    }
    T pivot = a[k + k * lda];
    if (abs(pivot) <= policy.tiny_threshold) {
      GESP_CHECK(policy.tiny_threshold > 0.0 || abs(pivot) != 0.0,
                 Errc::numerically_singular,
                 "zero pivot at column " + std::to_string(k) +
                     " with replacement disabled");
      if (policy.tiny_threshold > 0.0) {
        const T old = pivot;
        double target = policy.tiny_threshold;
        if (policy.aggressive) {
          for (index_t r = k; r < b; ++r)
            target = std::max<double>(target, abs(a[r + k * lda]));
        }
        pivot = replaced_pivot(pivot, target);
        a[k + k * lda] = pivot;
        ++stats.replaced;
        if (replacements) replacements->push_back({k, pivot - old});
      }
    }
    const T inv = T{1} / pivot;
    for (index_t r = k + 1; r < b; ++r) a[r + k * lda] *= inv;
    for (index_t c = k + 1; c < b; ++c) {
      const T ukc = a[k + c * lda];
      if (ukc == T{}) continue;
      T* col = a + c * lda;
      const T* lk = a + k * lda;
      for (index_t r = k + 1; r < b; ++r) col[r] -= lk[r] * ukc;
    }
  }
}

/// Shared tail of one elimination column for the in-block strategies:
/// tiny-pivot replacement, scaling of the multipliers and the rank-1
/// update of the trailing columns. Identical arithmetic to getrf_panel.
template <class T>
void eliminate_column(T* a, index_t b, index_t lda, index_t k,
                      const PivotPolicy& policy, PivotStats& stats,
                      std::vector<PivotReplacement<T>>* replacements) {
  using std::abs;
  T pivot = a[k + k * lda];
  if (abs(pivot) <= policy.tiny_threshold) {
    GESP_CHECK(policy.tiny_threshold > 0.0 || abs(pivot) != 0.0,
               Errc::numerically_singular,
               "zero pivot at column " + std::to_string(k) +
                   " with replacement disabled");
    if (policy.tiny_threshold > 0.0) {
      const T old = pivot;
      double target = policy.tiny_threshold;
      if (policy.aggressive) {
        for (index_t r = k; r < b; ++r)
          target = std::max<double>(target, abs(a[r + k * lda]));
      }
      pivot = replaced_pivot(pivot, target);
      a[k + k * lda] = pivot;
      ++stats.replaced;
      if (replacements) replacements->push_back({k, pivot - old});
    }
  }
  const T inv = T{1} / pivot;
  for (index_t r = k + 1; r < b; ++r) a[r + k * lda] *= inv;
  for (index_t c = k + 1; c < b; ++c) {
    const T ukc = a[k + c * lda];
    if (ukc == T{}) continue;
    T* col = a + c * lda;
    const T* lk = a + k * lda;
    for (index_t r = k + 1; r < b; ++r) col[r] -= lk[r] * ukc;
  }
}

/// Threshold pivoting confined to the diagonal block: the static pivot is
/// kept whenever |a_kk| >= tau·colmax; otherwise the largest-magnitude row
/// of the remaining block column is swapped in (ties to the lowest row
/// index, so the choice — and the factors — are deterministic).
template <class T>
void getrf_threshold_in_block(T* a, index_t b, index_t lda,
                              const PivotPolicy& policy, PivotStats& stats,
                              std::span<index_t> perm,
                              std::vector<PivotReplacement<T>>* replacements) {
  using std::abs;
  GESP_CHECK(perm.size() == static_cast<std::size_t>(b),
             Errc::invalid_argument,
             "threshold pivoting requires a permutation output of size b");
  const double tau = policy.threshold_tau;
  GESP_CHECK(tau > 0.0 && tau <= 1.0, Errc::invalid_argument,
             "threshold_tau must be in (0, 1]");
  for (index_t r = 0; r < b; ++r) perm[r] = r;
  for (index_t k = 0; k < b; ++k) {
    index_t best = k;
    double bestmag = abs(a[k + k * lda]);
    for (index_t r = k + 1; r < b; ++r) {
      const double m = abs(a[r + k * lda]);
      if (m > bestmag) {
        bestmag = m;
        best = r;
      }
    }
    if (best != k && abs(a[k + k * lda]) < tau * bestmag) {
      for (index_t c = 0; c < b; ++c)
        std::swap(a[k + c * lda], a[best + c * lda]);
      std::swap(perm[k], perm[best]);
      ++stats.swaps;
    }
    eliminate_column(a, b, lda, k, policy, stats, replacements);
  }
}

/// Panel-RRP: before each panel of kGetrfPanel columns is eliminated, pick
/// its pivot rows with a column-pivoted modified Gram–Schmidt QR of the
/// panel transpose (the practical core of the Khabou–Demmel–Grigori
/// LU_PRRP panel factorization). The selected rows are swapped to the top
/// of the panel, then the panel is eliminated with partial pivoting
/// *confined to the selected rows* — LU_PRRP likewise factors the chosen
/// block with GEPP internally. Multipliers between panel rows are thus
/// bounded by 1, and multipliers of the rows below the panel by the
/// rank-revealing quality of the selection, so element growth is bounded
/// at panel granularity even when every individual pivot passes a
/// magnitude test (the Wilkinson tie case partial pivoting falls for).
template <class T>
void getrf_panel_rrp(T* a, index_t b, index_t lda, const PivotPolicy& policy,
                     PivotStats& stats, std::span<index_t> perm,
                     std::vector<PivotReplacement<T>>* replacements,
                     index_t panel_width) {
  using std::abs;
  GESP_CHECK(perm.size() == static_cast<std::size_t>(b),
             Errc::invalid_argument,
             "panel_rrp requires a permutation output of size b");
  for (index_t r = 0; r < b; ++r) perm[r] = r;
  std::vector<T> q;           // current MGS direction (nb entries)
  std::vector<T> cand;        // candidate row vectors, nb-by-m column-major
  std::vector<double> norms;  // residual squared norms per candidate
  std::vector<index_t> sel;
  for (index_t k0 = 0; k0 < b; k0 += panel_width) {
    const index_t nb = std::min(panel_width, b - k0);
    const index_t m = b - k0;  // candidate rows
    if (nb > 1 && m > 1) {
      // cand(:, r) = row k0+r of the panel a(k0:b, k0:k0+nb).
      cand.assign(static_cast<std::size_t>(nb) * m, T{});
      norms.assign(static_cast<std::size_t>(m), 0.0);
      for (index_t r = 0; r < m; ++r) {
        double s = 0.0;
        for (index_t c = 0; c < nb; ++c) {
          const T v = a[(k0 + r) + (k0 + c) * static_cast<std::size_t>(lda)];
          cand[c + r * static_cast<std::size_t>(nb)] = v;
          s += static_cast<double>(abs(v)) * static_cast<double>(abs(v));
        }
        norms[r] = s;
      }
      // Greedy MGS with column pivoting: sel[s] = candidate (block-local
      // row at panel entry) chosen as the s-th pivot row.
      sel.resize(static_cast<std::size_t>(nb));
      std::vector<bool> used(static_cast<std::size_t>(m), false);
      for (index_t s = 0; s < nb; ++s) {
        index_t pick = -1;
        double pickn = -1.0;
        for (index_t r = 0; r < m; ++r)
          if (!used[r] && norms[r] > pickn) {
            pickn = norms[r];
            pick = r;
          }
        sel[s] = pick;
        used[pick] = true;
        if (pickn <= 0.0) continue;  // rank-deficient panel: keep order
        // Normalize the picked direction, orthogonalize the rest.
        T* qv = cand.data() + pick * static_cast<std::size_t>(nb);
        const double qn = std::sqrt(pickn);
        q.assign(qv, qv + nb);
        for (index_t c = 0; c < nb; ++c)
          q[c] = q[c] * static_cast<T>(1.0 / qn);
        for (index_t r = 0; r < m; ++r) {
          if (used[r]) continue;
          T* v = cand.data() + r * static_cast<std::size_t>(nb);
          T proj{};
          for (index_t c = 0; c < nb; ++c) {
            if constexpr (is_complex_v<T>)
              proj += std::conj(q[c]) * v[c];
            else
              proj += q[c] * v[c];
          }
          double s2 = 0.0;
          for (index_t c = 0; c < nb; ++c) {
            v[c] -= proj * q[c];
            s2 += static_cast<double>(abs(v[c])) * static_cast<double>(abs(v[c]));
          }
          norms[r] = s2;
        }
      }
      // Apply the selection as successive full-width row swaps, tracking
      // where each original candidate currently lives.
      std::vector<index_t> where(static_cast<std::size_t>(m));
      std::vector<index_t> who(static_cast<std::size_t>(m));
      for (index_t r = 0; r < m; ++r) where[r] = who[r] = r;
      for (index_t s = 0; s < nb; ++s) {
        const index_t src = where[sel[s]];  // current position of pick
        if (src != s) {
          const index_t r1 = k0 + s, r2 = k0 + src;
          for (index_t c = 0; c < b; ++c)
            std::swap(a[r1 + c * static_cast<std::size_t>(lda)],
                      a[r2 + c * static_cast<std::size_t>(lda)]);
          std::swap(perm[r1], perm[r2]);
          ++stats.swaps;
          const index_t disp = who[s];  // candidate displaced from slot s
          where[disp] = src;
          who[src] = disp;
          where[sel[s]] = s;
          who[s] = sel[s];
        }
      }
    }
    // Eliminate the panel with partial pivoting confined to the selected
    // pivot rows (rows k0..k0+nb-1; ties keep the lower index, so the
    // factors are deterministic).
    for (index_t k = k0; k < k0 + nb; ++k) {
      index_t best = k;
      double bestmag = abs(a[k + k * static_cast<std::size_t>(lda)]);
      for (index_t r = k + 1; r < k0 + nb; ++r) {
        const double mg = abs(a[r + k * static_cast<std::size_t>(lda)]);
        if (mg > bestmag) {
          bestmag = mg;
          best = r;
        }
      }
      if (best != k) {
        for (index_t c = 0; c < b; ++c)
          std::swap(a[k + c * static_cast<std::size_t>(lda)],
                    a[best + c * static_cast<std::size_t>(lda)]);
        std::swap(perm[k], perm[best]);
        ++stats.swaps;
      }
      eliminate_column(a, b, lda, k, policy, stats, replacements);
    }
  }
}

// ---------------------------------------------------------------------------
// Register-tiled GEMM.
//
// Classic three-level blocking: B is packed once per k-panel into NR-column
// strips and reused across the whole block row of A; A is packed into
// MR-row strips. The microkernel keeps an MR×NR accumulator in vector
// registers across the whole k-loop. Panels pack in the compute precision
// (floats stay floats: half the traffic, twice the lanes per register, the
// single-precision speedup). Complex panels are packed as split real/imag
// planes of doubles, so the complex microkernel runs four real FMA streams
// and never calls the __muldc3 inf/nan fixup. Fringe tiles are
// zero-padded during packing (padding contributes exact zeros) and the
// writeback only touches the valid part of C.
//
// On GCC/Clang the microkernel is written with vector extensions (the
// autovectorizer does not keep the accumulator tile in registers on its
// own); elsewhere a plain scalar tile is used — identical arithmetic
// order, so results agree up to FP contraction within one build.
// ---------------------------------------------------------------------------

constexpr index_t kMrD = 8, kNrD = 6;   // double microtile
constexpr index_t kMrZ = 8, kNrZ = 4;   // complex microtile (split planes)
constexpr index_t kMrF = 16, kNrF = 6;  // float microtile (twice the lanes)
constexpr index_t kKc = 256;  // k-panel depth (packed B strip height)
// (dense::kBandBound, the stacked-update band bound, is in kernels.hpp.)
// A panel rows per pass (multiple of MR); per type so each precision packs
// the same ~245 KiB strip (see MicroTile<T>::mc).
constexpr index_t kMcD = 120, kMcZ = 120, kMcF = 240;

#if defined(__GNUC__) || defined(__clang__)
#define GESP_KERNEL_VECEXT 1
// One 8-wide double vector; on narrower ISAs the compiler splits the ops.
using vd8 = double __attribute__((vector_size(64)));
using vd8_unal = double __attribute__((vector_size(64), aligned(8)));
// One 16-wide float vector: the same 64 bytes hold twice the lanes, which
// is where the single-precision GEMM speedup comes from.
using vf16 = float __attribute__((vector_size(64)));
using vf16_unal = float __attribute__((vector_size(64), aligned(4)));
#endif

// Microkernel, double: out (MR*NR, column-major MR) = sum_p ap(:,p)·bp(p,:).
template <index_t MR, index_t NR>
inline void micro_tile(index_t kc, const double* __restrict__ ap,
                       const double* __restrict__ bp,
                       double* __restrict__ out) {
#ifdef GESP_KERNEL_VECEXT
  static_assert(MR == 8);
  vd8 acc[NR] = {};
  for (index_t p = 0; p < kc; ++p) {
    const vd8 a = *reinterpret_cast<const vd8_unal*>(ap + p * MR);
    const double* b = bp + p * NR;
    for (index_t j = 0; j < NR; ++j) acc[j] += a * b[j];
  }
  for (index_t j = 0; j < NR; ++j)
    for (index_t i = 0; i < MR; ++i) out[i + j * MR] = acc[j][i];
#else
  double acc[MR * NR] = {};
  for (index_t p = 0; p < kc; ++p) {
    const double* a = ap + p * MR;
    const double* b = bp + p * NR;
    for (index_t j = 0; j < NR; ++j)
      for (index_t i = 0; i < MR; ++i) acc[i + j * MR] += a[i] * b[j];
  }
  for (index_t x = 0; x < MR * NR; ++x) out[x] = acc[x];
#endif
}

// Microkernel, float: same shape as the double kernel with twice the lanes
// per vector. Selected by overload resolution on the packed-scalar type.
template <index_t MR, index_t NR>
inline void micro_tile(index_t kc, const float* __restrict__ ap,
                       const float* __restrict__ bp,
                       float* __restrict__ out) {
#ifdef GESP_KERNEL_VECEXT
  static_assert(MR == 16);
  vf16 acc[NR] = {};
  for (index_t p = 0; p < kc; ++p) {
    const vf16 a = *reinterpret_cast<const vf16_unal*>(ap + p * MR);
    const float* b = bp + p * NR;
    for (index_t j = 0; j < NR; ++j) acc[j] += a * b[j];
  }
  for (index_t j = 0; j < NR; ++j)
    for (index_t i = 0; i < MR; ++i) out[i + j * MR] = acc[j][i];
#else
  float acc[MR * NR] = {};
  for (index_t p = 0; p < kc; ++p) {
    const float* a = ap + p * MR;
    const float* b = bp + p * NR;
    for (index_t j = 0; j < NR; ++j)
      for (index_t i = 0; i < MR; ++i) acc[i + j * MR] += a[i] * b[j];
  }
  for (index_t x = 0; x < MR * NR; ++x) out[x] = acc[x];
#endif
}

// Microkernel, complex via split planes: ap holds [re×MR | im×MR] per k
// step, bp holds [re×NR | im×NR]; outputs are separate re/im tiles.
template <index_t MR, index_t NR>
inline void micro_tile_z(index_t kc, const double* __restrict__ ap,
                         const double* __restrict__ bp,
                         double* __restrict__ out_re,
                         double* __restrict__ out_im) {
#ifdef GESP_KERNEL_VECEXT
  static_assert(MR == 8);
  vd8 acc_re[NR] = {}, acc_im[NR] = {};
  for (index_t p = 0; p < kc; ++p) {
    const vd8 are = *reinterpret_cast<const vd8_unal*>(ap + p * 2 * MR);
    const vd8 aim = *reinterpret_cast<const vd8_unal*>(ap + p * 2 * MR + MR);
    const double* b = bp + p * 2 * NR;
    for (index_t j = 0; j < NR; ++j) {
      const double br = b[j], bi = b[NR + j];
      acc_re[j] += are * br - aim * bi;
      acc_im[j] += are * bi + aim * br;
    }
  }
  for (index_t j = 0; j < NR; ++j)
    for (index_t i = 0; i < MR; ++i) {
      out_re[i + j * MR] = acc_re[j][i];
      out_im[i + j * MR] = acc_im[j][i];
    }
#else
  double acc_re[MR * NR] = {}, acc_im[MR * NR] = {};
  for (index_t p = 0; p < kc; ++p) {
    const double* a = ap + p * 2 * MR;
    const double* b = bp + p * 2 * NR;
    for (index_t j = 0; j < NR; ++j) {
      const double br = b[j], bi = b[NR + j];
      for (index_t i = 0; i < MR; ++i) {
        acc_re[i + j * MR] += a[i] * br - a[MR + i] * bi;
        acc_im[i + j * MR] += a[i] * bi + a[MR + i] * br;
      }
    }
  }
  for (index_t x = 0; x < MR * NR; ++x) {
    out_re[x] = acc_re[x];
    out_im[x] = acc_im[x];
  }
#endif
}

// Pack the mc-by-kc block of `a` into MR-row panels, k-major within each
// panel (dst[p*MR + i]); rows past mc are zero-padded.
template <index_t MR>
void pack_a(const double* a, index_t lda, index_t mc, index_t kc,
            double* dst) {
  for (index_t ir = 0; ir < mc; ir += MR) {
    const index_t mr = std::min(MR, mc - ir);
    for (index_t p = 0; p < kc; ++p) {
      const double* col = a + ir + p * static_cast<std::size_t>(lda);
      index_t i = 0;
      for (; i < mr; ++i) dst[i] = col[i];
      for (; i < MR; ++i) dst[i] = 0.0;
      dst += MR;
    }
  }
}

template <index_t MR>
void pack_a(const float* a, index_t lda, index_t mc, index_t kc,
            float* dst) {
  for (index_t ir = 0; ir < mc; ir += MR) {
    const index_t mr = std::min(MR, mc - ir);
    for (index_t p = 0; p < kc; ++p) {
      const float* col = a + ir + p * static_cast<std::size_t>(lda);
      index_t i = 0;
      for (; i < mr; ++i) dst[i] = col[i];
      for (; i < MR; ++i) dst[i] = 0.0f;
      dst += MR;
    }
  }
}

template <index_t MR>
void pack_a(const Complex* a, index_t lda, index_t mc, index_t kc,
            double* dst) {
  for (index_t ir = 0; ir < mc; ir += MR) {
    const index_t mr = std::min(MR, mc - ir);
    for (index_t p = 0; p < kc; ++p) {
      const Complex* col = a + ir + p * static_cast<std::size_t>(lda);
      index_t i = 0;
      for (; i < mr; ++i) {
        dst[i] = col[i].real();
        dst[MR + i] = col[i].imag();
      }
      for (; i < MR; ++i) dst[i] = dst[MR + i] = 0.0;
      dst += 2 * MR;
    }
  }
}

// Pack the kc-by-n block of `b` into NR-column panels, k-major within each
// panel (dst[p*NR + j]); columns past n are zero-padded.
template <index_t NR>
void pack_b(const double* b, index_t ldb, index_t kc, index_t n,
            double* dst) {
  for (index_t jr = 0; jr < n; jr += NR) {
    const index_t nr = std::min(NR, n - jr);
    for (index_t p = 0; p < kc; ++p) {
      const double* row = b + p + jr * static_cast<std::size_t>(ldb);
      index_t j = 0;
      for (; j < nr; ++j) dst[j] = row[j * static_cast<std::size_t>(ldb)];
      for (; j < NR; ++j) dst[j] = 0.0;
      dst += NR;
    }
  }
}

template <index_t NR>
void pack_b(const float* b, index_t ldb, index_t kc, index_t n,
            float* dst) {
  for (index_t jr = 0; jr < n; jr += NR) {
    const index_t nr = std::min(NR, n - jr);
    for (index_t p = 0; p < kc; ++p) {
      const float* row = b + p + jr * static_cast<std::size_t>(ldb);
      index_t j = 0;
      for (; j < nr; ++j) dst[j] = row[j * static_cast<std::size_t>(ldb)];
      for (; j < NR; ++j) dst[j] = 0.0f;
      dst += NR;
    }
  }
}

template <index_t NR>
void pack_b(const Complex* b, index_t ldb, index_t kc, index_t n,
            double* dst) {
  for (index_t jr = 0; jr < n; jr += NR) {
    const index_t nr = std::min(NR, n - jr);
    for (index_t p = 0; p < kc; ++p) {
      const Complex* row = b + p + jr * static_cast<std::size_t>(ldb);
      index_t j = 0;
      for (; j < nr; ++j) {
        const Complex v = row[j * static_cast<std::size_t>(ldb)];
        dst[j] = v.real();
        dst[NR + j] = v.imag();
      }
      for (; j < NR; ++j) dst[j] = dst[NR + j] = 0.0;
      dst += 2 * NR;
    }
  }
}

template <class T>
struct MicroTile;
template <>
struct MicroTile<double> {
  using pack_type = double;  ///< scalar type of the packed panels
  static constexpr index_t mr = kMrD, nr = kNrD, mc = kMcD;
  static constexpr index_t pack_stride = 1;  // pack scalars per element
};
template <>
struct MicroTile<float> {
  using pack_type = float;
  static constexpr index_t mr = kMrF, nr = kNrF, mc = kMcF;
  static constexpr index_t pack_stride = 1;
};
template <>
struct MicroTile<Complex> {
  using pack_type = double;  ///< split re/im planes of doubles
  static constexpr index_t mr = kMrZ, nr = kNrZ, mc = kMcZ;
  static constexpr index_t pack_stride = 2;
};

// One out-of-line copy per type: every tiled product, whichever kernel
// asks for it, runs the same compiled microkernel, so the compiler cannot
// contract two inlined copies differently (INTERNALS §10).
template <class T>
#if defined(__GNUC__) || defined(__clang__)
__attribute__((noinline))
#endif
void gemm_tiled(index_t m, index_t n, index_t k, const T* a, index_t lda,
                const T* b, index_t ldb, T* c, index_t ldc) {
  using P = typename MicroTile<T>::pack_type;
  constexpr index_t MR = MicroTile<T>::mr;
  constexpr index_t NR = MicroTile<T>::nr;
  constexpr index_t PS = MicroTile<T>::pack_stride;
  constexpr index_t MC = MicroTile<T>::mc;
  thread_local std::vector<P> apack, bpack;
  P out_re[MR * NR], out_im[MR * NR];
  for (index_t pc = 0; pc < k; pc += kKc) {
    const index_t kc = std::min(kKc, k - pc);
    bpack.resize(static_cast<std::size_t>((n + NR - 1) / NR) * NR * PS * kc);
    pack_b<NR>(b + pc, ldb, kc, n, bpack.data());
    for (index_t ic = 0; ic < m; ic += MC) {
      const index_t mc = std::min(MC, m - ic);
      apack.resize(static_cast<std::size_t>((mc + MR - 1) / MR) * MR * PS *
                   kc);
      pack_a<MR>(a + ic + pc * static_cast<std::size_t>(lda), lda, mc, kc,
                 apack.data());
      for (index_t jr = 0; jr < n; jr += NR) {
        const index_t nr = std::min(NR, n - jr);
        const P* bp =
            bpack.data() + static_cast<std::size_t>(jr / NR) * NR * PS * kc;
        for (index_t ir = 0; ir < mc; ir += MR) {
          const index_t mr = std::min(MR, mc - ir);
          const P* ap =
              apack.data() + static_cast<std::size_t>(ir / MR) * MR * PS * kc;
          T* ct = c + (ic + ir) + jr * static_cast<std::size_t>(ldc);
          if constexpr (is_complex_v<T>) {
            micro_tile_z<MR, NR>(kc, ap, bp, out_re, out_im);
            for (index_t j = 0; j < nr; ++j)
              for (index_t i = 0; i < mr; ++i)
                ct[i + j * static_cast<std::size_t>(ldc)] -=
                    T{out_re[i + j * MR], out_im[i + j * MR]};
          } else {
            micro_tile<MR, NR>(kc, ap, bp, out_re);
            for (index_t j = 0; j < nr; ++j)
              for (index_t i = 0; i < mr; ++i)
                ct[i + j * static_cast<std::size_t>(ldc)] -=
                    out_re[i + j * MR];
          }
        }
      }
    }
  }
}

// Shapes where packing costs more than it saves run the naive loops. The
// choice depends only on (m, n, k) so it is deterministic per shape.
// Complex shapes always take the split-plane microkernel: the naive loop's
// std::complex product rounds differently, and a product entry must not
// depend on the shape it is computed in (see gemm_minus_scatter).
template <class T>
bool gemm_is_small(index_t m, index_t n, index_t k) {
  if constexpr (is_complex_v<T>) return false;
  // The m cutoff is kMrD for every precision, not MicroTile<T>::mr: the
  // float microtile is 16 rows, but packing zero-pads partial tiles, so an
  // 8..15-row float update still runs 8 useful lanes through the tiled
  // path — matching the double kernel it competes with, and well ahead of
  // the naive loop the higher cutoff used to send it to.
  return k < 4 || m < kMrD || n < 3;
}

constexpr index_t kTrsmBlock = 16;   // trsm panel width feeding the gemm
constexpr index_t kGetrfPanel = 16;  // getrf panel width
constexpr index_t kGetrfBlockMin = 33;  // below this, getrf runs unblocked

}  // namespace

template <class T>
void gemm_minus(index_t m, index_t n, index_t k, const T* a, index_t lda,
                const T* b, index_t ldb, T* c, index_t ldc) {
  if (gemm_is_small<T>(m, n, k)) {
    gemm_minus_naive(m, n, k, a, lda, b, ldb, c, ldc);
    return;
  }
  gemm_tiled(m, n, k, a, lda, b, ldb, c, ldc);
}

// Each product entry is formed by the same code as in gemm_minus on a
// zero-filled C — column_chunk from T{} on small shapes, gemm_tiled into a
// zeroed buffer otherwise — and then added once into its destination.
template <class T>
void gemm_minus_scatter(index_t m, index_t n, index_t k, const T* a,
                        index_t lda, const T* b, index_t ldb, T* d,
                        index_t ldd, const index_t* rpos,
                        const index_t* cpos) {
  if (gemm_is_small<T>(m, n, k)) {
    for_row_chunks(m, [&](auto rows, index_t i) {
      constexpr index_t R = decltype(rows)::value;
      for (index_t j = 0; j < n; ++j) {
        T acc[R]{};
        column_chunk<R>(k, a + i, lda, b + j * static_cast<std::size_t>(ldb),
                        acc);
        T* dcol = d + (cpos ? cpos[j] : j) * static_cast<std::size_t>(ldd);
        if (rpos)
          for (index_t r = 0; r < R; ++r) dcol[rpos[i + r]] += acc[r];
        else
          for (index_t r = 0; r < R; ++r) dcol[i + r] += acc[r];
      }
    });
    return;
  }
  thread_local std::vector<T> prod;
  prod.assign(static_cast<std::size_t>(m) * n, T{});
  gemm_tiled(m, n, k, a, lda, b, ldb, prod.data(), m);
  scatter_add(m, n, prod.data(), m, d, ldd, rpos, cpos);
}

template <class T>
void scatter_add(index_t m, index_t n, const T* v, index_t ldv, T* d,
                 index_t ldd, const index_t* rpos, const index_t* cpos) {
  for (index_t j = 0; j < n; ++j) {
    T* dcol = d + (cpos ? cpos[j] : j) * static_cast<std::size_t>(ldd);
    const T* vcol = v + j * static_cast<std::size_t>(ldv);
    if (rpos)
      for (index_t i = 0; i < m; ++i) dcol[rpos[i]] += vcol[i];
    else
      for (index_t i = 0; i < m; ++i) dcol[i] += vcol[i];
  }
}

const char* panel_pivot_name(PanelPivot p) noexcept {
  switch (p) {
    case PanelPivot::static_:
      return "static";
    case PanelPivot::threshold:
      return "threshold";
    case PanelPivot::panel_rrp:
      return "panel_rrp";
  }
  return "unknown";
}

template <class T>
void getrf(T* a, index_t b, index_t lda, const PivotPolicy& policy,
           PivotStats& stats, std::span<index_t> perm,
           std::vector<PivotReplacement<T>>* replacements) {
  if (policy.pivot_in_block) {
    GESP_CHECK(policy.strategy == PanelPivot::static_, Errc::invalid_argument,
               "pivot_in_block and a non-static panel strategy are exclusive");
    getrf_pivot_in_block(a, b, lda, policy, stats, perm, replacements);
    return;
  }
  if (policy.strategy == PanelPivot::threshold) {
    getrf_threshold_in_block(a, b, lda, policy, stats, perm, replacements);
    return;
  }
  if (policy.strategy == PanelPivot::panel_rrp) {
    getrf_panel_rrp(a, b, lda, policy, stats, perm, replacements,
                    kGetrfPanel);
    return;
  }
  if (b < kGetrfBlockMin) {
    getrf_panel(a, b, b, lda, policy, stats, 0, replacements);
    return;
  }
  // Blocked right-looking: factor a tall panel unblocked, solve its U row
  // block, then rank-nb update the trailing matrix through the tiled gemm.
  for (index_t k0 = 0; k0 < b; k0 += kGetrfPanel) {
    const index_t nb = std::min(kGetrfPanel, b - k0);
    getrf_panel(a + k0 + k0 * static_cast<std::size_t>(lda), b - k0, nb, lda,
                policy, stats, k0, replacements);
    const index_t k1 = k0 + nb;
    if (k1 < b) {
      T* a12 = a + k0 + k1 * static_cast<std::size_t>(lda);
      trsm_left_lower_unit(a + k0 + k0 * static_cast<std::size_t>(lda), nb,
                           lda, a12, b - k1, lda);
      gemm_minus(b - k1, b - k1, nb,
                 a + k1 + k0 * static_cast<std::size_t>(lda), lda, a12, lda,
                 a + k1 + k1 * static_cast<std::size_t>(lda), lda);
    }
  }
}

template <class T>
void trsm_left_lower_unit(const T* l, index_t b, index_t lda, T* bmat,
                          index_t ncols, index_t ldb) {
  if (b <= kTrsmBlock || ncols < 3) {
    trsm_left_lower_unit_naive(l, b, lda, bmat, ncols, ldb);
    return;
  }
  // Blocked forward substitution: solve a diagonal panel, then push its
  // contribution into the rows below with one gemm.
  for (index_t k0 = 0; k0 < b; k0 += kTrsmBlock) {
    const index_t nb = std::min(kTrsmBlock, b - k0);
    trsm_left_lower_unit_naive(l + k0 + k0 * static_cast<std::size_t>(lda),
                               nb, lda, bmat + k0, ncols, ldb);
    const index_t k1 = k0 + nb;
    if (k1 < b)
      gemm_minus(b - k1, ncols, nb,
                 l + k1 + k0 * static_cast<std::size_t>(lda), lda, bmat + k0,
                 ldb, bmat + k1, ldb);
  }
}

template <class T>
void trsm_right_upper(const T* u, index_t b, index_t lda, T* bmat,
                      index_t mrows, index_t ldb) {
  if (b <= kTrsmBlock || mrows < MicroTile<T>::mr) {
    trsm_right_upper_naive(u, b, lda, bmat, mrows, ldb);
    return;
  }
  // Blocked: X(:, k0:k1) -= X(:, 0:k0)·U(0:k0, k0:k1) by gemm, then the
  // small triangular solve against the diagonal panel of U.
  for (index_t k0 = 0; k0 < b; k0 += kTrsmBlock) {
    const index_t nb = std::min(kTrsmBlock, b - k0);
    T* xk = bmat + k0 * static_cast<std::size_t>(ldb);
    if (k0 > 0)
      gemm_minus(mrows, nb, k0, bmat, ldb,
                 u + k0 * static_cast<std::size_t>(lda), lda, xk, ldb);
    trsm_right_upper_naive(u + k0 + k0 * static_cast<std::size_t>(lda), nb,
                           lda, xk, mrows, ldb);
  }
}

template <class T>
void gemv_minus(index_t m, index_t n, const T* a, index_t lda, const T* x,
                T* y) {
  for (index_t j = 0; j < n; ++j) {
    const T xj = x[j];
    if (xj == T{}) continue;
    const T* aj = a + j * lda;
    for (index_t i = 0; i < m; ++i) y[i] -= aj[i] * xj;
  }
}

template <class T>
void trsv_lower_unit(const T* a, index_t b, index_t lda, T* x) {
  for (index_t k = 0; k < b; ++k) {
    const T xk = x[k];
    if (xk == T{}) continue;
    const T* col = a + k * lda;
    for (index_t r = k + 1; r < b; ++r) x[r] -= col[r] * xk;
  }
}

template <class T>
void trsv_upper(const T* a, index_t b, index_t lda, T* x) {
  for (index_t k = b - 1; k >= 0; --k) {
    x[k] /= a[k + k * lda];
    const T xk = x[k];
    if (xk == T{}) continue;
    const T* col = a + k * lda;
    for (index_t r = 0; r < k; ++r) x[r] -= col[r] * xk;
  }
}

template <class T>
void trsv_upper_trans(const T* a, index_t b, index_t lda, T* x) {
  // Uᵀ is lower triangular; row k of Uᵀ is column k of U.
  for (index_t k = 0; k < b; ++k) {
    T sum = x[k];
    const T* col = a + k * lda;
    for (index_t r = 0; r < k; ++r) sum -= col[r] * x[r];
    x[k] = sum / col[k];
  }
}

template <class T>
void trsv_lower_unit_trans(const T* a, index_t b, index_t lda, T* x) {
  // Lᵀ is unit upper triangular; row k of Lᵀ is column k of L.
  for (index_t k = b - 1; k >= 0; --k) {
    T sum = x[k];
    const T* col = a + k * lda;
    for (index_t r = k + 1; r < b; ++r) sum -= col[r] * x[r];
    x[k] = sum;
  }
}

namespace ref {

template <class T>
void gemm_minus(index_t m, index_t n, index_t k, const T* a, index_t lda,
                const T* b, index_t ldb, T* c, index_t ldc) {
  gemm_minus_naive(m, n, k, a, lda, b, ldb, c, ldc);
}

template <class T>
void trsm_left_lower_unit(const T* l, index_t b, index_t lda, T* bmat,
                          index_t ncols, index_t ldb) {
  trsm_left_lower_unit_naive(l, b, lda, bmat, ncols, ldb);
}

template <class T>
void trsm_right_upper(const T* u, index_t b, index_t lda, T* bmat,
                      index_t mrows, index_t ldb) {
  trsm_right_upper_naive(u, b, lda, bmat, mrows, ldb);
}

template <class T>
void getrf(T* a, index_t b, index_t lda, const PivotPolicy& policy,
           PivotStats& stats, std::vector<PivotReplacement<T>>* replacements) {
  GESP_CHECK(!policy.pivot_in_block &&
                 policy.strategy == PanelPivot::static_,
             Errc::invalid_argument,
             "ref::getrf supports only the static strategy");
  getrf_panel(a, b, b, lda, policy, stats, 0, replacements);
}

template void gemm_minus(index_t, index_t, index_t, const double*, index_t,
                         const double*, index_t, double*, index_t);
template void gemm_minus(index_t, index_t, index_t, const float*, index_t,
                         const float*, index_t, float*, index_t);
template void gemm_minus(index_t, index_t, index_t, const Complex*, index_t,
                         const Complex*, index_t, Complex*, index_t);
template void trsm_left_lower_unit(const double*, index_t, index_t, double*,
                                   index_t, index_t);
template void trsm_left_lower_unit(const float*, index_t, index_t, float*,
                                   index_t, index_t);
template void trsm_left_lower_unit(const Complex*, index_t, index_t, Complex*,
                                   index_t, index_t);
template void trsm_right_upper(const double*, index_t, index_t, double*,
                               index_t, index_t);
template void trsm_right_upper(const float*, index_t, index_t, float*,
                               index_t, index_t);
template void trsm_right_upper(const Complex*, index_t, index_t, Complex*,
                               index_t, index_t);
template void getrf(double*, index_t, index_t, const PivotPolicy&,
                    PivotStats&, std::vector<PivotReplacement<double>>*);
template void getrf(float*, index_t, index_t, const PivotPolicy&,
                    PivotStats&, std::vector<PivotReplacement<float>>*);
template void getrf(Complex*, index_t, index_t, const PivotPolicy&,
                    PivotStats&, std::vector<PivotReplacement<Complex>>*);

}  // namespace ref

template void getrf(double*, index_t, index_t, const PivotPolicy&,
                    PivotStats&, std::span<index_t>,
                    std::vector<PivotReplacement<double>>*);
template void getrf(float*, index_t, index_t, const PivotPolicy&,
                    PivotStats&, std::span<index_t>,
                    std::vector<PivotReplacement<float>>*);
template void getrf(Complex*, index_t, index_t, const PivotPolicy&,
                    PivotStats&, std::span<index_t>,
                    std::vector<PivotReplacement<Complex>>*);
template void trsm_left_lower_unit(const double*, index_t, index_t, double*,
                                   index_t, index_t);
template void trsm_left_lower_unit(const float*, index_t, index_t, float*,
                                   index_t, index_t);
template void trsm_left_lower_unit(const Complex*, index_t, index_t, Complex*,
                                   index_t, index_t);
template void trsm_right_upper(const double*, index_t, index_t, double*,
                               index_t, index_t);
template void trsm_right_upper(const float*, index_t, index_t, float*,
                               index_t, index_t);
template void trsm_right_upper(const Complex*, index_t, index_t, Complex*,
                               index_t, index_t);
template void gemm_minus(index_t, index_t, index_t, const double*, index_t,
                         const double*, index_t, double*, index_t);
template void gemm_minus(index_t, index_t, index_t, const float*, index_t,
                         const float*, index_t, float*, index_t);
template void gemm_minus(index_t, index_t, index_t, const Complex*, index_t,
                         const Complex*, index_t, Complex*, index_t);
template void gemm_minus_scatter(index_t, index_t, index_t, const double*,
                                 index_t, const double*, index_t, double*,
                                 index_t, const index_t*, const index_t*);
template void gemm_minus_scatter(index_t, index_t, index_t, const float*,
                                 index_t, const float*, index_t, float*,
                                 index_t, const index_t*, const index_t*);
template void gemm_minus_scatter(index_t, index_t, index_t, const Complex*,
                                 index_t, const Complex*, index_t, Complex*,
                                 index_t, const index_t*, const index_t*);
template void scatter_add(index_t, index_t, const double*, index_t, double*,
                          index_t, const index_t*, const index_t*);
template void scatter_add(index_t, index_t, const float*, index_t, float*,
                          index_t, const index_t*, const index_t*);
template void scatter_add(index_t, index_t, const Complex*, index_t, Complex*,
                          index_t, const index_t*, const index_t*);
template void gemv_minus(index_t, index_t, const double*, index_t,
                         const double*, double*);
template void gemv_minus(index_t, index_t, const float*, index_t,
                         const float*, float*);
template void gemv_minus(index_t, index_t, const Complex*, index_t,
                         const Complex*, Complex*);
template void trsv_lower_unit(const double*, index_t, index_t, double*);
template void trsv_lower_unit(const float*, index_t, index_t, float*);
template void trsv_lower_unit(const Complex*, index_t, index_t, Complex*);
template void trsv_upper(const double*, index_t, index_t, double*);
template void trsv_upper(const float*, index_t, index_t, float*);
template void trsv_upper(const Complex*, index_t, index_t, Complex*);
template void trsv_upper_trans(const double*, index_t, index_t, double*);
template void trsv_upper_trans(const float*, index_t, index_t, float*);
template void trsv_upper_trans(const Complex*, index_t, index_t, Complex*);
template void trsv_lower_unit_trans(const double*, index_t, index_t, double*);
template void trsv_lower_unit_trans(const float*, index_t, index_t, float*);
template void trsv_lower_unit_trans(const Complex*, index_t, index_t,
                                    Complex*);

}  // namespace gesp::dense
