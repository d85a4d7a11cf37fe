// Sherman–Morrison–Woodbury correction over a static factorization: the
// paper's §4 tiny-pivot recovery ("aggressive pivot size control").
//
// The factorization actually computed is of Ã = A + Σ_k δ_k e_k e_kᵀ (each
// replaced pivot is a rank-1 diagonal perturbation), and solves with the
// ORIGINAL A are recovered exactly. With A = Ã − V·Wᵀ,
//   A^{-1} = Ã^{-1} + Ã^{-1} V (I − Wᵀ Ã^{-1} V)^{-1} Wᵀ Ã^{-1},
// so r extra triangular solves at construction and one r×r solve per
// application recover the exact inverse — no matter how large the
// perturbations were.
#pragma once

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "numeric/lu_factors.hpp"

namespace gesp::refine {

/// Wraps the LU factors of Ã together with the rank-r diagonal correction
/// their pivot replacements call for, exposing exact solves with A. The
/// factors are held by shared_ptr so a correction in flight keeps them
/// alive even when the owner (a cache entry, a solver mid-rebuild) lets go.
template <class T>
class SmwSolver {
 public:
  /// `factors` must have been built with record_replacements = true; solves
  /// target the original matrix (every recorded diagonal perturbation is
  /// subtracted back out).
  explicit SmwSolver(std::shared_ptr<const numeric::LUFactors<T>> factors);

  /// Non-owning convenience for stack-held factors (tests, benches): the
  /// caller guarantees `factors` outlives this solver.
  explicit SmwSolver(const numeric::LUFactors<T>& factors)
      : SmwSolver(std::shared_ptr<const numeric::LUFactors<T>>(
            std::shared_ptr<const void>{}, &factors)) {}

  /// Rank of the correction (0 means plain solves).
  index_t rank() const { return static_cast<index_t>(cols_.size()); }

  /// x <- A^{-1}·x (exact up to roundoff, SMW-corrected).
  void solve(std::span<T> x) const;

 private:
  std::shared_ptr<const numeric::LUFactors<T>> f_;
  std::vector<index_t> cols_;  ///< replaced pivot k (V's and W's position)
  std::vector<T> z_;           ///< Z = Ã^{-1}V, n-by-r column major
  std::vector<T> cap_;         ///< factored capacitance C = I − WᵀZ (r×r)
  std::vector<index_t> cap_perm_;  ///< partial-pivot permutation of C
};

extern template class SmwSolver<double>;
extern template class SmwSolver<Complex>;

}  // namespace gesp::refine
