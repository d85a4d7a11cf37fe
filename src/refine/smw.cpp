#include "refine/smw.hpp"

#include "common/error.hpp"
#include "dense/kernels.hpp"

namespace gesp::refine {

template <class T>
SmwSolver<T>::SmwSolver(std::shared_ptr<const numeric::LUFactors<T>> factors)
    : f_(std::move(factors)) {
  GESP_CHECK(f_ != nullptr, Errc::invalid_argument, "null factors handle");
  // The factorization computed Ã = A + Σ δ_k e_k e_kᵀ, so the target is
  // A = Ã − V·Wᵀ with V column k = δ_k e_k and W column k = e_k.
  const auto& repl = f_->replacements();
  cols_.reserve(repl.size());
  for (const auto& rp : repl) cols_.push_back(rp.first);
  const index_t n = f_->sym().n;
  const index_t r = rank();
  if (r == 0) return;

  // Z = Ã^{-1} V.
  z_.assign(static_cast<std::size_t>(n) * r, T{});
  for (index_t k = 0; k < r; ++k) {
    std::span<T> col(z_.data() + static_cast<std::size_t>(k) * n,
                     static_cast<std::size_t>(n));
    col[cols_[k]] = repl[k].second;
    f_->solve(col);
  }
  // Capacitance C = I − Wᵀ Z (r×r), factored with in-block pivoting.
  cap_.assign(static_cast<std::size_t>(r) * r, T{});
  for (index_t j = 0; j < r; ++j)
    for (index_t i = 0; i < r; ++i)
      cap_[i + static_cast<std::size_t>(j) * r] =
          T{i == j ? 1.0 : 0.0} -
          z_[cols_[i] + static_cast<std::size_t>(j) * n];
  cap_perm_.assign(static_cast<std::size_t>(r), 0);
  dense::PivotPolicy policy;
  policy.pivot_in_block = true;
  dense::PivotStats stats;
  dense::getrf(cap_.data(), r, r, policy, stats,
               std::span<index_t>(cap_perm_));
}

template <class T>
void SmwSolver<T>::solve(std::span<T> x) const {
  const index_t n = f_->sym().n;
  GESP_CHECK(x.size() == static_cast<std::size_t>(n), Errc::invalid_argument,
             "SMW solve size mismatch");
  f_->solve(x);  // y = Ã^{-1} b
  const index_t r = rank();
  if (r == 0) return;
  // α = C^{-1} (Wᵀ y): gather, permute, two triangular solves.
  std::vector<T> rhs(static_cast<std::size_t>(r));
  for (index_t k = 0; k < r; ++k) rhs[k] = x[cols_[k]];
  std::vector<T> alpha(static_cast<std::size_t>(r));
  for (index_t k = 0; k < r; ++k) alpha[k] = rhs[cap_perm_[k]];
  dense::trsv_lower_unit(cap_.data(), r, r, alpha.data());
  dense::trsv_upper(cap_.data(), r, r, alpha.data());
  // x = y + Z α.
  for (index_t k = 0; k < r; ++k) {
    const T ak = alpha[k];
    if (ak == T{}) continue;
    const T* zk = z_.data() + static_cast<std::size_t>(k) * n;
    for (index_t i = 0; i < n; ++i) x[i] += zk[i] * ak;
  }
}

template class SmwSolver<double>;
template class SmwSolver<Complex>;

}  // namespace gesp::refine
