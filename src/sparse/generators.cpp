#include "sparse/generators.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sparse/coo.hpp"
#include "sparse/ops.hpp"

namespace gesp::sparse {
namespace {

/// Shared stencil assembly for 2-D grids. coef(x_lo, x_hi, y_lo, y_hi, diag).
struct Stencil2D {
  double west, east, south, north, diag;
};

CscMatrix<double> assemble2d(index_t nx, index_t ny, const Stencil2D& s) {
  GESP_CHECK(nx > 0 && ny > 0, Errc::invalid_argument, "bad grid size");
  const index_t n = nx * ny;
  CooMatrix<double> A(n, n);
  A.reserve(static_cast<std::size_t>(n) * 5);
  auto id = [nx](index_t i, index_t j) { return i + j * nx; };
  for (index_t j = 0; j < ny; ++j) {
    for (index_t i = 0; i < nx; ++i) {
      const index_t r = id(i, j);
      A.add(r, r, s.diag);
      if (i > 0) A.add(r, id(i - 1, j), s.west);
      if (i + 1 < nx) A.add(r, id(i + 1, j), s.east);
      if (j > 0) A.add(r, id(i, j - 1), s.south);
      if (j + 1 < ny) A.add(r, id(i, j + 1), s.north);
    }
  }
  return A.to_csc();
}

}  // namespace

CscMatrix<double> laplacian2d(index_t nx, index_t ny) {
  return assemble2d(nx, ny, {-1, -1, -1, -1, 4});
}

CscMatrix<double> laplacian3d(index_t nx, index_t ny, index_t nz) {
  GESP_CHECK(nx > 0 && ny > 0 && nz > 0, Errc::invalid_argument,
             "bad grid size");
  const index_t n = nx * ny * nz;
  CooMatrix<double> A(n, n);
  A.reserve(static_cast<std::size_t>(n) * 7);
  auto id = [nx, ny](index_t i, index_t j, index_t k) {
    return i + nx * (j + ny * k);
  };
  for (index_t k = 0; k < nz; ++k)
    for (index_t j = 0; j < ny; ++j)
      for (index_t i = 0; i < nx; ++i) {
        const index_t r = id(i, j, k);
        A.add(r, r, 6);
        if (i > 0) A.add(r, id(i - 1, j, k), -1);
        if (i + 1 < nx) A.add(r, id(i + 1, j, k), -1);
        if (j > 0) A.add(r, id(i, j - 1, k), -1);
        if (j + 1 < ny) A.add(r, id(i, j + 1, k), -1);
        if (k > 0) A.add(r, id(i, j, k - 1), -1);
        if (k + 1 < nz) A.add(r, id(i, j, k + 1), -1);
      }
  return A.to_csc();
}

CscMatrix<double> convdiff2d(index_t nx, index_t ny, double vx, double vy) {
  // First-order upwinding: the convective flux is taken from the upstream
  // neighbour, which skews the off-diagonal pair and keeps the matrix an
  // M-matrix (row-wise weakly diagonally dominant).
  Stencil2D s;
  s.west = -1.0 - std::max(vx, 0.0);
  s.east = -1.0 + std::min(vx, 0.0);
  s.south = -1.0 - std::max(vy, 0.0);
  s.north = -1.0 + std::min(vy, 0.0);
  s.diag = 4.0 + std::abs(vx) + std::abs(vy);
  return assemble2d(nx, ny, s);
}

CscMatrix<double> convdiff3d(index_t nx, index_t ny, index_t nz, double vx,
                             double vy, double vz) {
  GESP_CHECK(nx > 0 && ny > 0 && nz > 0, Errc::invalid_argument,
             "bad grid size");
  const index_t n = nx * ny * nz;
  CooMatrix<double> A(n, n);
  A.reserve(static_cast<std::size_t>(n) * 7);
  auto id = [nx, ny](index_t i, index_t j, index_t k) {
    return i + nx * (j + ny * k);
  };
  const double w = -1.0 - std::max(vx, 0.0), e = -1.0 + std::min(vx, 0.0);
  const double so = -1.0 - std::max(vy, 0.0), no = -1.0 + std::min(vy, 0.0);
  const double dn = -1.0 - std::max(vz, 0.0), up = -1.0 + std::min(vz, 0.0);
  const double d = 6.0 + std::abs(vx) + std::abs(vy) + std::abs(vz);
  for (index_t k = 0; k < nz; ++k)
    for (index_t j = 0; j < ny; ++j)
      for (index_t i = 0; i < nx; ++i) {
        const index_t r = id(i, j, k);
        A.add(r, r, d);
        if (i > 0) A.add(r, id(i - 1, j, k), w);
        if (i + 1 < nx) A.add(r, id(i + 1, j, k), e);
        if (j > 0) A.add(r, id(i, j - 1, k), so);
        if (j + 1 < ny) A.add(r, id(i, j + 1, k), no);
        if (k > 0) A.add(r, id(i, j, k - 1), dn);
        if (k + 1 < nz) A.add(r, id(i, j, k + 1), up);
      }
  return A.to_csc();
}

CscMatrix<double> anisotropic2d(index_t nx, index_t ny, double eps) {
  return assemble2d(nx, ny, {-eps, -eps, -1, -1, 2 * eps + 2});
}

CscMatrix<double> random_unsymmetric(const RandomSpec& spec) {
  GESP_CHECK(spec.n > 0 && spec.nnz_per_row >= 0, Errc::invalid_argument,
             "bad RandomSpec");
  Rng rng(spec.seed);
  const index_t n = spec.n;
  CooMatrix<double> A(n, n);
  A.reserve(static_cast<std::size_t>(n) *
            (2 + static_cast<std::size_t>(spec.nnz_per_row)));
  const double spread = std::max(1.0, spec.bandwidth * n);
  for (index_t i = 0; i < n; ++i) {
    A.add(i, i, spec.diag_scale * (1.0 + rng.next_double()));
    for (index_t k = 0; k < spec.nnz_per_row; ++k) {
      index_t j = i + static_cast<index_t>(std::lround(rng.normal() * spread));
      if (j < 0) j += n;
      if (j >= n) j -= n;
      if (j < 0 || j >= n || j == i) continue;
      const double v = spec.offdiag_scale * rng.uniform(-1.0, 1.0);
      A.add(i, j, v);
      if (rng.next_double() < spec.structural_symmetry) {
        const bool same_value = rng.next_double() < spec.numeric_symmetry;
        A.add(j, i, same_value ? v : spec.offdiag_scale * rng.uniform(-1.0, 1.0));
      }
    }
  }
  return A.to_csc();
}

CscMatrix<double> circuit_like(index_t n, index_t hubs, index_t hub_degree,
                               std::uint64_t seed) {
  GESP_CHECK(n > 2 && hubs >= 0 && hub_degree >= 0, Errc::invalid_argument,
             "bad circuit_like parameters");
  Rng rng(seed);
  CooMatrix<double> A(n, n);
  // Sparse conductance-like rows. Real netlists are overwhelmingly LOCAL —
  // devices connect to nearby nets — with a handful of global nets (the
  // hubs below). Locality keeps the factor fill realistic; global random
  // couplings would turn the graph into an expander and the factor dense.
  const index_t win = std::max<index_t>(8, n / 500);
  for (index_t i = 0; i < n; ++i) {
    double rowsum = 0.0;
    auto stamp = [&](index_t j) {
      if (j == i || j < 0 || j >= n) return;
      const double g = rng.uniform(0.1, 2.0);
      A.add(i, j, -g);
      rowsum += g;
    };
    stamp((i + 1) % n);
    stamp(i + 1 + rng.next_index(win) - win / 2);
    if (rng.next_double() < 0.5) stamp(i - 1 - rng.next_index(win) + win / 2);
    if (rng.next_double() < 0.01) stamp(rng.next_index(n));  // rare global
    A.add(i, i, rowsum + rng.uniform(0.05, 0.5));
  }
  // Hub nodes (supply rails / substrate): dense-ish rows and columns.
  for (index_t h = 0; h < hubs; ++h) {
    const index_t hub = rng.next_index(n);
    for (index_t k = 0; k < hub_degree; ++k) {
      const index_t j = rng.next_index(n);
      if (j == hub) continue;
      const double g = rng.uniform(0.01, 1.0);
      A.add(hub, j, -g);
      A.add(j, hub, -rng.uniform(0.01, 1.0));
      A.add(hub, hub, g);
      A.add(j, j, g);
    }
  }
  return A.to_csc();
}

CscMatrix<double> device_like(index_t nblocks, index_t block_size,
                              index_t couplings, std::uint64_t seed) {
  GESP_CHECK(nblocks > 0 && block_size > 0, Errc::invalid_argument,
             "bad device_like parameters");
  Rng rng(seed);
  const index_t n = nblocks * block_size;
  CooMatrix<double> A(n, n);
  // Dense-ish diagonal blocks: each entry present with probability 0.55 —
  // this is what creates the ECL32-style large supernodes and heavy fill.
  for (index_t b = 0; b < nblocks; ++b) {
    const index_t off = b * block_size;
    for (index_t i = 0; i < block_size; ++i) {
      A.add(off + i, off + i, 4.0 + rng.next_double());
      for (index_t j = 0; j < block_size; ++j) {
        if (i == j) continue;
        if (rng.next_double() < 0.55)
          A.add(off + i, off + j, rng.uniform(-1.0, 1.0));
      }
    }
    // Bidirectional carrier coupling to the next block.
    if (b + 1 < nblocks) {
      for (index_t i = 0; i < block_size; ++i) {
        A.add(off + i, off + block_size + i, rng.uniform(-0.5, 0.5));
        A.add(off + block_size + i, off + i, rng.uniform(-0.5, 0.5));
      }
    }
  }
  for (index_t c = 0; c < couplings; ++c) {
    const index_t i = rng.next_index(n), j = rng.next_index(n);
    if (i != j) A.add(i, j, rng.uniform(-0.3, 0.3));
  }
  return A.to_csc();
}

CscMatrix<double> chemical_like(index_t nstages, index_t stage_size,
                                double scale_spread, std::uint64_t seed) {
  GESP_CHECK(nstages > 1 && stage_size > 0, Errc::invalid_argument,
             "bad chemical_like parameters");
  Rng rng(seed);
  const index_t n = nstages * stage_size;
  CooMatrix<double> A(n, n);
  for (index_t s = 0; s < nstages; ++s) {
    const index_t off = s * stage_size;
    // Row scale varies by many orders of magnitude across stages —
    // equilibration (DGEEQU) has real work to do on this class.
    for (index_t i = 0; i < stage_size; ++i) {
      const double rs = std::pow(10.0, rng.uniform(-scale_spread / 2.0,
                                                   scale_spread / 2.0));
      A.add(off + i, off + i, rs * (2.0 + rng.next_double()));
      for (index_t j = 0; j < stage_size; ++j)
        if (i != j && rng.next_double() < 0.4)
          A.add(off + i, off + j, rs * rng.uniform(-1.0, 1.0));
      // Stage-to-stage streams (downstream strong, upstream weak).
      if (s + 1 < nstages)
        A.add(off + i, off + stage_size + i, rs * rng.uniform(-1.0, -0.2));
      if (s > 0 && rng.next_double() < 0.5)
        A.add(off + i, off - stage_size + i, rs * rng.uniform(-0.2, -0.01));
    }
  }
  // Recycle streams: late stage feeding an early one, long-range fill.
  const index_t recycles = std::max<index_t>(1, nstages / 3);
  for (index_t r = 0; r < recycles; ++r) {
    const index_t from = nstages / 2 + rng.next_index(nstages - nstages / 2);
    const index_t to = rng.next_index(std::max<index_t>(1, nstages / 2));
    for (index_t i = 0; i < stage_size; ++i)
      A.add(to * stage_size + i, from * stage_size + i,
            rng.uniform(-0.1, -0.01));
  }
  return A.to_csc();
}

template <class T>
CscMatrix<T> with_zero_diagonal(const CscMatrix<T>& A, double fraction,
                                std::uint64_t seed) {
  GESP_CHECK(A.nrows == A.ncols, Errc::invalid_argument,
             "with_zero_diagonal needs a square matrix");
  GESP_CHECK(fraction >= 0.0 && fraction <= 1.0, Errc::invalid_argument,
             "fraction must be in [0,1]");
  Rng rng(seed);
  const index_t n = A.nrows;
  index_t count = static_cast<index_t>(fraction * n);
  count -= count % 2;  // pair the rows in 2-cycles
  // Choose distinct victim rows, then pair NEIGHBOURING victims: the swap
  // couplings stay local (like the voltage-source stamps of real modified
  // nodal analysis), so they stress the pivoting without adding the
  // long-range edges that would blow up the factor fill.
  std::vector<index_t> order(n);
  for (index_t i = 0; i < n; ++i) order[i] = i;
  for (index_t i = n - 1; i > 0; --i)
    std::swap(order[i], order[rng.next_index(i + 1)]);
  order.resize(count);
  std::sort(order.begin(), order.end());
  std::vector<char> victim(static_cast<std::size_t>(n), 0);
  for (index_t v : order) victim[v] = 1;

  const double strong = 2.0 * std::max(1.0, norm_max(A));
  CooMatrix<T> B(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t p = A.colptr[j]; p < A.colptr[j + 1]; ++p) {
      if (A.rowind[p] == j && victim[j]) continue;  // drop victim diagonal
      B.add(A.rowind[p], j, A.values[p]);
    }
  // Swap couplings so a perfect matching survives: rows (i,j) are matched to
  // columns (j,i). Entries are strong so MC64 prefers them.
  for (index_t k = 0; k + 1 < count; k += 2) {
    const index_t i = order[k], j = order[k + 1];
    B.add(i, j, T(strong));
    B.add(j, i, T(-strong));
  }
  return B.to_csc();
}

template CscMatrix<double> with_zero_diagonal(const CscMatrix<double>&,
                                              double, std::uint64_t);
template CscMatrix<Complex> with_zero_diagonal(const CscMatrix<Complex>&,
                                               double, std::uint64_t);

CscMatrix<double> cancellation_matrix(index_t n, index_t cancel_at,
                                      std::uint64_t seed) {
  GESP_CHECK(n > 4 && cancel_at > 1 && cancel_at < n - 1,
             Errc::invalid_argument, "bad cancellation_matrix parameters");
  Rng rng(seed);
  CooMatrix<double> A(n, n);
  // Leading chain: a_ii = 2 with unit sub/super-diagonals; Gaussian
  // elimination along the chain gives u_k = 2 - 1/u_{k-1}. At k = cancel_at
  // the diagonal is set to exactly the incoming Schur value, so the pivot
  // cancels to zero *during* elimination even though every a_ii != 0.
  double u = 2.0;
  A.add(0, 0, 2.0);
  for (index_t k = 1; k <= cancel_at; ++k) {
    A.add(k, k - 1, 1.0);
    A.add(k - 1, k, 1.0);
    const double schur = 1.0 / u;  // what elimination will subtract
    const double diag = (k == cancel_at) ? schur : 2.0;
    A.add(k, k, diag);
    u = diag - schur;  // 0 at k == cancel_at
    if (k == cancel_at) u = 2.0;  // beyond the cancellation the chain resets
  }
  // Rescue coupling past the singular leading minor.
  A.add(cancel_at, cancel_at + 1, 1.0);
  A.add(cancel_at + 1, cancel_at, 1.0);
  // Benign random remainder.
  for (index_t i = cancel_at + 1; i < n; ++i) {
    A.add(i, i, 3.0 + rng.next_double());
    const index_t j = rng.next_index(n);
    if (j != i) A.add(i, j, rng.uniform(-0.5, 0.5));
    const index_t j2 = rng.next_index(n);
    if (j2 != i) A.add(j2, i, rng.uniform(-0.5, 0.5));
  }
  return A.to_csc();
}

CscMatrix<double> growth_adversary(index_t n) {
  GESP_CHECK(n > 1, Errc::invalid_argument, "growth_adversary needs n > 1");
  CooMatrix<double> A(n, n);
  for (index_t i = 0; i < n; ++i) {
    A.add(i, i, 1.0);
    for (index_t j = 0; j < i; ++j) A.add(i, j, -1.0);
    if (i < n - 1) A.add(i, n - 1, 1.0);
  }
  return A.to_csc();
}

CscMatrix<double> sparse_growth_adversary(index_t n, index_t depth,
                                          std::uint64_t seed) {
  GESP_CHECK(n > depth + 2 && depth > 1, Errc::invalid_argument,
             "bad sparse_growth_adversary parameters");
  Rng rng(seed);
  const index_t m = n - depth - 1;  // background size
  CooMatrix<double> A(n, n);
  // Identity-dominant random background, weakly coupled.
  for (index_t i = 0; i < m; ++i) {
    A.add(i, i, 2.0 + rng.next_double());
    const index_t j = rng.next_index(m);
    if (j != i) A.add(i, j, rng.uniform(-0.3, 0.3));
  }
  // Dense Wilkinson block on the trailing indices: element growth 2^depth
  // under the natural diagonal pivot order.
  for (index_t bi = 0; bi <= depth; ++bi) {
    const index_t i = m + bi;
    A.add(i, i, 1.0);
    for (index_t bj = 0; bj < bi; ++bj) A.add(i, m + bj, -1.0);
    if (bi < depth) A.add(i, n - 1, 1.0);
  }
  // Weak background-to-block coupling keeps the matrix irreducible.
  A.add(0, m, 1e-3);
  A.add(m, 0, 1e-3);
  return A.to_csc();
}

CscMatrix<double> near_singular_cascade(index_t n, index_t depth,
                                        double gamma, std::uint64_t seed) {
  GESP_CHECK(depth > 1 && n >= 2 * depth + 10 && gamma > 0.0 && gamma < 0.09,
             Errc::invalid_argument, "bad near_singular_cascade parameters");
  // The attack lives in a TRAILING dense block of width W = 2*depth + 10.
  // Placement is load-bearing twice over. First, the Schur complement a
  // supernode sends to the trailing matrix is invariant under in-block row
  // order, so growth routed *through* a block boundary can never be
  // pivoted away — the chain must share as few diagonal blocks as
  // possible. The partitioner makes the block's leading 8 filler columns a
  // relaxed leaf supernode, T2-joins the dense remainder, amalgamates the
  // two along the etree chain (the block is dense, so the merge stores no
  // zeros) and cuts the result at max_block columns from the block start.
  // With the default 24 and depth 11, eight feed/decay pairs land in the
  // first chunk and three in the second; only the decay just before the
  // cut loses its competitor to the next chunk, so the threshold rescue
  // leaves growth ~1e6 that refinement absorbs. Second, determinant
  // invariance makes any
  // in-block rescue concentrate the product of the decayed pivots
  // (gamma^depth) into deferred rows that retire near the chunk's end;
  // because the block is trailing there are no rows beneath it, so those
  // deferred near-zero pivots amplify nothing.
  //
  // Chain columns alternate feed/decay: even offsets keep a unit pivot and
  // feed the next column, whose pivot cancels to exactly gamma
  // (1 - s·(1-gamma)/s = gamma). Each decay is produced locally by an O(1)
  // multiplier — not by the previous tiny pivot — so perturbations do not
  // compound and the cascade survives to arbitrary depth. The static
  // multiplier under each decayed pivot is s/gamma (~25) and the
  // accumulator column of U compounds one such factor per decay. An O(1)
  // competitor (the s subdiagonal) sits right below each decayed pivot,
  // inside the same chunk: threshold pivoting swaps it up and the cascade
  // never starts. All diagonals are 1 and every off-diagonal is < 1, so
  // the identity diagonal is the strictly optimal matching (MC64 keeps it)
  // and max-norm equilibration is the identity.
  const double s = 0.98;
  const index_t W = 2 * depth + 10;
  const index_t m = n - W;  // block start; filler m..m+7, chain from m+8
  Rng rng(seed);
  CooMatrix<double> A(n, n);
  for (index_t k = 0; k < W; ++k) A.add(m + k, m + k, 1.0);
  for (index_t k = 8; k + 1 < W - 1; ++k) {
    A.add(m + k + 1, m + k, s);  // in-chunk competitor under every pivot
    if ((k - 8) % 2 == 0) A.add(m + k, m + k + 1, (1.0 - gamma) / s);
  }
  for (index_t k = 8; k < W - 1; ++k) A.add(m + k, n - 1, 0.9);  // accumulator
  // Structural glue below the diagonal: keeps the block dense so the T2
  // join sees exactly nested L columns. 1e-6 is small enough not to
  // disturb the engineered pivots — the strictly-upper pattern is empty
  // beyond the first superdiagonal, so glue fill never reaches a pivot.
  for (index_t k = 0; k + 1 < W; ++k)
    for (index_t i = k + 1; i < W; ++i)
      if (i != k + 1 || k < 8 || k + 2 >= W)
        A.add(m + i, m + k, 1e-6 * rng.uniform(0.5, 1.0));
  // Decoupled identity-dominant background. The block must NOT couple to
  // it: an outside row reaching the block's columns would route the
  // amplification through the (pivot-order-invariant) Schur complement and
  // make the growth unrescuable by construction.
  for (index_t i = 0; i < m; ++i) {
    A.add(i, i, 2.0 + rng.next_double());
    const index_t j = rng.next_index(m);
    if (j != i) A.add(i, j, rng.uniform(-0.3, 0.3));
  }
  return A.to_csc();
}

CscMatrix<double> wilkinson_block_adversary(index_t n, index_t depth,
                                            std::uint64_t seed) {
  GESP_CHECK(n > depth + 2 && depth > 1, Errc::invalid_argument,
             "bad wilkinson_block_adversary parameters");
  Rng rng(seed);
  const index_t m = n - depth - 1;  // background size
  CooMatrix<double> A(n, n);
  for (index_t i = 0; i < m; ++i) {
    A.add(i, i, 2.0 + rng.next_double());
    const index_t j = rng.next_index(m);
    if (j != i) A.add(i, j, rng.uniform(-0.3, 0.3));
  }
  // Dense trailing block: the off-tie magnitudes (0.94, 0.97) keep every
  // column maximum strictly under 1/tau times the unit pivot, so threshold
  // pivoting never swaps, yet the last-column accumulation still grows by
  // ~1.94 per step.
  for (index_t bi = 0; bi <= depth; ++bi) {
    const index_t i = m + bi;
    A.add(i, i, 1.0);
    for (index_t bj = 0; bj < bi; ++bj) A.add(i, m + bj, -0.94);
    if (bi < depth) A.add(i, n - 1, 0.97);
  }
  A.add(0, m, 1e-3);
  A.add(m, 0, 1e-3);
  return A.to_csc();
}

CscMatrix<double> badly_scaled(const CscMatrix<double>& A, double spread,
                               std::uint64_t seed) {
  GESP_CHECK(spread >= 0.0, Errc::invalid_argument,
             "badly_scaled spread must be >= 0");
  Rng rng(seed);
  std::vector<double> dr(static_cast<std::size_t>(A.nrows));
  std::vector<double> dc(static_cast<std::size_t>(A.ncols));
  for (double& s : dr) s = std::pow(10.0, rng.uniform(-spread / 2, spread / 2));
  for (double& s : dc) s = std::pow(10.0, rng.uniform(-spread / 2, spread / 2));
  CscMatrix<double> B = A;
  for (index_t j = 0; j < B.ncols; ++j)
    for (index_t p = B.colptr[j]; p < B.colptr[j + 1]; ++p)
      B.values[static_cast<std::size_t>(p)] *=
          dr[static_cast<std::size_t>(B.rowind[p])] *
          dc[static_cast<std::size_t>(j)];
  return B;
}

namespace {

/// Shared layout of the dependent-column-pair generators. Pair t occupies
/// columns {4t, 4t+1} over a shared three-row pattern: A(4t+i, 4t+1) =
/// A(4t+i, 4t)·(1 + gap(rng, i)), so the second pivot of each pair cancels
/// to the gaps' differences. The rest is a diagonally dominant filler.
template <class Gap>
CscMatrix<double> dependent_column_pairs(index_t n, index_t pairs,
                                         std::uint64_t seed, Gap gap) {
  Rng rng(seed);
  CooMatrix<double> A(n, n);
  for (index_t t = 0; t < pairs; ++t) {
    const index_t j = 4 * t;
    for (index_t i = 0; i < 3; ++i) {
      const double v = 0.5 + rng.next_double();
      A.add(j + i, j, v);
      A.add(j + i, j + 1, v * (1.0 + gap(rng, i)));
    }
    A.add(j + 2, j + 2, 2.0 + rng.next_double());
    A.add(j + 3, j + 3, 2.0 + rng.next_double());
    A.add(j + 3, j + 2, rng.uniform(-0.3, 0.3));
  }
  for (index_t i = 4 * pairs; i < n; ++i) {
    A.add(i, i, 2.0 + rng.next_double());
    const index_t j = rng.next_index(n);
    if (j != i) A.add(i, j, rng.uniform(-0.3, 0.3));
  }
  A.add(0, n - 1, 1e-3);
  A.add(n - 1, 0, 1e-3);
  return A.to_csc();
}

}  // namespace

CscMatrix<double> structural_deficiency(index_t n, index_t deficient,
                                        std::uint64_t seed) {
  GESP_CHECK(deficient > 0 && n > 4 * deficient + 2, Errc::invalid_argument,
             "bad structural_deficiency parameters");
  // A ~1e-13 relative difference: the second pivot of each pair cancels
  // far below sqrt(eps)·||A|| and the tiny-pivot replacement must step in.
  return dependent_column_pairs(n, deficient, seed, [](Rng& rng, index_t) {
    return 1e-13 * rng.uniform(0.5, 1.0);
  });
}

CscMatrix<double> precision_gap_deficiency(index_t n, index_t pairs,
                                           double gap, std::uint64_t seed) {
  GESP_CHECK(pairs > 0 && n > 4 * pairs + 2 && gap > 0.0 && gap < 0.1,
             Errc::invalid_argument,
             "bad precision_gap_deficiency parameters");
  // Row gaps -gap·u, 0, +gap·u: any two rows differ by gap/2 .. 2·gap.
  return dependent_column_pairs(n, pairs, seed, [gap](Rng& rng, index_t i) {
    return gap * static_cast<double>(i - 1) * rng.uniform(0.5, 1.0);
  });
}

CscMatrix<double> inject_value_faults(const CscMatrix<double>& A,
                                      index_t count, double magnitude,
                                      std::uint64_t seed) {
  GESP_CHECK(count >= 0 && magnitude != 0.0, Errc::invalid_argument,
             "bad inject_value_faults parameters");
  GESP_CHECK(!A.values.empty() || count == 0, Errc::invalid_argument,
             "inject_value_faults needs a nonempty matrix");
  Rng rng(seed);
  CscMatrix<double> B = A;
  const index_t nnz = static_cast<index_t>(B.values.size());
  for (index_t k = 0; k < count; ++k) {
    const std::size_t idx = static_cast<std::size_t>(rng.next_index(nnz));
    const double sign = rng.next_double() < 0.5 ? -1.0 : 1.0;
    B.values[idx] *= sign * magnitude * rng.uniform(0.5, 1.5);
  }
  return B;
}

CscMatrix<Complex> randomize_phases(const CscMatrix<double>& A,
                                    std::uint64_t seed) {
  Rng rng(seed);
  CscMatrix<Complex> B;
  B.nrows = A.nrows;
  B.ncols = A.ncols;
  B.colptr = A.colptr;
  B.rowind = A.rowind;
  B.values.resize(A.values.size());
  for (std::size_t k = 0; k < A.values.size(); ++k) {
    const double theta = rng.uniform(0.0, 2.0 * 3.14159265358979323846);
    B.values[k] = A.values[k] * Complex(std::cos(theta), std::sin(theta));
  }
  return B;
}

template <class T>
CscMatrix<T> perturb_values(const CscMatrix<T>& A, double rel,
                            std::uint64_t seed) {
  Rng rng(seed);
  CscMatrix<T> B = A;
  for (T& v : B.values) v *= 1.0 + rel * rng.uniform(-1.0, 1.0);
  return B;
}

template CscMatrix<double> perturb_values(const CscMatrix<double>&, double,
                                          std::uint64_t);
template CscMatrix<Complex> perturb_values(const CscMatrix<Complex>&, double,
                                           std::uint64_t);

template <class T>
CscMatrix<T> perturb_columns(const CscMatrix<T>& A, double col_fraction,
                             double rel, std::uint64_t seed) {
  GESP_CHECK(col_fraction >= 0.0 && col_fraction <= 1.0,
             Errc::invalid_argument, "col_fraction must be in [0,1]");
  Rng rng(seed);
  const index_t n = A.ncols;
  index_t count = static_cast<index_t>(col_fraction * n);
  if (col_fraction > 0.0 && n > 0) count = std::max<index_t>(count, 1);
  // Fisher–Yates prefix: the chosen column set depends only on (n, seed).
  std::vector<index_t> order(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) order[i] = i;
  for (index_t i = n - 1; i > 0; --i)
    std::swap(order[i], order[rng.next_index(i + 1)]);
  std::vector<char> chosen(static_cast<std::size_t>(n), 0);
  for (index_t k = 0; k < count; ++k) chosen[order[k]] = 1;
  CscMatrix<T> B = A;
  for (index_t j = 0; j < n; ++j) {
    if (!chosen[j]) continue;  // bitwise untouched
    for (index_t p = B.colptr[j]; p < B.colptr[j + 1]; ++p)
      B.values[p] *= 1.0 + rel * rng.uniform(-1.0, 1.0);
  }
  return B;
}

template CscMatrix<double> perturb_columns(const CscMatrix<double>&, double,
                                           double, std::uint64_t);
template CscMatrix<Complex> perturb_columns(const CscMatrix<Complex>&, double,
                                            double, std::uint64_t);

template <class T>
CscMatrix<T> perturb_column_window(const CscMatrix<T>& A, double col_fraction,
                                   double rel, std::uint64_t seed) {
  GESP_CHECK(col_fraction >= 0.0 && col_fraction <= 1.0,
             Errc::invalid_argument, "col_fraction must be in [0,1]");
  Rng rng(seed);
  const index_t n = A.ncols;
  index_t count = static_cast<index_t>(col_fraction * n);
  if (col_fraction > 0.0 && n > 0) count = std::max<index_t>(count, 1);
  CscMatrix<T> B = A;
  if (count == 0) return B;
  const index_t start = rng.next_index(n - count + 1);
  for (index_t j = start; j < start + count; ++j)
    for (index_t p = B.colptr[j]; p < B.colptr[j + 1]; ++p)
      B.values[p] *= 1.0 + rel * rng.uniform(-1.0, 1.0);
  return B;
}

template CscMatrix<double> perturb_column_window(const CscMatrix<double>&,
                                                 double, double,
                                                 std::uint64_t);
template CscMatrix<Complex> perturb_column_window(const CscMatrix<Complex>&,
                                                  double, double,
                                                  std::uint64_t);

}  // namespace gesp::sparse
