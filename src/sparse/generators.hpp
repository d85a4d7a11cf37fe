// Synthetic workload generators.
//
// The paper evaluates on 53 matrices from the Harwell-Boeing and Davis
// collections plus two private ones. Those files are not redistributable
// here, so the testbed (testbed.hpp) is generated from these routines,
// which produce matrices with the same *behaviour-determining*
// characteristics: dimension, nonzero density, structural/numerical
// symmetry, zero diagonals, tiny-dynamic-pivot patterns, and pivot-growth
// adversaries. All generators are bit-deterministic given their seed.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "sparse/csc.hpp"

namespace gesp::sparse {

/// 5-point Laplacian on an nx×ny grid (symmetric positive definite;
/// structural stand-in for structural-engineering meshes).
CscMatrix<double> laplacian2d(index_t nx, index_t ny);

/// 7-point Laplacian on an nx×ny×nz grid.
CscMatrix<double> laplacian3d(index_t nx, index_t ny, index_t nz);

/// Upwind-discretized convection–diffusion on an nx×ny grid:
///   -Δu + (vx, vy)·∇u. Unsymmetric values on a symmetric structure —
/// the classic CFD matrix (AF23560 / fluid-flow class).
CscMatrix<double> convdiff2d(index_t nx, index_t ny, double vx, double vy);

/// 3-D convection–diffusion (EX11 / 3-D flow class).
CscMatrix<double> convdiff3d(index_t nx, index_t ny, index_t nz, double vx,
                             double vy, double vz);

/// Anisotropic diffusion -eps·u_xx - u_yy on an nx×ny grid (petroleum
/// reservoir class, WU-like).
CscMatrix<double> anisotropic2d(index_t nx, index_t ny, double eps);

/// Parameters for the general random unsymmetric generator.
struct RandomSpec {
  index_t n = 1000;               ///< order
  index_t nnz_per_row = 8;        ///< average off-diagonal count per row
  double structural_symmetry = 0.5;  ///< probability the mirror entry exists
  double numeric_symmetry = 0.0;  ///< probability mirror entry has same value
  double diag_scale = 1.0;        ///< magnitude scale of diagonal entries
  double offdiag_scale = 1.0;     ///< magnitude scale of off-diagonals
  double bandwidth = 0.1;         ///< locality: offsets ~ ±bandwidth·n
  std::uint64_t seed = 1;
};

/// Random square unsymmetric matrix with controllable symmetry and entry
/// scales. Always structurally nonsingular (full diagonal) — compose with
/// with_zero_diagonal() to knock diagonal entries out.
CscMatrix<double> random_unsymmetric(const RandomSpec& spec);

/// Circuit-simulation-like matrix (TWOTONE / MEMPLUS class): most rows have
/// 2–4 entries, a few "hub" rows/columns are dense-ish, supernodes are tiny.
CscMatrix<double> circuit_like(index_t n, index_t hubs, index_t hub_degree,
                               std::uint64_t seed);

/// Device-simulation-like matrix (ECL32 class): block-structured with
/// moderately dense coupled blocks, high fill.
CscMatrix<double> device_like(index_t nblocks, index_t block_size,
                              index_t couplings, std::uint64_t seed);

/// Chemical-engineering-like matrix (RDIST/HYDR1 class): staircase of small
/// unit blocks with long-range recycle-stream couplings and poor scaling
/// (entry magnitudes spanning many orders of magnitude).
CscMatrix<double> chemical_like(index_t nstages, index_t stage_size,
                                double scale_spread, std::uint64_t seed);

/// Remove the diagonal entry from ~fraction·n rows, pairing the affected
/// rows in 2-cycles and inserting strong entries at (i,j) and (j,i) so a
/// perfect matching still exists (the matrix stays structurally
/// nonsingular, but *requires* row pivoting/permutation). Works on double
/// and Complex inputs with identical RNG consumption: the victim set (the
/// pattern edit) depends only on (pattern, seed), never on the value type.
template <class T>
CscMatrix<T> with_zero_diagonal(const CscMatrix<T>& A, double fraction,
                                std::uint64_t seed);

/// Tridiagonal-with-cancellation matrix: all diagonal entries are nonzero
/// and well scaled, but elimination without pivoting produces an *exact
/// zero* pivot at step `cancel_at` (zeros created on the diagonal during
/// elimination — the paper's "5 more create zeros" class). GESP's
/// tiny-pivot replacement plus refinement must rescue it.
CscMatrix<double> cancellation_matrix(index_t n, index_t cancel_at,
                                      std::uint64_t seed);

/// Wilkinson-style growth adversary: unit diagonal, -1 strictly below, +1
/// last column; element growth 2^(n-1) for any diagonal pivot order. Used
/// as the AV41092 stand-in (GESP failure case) and to show GENP/GEPP growth.
CscMatrix<double> growth_adversary(index_t n);

/// Sparse version of the growth adversary embedded in a random background,
/// with tunable growth depth (growth ≈ 2^depth).
CscMatrix<double> sparse_growth_adversary(index_t n, index_t depth,
                                          std::uint64_t seed);

/// Near-singular working-minor cascade in a trailing dense block. Every
/// assembled entry is O(1), all diagonals are 1 and every off-diagonal is
/// strictly smaller, so the identity is the optimal matching (MC64 keeps
/// it) and equilibration is the identity — yet `depth` pivots partially
/// cancel down to exactly `gamma` *during* elimination. Each decay is
/// produced by an O(1) multiplier from the unit-pivot column before it
/// (perturbations do not compound), the static multiplier under each
/// decayed pivot is ~0.98/gamma, and an accumulator column of U compounds
/// one such factor per decay: growth ~ 0.02·(0.98/gamma)^depth (gamma
/// 0.04, depth 10 gives ~1e12). The whole chain shares one diagonal block
/// with an O(1) competitor row below each decayed pivot, so in-block
/// threshold pivoting defeats the attack (gamma must be below tau·0.98 ≈
/// 0.098 for the swap to trigger). Requirements: natural column order (a
/// reordering scatters the chain), default relax (8), and depth at most 19
/// with the default max_block of 48: the block's 2·depth + 10 columns then
/// stay one chunk, so every decay keeps its competitor in its own chunk
/// (the threshold rung rescues depths 10-19; at depth 20 the block is cut
/// and the rescue leaves a 0.3 error). At max_block 24 the amalgamated
/// block is cut at max_block columns from its start, and every decay but
/// the one just before the cut keeps its competitor in its chunk (the
/// threshold rung rescues depths up to 19 there too; GEPP from 20 on).
CscMatrix<double> near_singular_cascade(index_t n, index_t depth,
                                        double gamma, std::uint64_t seed);

/// Wilkinson-style growth chain confined to one supernode: a trailing
/// (depth+1)-wide dense block with unit diagonal, -0.94 strictly below and
/// +0.97 in the block's last column, so any *diagonal* pivot order grows
/// like 1.94^depth. Threshold pivoting is blind to it — the pivot always
/// stays within tau of its column maximum — so only the panel-RRP rung,
/// which reorders block rows by QRCP row norms, tames the chain. Solve
/// with the natural column order and symbolic max_block > depth so the
/// whole chain lands in one diagonal block.
CscMatrix<double> wilkinson_block_adversary(index_t n, index_t depth,
                                            std::uint64_t seed);

/// Badly-scaled wrapper: multiply row i by 10^r_i and column j by 10^c_j
/// with r, c log-uniform in ±spread/2. Equilibration plus the mc64 dual
/// scalings should neutralize it completely — composing this over an
/// adversary must not change which ladder rung rescues the core attack.
CscMatrix<double> badly_scaled(const CscMatrix<double>& A, double spread,
                               std::uint64_t seed);

/// Structurally-deficient matrix: `deficient` column pairs are numerically
/// dependent to ~1e-13 relative difference, so elimination cancels their
/// second pivot far below the tiny-pivot replacement threshold. Exercises
/// the replacement path (pivots_replaced > 0) and drives the condition
/// number to ~1/1e-13 without defeating backward stability.
CscMatrix<double> structural_deficiency(index_t n, index_t deficient,
                                        std::uint64_t seed);

/// Dependent column pairs whose cancelled pivots sit between the double
/// and the float tiny-pivot thresholds: the mixed-precision promotion
/// adversary. The second column of each pair differs from the first by
/// the relative gaps -gap·u, 0, +gap·u (u in [0.5, 1]) over the pair's
/// three rows, so under any row order the pair's second pivot is gap/2 to
/// 2·gap relative to its entries. For sqrt(eps_d) < gap << sqrt(eps_f)
/// (e.g. 4e-6) the double factorization keeps those pivots and refines to
/// eps_d, while a float factorization must replace each one by
/// sigma = sqrt(eps_f)·||A|| whatever the partition or the kernels'
/// rounding; refinement over a replaced pivot p contracts the error along
/// the pair's null vector by only 1 - p/sigma per step, so it stalls with
/// berr ~ gap, far above the double target.
CscMatrix<double> precision_gap_deficiency(index_t n, index_t pairs,
                                           double gap, std::uint64_t seed);

/// Seeded numerical fault injection: multiply `count` randomly chosen
/// nonzeros by ±magnitude (random sign, ±50% jitter). The pattern is
/// untouched — a faulted matrix reuses the clean symbolic structure and
/// pattern-keyed cache entries — so this models value corruption at
/// refactorization time for chaos-testing the recovery ladder.
CscMatrix<double> inject_value_faults(const CscMatrix<double>& A,
                                      index_t count, double magnitude,
                                      std::uint64_t seed);

/// Complexify: multiply each entry by a deterministic random unit-modulus
/// phase (the quantum-chemistry application solves complex unsymmetric
/// systems). The magnitude structure — all that matching/ordering sees —
/// is unchanged.
CscMatrix<Complex> randomize_phases(const CscMatrix<double>& A,
                                    std::uint64_t seed);

/// Perturb the nonzero *values* (not the pattern) — models the paper's
/// repeated-factorization scenario, where the pattern is fixed across a
/// simulation but values change each step. One RNG draw per stored entry
/// for every value type, so double and Complex runs with the same seed
/// perturb by the same relative factors.
template <class T>
CscMatrix<T> perturb_values(const CscMatrix<T>& A, double rel,
                            std::uint64_t seed);

/// Perturb the values of ~col_fraction·n randomly chosen columns, leaving
/// every other column bitwise untouched — the transient-simulation update
/// shape (a few device stamps change per time step) that delta
/// refactorization exploits. Pattern-preserving and seeded-deterministic;
/// a positive fraction touches at least one column.
template <class T>
CscMatrix<T> perturb_columns(const CscMatrix<T>& A, double col_fraction,
                             double rel, std::uint64_t seed);

/// Perturb the values of one contiguous window of ~col_fraction·n columns
/// (seeded random placement), leaving every other column bitwise untouched.
/// Models *localized* transient activity — one subcircuit switching while
/// the rest of the design is quiescent — which keeps the dirty-supernode
/// closure small; scattered perturb_columns() is the pessimistic contrast
/// whose closure reaches much more of the factorization.
template <class T>
CscMatrix<T> perturb_column_window(const CscMatrix<T>& A, double col_fraction,
                                   double rel, std::uint64_t seed);

}  // namespace gesp::sparse
