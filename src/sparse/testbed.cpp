#include "sparse/testbed.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sparse/coo.hpp"
#include "sparse/generators.hpp"

namespace gesp::sparse {
namespace {

/// Sprinkle `count` extra random couplings of magnitude <= scale into A,
/// each within ±max_offset of the diagonal. Used to thicken grid matrices
/// into BBMAT-class density; locality (mesh refinement couples *nearby*
/// unknowns) keeps the factor fill in the realistic regime.
CscMatrix<double> add_random_couplings(const CscMatrix<double>& A,
                                       index_t count, double scale,
                                       index_t max_offset,
                                       std::uint64_t seed) {
  Rng rng(seed);
  CooMatrix<double> B(A.nrows, A.ncols);
  for (index_t j = 0; j < A.ncols; ++j)
    for (index_t p = A.colptr[j]; p < A.colptr[j + 1]; ++p)
      B.add(A.rowind[p], j, A.values[p]);
  for (index_t k = 0; k < count; ++k) {
    const index_t i = rng.next_index(A.nrows);
    const index_t off = rng.next_index(2 * max_offset + 1) - max_offset;
    const index_t j = i + off;
    if (j >= 0 && j < A.ncols && i != j)
      B.add(i, j, scale * rng.uniform(-1.0, 1.0));
  }
  return B.to_csc();
}

std::vector<TestbedEntry> build_testbed() {
  std::vector<TestbedEntry> t;
  auto add = [&](std::string name, std::string disc,
                 std::function<CscMatrix<double>()> make, bool zd = false,
                 bool cz = false, bool large = false, bool fail = false) {
    t.push_back({std::move(name), std::move(disc), zd, cz, large, fail,
                 std::move(make)});
  };

  // ---- fluid dynamics --------------------------------------------------
  add("cfd2d-a-s", "fluid flow",
      [] { return convdiff2d(25, 25, 1.0, 0.5); });
  add("cfd2d-b-s", "fluid flow",
      [] { return convdiff2d(40, 40, 3.0, 1.0); });
  add("cfd2d-c-s", "fluid flow",
      [] { return convdiff2d(70, 70, 0.8, 0.4); });
  add("cfd3d-a-s", "fluid flow",
      [] { return convdiff3d(12, 12, 12, 1.0, 0.5, 0.2); });
  add("fidap-a-s", "fluid flow (FEM)",
      [] { return perturb_values(anisotropic2d(40, 40, 0.02), 0.3, 101); });
  add("af23560-s", "fluid flow (transonic airfoil)",
      [] { return convdiff2d(150, 150, 0.6, 0.3); }, false, false, true);
  add("bbmat-s", "fluid flow (2-D airfoil, refined)",
      [] {
        return add_random_couplings(convdiff2d(130, 130, 2.5, 1.5), 60000,
                                    0.4, /*max_offset=*/260, 102);
      },
      false, false, true);
  add("ex11-s", "fluid flow (3-D cylinder)",
      [] { return convdiff3d(22, 22, 22, 1.0, 1.0, 1.0); }, false, false,
      true);

  // ---- finite elements / structures ------------------------------------
  add("fidapm11-s", "fluid flow (FEM, 3-D)",
      [] { return perturb_values(anisotropic2d(145, 145, 0.05), 0.2, 103); },
      false, false, true);
  add("struct-a-s", "structural engineering",
      [] { return perturb_values(laplacian2d(50, 50), 0.2, 104); });
  add("struct-b-s", "structural engineering",
      [] { return perturb_values(laplacian3d(9, 9, 9), 0.2, 105); });
  add("plate-a-s", "structural engineering",
      [] { return perturb_values(anisotropic2d(60, 30, 0.2), 0.1, 106); });

  // ---- petroleum / earth sciences --------------------------------------
  add("orsirr-s", "petroleum engineering",
      [] { return perturb_values(anisotropic2d(30, 34, 0.1), 0.25, 107); });
  add("sherman-s", "petroleum engineering",
      [] {
        return with_zero_diagonal(
            perturb_values(anisotropic2d(45, 45, 0.3), 0.2, 108), 0.10, 208);
      },
      true);
  add("saylr-s", "petroleum engineering",
      [] { return perturb_values(anisotropic2d(35, 29, 0.02), 0.15, 109); });
  add("wu-s", "earth sciences (reservoir)",
      [] { return anisotropic2d(160, 160, 1e-3); }, false, false, true);

  // ---- circuit simulation ----------------------------------------------
  add("add20-s", "circuit simulation",
      [] { return with_zero_diagonal(circuit_like(2395, 8, 40, 110), 0.20, 210); },
      true);
  add("add32-s", "circuit simulation",
      [] { return with_zero_diagonal(circuit_like(4960, 10, 30, 111), 0.15, 211); },
      true);
  add("memplus-s", "circuit simulation (memory)",
      [] { return with_zero_diagonal(circuit_like(8000, 40, 100, 112), 0.25, 212); },
      true);
  add("onetone-s", "circuit simulation (harmonic balance)",
      [] { return with_zero_diagonal(circuit_like(12000, 30, 80, 113), 0.20, 213); },
      true);
  add("twotone-s", "circuit simulation (harmonic balance)",
      [] { return with_zero_diagonal(circuit_like(18000, 25, 40, 114), 0.10, 214); },
      true, false, true);
  add("jpwh991-s", "circuit physics",
      [] { return device_like(30, 33, 500, 115); });
  add("gre1107-s", "discrete simulation",
      [] {
        RandomSpec s;
        s.n = 1107;
        s.nnz_per_row = 5;
        s.structural_symmetry = 0.2;
        s.seed = 116;
        return with_zero_diagonal(random_unsymmetric(s), 0.30, 216);
      },
      true);

  // ---- device simulation ------------------------------------------------
  add("ecl32-s", "device simulation",
      [] { return device_like(460, 24, 2500, 117); }, false, false, true);
  add("wang4-s", "device simulation (3-D MOSFET)",
      [] { return convdiff3d(20, 20, 20, 0.5, 0.25, 0.1); }, false, false,
      true);
  add("wang12-s", "device simulation",
      [] { return convdiff3d(14, 14, 14, 0.4, 0.2, 0.1); });

  // ---- chemical engineering ----------------------------------------------
  add("west0497-s", "chemical engineering",
      [] { return with_zero_diagonal(chemical_like(16, 31, 6.0, 118), 0.30, 218); },
      true);
  add("west1505-s", "chemical engineering",
      [] { return with_zero_diagonal(chemical_like(50, 30, 8.0, 119), 0.30, 219); },
      true);
  add("lhr01-s", "light hydrocarbon recovery",
      [] { return with_zero_diagonal(chemical_like(35, 42, 10.0, 120), 0.20, 220); },
      true);
  add("lhr04-s", "light hydrocarbon recovery",
      [] { return with_zero_diagonal(chemical_like(100, 41, 10.0, 121), 0.20, 221); },
      true);
  add("hydr1-s", "chemical engineering (hydrogenation)",
      [] { return with_zero_diagonal(chemical_like(130, 40, 8.0, 122), 0.25, 222); },
      true);
  add("rdist1-s", "reactive distillation",
      [] { return chemical_like(100, 40, 5.0, 123); });
  add("radfr1-s", "chemical engineering",
      [] { return chemical_like(35, 29, 12.0, 124); });

  // ---- economics ----------------------------------------------------------
  add("mahindas-s", "economics",
      [] {
        RandomSpec s;
        s.n = 1258;
        s.nnz_per_row = 5;
        s.structural_symmetry = 0.05;
        s.seed = 125;
        return with_zero_diagonal(random_unsymmetric(s), 0.40, 225);
      },
      true);
  add("orani678-s", "economics",
      [] {
        RandomSpec s;
        s.n = 2529;
        s.nnz_per_row = 14;
        s.structural_symmetry = 0.10;
        s.bandwidth = 0.03;
        s.seed = 126;
        return with_zero_diagonal(random_unsymmetric(s), 0.30, 226);
      },
      true);
  add("mbeacxc-s", "economics",
      [] {
        RandomSpec s;
        s.n = 496;
        s.nnz_per_row = 100;
        s.structural_symmetry = 0.15;
        s.bandwidth = 0.5;
        s.seed = 127;
        return with_zero_diagonal(random_unsymmetric(s), 0.50, 227);
      },
      true);

  // ---- power networks -----------------------------------------------------
  add("gemat11-s", "power flow",
      [] {
        RandomSpec s;
        s.n = 4929;
        s.nnz_per_row = 7;
        s.structural_symmetry = 0.3;
        s.bandwidth = 0.01;  // power grids are locally connected
        s.seed = 128;
        return with_zero_diagonal(random_unsymmetric(s), 0.20, 228);
      },
      true);
  add("bcspwr-s", "power networks",
      [] {
        RandomSpec s;
        s.n = 1723;
        s.nnz_per_row = 3;
        s.structural_symmetry = 1.0;
        s.numeric_symmetry = 0.5;
        s.bandwidth = 0.01;
        s.seed = 129;
        return with_zero_diagonal(random_unsymmetric(s), 0.20, 229);
      },
      true);

  // ---- plasma physics -------------------------------------------------------
  add("utm3060-s", "plasma physics (tokamak)",
      [] { return with_zero_diagonal(device_like(153, 20, 2000, 130), 0.10, 230); },
      true);
  add("tokamak-s", "plasma physics",
      [] { return perturb_values(convdiff2d(55, 55, 5.0, 0.1), 0.1, 131); });

  // ---- quantum chemistry ------------------------------------------------------
  add("qchem-a-s", "quantum chemistry",
      [] {
        RandomSpec s;
        s.n = 1600;
        s.nnz_per_row = 25;
        s.structural_symmetry = 0.9;
        s.numeric_symmetry = 0.5;
        s.bandwidth = 0.06;
        s.seed = 132;
        return random_unsymmetric(s);
      });
  add("qchem-b-s", "quantum chemistry",
      [] { return with_zero_diagonal(device_like(100, 30, 1500, 133), 0.15, 233); },
      true);

  // ---- astrophysics / demography ----------------------------------------------
  add("mcfe-s", "astrophysics (radiative transfer)",
      [] {
        RandomSpec s;
        s.n = 765;
        s.nnz_per_row = 30;
        s.structural_symmetry = 0.7;
        s.bandwidth = 0.4;
        s.seed = 134;
        return with_zero_diagonal(random_unsymmetric(s), 0.20, 234);
      },
      true);
  add("psmigr-s", "demography (migration)",
      [] {
        RandomSpec s;
        s.n = 2140;
        s.nnz_per_row = 40;
        s.structural_symmetry = 0.4;
        s.bandwidth = 0.25;
        s.seed = 135;
        return with_zero_diagonal(random_unsymmetric(s), 0.30, 235);
      },
      true);
  add("mcca-s", "astrophysics",
      [] {
        RandomSpec s;
        s.n = 256;
        s.nnz_per_row = 16;
        s.structural_symmetry = 0.6;
        s.bandwidth = 0.5;
        s.seed = 136;
        return random_unsymmetric(s);
      });

  // ---- aerodynamics -------------------------------------------------------------
  add("raefsky-s", "aerodynamics (buckling)",
      [] { return with_zero_diagonal(device_like(200, 16, 2000, 137), 0.10, 237); },
      true);

  // ---- zeros created during elimination (5 matrices) -----------------------------
  add("cancel-a-s", "synthetic (pivot cancellation)",
      [] { return cancellation_matrix(800, 400, 140); }, false, true);
  add("cancel-b-s", "synthetic (pivot cancellation)",
      [] { return cancellation_matrix(1500, 200, 141); }, false, true);
  add("cancel-c-s", "synthetic (pivot cancellation)",
      [] { return cancellation_matrix(2500, 1250, 142); }, false, true);
  add("cancel-d-s", "synthetic (pivot cancellation)",
      [] { return cancellation_matrix(600, 77, 143); }, false, true);
  add("cancel-e-s", "synthetic (pivot cancellation)",
      [] { return cancellation_matrix(3000, 2000, 144); }, false, true);

  // ---- pivot growth adversaries ----------------------------------------------------
  add("goodwin-s", "fluid mechanics (growth-prone)",
      [] { return sparse_growth_adversary(2000, 25, 145); });
  add("av41092-s", "finite elements (GESP failure case)",
      [] { return sparse_growth_adversary(4000, 55, 146); }, false, false,
      false, /*fail=*/true);

  return t;
}

std::vector<AdversarialEntry> build_adversarial() {
  std::vector<AdversarialEntry> t;
  auto add = [&](std::string name, std::string attack, std::string rung,
                 std::function<CscMatrix<double>()> make, bool natural = false,
                 index_t max_block = 0, bool fail = false) {
    t.push_back({std::move(name), std::move(attack), std::move(rung), fail,
                 natural, max_block, std::move(make)});
  };
  // In-flight near-singular working minors: pivots decayed to gamma=0.04
  // *during* elimination with O(1) in-block competitors — the threshold
  // rung's home turf. Static growth ~ (0.98/0.04)^(depth-1).
  add("nsing-cascade-a", "compounding decayed pivots", "threshold",
      [] { return near_singular_cascade(400, 11, 0.04, 150); },
      /*natural=*/true);
  add("nsing-cascade-b", "compounding decayed pivots (larger n)", "threshold",
      [] { return near_singular_cascade(900, 10, 0.04, 151); },
      /*natural=*/true);
  add("nsing-scaled", "decayed pivots under 10^±2 row/col scaling",
      "threshold",
      [] {
        return badly_scaled(near_singular_cascade(400, 11, 0.04, 150), 4.0,
                            155);
      },
      /*natural=*/true);

  // Wilkinson chains confined to one supernode: unit pivots always within
  // tau of the column max (threshold-blind); only the QRCP row reorder of
  // the panel-RRP rung breaks the accumulation.
  add("wilkinson-block-a", "in-block growth chain, threshold-blind",
      "panel_rrp",
      [] { return wilkinson_block_adversary(500, 55, 152); },
      /*natural=*/true, /*max_block=*/64);
  add("wilkinson-block-b", "in-block growth chain, threshold-blind (wider)",
      "panel_rrp",
      [] { return wilkinson_block_adversary(900, 58, 153); },
      /*natural=*/true, /*max_block=*/64);

  // Sparse ±1 growth adversaries (the goodwin/av41092 class): exact-tie
  // chains spanning supernodes.
  add("growth-deep-a", "Wilkinson-type 2^45 growth", "panel_rrp",
      [] { return sparse_growth_adversary(300, 45, 9); },
      /*natural=*/true);
  add("growth-deep-b", "Wilkinson-type 2^46 growth", "panel_rrp",
      [] { return sparse_growth_adversary(700, 46, 154); },
      /*natural=*/true);

  // Controls: attacks the default pipeline is expected to absorb at the
  // first rung — scaling is neutralized by equilibration + mc64 duals,
  // near-dependent column pairs by tiny-pivot replacement.
  add("scaled-benign", "10^±4 row/col scaling on a benign matrix", "gesp",
      [] { return badly_scaled(convdiff2d(40, 40, 1.0, 0.5), 8.0, 156); });
  add("deficient-a", "numerically dependent column pairs", "gesp",
      [] { return structural_deficiency(600, 12, 157); });
  // The double path keeps these pivots (first rung); mixed precision must
  // promote, since float factors replace every one of them.
  add("deficient-gap",
      "dependent column pairs between the float and double tiny-pivot "
      "thresholds",
      "gesp", [] { return precision_gap_deficiency(600, 12, 4e-6, 158); });

  // Honest denominator: deep exact-tie growth that defeats the whole
  // in-block portfolio and falls through to GEPP (which converges). It
  // does so at the paper's block size; 48-column blocks let panel_rrp
  // break the chains.
  add("growth-av-s", "2^55 growth, defeats the in-block portfolio", "gepp",
      [] { return sparse_growth_adversary(4000, 55, 146); },
      /*natural=*/true, /*max_block=*/24);

  return t;
}

}  // namespace

const std::vector<TestbedEntry>& testbed() {
  static const std::vector<TestbedEntry> t = build_testbed();
  return t;
}

std::vector<TestbedEntry> large_testbed() {
  std::vector<TestbedEntry> out;
  for (const auto& e : testbed())
    if (e.large) out.push_back(e);
  return out;
}

const TestbedEntry& testbed_entry(const std::string& name) {
  for (const auto& e : testbed())
    if (e.name == name) return e;
  throw Error(Errc::invalid_argument, "no testbed matrix named " + name);
}

const std::vector<AdversarialEntry>& adversarial_testbed() {
  static const std::vector<AdversarialEntry> t = build_adversarial();
  return t;
}

const AdversarialEntry& adversarial_entry(const std::string& name) {
  for (const auto& e : adversarial_testbed())
    if (e.name == name) return e;
  throw Error(Errc::invalid_argument,
              "no adversarial testbed matrix named " + name);
}

}  // namespace gesp::sparse
