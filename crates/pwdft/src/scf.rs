//! Self-consistent field loop: the ground-state calculation whose orbitals
//! and energies feed LR-TDDFT.
//!
//! Flow per iteration: density → `V_H` (FFT Poisson) + `V_xc` (LDA) + ionic
//! local potential → LOBPCG for the lowest `N_v + N_c` bands (warm-started
//! from the previous iteration) → new density → linear mixing. Convergence
//! is measured by the integrated density change.

use crate::cell::Grid;
use crate::hamiltonian::KsHamiltonian;
use crate::pseudo::local_potential;
use crate::structures::Structure;
use crate::xc::{fxc_lda, vxc_lda};
use fftkit::PoissonSolver;
use mathkit::lobpcg::{lobpcg, LobpcgOptions};
use mathkit::Mat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Density mixing scheme.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MixingScheme {
    /// Plain linear mixing `n ← (1−β)n + β n_out`.
    #[default]
    Linear,
    /// One-history Anderson acceleration: extrapolate along the residual
    /// difference before applying the `β` damping. Converges in fewer
    /// iterations on charge-sloshing-prone systems.
    Anderson,
}

/// Options for the SCF driver.
#[derive(Clone, Copy, Debug)]
pub struct ScfOptions {
    /// Number of conduction (virtual) bands to converge beyond `N_v`.
    pub n_conduction: usize,
    /// Max SCF iterations.
    pub max_iter: usize,
    /// Convergence threshold on `∫|n_out − n_in| dr / N_e`.
    pub density_tol: f64,
    /// Mixing fraction of the new density (`β`).
    pub mixing: f64,
    /// Mixing scheme.
    pub scheme: MixingScheme,
    /// LOBPCG settings for the band solve.
    pub band_tol: f64,
    pub band_max_iter: usize,
    /// RNG seed for the initial wavefunction guess (deterministic runs).
    pub seed: u64,
}

impl Default for ScfOptions {
    fn default() -> Self {
        ScfOptions {
            n_conduction: 4,
            max_iter: 60,
            density_tol: 1e-6,
            mixing: 0.4,
            scheme: MixingScheme::Linear,
            band_tol: 1e-7,
            band_max_iter: 80,
            seed: 0x5eed_1234,
        }
    }
}

/// Converged ground state: everything LR-TDDFT consumes.
pub struct GroundState {
    /// Kohn–Sham energies, ascending (`N_v + N_c` of them).
    pub eps: Vec<f64>,
    /// Orbitals on the grid (`N_r × (N_v+N_c)`), orthonormal w.r.t.
    /// `∫ψ_iψ_j dr = δ_ij` (i.e. `ΔV · Σ_r ψ_iψ_j = δ_ij`).
    pub psi: Mat,
    /// Ground-state electron density `n(r)`.
    pub density: Vec<f64>,
    /// Number of doubly-occupied valence orbitals.
    pub n_valence: usize,
    /// Number of conduction orbitals kept.
    pub n_conduction: usize,
    /// `f_xc(r)` evaluated at the converged density.
    pub fxc: Vec<f64>,
    /// Effective potential at convergence.
    pub v_eff: Vec<f64>,
    /// SCF iterations taken.
    pub iterations: usize,
    /// Final density residual.
    pub residual: f64,
    /// Whether `density_tol` was met.
    pub converged: bool,
}

impl GroundState {
    /// Valence orbital block `N_r × N_v`.
    pub fn psi_valence(&self) -> Mat {
        self.psi.col_block(0, self.n_valence)
    }

    /// Conduction orbital block `N_r × N_c`.
    pub fn psi_conduction(&self) -> Mat {
        self.psi.col_block(self.n_valence, self.n_valence + self.n_conduction)
    }

    /// Kohn–Sham gap `ε_{LUMO} − ε_{HOMO}`.
    pub fn gap(&self) -> f64 {
        self.eps[self.n_valence] - self.eps[self.n_valence - 1]
    }
}

/// Initial density: superposition of atomic Gaussians normalized to `N_e`.
fn initial_density(grid: &Grid, structure: &Structure) -> Vec<f64> {
    let alpha = 0.5; // Bohr⁻²: broad enough for coarse grids
    let mut n = vec![0.0; grid.len()];
    for atom in &structure.atoms {
        let z = atom.species.z_ion();
        for (i, ni) in n.iter_mut().enumerate() {
            let d = grid.cell.min_image(atom.pos, grid.coords(i));
            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
            *ni += z * (alpha / std::f64::consts::PI).powf(1.5) * (-alpha * r2).exp();
        }
    }
    // Normalize exactly to the electron count.
    let ne = structure.n_electrons() as f64;
    let total: f64 = n.iter().sum::<f64>() * grid.dv();
    if total > 0.0 {
        let s = ne / total;
        for v in &mut n {
            *v *= s;
        }
    }
    n
}

/// Run the SCF loop for `structure` on `grid`.
pub fn scf(grid: &Grid, structure: &Structure, opts: ScfOptions) -> GroundState {
    let n_v = structure.n_valence();
    let n_bands = n_v + opts.n_conduction;
    assert!(
        n_bands <= grid.len(),
        "more bands ({n_bands}) than grid points ({})",
        grid.len()
    );
    let dv = grid.dv();
    let ne = structure.n_electrons() as f64;

    let v_ion = local_potential(grid, structure);
    let poisson = PoissonSolver::new(grid.plan(), grid.cell.lengths);
    let mut density = initial_density(grid, structure);
    // Hartree-potential buffer reused across iterations (the solver itself
    // reuses its per-worker FFT scratch).
    let mut v_h = vec![0.0; grid.len()];

    // Deterministic random initial orbitals.
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut x = Mat::from_fn(grid.len(), n_bands, |_, _| rng.gen_range(-1.0..1.0));

    let mut eps = vec![0.0; n_bands];
    let mut residual = f64::INFINITY;
    let mut iterations = 0;
    let mut converged = false;
    let mut v_eff = vec![0.0; grid.len()];
    // Anderson history: previous (n_in, F).
    let mut history: Option<(Vec<f64>, Vec<f64>)> = None;

    for it in 0..opts.max_iter {
        iterations = it + 1;
        // Effective potential from the current density.
        poisson.hartree_potential_into(&density, &mut v_h);
        for i in 0..grid.len() {
            v_eff[i] = v_ion[i] + v_h[i] + vxc_lda(density[i]);
        }
        let h = KsHamiltonian::new(grid, v_eff.clone());

        // Band solve, warm-started. A breakdown (poisoned arithmetic, lost
        // subspace) panics with the typed error: the SCF has no recovery rung.
        let band_opts = LobpcgOptions { max_iter: opts.band_max_iter, tol: opts.band_tol };
        let res = lobpcg(|b| h.apply(b), |r, _| h.precondition(r), &x, band_opts)
            .unwrap_or_else(|e| panic!("scf: band solve failed at iteration {it}: {e}"));
        x = res.vectors;
        eps.copy_from_slice(&res.values);

        // New density from doubly-occupied valence bands. LOBPCG vectors are
        // unit-2-norm on the grid; grid-orthonormal orbitals carry 1/√ΔV.
        let mut n_out = vec![0.0; grid.len()];
        for b in 0..n_v {
            for (ni, &v) in n_out.iter_mut().zip(x.col(b)) {
                *ni += 2.0 * v * v / dv;
            }
        }
        residual = n_out
            .iter()
            .zip(density.iter())
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            * dv
            / ne;
        obskit::instant(
            obskit::Stage::Other,
            "scf.iter",
            &[("iter", it as f64), ("residual", residual)],
        );
        // Mix: F = n_out − n_in is the SCF residual field.
        let f: Vec<f64> = n_out.iter().zip(density.iter()).map(|(o, d)| o - d).collect();
        match opts.scheme {
            MixingScheme::Linear => {
                for (d, fi) in density.iter_mut().zip(f.iter()) {
                    *d += opts.mixing * fi;
                }
            }
            MixingScheme::Anderson => {
                if let Some((n_prev, f_prev)) = history.take() {
                    // θ minimizes ‖(1−θ)F_k + θF_{k−1}‖².
                    let mut num = 0.0;
                    let mut den = 0.0;
                    for (fk, fp) in f.iter().zip(f_prev.iter()) {
                        let df = fk - fp;
                        num += fk * df;
                        den += df * df;
                    }
                    let theta = if den > 0.0 { (num / den).clamp(-1.0, 2.0) } else { 0.0 };
                    let n_curr = density.clone();
                    for i in 0..density.len() {
                        let n_bar = (1.0 - theta) * n_curr[i] + theta * n_prev[i];
                        let f_bar = (1.0 - theta) * f[i] + theta * f_prev[i];
                        density[i] = (n_bar + opts.mixing * f_bar).max(0.0);
                    }
                    history = Some((n_curr, f.clone()));
                } else {
                    let n_curr = density.clone();
                    for (d, fi) in density.iter_mut().zip(f.iter()) {
                        *d += opts.mixing * fi;
                    }
                    history = Some((n_curr, f.clone()));
                }
            }
        }
        if residual < opts.density_tol {
            converged = true;
            break;
        }
    }

    // Final quantities at the mixed density.
    let fxc = density.iter().map(|&n| fxc_lda(n)).collect();
    // Grid-orthonormal orbitals.
    let scale = 1.0 / dv.sqrt();
    let mut psi = x;
    psi.scale(scale);

    GroundState {
        eps,
        psi,
        density,
        n_valence: n_v,
        n_conduction: opts.n_conduction,
        fxc,
        v_eff,
        iterations,
        residual,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structures::{silicon_supercell, water_in_box};
    use mathkit::syrk_tn_scaled;

    fn quick_opts() -> ScfOptions {
        ScfOptions {
            n_conduction: 3,
            max_iter: 15,
            density_tol: 1e-4,
            mixing: 0.5,
            band_tol: 1e-6,
            band_max_iter: 30,
            seed: 7,
            ..Default::default()
        }
    }

    #[test]
    fn water_scf_mechanics() {
        // A 16³ grid cannot resolve oxygen's r_loc ≈ 0.25 Bohr, so we assert
        // the SCF *machinery* here (progress, normalization, orthonormality,
        // ordering); converged-accuracy checks run on finer grids in the
        // release-mode harness (paper Table 5 reproduction).
        let s = water_in_box(14.0);
        let grid = Grid::new(s.cell, [16, 16, 16]);
        let gs = scf(&grid, &s, quick_opts());
        assert!(gs.residual < 0.3, "density residual {}", gs.residual);
        assert_eq!(gs.n_valence, 4);
        // eigenvalues ascending
        for w in gs.eps.windows(2) {
            assert!(w[0] <= w[1] + 1e-9);
        }
        // orbitals grid-orthonormal
        // ΨᵀΨ is a symmetric Gram — packed rank-k engine with ΔV in alpha.
        let overlap = syrk_tn_scaled(grid.dv(), &gs.psi);
        assert!(overlap.max_abs_diff(&Mat::eye(gs.eps.len())) < 1e-5);
    }

    #[test]
    fn silicon_si8_scf_gap() {
        let s = silicon_supercell(1);
        let grid = Grid::for_cutoff(s.cell, 5.0);
        let mut opts = quick_opts();
        opts.n_conduction = 4;
        let gs = scf(&grid, &s, opts);
        assert_eq!(gs.n_valence, 16);
        assert_eq!(gs.eps.len(), 20);
        // eigenvalues ascending
        for w in gs.eps.windows(2) {
            assert!(w[0] <= w[1] + 1e-9);
        }
        // bulk silicon at Γ with a coarse grid still shows a positive gap
        assert!(gs.gap() > 0.0, "gap = {}", gs.gap());
        let ne: f64 = gs.density.iter().sum::<f64>() * grid.dv();
        assert!((ne - 32.0).abs() < 1e-5);
    }

    #[test]
    fn initial_density_normalized() {
        let s = silicon_supercell(1);
        let grid = Grid::new(s.cell, [12, 12, 12]);
        let n0 = initial_density(&grid, &s);
        let total: f64 = n0.iter().sum::<f64>() * grid.dv();
        assert!((total - 32.0).abs() < 1e-9);
        assert!(n0.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn anderson_mixing_converges_no_slower_than_linear() {
        let s = silicon_supercell(1);
        let grid = Grid::new(s.cell, [12, 12, 12]);
        let mut lin_opts = quick_opts();
        lin_opts.max_iter = 12;
        lin_opts.density_tol = 1e-4;
        lin_opts.band_max_iter = 20;
        let mut and_opts = lin_opts;
        and_opts.scheme = MixingScheme::Anderson;
        let lin = scf(&grid, &s, lin_opts);
        let and = scf(&grid, &s, and_opts);
        assert!(and.residual <= lin.residual * 2.0, "Anderson {} vs linear {}", and.residual, lin.residual);
        assert!(and.iterations <= lin.iterations + 2);
        // Partially-converged densities give noisy band energies, so no
        // per-band comparison here; the residual and iteration contracts
        // above are the meaningful ones at this iteration budget.
    }

    #[test]
    fn scf_deterministic_given_seed() {
        let s = water_in_box(12.0);
        let grid = Grid::new(s.cell, [12, 12, 12]);
        let mut opts = quick_opts();
        opts.max_iter = 5; // determinism needs few iterations to show
        let a = scf(&grid, &s, opts);
        let b = scf(&grid, &s, opts);
        assert_eq!(a.eps, b.eps);
    }
}
