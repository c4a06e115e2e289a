//! The Casida/TDA problem data: everything the five solver versions consume.

use faultkit::NumericalError;
use mathkit::Mat;
use parcomm::{block_ranges, Comm};
use pwdft::{Grid, GroundState};
use std::borrow::Cow;

/// Spin channel of the TDA kernel for closed-shell systems.
///
/// Singlet excitations couple through the full `f_H + f_xc`; in the triplet
/// channel the Hartree term cancels between spin components and only the
/// (spin-flip) `f_xc` survives — the standard closed-shell Casida reduction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KernelKind {
    #[default]
    Singlet,
    Triplet,
}

/// Inputs of an LR-TDDFT calculation (paper §3): ground-state valence and
/// conduction orbitals with their Kohn–Sham energies, the real-space grid,
/// and the `f_xc` kernel evaluated at the ground-state density.
pub struct CasidaProblem {
    /// Valence orbitals, `N_r × N_v`, grid-orthonormal (`∫ψ_iψ_j dr = δ`).
    pub psi_v: Mat,
    /// Conduction orbitals, `N_r × N_c`.
    pub psi_c: Mat,
    /// Valence Kohn–Sham energies (`N_v`).
    pub eps_v: Vec<f64>,
    /// Conduction Kohn–Sham energies (`N_c`).
    pub eps_c: Vec<f64>,
    /// `f_xc(r)` at the ground-state density (`N_r`).
    pub fxc: Vec<f64>,
    /// Real-space grid (provides the FFT plan, `ΔV`, and cell for `f_H`).
    pub grid: Grid,
    /// Spin channel of the coupling kernel.
    pub kernel_kind: KernelKind,
}

/// One rank's row block of the replicated orbitals (paper Fig. 3) — borrowed
/// when the slab is the whole grid, so one rank copies nothing.
pub(crate) struct Slab<'a> {
    pub(crate) rows: std::ops::Range<usize>,
    pub(crate) psi_v: Cow<'a, Mat>,
    pub(crate) psi_c: Cow<'a, Mat>,
}

impl CasidaProblem {
    /// The calling rank's [`Slab`] of the orbitals on `comm`.
    pub(crate) fn slab(&self, comm: &Comm) -> Slab<'_> {
        let rows = block_ranges(self.n_r(), comm.size())[comm.rank()].clone();
        let cut = |m| match rows.len() == self.n_r() {
            true => Cow::Borrowed(m),
            false => Cow::Owned(Mat::row_block(m, rows.start, rows.end)),
        };
        Slab { psi_v: cut(&self.psi_v), psi_c: cut(&self.psi_c), rows }
    }

    /// Assemble from a converged ground state.
    pub fn from_ground_state(grid: &Grid, gs: &GroundState) -> Self {
        CasidaProblem {
            psi_v: gs.psi_valence(),
            psi_c: gs.psi_conduction(),
            eps_v: gs.eps[..gs.n_valence].to_vec(),
            eps_c: gs.eps[gs.n_valence..gs.n_valence + gs.n_conduction].to_vec(),
            fxc: gs.fxc.clone(),
            grid: grid.clone(),
            kernel_kind: KernelKind::Singlet,
        }
    }

    /// Number of valence orbitals `N_v`.
    #[inline]
    pub fn n_v(&self) -> usize {
        self.psi_v.ncols()
    }

    /// Number of conduction orbitals `N_c`.
    #[inline]
    pub fn n_c(&self) -> usize {
        self.psi_c.ncols()
    }

    /// Pair count `N_cv = N_v · N_c` — the Casida Hamiltonian dimension.
    #[inline]
    pub fn n_cv(&self) -> usize {
        self.n_v() * self.n_c()
    }

    /// Grid points `N_r`.
    #[inline]
    pub fn n_r(&self) -> usize {
        self.grid.len()
    }

    /// Flatten a `(i_v, i_c)` pair to the Hamiltonian index (valence-major,
    /// matching [`isdf::face_splitting_product`]).
    #[inline]
    pub fn pair_index(&self, iv: usize, ic: usize) -> usize {
        iv * self.n_c() + ic
    }

    /// The diagonal `D(i_v i_c) = ε_{i_c} − ε_{i_v}` (paper Eq. 1).
    pub fn diag_d(&self) -> Vec<f64> {
        let mut d = Vec::with_capacity(self.n_cv());
        for &ev in &self.eps_v {
            for &ec in &self.eps_c {
                d.push(ec - ev);
            }
        }
        d
    }

    /// Sanity checks used by tests and debug builds.
    pub fn validate(&self) {
        assert_eq!(self.psi_v.nrows(), self.grid.len());
        assert_eq!(self.psi_c.nrows(), self.grid.len());
        assert_eq!(self.eps_v.len(), self.n_v());
        assert_eq!(self.eps_c.len(), self.n_c());
        assert_eq!(self.fxc.len(), self.grid.len());
        assert!(self.n_v() > 0 && self.n_c() > 0);
    }

    /// The input check both builds (dense and ISDF) run before any work:
    /// shapes agree — [`CasidaProblem::validate`], a caller bug, so a panic —
    /// and every orbital, energy and kernel value is finite, else a typed
    /// [`NumericalError::NonFinite`] naming the field. Every rank scans the
    /// whole replicated input, so a group fails together.
    pub fn check_inputs(&self) -> Result<(), NumericalError> {
        self.validate();
        let fields: [(&str, &[f64]); 5] = [
            ("problem.psi_v", self.psi_v.as_slice()),
            ("problem.psi_c", self.psi_c.as_slice()),
            ("problem.eps_v", &self.eps_v),
            ("problem.eps_c", &self.eps_c),
            ("problem.fxc", &self.fxc),
        ];
        fields.into_iter().try_for_each(|(site, values)| check_finite(site, values))
    }
}

/// [`NumericalError::NonFinite`] at `site` for the first non-finite entry of
/// `values`.
pub(crate) fn check_finite(site: &str, values: &[f64]) -> Result<(), NumericalError> {
    match values.iter().position(|v| !v.is_finite()) {
        Some(index) => Err(NumericalError::NonFinite { site: site.into(), index }),
        None => Ok(()),
    }
}

/// Build a synthetic problem with smooth, grid-orthonormalized orbitals and a
/// mildly attractive constant-plus-modulated `f_xc` — used by unit tests and
/// benches that don't want the SCF cost.
pub fn synthetic_problem(n_grid: [usize; 3], box_len: f64, n_v: usize, n_c: usize) -> CasidaProblem {
    use mathkit::ortho::modified_gram_schmidt;
    use pwdft::Cell;

    let grid = Grid::new(Cell::cubic(box_len), n_grid);
    let nr = grid.len();
    let nb = n_v + n_c;
    assert!(nb <= 27, "synthetic generator supports at most 27 independent bands");
    // Tensor products of phase-shifted fundamentals: each band lives in the
    // 27-dimensional space {1, cos τx, sin τx}⊗{…y}⊗{…z}; distinct per-band
    // phases make any ≤27 of them generically independent, and the lowest
    // spatial frequency avoids aliasing even on 4-point-per-axis test grids.
    let raw = Mat::from_fn(nr, nb, |r, b| {
        let c = grid.coords(r);
        let tau = std::f64::consts::TAU / box_len;
        let bf = b as f64;
        (1.0 + 0.6 * (tau * c[0] + 0.9 * bf + 0.2).cos())
            * (1.0 + 0.5 * (tau * c[1] + 1.7 * bf + 1.1).cos())
            * (1.0 + 0.4 * (tau * c[2] + 2.3 * bf + 0.5).cos())
    });
    let q = modified_gram_schmidt(&raw, 1e-10);
    assert_eq!(q.ncols(), nb, "synthetic bands must be independent");
    // Grid-orthonormal: scale by 1/√ΔV.
    let mut psi = q;
    psi.scale(1.0 / grid.dv().sqrt());

    let psi_v = psi.col_block(0, n_v);
    let psi_c = psi.col_block(n_v, nb);
    let eps_v: Vec<f64> = (0..n_v).map(|i| -0.5 + 0.02 * i as f64).collect();
    let eps_c: Vec<f64> = (0..n_c).map(|i| 0.1 + 0.03 * i as f64).collect();
    let fxc: Vec<f64> = (0..nr)
        .map(|r| {
            let c = grid.coords(r);
            -0.3 - 0.05 * (std::f64::consts::TAU * c[0] / box_len).cos()
        })
        .collect();
    CasidaProblem { psi_v, psi_c, eps_v, eps_c, fxc, grid, kernel_kind: KernelKind::Singlet }
}

/// Build a silicon-supercell-shaped workload *without* running SCF: one
/// localized pseudo-orbital per valence state (Gaussians at atom sites with
/// per-orbital modulations), broader modulated Gaussians for conduction
/// states, all grid-orthonormalized.
///
/// This is the benchmark stand-in for the paper's Si₆₄…Si₄₀₉₆ ladder: it has
/// the *dimensions* (`N_r`, `N_v = 2·atoms`, `N_c`) and the *locality*
/// (ISDF-compressible pair products, atom-centered K-Means weights) of real
/// Kohn–Sham orbitals at a tiny fraction of the setup cost. Accuracy
/// experiments (paper Table 5) use real SCF orbitals instead.
pub fn silicon_like_problem(n_cells: usize, grid_n: usize, n_c: usize) -> CasidaProblem {
    use mathkit::ortho::modified_gram_schmidt;
    use pwdft::{silicon_supercell, xc::fxc_lda};

    let structure = silicon_supercell(n_cells);
    let grid = Grid::new(structure.cell, [grid_n, grid_n, grid_n]);
    let nr = grid.len();
    let n_v = structure.n_valence();
    let nb = n_v + n_c;
    assert!(nb < nr, "need more grid points than bands");

    let atoms = &structure.atoms;
    let coords: Vec<[f64; 3]> = (0..nr).map(|i| grid.coords(i)).collect();
    let raw = Mat::from_fn(nr, nb, |r, b| {
        let c = coords[r];
        if b < n_v {
            // Valence: tight Gaussian on atom b % n_atoms, modulated so two
            // orbitals on the same atom stay independent.
            let a = &atoms[b % atoms.len()];
            let d = grid.cell.min_image(a.pos, c);
            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
            let phase = 0.7 * b as f64;
            (-0.35 * r2).exp()
                * (1.0 + 0.4 * (0.9 * d[0] + 1.3 * d[1] + 0.5 * d[2] + phase).cos())
        } else {
            // Conduction: broader Gaussian with higher-frequency modulation.
            let bc = b - n_v;
            let a = &atoms[(bc * 3 + 1) % atoms.len()];
            let d = grid.cell.min_image(a.pos, c);
            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
            let phase = 1.1 * bc as f64 + 0.3;
            (-0.12 * r2).exp()
                * ((1.7 * d[0] + phase).cos() + 0.6 * (2.3 * d[1] - phase).sin())
        }
    });
    let q = modified_gram_schmidt(&raw, 1e-9);
    assert_eq!(q.ncols(), nb, "silicon-like bands must be independent");
    let mut psi = q;
    psi.scale(1.0 / grid.dv().sqrt());

    let psi_v = psi.col_block(0, n_v);
    let psi_c = psi.col_block(n_v, nb);
    let eps_v: Vec<f64> = (0..n_v).map(|i| -0.35 + 0.2 * i as f64 / n_v.max(1) as f64).collect();
    let eps_c: Vec<f64> = (0..n_c).map(|i| 0.08 + 0.3 * i as f64 / n_c.max(1) as f64).collect();

    // Plausible density → LDA kernel: superposed atomic Gaussians.
    let fxc: Vec<f64> = (0..nr)
        .map(|r| {
            let mut n = 1e-3;
            for a in atoms {
                let d = grid.cell.min_image(a.pos, coords[r]);
                let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                n += 0.8 * (-0.5 * r2).exp();
            }
            fxc_lda(n)
        })
        .collect();

    CasidaProblem { psi_v, psi_c, eps_v, eps_c, fxc, grid, kernel_kind: KernelKind::Singlet }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathkit::gemm_tn;

    #[test]
    fn synthetic_problem_is_valid_and_orthonormal() {
        let p = synthetic_problem([8, 8, 8], 6.0, 3, 2);
        p.validate();
        assert_eq!(p.n_cv(), 6);
        let all = {
            let mut m = Mat::zeros(p.n_r(), 5);
            for j in 0..3 {
                m.col_mut(j).copy_from_slice(p.psi_v.col(j));
            }
            for j in 0..2 {
                m.col_mut(3 + j).copy_from_slice(p.psi_c.col(j));
            }
            m
        };
        let mut overlap = gemm_tn(&all, &all);
        overlap.scale(p.grid.dv());
        assert!(overlap.max_abs_diff(&Mat::eye(5)) < 1e-10);
    }

    #[test]
    fn diag_d_ordering_is_valence_major() {
        let p = synthetic_problem([4, 4, 4], 5.0, 2, 3);
        let d = p.diag_d();
        assert_eq!(d.len(), 6);
        // pair (iv=1, ic=2) at index 1*3+2 = 5
        assert_eq!(p.pair_index(1, 2), 5);
        assert!((d[5] - (p.eps_c[2] - p.eps_v[1])).abs() < 1e-15);
        // all excitations positive for a gapped spectrum
        assert!(d.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn silicon_like_dimensions_and_orthonormality() {
        let p = silicon_like_problem(1, 12, 4);
        p.validate();
        assert_eq!(p.n_v(), 16);
        assert_eq!(p.n_c(), 4);
        assert_eq!(p.n_r(), 12 * 12 * 12);
        let mut overlap = gemm_tn(&p.psi_v, &p.psi_v);
        overlap.scale(p.grid.dv());
        assert!(overlap.max_abs_diff(&Mat::eye(16)) < 1e-8);
        // localized valence orbitals → localized (prunable) weights
        let w = isdf::pair_weights(&p.psi_v, &p.psi_c);
        let wmax = w.iter().cloned().fold(0.0f64, f64::max);
        let heavy = w.iter().filter(|&&x| x > 1e-6 * wmax).count();
        assert!(heavy < p.n_r(), "weights should have prunable tails");
        // attractive LDA kernel everywhere
        assert!(p.fxc.iter().all(|&f| f < 0.0));
    }

    #[test]
    fn from_ground_state_wires_dimensions() {
        use pwdft::{scf, silicon_supercell, ScfOptions};
        let s = silicon_supercell(1);
        let grid = Grid::new(s.cell, [8, 8, 8]);
        let gs = scf(
            &grid,
            &s,
            ScfOptions { n_conduction: 2, max_iter: 3, band_max_iter: 10, ..Default::default() },
        );
        let p = CasidaProblem::from_ground_state(&grid, &gs);
        p.validate();
        assert_eq!(p.n_v(), 16);
        assert_eq!(p.n_c(), 2);
        assert_eq!(p.n_r(), 512);
    }
}
