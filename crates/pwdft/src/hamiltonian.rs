//! The Kohn–Sham Hamiltonian `H = −½∇² + V_eff(r)` applied via FFT.
//!
//! Kinetic energy is diagonal in reciprocal space (`½|G|²`), the effective
//! potential diagonal in real space — the same dual-space structure the
//! LR-TDDFT kernel application reuses (paper §5.2: "apply the Hartree
//! operator, which is diagonal in reciprocal space, and then apply the
//! exchange-correlation operator, which is diagonal in real space").

use crate::cell::Grid;
use mathkit::Mat;

/// Kohn–Sham operator bound to a grid and an effective potential.
pub struct KsHamiltonian<'g> {
    grid: &'g Grid,
    /// Local effective potential `V_ion + V_H + V_xc` on the grid.
    pub v_eff: Vec<f64>,
    /// Kinetic coefficients `½|G|²` (even in G → −G, so the two-for-one
    /// real-transform path applies).
    half_g2: Vec<f64>,
    /// Preconditioner coefficients `1/(1 + |G|²)`.
    precond_g: Vec<f64>,
}

impl<'g> KsHamiltonian<'g> {
    pub fn new(grid: &'g Grid, v_eff: Vec<f64>) -> Self {
        assert_eq!(v_eff.len(), grid.len());
        let half_g2 = grid.g2().iter().map(|&g| 0.5 * g).collect();
        let precond_g = grid.g2().iter().map(|&g| 1.0 / (1.0 + g)).collect();
        KsHamiltonian { grid, v_eff, half_g2, precond_g }
    }

    /// Apply `H` to a block of wavefunction columns (`N_r × N_b`).
    pub fn apply(&self, psi: &Mat) -> Mat {
        let mut out = Mat::zeros(psi.nrows(), psi.ncols());
        self.apply_into(psi, &mut out);
        out
    }

    /// [`KsHamiltonian::apply`] writing into a caller-owned `out`.
    ///
    /// The kinetic term `−½∇²` is a diagonal reciprocal-space kernel on real
    /// wavefunction columns, so it runs through the FFT engine's two-for-one
    /// batch path: pairs of columns share one complex transform each way,
    /// halving the 3-D FFT count of every Hamiltonian application.
    pub fn apply_into(&self, psi: &Mat, out: &mut Mat) {
        let nr = self.grid.len();
        assert_eq!(psi.nrows(), nr);
        assert_eq!(out.shape(), psi.shape(), "apply_into shape mismatch");
        let plan = self.grid.plan();
        plan.apply_real_diagonal_batch(&self.half_g2, psi.as_slice(), out.as_mut_slice(), false);
        let v = &self.v_eff;
        out.par_for_each_col(|j, out_col| {
            // `out += V_eff ∘ ψ`: elementwise multiply-add through the
            // dispatched SIMD kernel (bitwise identical to the scalar loop).
            mathkit::simd::pointwise_muladd(out_col, v.as_slice(), psi.col(j));
        });
    }

    /// Diagonal kinetic preconditioner in reciprocal space:
    /// `w(G) = r(G) / (1 + |G|²)` — damps high-frequency error components.
    /// Also a real, even diagonal kernel → two-for-one batch path.
    pub fn precondition(&self, r: &Mat) -> Mat {
        let mut out = Mat::zeros(r.nrows(), r.ncols());
        self.grid.plan().apply_real_diagonal_batch(
            &self.precond_g,
            r.as_slice(),
            out.as_mut_slice(),
            false,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;
    use mathkit::gemm_tn;

    #[test]
    fn free_particle_plane_wave_eigenstate() {
        // With V = 0, ψ(r) = cos(G₁ x) is an eigenstate with ε = ½|G₁|².
        let l = 8.0;
        let grid = Grid::new(Cell::cubic(l), [8, 8, 8]);
        let h = KsHamiltonian::new(&grid, vec![0.0; grid.len()]);
        let g1 = 2.0 * std::f64::consts::PI / l;
        let mut psi = Mat::zeros(grid.len(), 1);
        for i in 0..grid.len() {
            let r = grid.coords(i);
            psi[(i, 0)] = (g1 * r[0]).cos();
        }
        let hpsi = h.apply(&psi);
        let expect = 0.5 * g1 * g1;
        for i in 0..grid.len() {
            assert!(
                (hpsi[(i, 0)] - expect * psi[(i, 0)]).abs() < 1e-10,
                "not an eigenstate at {i}"
            );
        }
    }

    #[test]
    fn constant_potential_shifts_spectrum() {
        let grid = Grid::new(Cell::cubic(6.0), [8, 8, 8]);
        let h0 = KsHamiltonian::new(&grid, vec![0.0; grid.len()]);
        let h1 = KsHamiltonian::new(&grid, vec![0.3; grid.len()]);
        let mut psi = Mat::zeros(grid.len(), 1);
        for i in 0..grid.len() {
            psi[(i, 0)] = ((i % 7) as f64 - 3.0) * 0.1;
        }
        let a = h0.apply(&psi);
        let b = h1.apply(&psi);
        for i in 0..grid.len() {
            assert!((b[(i, 0)] - a[(i, 0)] - 0.3 * psi[(i, 0)]).abs() < 1e-11);
        }
    }

    #[test]
    fn hamiltonian_is_symmetric() {
        // ⟨φ|Hψ⟩ = ⟨Hφ|ψ⟩ for random fields and potential.
        let grid = Grid::new(Cell::cubic(5.0), [4, 4, 4]);
        let v: Vec<f64> = (0..grid.len()).map(|i| ((i * 13 % 7) as f64) * 0.1 - 0.3).collect();
        let h = KsHamiltonian::new(&grid, v);
        let mut rng = rand::thread_rng();
        let block = Mat::random(grid.len(), 3, &mut rng);
        let hb = h.apply(&block);
        let m1 = gemm_tn(&block, &hb);
        let m2 = m1.transpose();
        assert!(m1.max_abs_diff(&m2) < 1e-9);
    }

    #[test]
    fn preconditioner_damps_high_frequencies() {
        let l = 2.0 * std::f64::consts::PI;
        let grid = Grid::new(Cell::cubic(l), [16, 16, 16]);
        let h = KsHamiltonian::new(&grid, vec![0.0; grid.len()]);
        // low-frequency and high-frequency inputs
        let mut low = Mat::zeros(grid.len(), 1);
        let mut high = Mat::zeros(grid.len(), 1);
        for i in 0..grid.len() {
            let r = grid.coords(i);
            low[(i, 0)] = (1.0 * r[0]).cos();
            high[(i, 0)] = (7.0 * r[0]).cos();
        }
        let pl = h.precondition(&low);
        let ph = h.precondition(&high);
        let gain_low = pl.norm_fro() / low.norm_fro();
        let gain_high = ph.norm_fro() / high.norm_fro();
        assert!(gain_low > 0.4);
        assert!(gain_high < 0.05, "high-G gain {gain_high}");
    }
}
