//! The Hartree-exchange-correlation kernel `f_Hxc = f_H + f_xc` (paper Eq. 4)
//! applied to batches of real-space fields.
//!
//! `f_H = 1/|r−r'|` is diagonal in reciprocal space (`4π/|G|²`, applied via
//! FFT), `f_xc[n](r)` diagonal in real space — exactly the dual-space split
//! of Algorithm 1 lines 4–5.

use fftkit::PoissonSolver;
use mathkit::{Mat, Transpose};
use pwdft::Grid;

/// Grid-bound applier of `f_Hxc`.
pub struct HxcKernel {
    poisson: PoissonSolver,
    fxc: Vec<f64>,
    /// Include the Hartree term (disabled for `f_xc`-only ablations).
    pub with_hartree: bool,
}

impl HxcKernel {
    pub fn new(grid: &Grid, fxc: Vec<f64>) -> Self {
        assert_eq!(fxc.len(), grid.len());
        let poisson = PoissonSolver::new(grid.plan(), grid.cell.lengths);
        HxcKernel { poisson, fxc, with_hartree: true }
    }

    /// Kernel matching a problem's spin channel: the triplet channel drops
    /// the Hartree term (see [`crate::problem::KernelKind`]).
    pub fn for_problem(problem: &crate::problem::CasidaProblem) -> Self {
        let mut k = HxcKernel::new(&problem.grid, problem.fxc.clone());
        k.with_hartree = problem.kernel_kind == crate::problem::KernelKind::Singlet;
        k
    }

    /// Apply `f_Hxc` to every column of `fields` (`N_r × k`):
    /// `out[:, j] = f_H * fields[:, j] + f_xc ∘ fields[:, j]`.
    pub fn apply(&self, fields: &Mat) -> Mat {
        let mut out = Mat::zeros(fields.nrows(), fields.ncols());
        self.apply_into(fields, &mut out);
        out
    }

    /// [`HxcKernel::apply`] writing into a caller-owned `out` (`N_r × k`).
    ///
    /// The `f_xc` term is pointwise per column; the Hartree term goes through
    /// the fused batched solver [`PoissonSolver::hartree_many`], which packs
    /// pairs of real columns into single complex grids (two-for-one real
    /// transforms) — two 3-D FFTs per column pair instead of four, with the
    /// FFT engine's per-worker tile scratch replacing per-column temporaries.
    pub fn apply_into(&self, fields: &Mat, out: &mut Mat) {
        let nr = fields.nrows();
        assert_eq!(nr, self.fxc.len());
        assert_eq!(out.shape(), fields.shape(), "apply_into shape mismatch");
        out.par_for_each_col(|j, out_col| {
            // `out = f_xc ∘ x`: elementwise product through the dispatched
            // SIMD kernel (bitwise identical to the scalar loop).
            mathkit::simd::pointwise_mul(out_col, self.fxc.as_slice(), fields.col(j));
        });
        if self.with_hartree {
            self.poisson.hartree_many(fields.as_slice(), out.as_mut_slice(), true);
        }
    }

    /// Matrix elements `M = ΔV · Aᵀ (f_Hxc B)` for field batches `A`, `B` —
    /// the discrete double integral `∫∫ a(r) f_Hxc(r,r') b(r') dr dr'`
    /// (one `ΔV` lives in the Fourier-space convolution, the other here).
    pub fn matrix_elements(&self, a: &Mat, b: &Mat, dv: f64) -> Mat {
        let fb = self.apply(b);
        let mut m = Mat::zeros(a.ncols(), fb.ncols());
        // ΔV folds into the contraction's alpha — no separate scale pass.
        mathkit::gemm(dv, a, Transpose::Yes, &fb, Transpose::No, 0.0, &mut m);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::synthetic_problem;
    use pwdft::Cell;

    #[test]
    fn fxc_only_is_pointwise_multiplication() {
        let grid = Grid::new(Cell::cubic(5.0), [4, 4, 4]);
        let fxc: Vec<f64> = (0..grid.len()).map(|i| -0.1 - 0.001 * i as f64).collect();
        let mut k = HxcKernel::new(&grid, fxc.clone());
        k.with_hartree = false;
        let f = Mat::from_fn(grid.len(), 2, |r, j| ((r + j) % 5) as f64 - 2.0);
        let out = k.apply(&f);
        for j in 0..2 {
            for r in 0..grid.len() {
                assert!((out[(r, j)] - fxc[r] * f[(r, j)]).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn kernel_is_symmetric_operator() {
        // ⟨a|f_Hxc b⟩ = ⟨f_Hxc a|b⟩ — V_Hxc must come out symmetric.
        let p = synthetic_problem([8, 8, 8], 7.0, 2, 2);
        let k = HxcKernel::new(&p.grid, p.fxc.clone());
        let a = Mat::from_fn(p.n_r(), 3, |r, j| ((r * (j + 2)) % 11) as f64 * 0.1 - 0.5);
        let m = k.matrix_elements(&a, &a, p.grid.dv());
        assert!(m.max_abs_diff(&m.transpose()) < 1e-9);
    }

    #[test]
    fn hartree_part_matches_poisson_solver() {
        let grid = Grid::new(Cell::cubic(6.0), [8, 8, 8]);
        let zero_fxc = vec![0.0; grid.len()];
        let k = HxcKernel::new(&grid, zero_fxc);
        let rho = Mat::from_fn(grid.len(), 1, |r, _| {
            let c = grid.coords(r);
            (std::f64::consts::TAU * c[0] / 6.0).cos()
        });
        let out = k.apply(&rho);
        let vh = fftkit::solve_poisson(grid.plan(), grid.cell.lengths, rho.col(0));
        for r in 0..grid.len() {
            assert!((out[(r, 0)] - vh[r]).abs() < 1e-10);
        }
    }

    #[test]
    fn matrix_elements_scale_with_dv() {
        let p = synthetic_problem([4, 4, 4], 5.0, 2, 1);
        let k = HxcKernel::new(&p.grid, p.fxc.clone());
        let a = Mat::from_fn(p.n_r(), 2, |r, j| ((r + 3 * j) % 7) as f64 * 0.2);
        let m1 = k.matrix_elements(&a, &a, 1.0);
        let m2 = k.matrix_elements(&a, &a, 2.0);
        for idx in 0..4 {
            let (i, j) = (idx / 2, idx % 2);
            assert!((m2[(i, j)] - 2.0 * m1[(i, j)]).abs() < 1e-12);
        }
    }

    #[test]
    fn hartree_interaction_positive_definite() {
        // ⟨ρ|f_H ρ⟩ > 0 for any non-uniform density.
        let grid = Grid::new(Cell::cubic(5.0), [8, 8, 8]);
        let k = HxcKernel::new(&grid, vec![0.0; grid.len()]);
        let rho = Mat::from_fn(grid.len(), 1, |r, _| {
            let c = grid.coords(r);
            (-((c[0] - 2.5).powi(2) + (c[1] - 2.5).powi(2) + (c[2] - 2.5).powi(2))).exp()
        });
        let m = k.matrix_elements(&rho, &rho, grid.dv());
        assert!(m[(0, 0)] > 0.0);
    }
}
