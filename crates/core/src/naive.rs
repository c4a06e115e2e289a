//! The naïve explicit LR-TDDFT path (paper Algorithm 1):
//! face-splitting product → `f_Hxc` application → `V_Hxc` GEMM → dense
//! eigensolve of the lowest `k` ([`mathkit::lowest`])
//! ([`crate::Version::Naive`]).
//!
//! Complexity `O(N_v²N_c²N_r)` construction + `O(N_v³N_c³)` diagonalization
//! (paper Table 2) — the baseline all speedups are measured against.

use crate::parallel::distributed_dense_hamiltonian;
use crate::problem::CasidaProblem;
use faultkit::SolveError;
use mathkit::Mat;
use parcomm::Comm;

/// Build the dense TDA Hamiltonian `H = D + 2 V_Hxc` (`N_cv × N_cv`): the
/// one dense build ([`distributed_dense_hamiltonian`]) on a solo
/// communicator on this thread.
pub fn build_dense_hamiltonian(problem: &CasidaProblem) -> Result<Mat, SolveError> {
    distributed_dense_hamiltonian(&Comm::solo(), problem).map(|(h, _)| h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::HxcKernel;
    use crate::problem::synthetic_problem;
    use crate::{Solver, Version};

    /// Row 1 through the front door: `(energies, coefficients N_cv × k)`.
    fn solve_naive(problem: &CasidaProblem, k: usize) -> (Vec<f64>, Mat) {
        let s = Solver::builder().version(Version::Naive).n_states(k).solve(problem).unwrap();
        (s.energies, s.coefficients)
    }

    #[test]
    fn hamiltonian_is_symmetric_with_positive_diagonal_shift() {
        let p = synthetic_problem([8, 8, 8], 6.0, 2, 2);
        let clock = obskit::StageClock::now();
        let h = build_dense_hamiltonian(&p).unwrap();
        let t = crate::StageTimings::since(clock);
        assert_eq!(h.shape(), (4, 4));
        assert!(h.max_abs_diff(&h.transpose()) < 1e-12);
        assert!(t.face_split > 0.0 && t.fft > 0.0 && t.gemm > 0.0);
    }

    #[test]
    fn two_level_system_analytic() {
        // N_v = N_c = 1: H is 1×1 with H = Δε + 2⟨ρ|f_Hxc|ρ⟩, ρ = ψ_v ψ_c.
        let p = synthetic_problem([8, 8, 8], 6.0, 1, 1);
        let (vals, vecs) = solve_naive(&p, 1);
        let dv = p.grid.dv();
        let rho = p.psi_v.hadamard(&p.psi_c);
        let kern = HxcKernel::new(&p.grid, p.fxc.clone());
        let coupling = kern.matrix_elements(&rho, &rho, dv)[(0, 0)];
        let expect = (p.eps_c[0] - p.eps_v[0]) + 2.0 * coupling;
        assert!((vals[0] - expect).abs() < 1e-10, "{} vs {expect}", vals[0]);
        assert!((vecs[(0, 0)].abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn energies_ascending_and_k_truncation() {
        let p = synthetic_problem([8, 8, 8], 7.0, 3, 2);
        let (vals, vecs) = solve_naive(&p, 4);
        assert_eq!(vals.len(), 4);
        assert_eq!(vecs.shape(), (6, 4));
        for w in vals.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn kernel_coupling_shifts_bare_transitions() {
        // With f_Hxc ≠ 0 the excitations differ from the bare ε differences.
        let p = synthetic_problem([8, 8, 8], 6.0, 2, 2);
        let (vals, _) = solve_naive(&p, 4);
        let d = p.diag_d();
        let mut bare = d.clone();
        bare.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let diff: f64 = vals.iter().zip(bare.iter()).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-6, "kernel had no effect");
    }

    #[test]
    fn k_larger_than_ncv_is_clamped() {
        let p = synthetic_problem([4, 4, 4], 5.0, 1, 2);
        let (vals, _) = solve_naive(&p, 100);
        assert_eq!(vals.len(), 2);
    }
}
