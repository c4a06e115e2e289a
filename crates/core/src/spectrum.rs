//! Transition dipoles, oscillator strengths and absorption spectra.
//!
//! Downstream users of an LR-TDDFT code almost always want the optical
//! absorption spectrum, not just eigenvalues: the oscillator strength
//!
//! ```text
//! f_n = (2/3) ω_n Σ_α |Σ_{vc} X_n(vc) √2 ⟨ψ_v| r_α |ψ_c⟩|²
//! ```
//!
//! with the TDA excitation vectors `X_n`. Position matrix elements use the
//! supercell (sawtooth) position operator — standard practice for
//! finite/molecular systems in a box; for metallic periodic systems a
//! velocity-gauge treatment would be needed (out of scope here, as in the
//! paper).

use crate::problem::CasidaProblem;
use faultkit::NumericalError;
use mathkit::Mat;

/// Dipole matrix elements `μ(vc, α) = ∫ ψ_v(r) r_α ψ_c(r) dr`
/// (`N_cv × 3`, pair index valence-major).
pub fn transition_dipoles(problem: &CasidaProblem) -> Mat {
    let nr = problem.n_r();
    let (n_v, n_c) = (problem.n_v(), problem.n_c());
    let dv = problem.grid.dv();
    let mut mu = Mat::zeros(n_v * n_c, 3);
    // Precompute coordinates once.
    let coords: Vec<[f64; 3]> = (0..nr).map(|i| problem.grid.coords(i)).collect();
    for iv in 0..n_v {
        let v = problem.psi_v.col(iv);
        for ic in 0..n_c {
            let c = problem.psi_c.col(ic);
            let mut acc = [0.0f64; 3];
            for r in 0..nr {
                let p = v[r] * c[r];
                acc[0] += p * coords[r][0];
                acc[1] += p * coords[r][1];
                acc[2] += p * coords[r][2];
            }
            let row = iv * n_c + ic;
            for a in 0..3 {
                mu[(row, a)] = acc[a] * dv;
            }
        }
    }
    mu
}

/// Oscillator strengths of the excitations in `(energies, coefficients)`
/// (as returned by [`crate::Solver::solve`]); `coefficients` is `N_cv × k`.
/// Dimension bookkeeping errors surface as
/// [`NumericalError::ShapeMismatch`], so post-processing pipelines fed by an
/// external solver can reject a bad solution and continue.
pub fn oscillator_strengths(
    problem: &CasidaProblem,
    energies: &[f64],
    coefficients: &Mat,
) -> Result<Vec<f64>, NumericalError> {
    let expected = (problem.n_cv(), energies.len());
    let got = coefficients.shape();
    if got != expected {
        return Err(NumericalError::ShapeMismatch { stage: "spectrum.strengths", expected, got });
    }
    let mu = transition_dipoles(problem);
    let sqrt2 = std::f64::consts::SQRT_2; // closed-shell singlet normalization
    Ok(energies
        .iter()
        .enumerate()
        .map(|(n, &omega)| {
            let x = coefficients.col(n);
            let mut d2 = 0.0;
            for a in 0..3 {
                let mut d = 0.0;
                for (vc, &xv) in x.iter().enumerate() {
                    d += xv * mu[(vc, a)];
                }
                d2 += (sqrt2 * d).powi(2);
            }
            (2.0 / 3.0) * omega * d2
        })
        .collect())
}

/// Gaussian-broadened absorption spectrum `σ(ω) = Σ_n f_n g(ω − ω_n)`,
/// returned as `(ω, σ)` pairs. Mismatched energy/strength lengths surface as
/// [`NumericalError::ShapeMismatch`]. Grid-parameter misuse (`sigma <= 0`,
/// fewer than two points, inverted window) is still a plain panic — those
/// are caller bugs, not data-dependent failures.
pub fn absorption_spectrum(
    energies: &[f64],
    strengths: &[f64],
    sigma: f64,
    omega_min: f64,
    omega_max: f64,
    npts: usize,
) -> Result<Vec<(f64, f64)>, NumericalError> {
    if energies.len() != strengths.len() {
        return Err(NumericalError::ShapeMismatch {
            stage: "spectrum.broaden",
            expected: (energies.len(), 1),
            got: (strengths.len(), 1),
        });
    }
    assert!(sigma > 0.0 && npts >= 2 && omega_max > omega_min);
    let norm = 1.0 / (sigma * (2.0 * std::f64::consts::PI).sqrt());
    Ok((0..npts)
        .map(|i| {
            let w = omega_min + (omega_max - omega_min) * i as f64 / (npts - 1) as f64;
            let mut s = 0.0;
            for (e, f) in energies.iter().zip(strengths.iter()) {
                let x = (w - e) / sigma;
                s += f * norm * (-0.5 * x * x).exp();
            }
            (w, s)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::synthetic_problem;
    use crate::{Solver, Version};

    #[test]
    fn dipoles_have_expected_shape_and_are_finite() {
        let p = synthetic_problem([8, 8, 8], 6.0, 2, 3);
        let mu = transition_dipoles(&p);
        assert_eq!(mu.shape(), (6, 3));
        assert!(mu.as_slice().iter().all(|x| x.is_finite()));
        // orbital pairs on a box of side 6 → dipoles bounded by the box size
        assert!(mu.norm_max() < 6.0);
    }

    #[test]
    fn oscillator_strengths_nonnegative_for_positive_excitations() {
        let p = synthetic_problem([8, 8, 8], 6.0, 2, 2);
        let sol =
            Solver::builder().version(Version::Naive).n_states(4).build().solve(&p).unwrap();
        let f = oscillator_strengths(&p, &sol.energies, &sol.coefficients).unwrap();
        assert_eq!(f.len(), 4);
        for (i, fi) in f.iter().enumerate() {
            assert!(*fi >= 0.0, "f_{i} = {fi}");
        }
    }

    #[test]
    fn strengths_scale_linearly_with_energy() {
        // Same coefficient vector at two claimed energies: f ∝ ω.
        let p = synthetic_problem([8, 8, 8], 6.0, 1, 2);
        let mut x = Mat::zeros(2, 1);
        x[(0, 0)] = 1.0;
        let f1 = oscillator_strengths(&p, &[0.5], &x).unwrap();
        let f2 = oscillator_strengths(&p, &[1.0], &x).unwrap();
        assert!((f2[0] - 2.0 * f1[0]).abs() < 1e-12);
    }

    #[test]
    fn spectrum_integrates_to_total_strength() {
        let energies = [0.3, 0.6];
        let strengths = [0.8, 0.4];
        let spec = absorption_spectrum(&energies, &strengths, 0.02, 0.0, 1.0, 2001).unwrap();
        let dw = 1.0 / 2000.0;
        let integral: f64 = spec.iter().map(|(_, s)| s * dw).sum();
        assert!((integral - 1.2).abs() < 1e-3, "integral {integral}");
    }

    #[test]
    fn dark_state_contributes_nothing() {
        // A coefficient vector orthogonal to every dipole column is dark.
        let p = synthetic_problem([8, 8, 8], 6.0, 2, 2);
        let mu = transition_dipoles(&p);
        // Orthonormalize the dipole columns, then project x out of their span
        // (sequential projection against the *raw* columns would leave
        // residual components because they are not mutually orthogonal).
        let q = mathkit::ortho::modified_gram_schmidt(&mu, 1e-12);
        let mut x = vec![0.5, -0.3, 0.7, 0.1];
        for a in 0..q.ncols() {
            let col = q.col(a);
            let dot: f64 = x.iter().zip(col.iter()).map(|(a, b)| a * b).sum();
            for (xi, ci) in x.iter_mut().zip(col.iter()) {
                *xi -= dot * ci;
            }
        }
        let xm = Mat::from_vec(4, 1, x);
        let f = oscillator_strengths(&p, &[0.4], &xm).unwrap();
        assert!(f[0].abs() < 1e-20, "dark state has f = {}", f[0]);
    }

    #[test]
    fn shape_mismatch_is_typed_not_a_panic() {
        let p = synthetic_problem([8, 8, 8], 6.0, 2, 2);
        // 4 pair rows expected; hand a 3-row coefficient block instead.
        let bad = Mat::zeros(3, 1);
        let err = oscillator_strengths(&p, &[0.4], &bad).expect_err("shape mismatch");
        assert!(err.to_string().contains("shape mismatch"), "{err}");

        let err = absorption_spectrum(&[0.1, 0.2], &[1.0], 0.02, 0.0, 1.0, 10)
            .expect_err("length mismatch");
        assert!(matches!(err, NumericalError::ShapeMismatch { stage: "spectrum.broaden", .. }));
    }
}
