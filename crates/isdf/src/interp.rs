//! Interpolation vectors via the Galerkin least-squares fit (paper Eq. 10):
//!
//! ```text
//! Θ = Z Cᵀ (C Cᵀ)⁻¹
//! ```
//!
//! `Z` is never materialized. Because `Z` is a face-splitting product and `C`
//! is the face-splitting product of the *sampled* orbitals, both factors are
//! Hadamard products of small Gram matrices (the standard ISDF trick, Hu–
//! Lin–Yang 2017):
//!
//! ```text
//! (Z Cᵀ)  = (Ψ Ψ̂ᵀ) ∘ (Φ Φ̂ᵀ)        N_r × N_μ
//! (C Cᵀ)  = (Ψ̂ Ψ̂ᵀ) ∘ (Φ̂ Φ̂ᵀ)        N_μ × N_μ
//! ```
//!
//! which turns an `O(N_r · (N_vN_c) · N_μ)` contraction into two
//! `O(N_r · N_e · N_μ)` GEMMs — part of why ISDF construction reaches the
//! `O(N_r N_μ²)`-class costs in the paper's Table 4. [`fit`] then solves the
//! system from the right, in `ZCᵀ`'s own storage: no transpose of either
//! `N_r × N_μ` matrix is ever formed.

use faultkit::NumericalError;
use mathkit::chol::{cholesky, solve_right_in_place};
use mathkit::gemm::{gemm, syrk_nt, Transpose};
use mathkit::Mat;

/// The two Hadamard-factored Gram matrices of the Galerkin system.
pub struct GramPair {
    /// `Z Cᵀ` (`N_r × N_μ`).
    pub zc_t: Mat,
    /// `C Cᵀ` (`N_μ × N_μ`), symmetric positive semi-definite.
    pub cc_t: Mat,
}

/// Assemble `ZCᵀ` and `CCᵀ` from orbitals and their sampled rows. Each
/// second Gram factor is multiplied into the first in place.
pub fn gram_pair(psi: &Mat, phi: &Mat, psi_hat: &Mat, phi_hat: &Mat) -> GramPair {
    let n_mu = psi_hat.nrows();
    assert_eq!(phi_hat.nrows(), n_mu);
    // Ψ Ψ̂ᵀ : (N_r × m)·(m × N_μ)
    let mut zc_t = Mat::zeros(psi.nrows(), n_mu);
    gemm(1.0, psi, Transpose::No, psi_hat, Transpose::Yes, 0.0, &mut zc_t);
    let mut p2 = Mat::zeros(phi.nrows(), n_mu);
    gemm(1.0, phi, Transpose::No, phi_hat, Transpose::Yes, 0.0, &mut p2);
    zc_t.hadamard_assign(&p2);

    // Ψ̂ Ψ̂ᵀ and Φ̂ Φ̂ᵀ are symmetric Grams — use the packed rank-k engine,
    // which computes only the lower triangle and mirrors it.
    let mut cc_t = syrk_nt(psi_hat);
    cc_t.hadamard_assign(&syrk_nt(phi_hat));

    GramPair { zc_t, cc_t }
}

/// Solve `Θ (CCᵀ + floor·I) = ZCᵀ` for `Θ` (`N_r × N_μ`) in `pair.zc_t`'s own
/// storage: with [`floored_cholesky`]'s `LLᵀ = CCᵀ + floor·I`,
/// `Θ = ZCᵀ·L⁻ᵀ·L⁻¹` is two right-side triangular solves in which every grid
/// row is one right-hand side, so any row slab gets the same rows. A
/// non-finite `ZCᵀ` entry (a poisoned unsampled orbital row) surfaces as
/// [`NumericalError::NonFinite`] at `isdf.zc_t`.
pub fn fit(pair: GramPair) -> Result<Mat, NumericalError> {
    let GramPair { zc_t: mut theta, cc_t } = pair;
    let l = floored_cholesky(cc_t)?;
    if let Some(bad) = theta.as_slice().iter().position(|v| !v.is_finite()) {
        return Err(NumericalError::NonFinite { site: "isdf.zc_t".into(), index: bad });
    }
    solve_right_in_place(&mut theta, &l, Transpose::Yes);
    solve_right_in_place(&mut theta, &l, Transpose::No);
    Ok(theta)
}

/// The Tikhonov-floored Cholesky factor `L` of the Galerkin Gram,
/// `LLᵀ = CCᵀ + floor·I`. The floor is added in `cc_t`'s own storage.
///
/// Near-duplicate interpolation points make `CCᵀ` semi-definite, so the
/// floor starts at `1e-12` of the mean diagonal and a Cholesky failure
/// retries at ×10³ (3 attempts, each from the unfloored diagonal) before
/// surfacing [`NumericalError::GramNotSpd`]. A non-finite entry (a poisoned
/// sampled orbital row) surfaces as [`NumericalError::NonFinite`] at
/// `isdf.cc_t`.
pub fn floored_cholesky(mut cc_t: Mat) -> Result<Mat, NumericalError> {
    if let Some(bad) = cc_t.as_slice().iter().position(|v| !v.is_finite()) {
        return Err(NumericalError::NonFinite { site: "isdf.cc_t".into(), index: bad });
    }
    let n_mu = cc_t.nrows();
    let diag: Vec<f64> = (0..n_mu).map(|i| cc_t[(i, i)]).collect();
    let trace: f64 = diag.iter().sum();
    let mut floor = 1e-12 * (trace / n_mu.max(1) as f64).max(1e-300);
    let mut last_pivot = 0usize;
    for _ in 0..3 {
        for (i, d) in diag.iter().enumerate() {
            cc_t[(i, i)] = d + floor;
        }
        match cholesky(&cc_t) {
            Ok(l) => return Ok(l),
            Err(pivot) => {
                last_pivot = pivot;
                floor *= 1e3;
            }
        }
    }
    Err(NumericalError::GramNotSpd { stage: "isdf.fit", pivot: last_pivot, floor: floor / 1e3 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::face_splitting_product;

    fn smooth(nr: usize, nb: usize, phase: f64) -> Mat {
        Mat::from_fn(nr, nb, |r, b| {
            let x = r as f64 / nr as f64 * std::f64::consts::TAU;
            ((b + 1) as f64 * 0.5 * x + phase).sin()
        })
    }

    #[test]
    fn gram_pair_matches_explicit_products() {
        let psi = smooth(30, 3, 0.0);
        let phi = smooth(30, 2, 0.4);
        let pts = vec![3usize, 11, 20, 27];
        let psi_hat = psi.select_rows(&pts);
        let phi_hat = phi.select_rows(&pts);
        let g = gram_pair(&psi, &phi, &psi_hat, &phi_hat);

        let z = face_splitting_product(&psi, &phi);
        let c = face_splitting_product(&psi_hat, &phi_hat);
        let mut zc = Mat::zeros(30, 4);
        gemm(1.0, &z, Transpose::No, &c, Transpose::Yes, 0.0, &mut zc);
        assert!(g.zc_t.max_abs_diff(&zc) < 1e-10);
        let mut cc = Mat::zeros(4, 4);
        gemm(1.0, &c, Transpose::No, &c, Transpose::Yes, 0.0, &mut cc);
        assert!(g.cc_t.max_abs_diff(&cc) < 1e-10);
    }

    #[test]
    fn galerkin_solution_minimizes_residual() {
        // Perturbing Θ must not reduce ‖Z − ΘC‖_F.
        let psi = smooth(40, 2, 0.2);
        let phi = smooth(40, 2, 0.8);
        let pts = vec![1usize, 9, 22, 33];
        let psi_hat = psi.select_rows(&pts);
        let phi_hat = phi.select_rows(&pts);
        let theta = fit(gram_pair(&psi, &phi, &psi_hat, &phi_hat)).unwrap();

        let z = face_splitting_product(&psi, &phi);
        let c = face_splitting_product(&psi_hat, &phi_hat);
        let resid = |th: &Mat| {
            let mut approx = Mat::zeros(z.nrows(), z.ncols());
            gemm(1.0, th, Transpose::No, &c, Transpose::No, 0.0, &mut approx);
            approx.axpy(-1.0, &z);
            approx.norm_fro()
        };
        let base = resid(&theta);
        let mut s = 123u64;
        for _ in 0..5 {
            let mut perturbed = theta.clone();
            for v in perturbed.as_mut_slice() {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                *v += 1e-4 * ((s as f64 / u64::MAX as f64) - 0.5);
            }
            assert!(resid(&perturbed) >= base - 1e-12);
        }
    }

    #[test]
    fn poisoned_orbitals_surface_typed_nonfinite() {
        // A poisoned sampled row reaches CCᵀ (checked first); a poisoned
        // unsampled row reaches only ZCᵀ.
        for (row, want) in [(7usize, "isdf.cc_t"), (8, "isdf.zc_t")] {
            let mut psi = smooth(25, 2, 0.0);
            let phi = smooth(25, 2, 0.3);
            psi[(row, 1)] = f64::NAN;
            let pts = vec![2usize, 7, 19];
            let psi_hat = psi.select_rows(&pts);
            let phi_hat = phi.select_rows(&pts);
            let err = fit(gram_pair(&psi, &phi, &psi_hat, &phi_hat)).unwrap_err();
            match err {
                NumericalError::NonFinite { site, .. } => assert_eq!(site, want),
                other => panic!("expected NonFinite, got {other:?}"),
            }
        }
    }

    #[test]
    fn duplicate_points_are_regularized_not_fatal() {
        let psi = smooth(25, 2, 0.0);
        let phi = smooth(25, 2, 0.3);
        let pts = vec![5usize, 5, 17]; // duplicated row → singular CCᵀ
        let psi_hat = psi.select_rows(&pts);
        let phi_hat = phi.select_rows(&pts);
        let theta = fit(gram_pair(&psi, &phi, &psi_hat, &phi_hat)).unwrap();
        assert!(theta.as_slice().iter().all(|v| v.is_finite()));
    }
}
