//! QRCP-based interpolation point selection (paper §4.1.1) and the
//! orbital-pair weight function (Eq. 14).

use faultkit::NumericalError;
use mathkit::qr::{qrcp_select, randomized_qrcp_select};
use mathkit::Mat;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::decomposition::face_splitting_product;

/// The weight `w(r) = (Σ_i ψ_i(r)²) · (Σ_j φ_j(r)²)` of every grid point —
/// the diagonal of `Z Zᵀ` thanks to the separable structure (paper Eq. 14).
pub fn pair_weights(psi: &Mat, phi: &Mat) -> Vec<f64> {
    assert_eq!(psi.nrows(), phi.nrows());
    let nr = psi.nrows();
    let mut w = vec![0.0; nr];
    let mut psi2 = vec![0.0; nr];
    for j in 0..psi.ncols() {
        mathkit::simd::add_squares(&mut psi2, psi.col(j));
    }
    let mut phi2 = vec![0.0; nr];
    for j in 0..phi.ncols() {
        mathkit::simd::add_squares(&mut phi2, phi.col(j));
    }
    mathkit::simd::pointwise_mul(&mut w, &psi2, &phi2);
    w
}

/// Traditional QRCP interpolation points: pivoted QR on `Zᵀ` where
/// `Z = face_splitting_product(psi, phi)`. Cost `O(N_r·(N_vN_c)²)`-ish — the
/// expensive path the paper replaces (its Table 3 baseline). An orbital
/// product whose square overflows is [`mathkit::qrcp`]'s typed error.
pub fn qrcp_points(psi: &Mat, phi: &Mat, n_mu: usize) -> Result<Vec<usize>, NumericalError> {
    let z = face_splitting_product(psi, phi);
    qrcp_select(&z, n_mu)
}

/// Randomized-sketch QRCP (the "randomized sampling QRCP" the paper cites):
/// project the pair columns with a Gaussian sketch before pivoting.
pub fn randomized_qrcp_points(
    psi: &Mat,
    phi: &Mat,
    n_mu: usize,
    seed: u64,
) -> Result<Vec<usize>, NumericalError> {
    let z = face_splitting_product(psi, phi);
    let mut rng = StdRng::seed_from_u64(seed);
    let oversample = (n_mu / 4).clamp(4, 32);
    randomized_qrcp_select(&z, n_mu, oversample, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn orbitals(nr: usize, nb: usize, seed: u64) -> Mat {
        let mut s = seed.max(1);
        Mat::from_fn(nr, nb, |_, _| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 2.0 - 1.0
        })
    }

    #[test]
    fn weights_match_explicit_sum() {
        let psi = orbitals(20, 3, 1);
        let phi = orbitals(20, 2, 2);
        let w = pair_weights(&psi, &phi);
        for i in 0..20 {
            let mut expect = 0.0;
            for a in 0..3 {
                for b in 0..2 {
                    expect += psi[(i, a)].powi(2) * phi[(i, b)].powi(2);
                }
            }
            assert!((w[i] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn weights_nonnegative() {
        let psi = orbitals(50, 4, 3);
        let phi = orbitals(50, 4, 4);
        assert!(pair_weights(&psi, &phi).iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn qrcp_points_found_in_support() {
        // Orbitals supported only on rows 10..20: every selected point must
        // lie in the support.
        let nr = 40;
        let mut psi = Mat::zeros(nr, 3);
        let mut phi = Mat::zeros(nr, 3);
        for i in 10..20 {
            for j in 0..3 {
                psi[(i, j)] = ((i * (j + 1)) as f64).sin();
                phi[(i, j)] = ((i + 3 * j) as f64).cos();
            }
        }
        let pts = qrcp_points(&psi, &phi, 4).unwrap();
        assert_eq!(pts.len(), 4);
        assert!(pts.iter().all(|&p| (10..20).contains(&p)), "{pts:?}");
    }

    #[test]
    fn randomized_agrees_with_plain_on_small_problem() {
        let psi = orbitals(30, 3, 7);
        let phi = orbitals(30, 3, 8);
        let plain = qrcp_points(&psi, &phi, 6).unwrap();
        let rnd = randomized_qrcp_points(&psi, &phi, 6, 42).unwrap();
        // Randomized selection need not be identical but must overlap heavily
        // for a well-conditioned problem.
        let overlap = plain.iter().filter(|p| rnd.contains(p)).count();
        assert!(overlap >= 3, "plain {plain:?} vs randomized {rnd:?}");
    }
}
