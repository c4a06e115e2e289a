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

/// Traditional QRCP interpolation points: pivoted QR on `Zᵀ`, the paper's
/// Table 3 baseline that K-Means replaces. `Zᵀ` (`N_vN_c × N_r`) is formed
/// here once, one grid point's pair products `ψ_i(r)·φ_j(r)` per column
/// (the transpose of [`face_splitting_product`]), and [`mathkit::qrcp`]
/// factors that one copy in place. An orbital product whose square
/// overflows is its typed error.
pub fn qrcp_points(psi: &Mat, phi: &Mat, n_mu: usize) -> Result<Vec<usize>, NumericalError> {
    assert_eq!(psi.nrows(), phi.nrows());
    let n = phi.ncols();
    // Row r of ψ and of φ as contiguous columns.
    let (psi_t, phi_t) = (psi.transpose(), phi.transpose());
    let mut zt = Mat::zeros(psi.ncols() * n, psi.nrows());
    zt.par_for_each_col(|r, col| {
        // `max(1)`: with no φ columns `col` is empty.
        for (pairs, &a) in col.chunks_mut(n.max(1)).zip(psi_t.col(r)) {
            for (z, &b) in pairs.iter_mut().zip(phi_t.col(r)) {
                *z = a * b;
            }
        }
    });
    qrcp_select(zt, n_mu)
}

/// Randomized-sketch QRCP (the "randomized sampling QRCP" the paper cites):
/// project the pair columns with a Gaussian sketch, then pivot the sketch in
/// place.
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
    fn qrcp_points_is_qrcp_on_the_transposed_face_splitting_product() {
        use mathkit::qrcp;
        // N_cv 48 × N_r 4000: the trailing update splits on two threads.
        let (psi, phi) = (orbitals(4000, 8, 11), orbitals(4000, 6, 12));
        let fac = qrcp(face_splitting_product(&psi, &phi).transpose(), 24, 0.0).unwrap();
        let mut want = fac.perm[..fac.rank].to_vec();
        want.sort_unstable();
        assert_eq!(qrcp_points(&psi, &phi, 24).unwrap(), want);

        // ψ_0 ×1e160 on every 7th grid point from 11: the first column of
        // Zᵀ whose square overflows is grid point 11's.
        let mut psi = orbitals(60, 3, 13);
        psi.col_mut(0)[11..].iter_mut().step_by(7).for_each(|x| *x *= 1e160);
        let phi = orbitals(60, 2, 14);
        let at = |index| NumericalError::NonFinite { site: "qrcp.column_norms".into(), index };
        let zt = face_splitting_product(&psi, &phi).transpose();
        assert_eq!(qrcp(zt, 6, 0.0).err(), Some(at(11)));
        assert_eq!(qrcp_points(&psi, &phi, 6).err(), Some(at(11)));
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
