//! The assembled ISDF decomposition and the face-splitting product.

use mathkit::Mat;
use std::ops::Range;

use crate::interp::{fit, gram_pair};

/// Transposed block face-splitting product (column-wise Khatri–Rao):
/// `Z[r, i·n_phi + j] = ψ_i(r) · φ_j(r)` — the paper's `P_vc` with pair
/// index `(i_v, i_c)` flattened valence-major.
pub fn face_splitting_product(psi: &Mat, phi: &Mat) -> Mat {
    assert_eq!(psi.nrows(), phi.nrows());
    let nr = psi.nrows();
    let (m, n) = (psi.ncols(), phi.ncols());
    let mut z = Mat::zeros(nr, m * n);
    // Parallel over output columns; column (i,j) contiguous.
    z.par_for_each_col(|p, col| {
        let (i, j) = (p / n, p % n);
        let a = psi.col(i);
        let b = phi.col(j);
        for r in 0..nr {
            col[r] = a[r] * b[r];
        }
    });
    z
}

/// A complete ISDF factorization `Z ≈ Θ C`.
pub struct IsdfDecomposition {
    /// Interpolation point indices into the grid (`N_μ`, sorted).
    pub points: Vec<usize>,
    /// Interpolation vectors `Θ` (`N_r × N_μ`) — the auxiliary basis
    /// functions `ζ_μ(r)` of Eq. 5.
    pub theta: Mat,
    /// Sampled orbitals `Ψ̂ = Ψ[points, :]` (`N_μ × m`).
    pub psi_hat: Mat,
    /// Sampled orbitals `Φ̂ = Φ[points, :]` (`N_μ × n`).
    pub phi_hat: Mat,
}

impl IsdfDecomposition {
    /// Build from orbitals and chosen interpolation points: the reference
    /// composition of [`gram_pair`] and [`fit`] on the whole grid.
    ///
    /// Panics on a failed Galerkin fit (the solve path calls [`fit`] itself
    /// and ladders on its typed error).
    pub fn build(psi: &Mat, phi: &Mat, points: &[usize]) -> Self {
        let psi_hat = psi.select_rows(points);
        let phi_hat = phi.select_rows(points);
        let theta = match fit(gram_pair(psi, phi, &psi_hat, &phi_hat)) {
            Ok(theta) => theta,
            Err(e) => panic!("{e}"),
        };
        IsdfDecomposition { points: points.to_vec(), theta, psi_hat, phi_hat }
    }

    /// Rank of the fit.
    pub fn n_mu(&self) -> usize {
        self.points.len()
    }

    /// The coefficient matrix `C` (`N_μ × m·n`): face-splitting product of
    /// the sampled orbitals (`C_μ^{ij} = ψ_i(r̂_μ)·φ_j(r̂_μ)`).
    pub fn coefficients(&self) -> Mat {
        face_splitting_product(&self.psi_hat, &self.phi_hat)
    }

    /// Reconstruct a single pair product `ψ_i(r)·φ_j(r)` from the fit.
    pub fn reconstruct_pair(&self, i: usize, j: usize) -> Vec<f64> {
        let n = self.phi_hat.ncols();
        let nr = self.theta.nrows();
        let mut out = vec![0.0; nr];
        for mu in 0..self.n_mu() {
            let c = self.psi_hat[(mu, i)] * self.phi_hat[(mu, j)];
            let t = self.theta.col(mu);
            for (o, &tv) in out.iter_mut().zip(t.iter()) {
                *o += c * tv;
            }
        }
        let _ = n;
        out
    }

    /// Cheap deterministic estimate of the relative fit residual
    /// `‖Z − ΘC‖ / ‖Z‖` over a strided sample of grid rows and orbital
    /// pairs — the quantity the build's fit-residual guard checks.
    /// Unlike [`IsdfDecomposition::relative_error`] it never materializes
    /// `Z`: cost is `O(samples · N_μ)`.
    pub fn sampled_relative_error(&self, psi: &Mat, phi: &Mat) -> f64 {
        let nr = self.theta.nrows();
        let sample = residual_sample_rows(0..nr, nr);
        let theta_rows = self.theta.select_rows(&sample);
        let (num, den) =
            sampled_residual_sums(&theta_rows, psi, phi, &self.psi_hat, &self.phi_hat, &sample);
        if den == 0.0 {
            0.0
        } else {
            (num / den).sqrt()
        }
    }

    /// Relative Frobenius reconstruction error `‖Z − ΘC‖_F / ‖Z‖_F`,
    /// materializing `Z` (test/diagnostic use only).
    pub fn relative_error(&self, psi: &Mat, phi: &Mat) -> f64 {
        let z = face_splitting_product(psi, phi);
        let c = self.coefficients();
        let mut approx = Mat::zeros(z.nrows(), z.ncols());
        mathkit::gemm::gemm(
            1.0,
            &self.theta,
            mathkit::Transpose::No,
            &c,
            mathkit::Transpose::No,
            0.0,
            &mut approx,
        );
        approx.axpy(-1.0, &z);
        let zn = z.norm_fro();
        if zn == 0.0 {
            0.0
        } else {
            approx.norm_fro() / zn
        }
    }
}

/// The grid rows the sampled fit residual reads from the slab `rows` of an
/// `n_r`-point grid, as slab-local indices: every `⌈n_r/16⌉`-th grid row
/// that falls in the slab, ascending. The sample is fixed by the grid, not
/// by the slab, so disjoint slabs share it out.
pub fn residual_sample_rows(rows: Range<usize>, n_r: usize) -> Vec<usize> {
    let row_step = n_r.div_ceil(16).max(1);
    (0..n_r).step_by(row_step).filter(|r| rows.contains(r)).map(|r| r - rows.start).collect()
}

/// One row slab's share `(Σ (z − θc)², Σ z²)` of the sampled fit residual:
/// `psi` and `phi` hold the slab's grid rows, `sample` its
/// [`residual_sample_rows`], and `theta_rows` Θ at those rows only, one row
/// each. Every `⌈pairs/32⌉`-th orbital pair is sampled, so the shares of
/// disjoint slabs add up to
/// [`IsdfDecomposition::sampled_relative_error`]'s sums.
pub fn sampled_residual_sums(
    theta_rows: &Mat,
    psi: &Mat,
    phi: &Mat,
    psi_hat: &Mat,
    phi_hat: &Mat,
    sample: &[usize],
) -> (f64, f64) {
    assert_eq!(theta_rows.nrows(), sample.len(), "one Θ row per sampled grid row");
    let (n_mu, n) = (psi_hat.nrows(), phi_hat.ncols());
    let n_pairs = psi_hat.ncols() * n;
    let pair_step = n_pairs.div_ceil(32).max(1);
    let (mut num, mut den) = (0.0, 0.0);
    for (s, &r) in sample.iter().enumerate() {
        for p in (0..n_pairs).step_by(pair_step) {
            let (i, j) = (p / n, p % n);
            let z = psi[(r, i)] * phi[(r, j)];
            let mut approx = 0.0;
            for mu in 0..n_mu {
                approx += theta_rows[(s, mu)] * psi_hat[(mu, i)] * phi_hat[(mu, j)];
            }
            num += (z - approx) * (z - approx);
            den += z * z;
        }
    }
    (num, den)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::{kmeans_points, KmeansOptions};
    use crate::points::{pair_weights, qrcp_points};

    /// Smooth synthetic orbitals on a 1-D chain embedded in 3-D: low-rank
    /// pair structure by construction.
    fn smooth_orbitals(nr: usize, nb: usize, phase: f64) -> Mat {
        Mat::from_fn(nr, nb, |r, b| {
            let x = r as f64 / nr as f64 * 2.0 * std::f64::consts::PI;
            ((b + 1) as f64 * x * 0.5 + phase).sin() + 0.2 * ((b as f64) * x + phase).cos()
        })
    }

    #[test]
    fn face_splitting_layout() {
        let psi = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let phi = Mat::from_rows(&[&[5.0, 6.0, 7.0], &[8.0, 9.0, 10.0]]);
        let z = face_splitting_product(&psi, &phi);
        assert_eq!(z.shape(), (2, 6));
        // column p = i*3 + j
        assert_eq!(z[(0, 0)], 1.0 * 5.0);
        assert_eq!(z[(0, 5)], 2.0 * 7.0);
        assert_eq!(z[(1, 4)], 4.0 * 9.0);
    }

    #[test]
    fn exact_when_n_mu_reaches_rank() {
        // m*n pair products of smooth bands have small numerical rank; with
        // enough interpolation points QRCP-ISDF reconstructs to high accuracy.
        let (nr, nb) = (60, 3);
        let psi = smooth_orbitals(nr, nb, 0.0);
        let phi = smooth_orbitals(nr, nb, 0.7);
        let pts = qrcp_points(&psi, &phi, 9).unwrap(); // = full pair count
        let isdf = IsdfDecomposition::build(&psi, &phi, &pts);
        let err = isdf.relative_error(&psi, &phi);
        assert!(err < 1e-8, "relative error {err}");
    }

    #[test]
    fn error_decreases_with_rank() {
        let (nr, nb) = (80, 4);
        let psi = smooth_orbitals(nr, nb, 0.1);
        let phi = smooth_orbitals(nr, nb, 1.3);
        let mut last = f64::INFINITY;
        for &n_mu in &[2usize, 4, 8, 16] {
            let pts = qrcp_points(&psi, &phi, n_mu).unwrap();
            let isdf = IsdfDecomposition::build(&psi, &phi, &pts);
            let err = isdf.relative_error(&psi, &phi);
            assert!(err <= last + 1e-9, "error should not grow: {err} after {last}");
            last = err;
        }
        assert!(last < 1e-6, "highest-rank fit should be accurate: {last}");
    }

    #[test]
    fn kmeans_points_give_comparable_error_to_qrcp() {
        // The paper's headline claim (Table 3 + §4.2): K-Means points match
        // QRCP quality at far lower selection cost.
        let (nr, nb) = (100, 3);
        let psi = smooth_orbitals(nr, nb, 0.0);
        let phi = smooth_orbitals(nr, nb, 0.5);
        let n_mu = 12;
        let q_pts = qrcp_points(&psi, &phi, n_mu).unwrap();
        let w = pair_weights(&psi, &phi);
        let coords: Vec<[f64; 3]> = (0..nr).map(|i| [i as f64, 0.0, 0.0]).collect();
        let k_out = kmeans_points(&coords, &w, n_mu, KmeansOptions::default());
        let q_err = IsdfDecomposition::build(&psi, &phi, &q_pts).relative_error(&psi, &phi);
        let k_err =
            IsdfDecomposition::build(&psi, &phi, &k_out.points).relative_error(&psi, &phi);
        assert!(q_err < 1e-4, "qrcp err {q_err}");
        assert!(k_err < 20.0 * q_err.max(1e-8), "kmeans err {k_err} vs qrcp {q_err}");
    }

    #[test]
    fn sampled_residual_tracks_full_residual() {
        let (nr, nb) = (80, 3);
        let psi = smooth_orbitals(nr, nb, 0.1);
        let phi = smooth_orbitals(nr, nb, 0.6);
        // Accurate fit: both estimates tiny.
        let good = IsdfDecomposition::build(&psi, &phi, &qrcp_points(&psi, &phi, 9).unwrap());
        assert!(good.sampled_relative_error(&psi, &phi) < 1e-6);
        // Starved fit: sampled estimate must flag it as bad too.
        let bad = IsdfDecomposition::build(&psi, &phi, &qrcp_points(&psi, &phi, 2).unwrap());
        let full = bad.relative_error(&psi, &phi);
        let sampled = bad.sampled_relative_error(&psi, &phi);
        assert!(full > 1e-3, "starved fit should be inaccurate: {full}");
        assert!(sampled > 0.1 * full, "sampled {sampled} vs full {full}");
    }

    #[test]
    fn reconstruct_pair_matches_full_product() {
        let (nr, nb) = (40, 2);
        let psi = smooth_orbitals(nr, nb, 0.2);
        let phi = smooth_orbitals(nr, nb, 0.9);
        let pts = qrcp_points(&psi, &phi, 4).unwrap();
        let isdf = IsdfDecomposition::build(&psi, &phi, &pts);
        let rec = isdf.reconstruct_pair(1, 0);
        let z = face_splitting_product(&psi, &phi);
        let col = z.col(2); // pair (i=1, j=0) → column i·nb + j with nb = 2
        let err: f64 = rec
            .iter()
            .zip(col.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let norm: f64 = col.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(err / norm < 1e-6, "pair reconstruction error {}", err / norm);
    }

    #[test]
    fn interpolation_exactness_at_points() {
        // At the interpolation points themselves the fit must be exact:
        // Θ[r̂_ν, μ] ≈ δ_{νμ} ⇒ Z[r̂_ν, :] = C[ν, :].
        let (nr, nb) = (50, 3);
        let psi = smooth_orbitals(nr, nb, 0.4);
        let phi = smooth_orbitals(nr, nb, 1.1);
        let pts = qrcp_points(&psi, &phi, 9).unwrap();
        let isdf = IsdfDecomposition::build(&psi, &phi, &pts);
        let z = face_splitting_product(&psi, &phi);
        let c = isdf.coefficients();
        for (nu, &p) in isdf.points.iter().enumerate() {
            for q in 0..z.ncols() {
                // reconstructed value at an interpolation point
                let mut rec = 0.0;
                for mu in 0..isdf.n_mu() {
                    rec += isdf.theta[(p, mu)] * c[(mu, q)];
                }
                assert!(
                    (rec - z[(p, q)]).abs() < 1e-6 * z.norm_max().max(1.0),
                    "row {nu} col {q}"
                );
            }
        }
    }
}
