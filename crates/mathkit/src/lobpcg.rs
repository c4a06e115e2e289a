//! Locally Optimal Block Preconditioned Conjugate Gradient (LOBPCG).
//!
//! Matrix-free block eigensolver for the lowest `k` eigenpairs of a symmetric
//! operator, following the robust formulation of Duersch–Shao–Yang–Gu (SIAM
//! J. Sci. Comput. 2018, paper ref. [11]): the search subspace is
//! `S = [X, W, P]` (iterates, preconditioned residuals, implicit CG
//! directions), orthonormalized by Cholesky-QR with a Gram-Schmidt fallback
//! when the Gram matrix degenerates, and the Rayleigh–Ritz problem is solved
//! densely in the 3k-dimensional subspace.
//!
//! This is the ground-state band solver's (`pwdft::scf`) LOBPCG. The
//! excited-state Casida problem has its own, over a communicator
//! (`lrtddft::parallel_eig`); [`LobpcgOptions`] configures both.

use crate::eigen::syev;
use crate::gemm::{gemm, gemm_tn, Transpose};
use crate::mat::Mat;
use crate::ortho::{cholesky_qr, modified_gram_schmidt};
use faultkit::SolveError;

/// Options controlling the iteration.
#[derive(Clone, Copy, Debug)]
pub struct LobpcgOptions {
    /// Maximum outer iterations.
    pub max_iter: usize,
    /// Convergence threshold on the max relative residual
    /// `‖A x − λ x‖ / max(1, |λ|)`.
    pub tol: f64,
}

impl Default for LobpcgOptions {
    fn default() -> Self {
        LobpcgOptions { max_iter: 200, tol: 1e-8 }
    }
}

/// Result of a LOBPCG run.
#[derive(Debug)]
pub struct LobpcgResult {
    /// The `k` lowest eigenvalue approximations, ascending.
    pub values: Vec<f64>,
    /// Corresponding Ritz vectors (`n × k`).
    pub vectors: Mat,
    /// Outer iterations used.
    pub iterations: usize,
    /// Max relative residual at exit.
    pub residual: f64,
    /// Whether `tol` was reached.
    pub converged: bool,
}

/// Compute the lowest `k = x0.ncols()` eigenpairs of the symmetric operator
/// `apply` (which maps an `n × m` block to `A · block`), starting from `x0`.
///
/// `precond` maps a residual block to a preconditioned block (the paper uses
/// the diagonal `K⁻¹ = (ε_c − ε_v − θ)⁻¹`, Eq. 17); pass the identity when no
/// preconditioner exists.
///
/// Honest non-convergence (iteration budget exhausted, subspace collapse) is
/// `Ok` with `converged == false` — the caller decides whether to ladder.
/// `Err` means the iteration *broke down*: the initial block was
/// rank-deficient or a non-finite quantity entered the recurrence, so
/// continuing would only propagate garbage.
pub fn lobpcg<FA, FP>(
    apply: FA,
    precond: FP,
    x0: &Mat,
    opts: LobpcgOptions,
) -> Result<LobpcgResult, SolveError>
where
    FA: Fn(&Mat) -> Mat,
    FP: Fn(&Mat, &[f64]) -> Mat,
{
    let n = x0.nrows();
    let k = x0.ncols();
    assert!(k > 0 && n >= k, "need 1 <= k <= n");

    // Orthonormalize the initial block.
    let mut x = match cholesky_qr(x0) {
        Ok(q) => q,
        Err(_) => {
            let q = modified_gram_schmidt(x0, 1e-12);
            if q.ncols() < k {
                return Err(SolveError::Breakdown {
                    stage: "lobpcg",
                    iteration: 0,
                    reason: format!("initial block rank-deficient: {} of {k} columns", q.ncols()),
                });
            }
            q
        }
    };
    let mut ax = apply(&x);
    let mut p: Option<Mat> = None;
    let mut theta = vec![0.0; k];
    let mut best_residual = f64::INFINITY;
    let mut iterations = 0;

    for it in 0..opts.max_iter {
        iterations = it + 1;
        // Rayleigh quotients and residuals R = AX - X Θ.
        let xtax = gemm_tn(&x, &ax);
        for (i, t) in theta.iter_mut().enumerate() {
            *t = xtax[(i, i)];
        }
        let mut r = ax.clone();
        for (j, &th) in theta.iter().enumerate().take(k) {
            let xc = x.col(j).to_vec();
            let rc = r.col_mut(j);
            for (rv, xv) in rc.iter_mut().zip(xc.iter()) {
                *rv -= th * xv;
            }
        }
        let resid = (0..k)
            .map(|j| {
                let rn = r.col(j).iter().map(|v| v * v).sum::<f64>().sqrt();
                rn / theta[j].abs().max(1.0)
            })
            .fold(0.0f64, f64::max);
        if !resid.is_finite() {
            return Err(SolveError::Breakdown {
                stage: "lobpcg",
                iteration: iterations,
                reason: "non-finite residual norm".to_string(),
            });
        }
        best_residual = best_residual.min(resid);
        obskit::instant(
            obskit::Stage::Diag,
            "lobpcg.iter",
            &[("iter", it as f64), ("resid", resid), ("theta_min", theta.iter().cloned().fold(f64::INFINITY, f64::min))],
        );
        if resid < opts.tol {
            let mut vals = theta.clone();
            sort_ritz(&mut vals, &mut x);
            return Ok(LobpcgResult {
                values: vals,
                vectors: x,
                iterations,
                residual: resid,
                converged: true,
            });
        }

        // Preconditioned residuals.
        let w = precond(&r, &theta);
        // A preconditioner hitting a zero gap produces NaN/Inf here; the MGS
        // fallback below would silently drop such a column, so surface it as
        // a breakdown instead of degrading the search space undetected.
        if let Some(bad) = w.as_slice().iter().position(|v| !v.is_finite()) {
            return Err(SolveError::Breakdown {
                stage: "lobpcg",
                iteration: iterations,
                reason: format!("non-finite preconditioned residual entry {bad}"),
            });
        }

        // Assemble the trial subspace S = [X, W, P].
        let ncols_s = k + w.ncols() + p.as_ref().map_or(0, |pm| pm.ncols());
        let mut s = Mat::zeros(n, ncols_s);
        for j in 0..k {
            s.col_mut(j).copy_from_slice(x.col(j));
        }
        for j in 0..w.ncols() {
            s.col_mut(k + j).copy_from_slice(w.col(j));
        }
        if let Some(pm) = &p {
            for j in 0..pm.ncols() {
                s.col_mut(k + w.ncols() + j).copy_from_slice(pm.col(j));
            }
        }

        // Orthonormalize S (drop dependent directions if necessary). With
        // more columns than rows (n < 3k) the Gram is singular by
        // construction: a Cholesky that happens to pass on rounding noise
        // returns a non-orthonormal basis whose Ritz vectors collapse to
        // zero norm (θ ≈ 0, residual ≈ 0, "converged"), so that case goes
        // straight to MGS.
        let s_orth = match (ncols_s <= n).then(|| cholesky_qr(&s)) {
            Some(Ok(q)) => q,
            _ => modified_gram_schmidt(&s, 1e-10),
        };
        if s_orth.ncols() < k {
            // Subspace collapsed — return the best we have.
            let mut vals = theta.clone();
            sort_ritz(&mut vals, &mut x);
            return Ok(LobpcgResult {
                values: vals,
                vectors: x,
                iterations,
                residual: resid,
                converged: false,
            });
        }

        // Rayleigh–Ritz in the subspace.
        let a_s = apply(&s_orth);
        let mut hs = gemm_tn(&s_orth, &a_s);
        hs.symmetrize();
        // Guard the dense solve: QL on a non-finite matrix would spin, so a
        // poisoned W (or operator output) is surfaced as a breakdown here.
        if let Some(bad) = hs.as_slice().iter().position(|v| !v.is_finite()) {
            return Err(SolveError::Breakdown {
                stage: "lobpcg",
                iteration: iterations,
                reason: format!("non-finite subspace Gram entry {bad}"),
            });
        }
        let eig = syev(&hs);
        // Lowest-k Ritz coefficients.
        let c: Vec<usize> = (0..k).collect();
        let coef = eig.vectors.select_cols(&c);

        // New X = S C, AX = (A S) C.
        let mut x_new = Mat::zeros(n, k);
        gemm(1.0, &s_orth, Transpose::No, &coef, Transpose::No, 0.0, &mut x_new);
        let mut ax_new = Mat::zeros(n, k);
        gemm(1.0, &a_s, Transpose::No, &coef, Transpose::No, 0.0, &mut ax_new);

        // Implicit direction P = S_{W,P part} C (everything except the X block):
        // P = X_new − X · (C_x), with C_x the first-k-row block of C.
        let cx = coef.row_block(0, k);
        let mut p_new = x_new.clone();
        gemm(-1.0, &x, Transpose::No, &cx, Transpose::No, 1.0, &mut p_new);

        x = x_new;
        ax = ax_new;
        p = Some(p_new);
    }

    // Final Rayleigh-Ritz readout.
    let xtax = gemm_tn(&x, &ax);
    for (i, t) in theta.iter_mut().enumerate() {
        *t = xtax[(i, i)];
    }
    let mut vals = theta.clone();
    sort_ritz(&mut vals, &mut x);
    Ok(LobpcgResult {
        values: vals,
        vectors: x,
        iterations,
        residual: best_residual,
        converged: false,
    })
}

fn sort_ritz(vals: &mut [f64], vecs: &mut Mat) {
    let k = vals.len();
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&a, &b| vals[a].partial_cmp(&vals[b]).unwrap());
    let sorted: Vec<f64> = order.iter().map(|&i| vals[i]).collect();
    vals.copy_from_slice(&sorted);
    *vecs = vecs.select_cols(&order);
}

/// Identity "preconditioner" for [`lobpcg`].
#[cfg(test)]
pub(crate) fn no_precond(r: &Mat, _theta: &[f64]) -> Mat {
    r.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;

    fn diag_op(d: &[f64]) -> impl Fn(&Mat) -> Mat + '_ {
        move |x: &Mat| {
            let mut y = x.clone();
            for j in 0..y.ncols() {
                for (i, v) in y.col_mut(j).iter_mut().enumerate() {
                    *v *= d[i];
                }
            }
            y
        }
    }

    #[test]
    fn diagonal_operator_lowest_k() {
        let n = 50;
        let d: Vec<f64> = (0..n).map(|i| (i as f64) * 0.7 + 1.0).collect();
        let mut rng = rand::thread_rng();
        let x0 = Mat::random(n, 4, &mut rng);
        let res = lobpcg(diag_op(&d), no_precond, &x0, LobpcgOptions::default()).expect("lobpcg");
        assert!(res.converged, "residual {}", res.residual);
        for (i, v) in res.values.iter().enumerate() {
            assert!((v - d[i]).abs() < 1e-6, "λ_{i} = {v}, want {}", d[i]);
        }
    }

    #[test]
    fn dense_matrix_matches_syev() {
        let mut rng = rand::thread_rng();
        let n = 30;
        let mut a = Mat::random(n, n, &mut rng);
        a.symmetrize();
        let exact = syev(&a);
        let x0 = Mat::random(n, 3, &mut rng);
        let res = lobpcg(
            |x| matmul(&a, x),
            no_precond,
            &x0,
            LobpcgOptions { max_iter: 500, tol: 1e-9 },
        )
        .expect("lobpcg");
        assert!(res.converged);
        for i in 0..3 {
            assert!(
                (res.values[i] - exact.values[i]).abs() < 1e-6,
                "λ_{i}: {} vs {}",
                res.values[i],
                exact.values[i]
            );
        }
    }

    #[test]
    fn preconditioner_accelerates_laplacian() {
        // 1-D Laplacian; Jacobi-shifted preconditioner should converge in
        // fewer iterations than no preconditioner.
        let n = 120;
        let apply = |x: &Mat| {
            let mut y = Mat::zeros(n, x.ncols());
            for j in 0..x.ncols() {
                let xc = x.col(j);
                let yc = y.col_mut(j);
                for i in 0..n {
                    let mut v = 2.0 * xc[i];
                    if i > 0 {
                        v -= xc[i - 1];
                    }
                    if i + 1 < n {
                        v -= xc[i + 1];
                    }
                    yc[i] = v;
                }
            }
            y
        };
        let precond = |r: &Mat, theta: &[f64]| {
            let mut w = r.clone();
            for (j, &th) in theta.iter().enumerate().take(w.ncols()) {
                let shift = (2.0 - th).max(0.1);
                for v in w.col_mut(j) {
                    *v /= shift;
                }
            }
            w
        };
        let mut rng = rand::thread_rng();
        let x0 = Mat::random(n, 2, &mut rng);
        let opts = LobpcgOptions { max_iter: 300, tol: 1e-7 };
        let plain = lobpcg(apply, no_precond, &x0, opts).expect("lobpcg");
        let pre = lobpcg(apply, precond, &x0, opts).expect("lobpcg");
        let exact0 = 2.0 - 2.0 * (std::f64::consts::PI / (n + 1) as f64).cos();
        assert!((pre.values[0] - exact0).abs() < 1e-5);
        assert!(pre.iterations <= plain.iterations);
    }

    #[test]
    fn k_equals_one() {
        let n = 20;
        let d: Vec<f64> = (0..n).map(|i| -(i as f64)).collect();
        let mut rng = rand::thread_rng();
        let x0 = Mat::random(n, 1, &mut rng);
        let res = lobpcg(diag_op(&d), no_precond, &x0, LobpcgOptions::default()).expect("lobpcg");
        assert!((res.values[0] + (n as f64 - 1.0)).abs() < 1e-6);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let n = 40;
        let d: Vec<f64> = (0..n).map(|i| (i * i) as f64 * 0.01 + 0.5).collect();
        let mut rng = rand::thread_rng();
        let x0 = Mat::random(n, 5, &mut rng);
        let res = lobpcg(diag_op(&d), no_precond, &x0, LobpcgOptions::default()).expect("lobpcg");
        let g = gemm_tn(&res.vectors, &res.vectors);
        assert!(g.max_abs_diff(&Mat::eye(5)) < 1e-7);
    }
}
