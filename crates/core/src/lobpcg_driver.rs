//! LOBPCG driving for the Casida eigenproblem (paper §4.3).
//!
//! Wraps the generic `mathkit` LOBPCG with the paper's specifics:
//! * initial guess: unit vectors on the `k` smallest bare transitions
//!   `D = ε_c − ε_v` (plus a whiff of noise to decouple degeneracies),
//! * the diagonal preconditioner `K_i = ε_{i_c} − ε_{i_v} − θ` (Eq. 17),
//!   applied as `W = K⁻¹(HX − XΘ)` (Eq. 16) with a safeguard floor.

use faultkit::SolveError;
use mathkit::lobpcg::{lobpcg, LobpcgOptions, LobpcgResult};
use mathkit::Mat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Build the paper's initial block: for each of the `k` lowest entries of
/// `diag_d`, a coordinate vector with small random dressing.
pub fn initial_guess(diag_d: &[f64], k: usize, seed: u64) -> Mat {
    let n = diag_d.len();
    let k = k.min(n);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| diag_d[a].partial_cmp(&diag_d[b]).unwrap());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x0 = Mat::from_fn(n, k, |_, _| 1e-3 * rng.gen_range(-1.0..1.0));
    for (j, &idx) in order.iter().take(k).enumerate() {
        x0[(idx, j)] = 1.0;
    }
    x0
}

/// The Eq. 17 preconditioner: `w = r / (D − θ)` componentwise, floored at
/// `|denominator| ≥ guard` to survive near-resonant Ritz values.
pub fn casida_preconditioner(diag_d: &[f64], guard: f64) -> impl Fn(&Mat, &[f64]) -> Mat + '_ {
    move |r: &Mat, theta: &[f64]| {
        let mut w = r.clone();
        for (j, &th) in theta.iter().enumerate().take(w.ncols()) {
            let col = w.col_mut(j);
            for (i, v) in col.iter_mut().enumerate() {
                let mut den = diag_d[i] - th;
                if den.abs() < guard {
                    den = guard.copysign(if den == 0.0 { 1.0 } else { den });
                }
                *v /= den;
            }
        }
        w
    }
}

/// Solve the lowest `k` eigenpairs of the (possibly implicit) Casida
/// Hamiltonian `apply`, with the paper's guess and preconditioner.
///
/// `Ok` with `converged == false` reports honest non-convergence; `Err` is an
/// iteration breakdown (non-finite quantities, lost subspace) — the caller's
/// recovery ladder decides whether to resume, restart or fall back.
pub fn solve_casida_lobpcg<FA>(
    apply: FA,
    diag_d: &[f64],
    k: usize,
    opts: LobpcgOptions,
    seed: u64,
) -> Result<LobpcgResult, SolveError>
where
    FA: Fn(&Mat) -> Mat,
{
    let x0 = initial_guess(diag_d, k, seed);
    let precond = casida_preconditioner(diag_d, 1e-3);
    lobpcg(apply, precond, &x0, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathkit::gemm::matmul;
    use mathkit::syev;

    #[test]
    fn guess_hits_lowest_transitions() {
        let d = vec![5.0, 1.0, 3.0, 0.5];
        let x0 = initial_guess(&d, 2, 1);
        assert_eq!(x0.shape(), (4, 2));
        // first column peaks at index 3 (smallest D), second at index 1
        assert!((x0[(3, 0)] - 1.0).abs() < 1e-12);
        assert!((x0[(1, 1)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn preconditioner_divides_by_shifted_diagonal() {
        let d = vec![2.0, 4.0];
        let pre = casida_preconditioner(&d, 1e-6);
        let r = Mat::from_rows(&[&[1.0], &[1.0]]);
        let w = pre(&r, &[1.0]);
        assert!((w[(0, 0)] - 1.0).abs() < 1e-12); // 1/(2-1)
        assert!((w[(1, 0)] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn preconditioner_guard_prevents_blowup() {
        let d = vec![1.0];
        let pre = casida_preconditioner(&d, 1e-3);
        let r = Mat::from_rows(&[&[1.0]]);
        let w = pre(&r, &[1.0]); // resonant: D − θ = 0
        assert!(w[(0, 0)].abs() <= 1.0 / 1e-3 + 1e-9);
        assert!(w[(0, 0)].is_finite());
    }

    #[test]
    fn casida_like_matrix_lowest_k_match_dense() {
        // H = diag(D) + low-rank coupling — the structure LOBPCG sees.
        let n = 40;
        let d: Vec<f64> = (0..n).map(|i| 0.5 + 0.05 * i as f64).collect();
        let mut h = Mat::zeros(n, n);
        for i in 0..n {
            h[(i, i)] = d[i];
            for j in 0..n {
                let u = ((i + 1) as f64).sin() * ((j + 1) as f64).sin();
                h[(i, j)] += 0.02 * u;
            }
        }
        h.symmetrize();
        let dense = syev(&h);
        let res = solve_casida_lobpcg(
            |x| matmul(&h, x),
            &d,
            3,
            LobpcgOptions { max_iter: 300, tol: 1e-9 },
            42,
        )
        .expect("lobpcg");
        assert!(res.converged, "residual {}", res.residual);
        for i in 0..3 {
            assert!(
                (res.values[i] - dense.values[i]).abs() < 1e-7,
                "λ_{i}: {} vs {}",
                res.values[i],
                dense.values[i]
            );
        }
    }

    #[test]
    fn spaces_smaller_than_the_trial_block_return_the_dense_spectrum() {
        // With 3k > n the trial space [X W P] cannot hold its columns. Random
        // Casida-like H (positive diagonal plus a symmetric coupling), 200
        // seeds per order: every run converges to the dense spectrum. (With
        // Cholesky-QR on the over-wide [X W P], 4.5e-47 came back "converged"
        // where the lowest eigenvalue is 0.35.)
        for n in [3usize, 4, 5, 6, 8] {
            for seed in 0..200u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let k = rng.gen_range(n / 3 + 1..=n);
                let d: Vec<f64> = (0..n).map(|_| rng.gen_range(0.3..1.5)).collect();
                let mut h = Mat::from_fn(n, n, |_, _| 0.1 * rng.gen_range(-1.0..1.0));
                h.symmetrize();
                for (i, di) in d.iter().enumerate() {
                    h[(i, i)] += di;
                }
                let dense = syev(&h);
                let opts = LobpcgOptions::default();
                let res = solve_casida_lobpcg(|x| matmul(&h, x), &d, k, opts, seed).expect("lobpcg");
                assert!(res.converged, "n={n} k={k} seed={seed}: residual {}", res.residual);
                for (i, v) in res.values.iter().enumerate() {
                    let want = dense.values[i];
                    let case = format!("n={n} k={k} seed={seed} λ_{i}");
                    assert!((v - want).abs() < 1e-6, "{case}: {v} vs {want}");
                }
            }
        }
    }

    #[test]
    fn preconditioned_converges_faster_than_identity() {
        let n = 100;
        let d: Vec<f64> = (0..n).map(|i| 1.0 + 0.1 * i as f64).collect();
        let mut h = Mat::zeros(n, n);
        for i in 0..n {
            h[(i, i)] = d[i];
            h[(i, (i + 1) % n)] += 0.05;
            h[((i + 1) % n, i)] += 0.05;
        }
        h.symmetrize();
        let opts = LobpcgOptions { max_iter: 200, tol: 1e-8 };
        let x0 = initial_guess(&d, 2, 7);
        let plain = lobpcg(|x| matmul(&h, x), mathkit::no_precond, &x0, opts).expect("lobpcg");
        let pre = solve_casida_lobpcg(|x| matmul(&h, x), &d, 2, opts, 7).expect("lobpcg");
        assert!(pre.converged);
        assert!(pre.iterations <= plain.iterations + 2);
    }
}
