//! The one Casida eigensolver: the implicit, preconditioned LOBPCG of paper
//! §4.3 (Eq. 16/17) over a communicator, the same code at every rank count.
//! A serial solve runs it on [`Comm::solo`]; the distributed doors and a
//! `served` batch on their group. Row 4 hands it the materialized `H` on one
//! rank ([`CasidaOp::Dense`]), row 5 the ISDF factors over every rank's pair
//! rows ([`CasidaOp::Factors`]).
//!
//! The excitation-vector block `X` (`N_cv × b`) is distributed by **pair
//! rows**. It is `b = min(k + GUARD, N_cv)` wide: the guard vectors beyond
//! the `k` asked for keep the `k`-th Ritz value from stalling against the
//! `k+1`-th (Duersch–Shao–Yang–Gu, SIAM J. Sci. Comput. 2018, the paper's
//! ref. \[11\]), and convergence is tested on the lowest `k` only. Each
//! iteration issues **two** collectives:
//!
//! 1. one packed reduce of `[SᵀS | ‖r‖²]` for the trial space
//!    `S = [X W P]` and the residual norms of the current `X`. Locally, a
//!    Cholesky of `SᵀS` that drops nearly dependent columns gives the
//!    orthonormal basis `Q = S·B`;
//! 2. one packed reduce of `[C_loc·Q_loc | Q_locᵀ(D∘Q_loc)]`, from which
//!    `H·Q_loc = D∘Q_loc + 2C_locᵀṼ(CQ)` and the replicated
//!    `QᵀHQ = Qᵀ(D∘Q) + 2(CQ)ᵀṼ(CQ)` are both formed locally. `H` is applied
//!    to all of `Q`, fresh, every iteration: nothing carries `H·X` or `H·P`
//!    forward, so no drift accumulates.
//!
//! Both collectives carry `O(N_μ·m)` or `O(m²)` doubles, never the
//! `O(N_cv²)` Hamiltonian — which is why the implicit form scales.
//!
//! The convergence test is one collective late: the residual norms of an
//! iterate ride the next iteration's first reduce. It still grades exactly
//! the iterate it returns. Breakdown guards test replicated quantities (the
//! reduced Gram and norms), so every rank takes the same branch and the
//! collective order never diverges.

use crate::versions::IsdfHamiltonian;
use faultkit::SolveError;
use mathkit::chol::{solve_lower_transpose, solve_right_lower_transpose};
use mathkit::gemm::{gemm, gemm_tn, syrk_tn, Transpose};
use mathkit::lobpcg::LobpcgOptions;
use mathkit::{lowest, Mat};
use parcomm::layout::block_ranges;
use parcomm::Comm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::ops::Range;

/// Guard vectors iterated beyond the `k` eigenpairs asked for.
const GUARD: usize = 2;

/// A column of `[X W P]` whose part outside the span of the columns before
/// it is below this fraction of its own squared norm is dropped from the
/// basis.
const DROP_TOL: f64 = 1e-10;

/// Floor on `|D_i − θ|` in the Eq. 17 preconditioner, so near-resonant Ritz
/// values cannot blow `W` up.
const PRECOND_FLOOR: f64 = 1e-3;

/// What the eigensolver applies.
pub enum CasidaOp<'a> {
    /// ISDF factors, applied matrix-free over this rank's pair rows (row 5).
    Factors(&'a IsdfHamiltonian),
    /// The materialized `H` and its bare diagonal `D`; one rank holds all
    /// rows (row 4).
    Dense { h: &'a Mat, diag_d: &'a [f64] },
}

impl<'a> From<&'a IsdfHamiltonian> for CasidaOp<'a> {
    fn from(ham: &'a IsdfHamiltonian) -> Self {
        CasidaOp::Factors(ham)
    }
}

impl CasidaOp<'_> {
    fn diag_d(&self) -> &[f64] {
        match self {
            CasidaOp::Factors(ham) => &ham.diag_d,
            CasidaOp::Dense { diag_d, .. } => diag_d,
        }
    }
}

/// Lowest eigenpairs of the Casida `H`.
pub struct Eigenpairs {
    /// The lowest `k` eigenvalues, ascending, replicated.
    pub values: Vec<f64>,
    /// This rank's row block of the eigenvectors (`my_rows × k`; all `N_cv`
    /// rows on one rank).
    pub local_vectors: Mat,
    /// LOBPCG iterations (0 for a dense solve).
    pub iterations: usize,
    /// Max relative residual `‖Hx − θx‖ / max(1, |θ|)` over the lowest `k`
    /// (the best seen when not converged; 0 for a dense solve).
    pub residual: f64,
    /// Whether `residual` met the tolerance (a dense solve always does).
    pub converged: bool,
}

/// The paper's initial block: for each of the `k` lowest entries of `diag_d`,
/// a coordinate vector with small random dressing to decouple degeneracies.
fn initial_guess(diag_d: &[f64], k: usize, seed: u64) -> Mat {
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

/// The Eq. 17 preconditioner `W = K⁻¹R`, `K_i = D_i − θ_j` for column `j`,
/// on a row block whose bare diagonal is `diag_d`.
fn precondition(r: &Mat, diag_d: &[f64], theta: &[f64]) -> Mat {
    let mut w = r.clone();
    for (j, &th) in theta.iter().enumerate().take(w.ncols()) {
        for (v, &d) in w.col_mut(j).iter_mut().zip(diag_d) {
            let den = d - th;
            *v /= if den.abs() < PRECOND_FLOOR { PRECOND_FLOOR.copysign(den) } else { den };
        }
    }
    w
}

/// `H` on this rank's rows, ready to apply.
struct Local<'a> {
    /// `D` on my rows.
    d: &'a [f64],
    form: Form<'a>,
}

enum Form<'a> {
    /// `C` restricted to my pair columns, and `Ṽ`.
    Factors { c: Cow<'a, Mat>, v_tilde: &'a Mat },
    Dense(&'a Mat),
}

impl<'a> Local<'a> {
    fn new(op: &CasidaOp<'a>, comm: &Comm, rows: &Range<usize>) -> Self {
        match *op {
            CasidaOp::Factors(ham) => {
                let c = if rows.len() == ham.c.ncols() {
                    Cow::Borrowed(&ham.c)
                } else {
                    Cow::Owned(ham.c.col_block(rows.start, rows.end))
                };
                let form = Form::Factors { c, v_tilde: &ham.v_tilde };
                Local { d: &ham.diag_d[rows.clone()], form }
            }
            CasidaOp::Dense { h, diag_d } => {
                assert_eq!(comm.size(), 1, "a dense H iterates on one rank");
                Local { d: diag_d, form: Form::Dense(h) }
            }
        }
    }

    /// Collective 2: `H·Q` on my rows and the replicated `QᵀHQ`.
    fn apply(&self, comm: &Comm, q: &Mat) -> (Mat, Mat) {
        let (hq, mut qhq) = match &self.form {
            Form::Dense(h) => {
                let mut hq = Mat::zeros(h.nrows(), q.ncols());
                gemm(1.0, h, Transpose::No, q, Transpose::No, 0.0, &mut hq);
                let qhq = gemm_tn(q, &hq);
                (hq, qhq)
            }
            Form::Factors { c, v_tilde } => {
                let (n_mu, m) = (v_tilde.nrows(), q.ncols());
                let mut cq = Mat::zeros(n_mu, m);
                gemm(1.0, c, Transpose::No, q, Transpose::No, 0.0, &mut cq);
                let mut dq = q.clone();
                for j in 0..m {
                    for (v, d) in dq.col_mut(j).iter_mut().zip(self.d) {
                        *v *= d;
                    }
                }
                let mut packed = cq.into_vec();
                packed.extend_from_slice(gemm_tn(q, &dq).as_slice());
                comm.allreduce_sum(&mut packed);
                let mut qhq = Mat::from_vec(m, m, packed.split_off(n_mu * m));
                let cq = Mat::from_vec(n_mu, m, packed);
                let mut vcq = Mat::zeros(n_mu, m);
                gemm(1.0, v_tilde, Transpose::No, &cq, Transpose::No, 0.0, &mut vcq);
                gemm(2.0, c, Transpose::Yes, &vcq, Transpose::No, 1.0, &mut dq);
                gemm(2.0, &cq, Transpose::Yes, &vcq, Transpose::No, 1.0, &mut qhq);
                (dq, qhq)
            }
        };
        qhq.symmetrize();
        (hq, qhq)
    }
}

/// Cholesky of the reduced Gram `G = SᵀS` with a drop tolerance: walking the
/// columns in order, one whose pivot is below [`DROP_TOL`] of its own
/// squared norm (or beyond `n_max`, the dimension of the space) is left out.
/// Returns the kept columns and the Cholesky factor `L` of their Gram, so
/// that `Q = S[:, keep]·L⁻ᵀ` is orthonormal.
fn gram_basis(g: &Mat, n_max: usize) -> (Vec<usize>, Mat) {
    let mut keep: Vec<usize> = Vec::new();
    let mut l_rows: Vec<Vec<f64>> = Vec::new();
    for j in 0..g.nrows() {
        if keep.len() == n_max {
            break;
        }
        let mut row: Vec<f64> = Vec::with_capacity(keep.len() + 1);
        for (i, &ki) in keep.iter().enumerate() {
            let dot: f64 = l_rows[i][..i].iter().zip(&row).map(|(a, b)| a * b).sum();
            row.push((g[(ki, j)] - dot) / l_rows[i][i]);
        }
        let pivot = g[(j, j)] - row.iter().map(|v| v * v).sum::<f64>();
        if pivot > DROP_TOL * g[(j, j)] {
            row.push(pivot.sqrt());
            keep.push(j);
            l_rows.push(row);
        }
    }
    let n = keep.len();
    let l = Mat::from_fn(n, n, |i, j| if j <= i { l_rows[i][j] } else { 0.0 });
    (keep, l)
}

/// Columns of the blocks side by side.
fn hcat(blocks: &[&Mat]) -> Mat {
    let rows = blocks[0].nrows();
    let mut s = Mat::zeros(rows, blocks.iter().map(|b| b.ncols()).sum());
    let mut j = 0;
    for b in blocks {
        for bj in 0..b.ncols() {
            s.col_mut(j).copy_from_slice(b.col(bj));
            j += 1;
        }
    }
    s
}

fn breakdown(iteration: usize, reason: &str) -> SolveError {
    SolveError::Breakdown { stage: "lobpcg", iteration, reason: reason.to_string() }
}

/// LOBPCG for the lowest `k` eigenpairs of the Casida `H`, SPMD-collective
/// on `comm`: every rank gets the same eigenvalues and its own row block of
/// eigenvectors.
///
/// `Ok` with `converged == false` is honest non-convergence; `Err` is a
/// breakdown (a non-finite reduced Gram or residual norm, a collapsed
/// subspace). Either way the caller
/// ([`crate::Solver::eigensolve`]) answers from the dense floor.
pub fn distributed_casida_lobpcg<'a>(
    comm: &Comm,
    op: impl Into<CasidaOp<'a>>,
    k: usize,
    opts: LobpcgOptions,
    seed: u64,
) -> Result<Eigenpairs, SolveError> {
    let op = op.into();
    let diag_d = op.diag_d();
    let n = diag_d.len();
    let k = k.min(n);
    let b = (k + GUARD).min(n);
    let rows = block_ranges(n, comm.size())[comm.rank()].clone();
    let local = Local::new(&op, comm, &rows);

    // The first pass Rayleigh–Ritzes the guess alone (S = X); every later
    // one the full [X W P] after testing the current X.
    let mut x = initial_guess(diag_d, b, seed).row_block(rows.start, rows.end);
    let mut theta: Vec<f64> = Vec::new();
    let mut r: Option<Mat> = None;
    let mut p: Option<Mat> = None;
    let mut best_residual = f64::INFINITY;
    let mut iterations = 0;
    let mut converged = false;

    for it in 0..=opts.max_iter {
        let w = r.as_ref().map(|r| precondition(r, local.d, &theta));
        let s = hcat(&[Some(&x), w.as_ref(), p.as_ref()].into_iter().flatten().collect::<Vec<_>>());
        let m = s.ncols();

        // Collective 1 of 2: [SᵀS | ‖r‖² of the current X].
        let mut packed = syrk_tn(&s).into_vec();
        if let Some(r) = &r {
            packed.extend((0..k).map(|j| r.col(j).iter().map(|v| v * v).sum::<f64>()));
        }
        comm.allreduce_sum(&mut packed);
        if packed.iter().any(|v| !v.is_finite()) {
            return Err(breakdown(it, "non-finite subspace Gram matrix or residual norm"));
        }
        let norms = packed.split_off(m * m);
        let g = Mat::from_vec(m, m, packed);

        if it > 0 {
            iterations = it;
            let resid = norms
                .iter()
                .zip(&theta)
                .map(|(n2, th)| n2.sqrt() / th.abs().max(1.0))
                .fold(0.0f64, f64::max);
            best_residual = best_residual.min(resid);
            obskit::instant(
                obskit::Stage::Diag,
                "lobpcg.iter",
                &[("iter", (it - 1) as f64), ("resid", resid), ("theta_min", theta[0])],
            );
            if resid < opts.tol {
                converged = true;
                break;
            }
            if it == opts.max_iter {
                break;
            }
        }

        let (keep, l) = gram_basis(&g, n);
        if keep.len() < b {
            return Err(breakdown(it, "trial subspace collapsed below the block size"));
        }
        let q = solve_right_lower_transpose(&s.select_cols(&keep), &l);

        // Collective 2 of 2: H·Q and QᵀHQ, then Rayleigh–Ritz.
        let (hq, qhq) = local.apply(comm, &q);
        if qhq.as_slice().iter().any(|v| !v.is_finite()) {
            return Err(breakdown(it, "non-finite projected Hamiltonian"));
        }
        let eig = lowest(&qhq, b);
        let mut x_new = Mat::zeros(rows.len(), b);
        gemm(1.0, &q, Transpose::No, &eig.vectors, Transpose::No, 0.0, &mut x_new);
        let mut res = Mat::zeros(rows.len(), b);
        gemm(1.0, &hq, Transpose::No, &eig.vectors, Transpose::No, 0.0, &mut res);
        for (j, &th) in eig.values.iter().enumerate() {
            for (rv, xv) in res.col_mut(j).iter_mut().zip(x_new.col(j)) {
                *rv -= th * xv;
            }
        }

        // P = (I − X Xᵀ)·X_new, the part of the new iterate outside the old
        // one; Xᵀ·X_new = G[X, keep]·L⁻ᵀ·Y comes from the reduced Gram.
        if it > 0 {
            let coef = solve_lower_transpose(&l, &eig.vectors);
            let g_x = Mat::from_fn(b, keep.len(), |i, j| g[(i, keep[j])]);
            let mut xtx = Mat::zeros(b, b);
            gemm(1.0, &g_x, Transpose::No, &coef, Transpose::No, 0.0, &mut xtx);
            let mut p_new = x_new.clone();
            gemm(-1.0, &x, Transpose::No, &xtx, Transpose::No, 1.0, &mut p_new);
            p = Some(p_new);
        }
        x = x_new;
        r = Some(res);
        theta = eig.values;
    }

    Ok(Eigenpairs {
        values: theta[..k].to_vec(),
        local_vectors: x.col_block(0, k),
        iterations,
        residual: best_residual,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::synthetic_problem;
    use crate::versions::{build_isdf_hamiltonian, PointSelector};
    use mathkit::syev;
    use parcomm::spmd;

    fn test_ham() -> IsdfHamiltonian {
        let p = synthetic_problem([8, 8, 8], 6.0, 3, 3);
        let solo = Comm::solo();
        build_isdf_hamiltonian(&solo, &p, PointSelector::Qrcp, p.n_cv())
            .expect("clean full-rank build")
    }

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
    fn preconditioner_divides_by_the_shifted_diagonal_with_a_floor() {
        let r = Mat::from_rows(&[&[1.0], &[1.0], &[1.0]]);
        let w = precondition(&r, &[2.0, 4.0, 1.0], &[1.0]);
        assert!((w[(0, 0)] - 1.0).abs() < 1e-12); // 1/(2-1)
        assert!((w[(1, 0)] - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(w[(2, 0)], 1.0 / PRECOND_FLOOR, "resonant: D − θ = 0");
    }

    #[test]
    fn distributed_matches_serial_eigenvalues() {
        let ham = test_ham();
        let k = 3;
        let dense = lowest(&ham.to_dense(), k);
        for ranks in [1usize, 2, 4] {
            let res = spmd(ranks, |c| {
                distributed_casida_lobpcg(
                    c,
                    &ham,
                    k,
                    LobpcgOptions { max_iter: 300, tol: 1e-9 },
                    42,
                )
            });
            for r in &res {
                let r = r.as_ref().unwrap_or_else(|e| panic!("ranks={ranks}: {e}"));
                assert!(r.converged, "ranks={ranks}: residual {}", r.residual);
                for (i, (v, want)) in r.values.iter().zip(&dense.values).enumerate() {
                    let rel = (v - want).abs() / want.abs().max(1e-12);
                    assert!(rel < 1e-10, "ranks={ranks} state {i}: {v} vs dense {want}");
                }
            }
        }
    }

    #[test]
    fn local_vector_blocks_reassemble_orthonormal() {
        let ham = test_ham();
        let k = 2;
        let ncv = ham.diag_d.len();
        let ranks = 3;
        let res = spmd(ranks, |c| {
            let r = distributed_casida_lobpcg(
                c,
                &ham,
                k,
                LobpcgOptions { max_iter: 300, tol: 1e-8 },
                7,
            )
            .expect("distributed solve");
            (c.rank(), r.local_vectors)
        });
        let mut full = Mat::zeros(ncv, k);
        for (rank, block) in &res {
            let rr = block_ranges(ncv, ranks)[*rank].clone();
            for j in 0..k {
                for (il, i) in rr.clone().enumerate() {
                    full[(i, j)] = block[(il, j)];
                }
            }
        }
        let g = gemm_tn(&full, &full);
        assert!(g.max_abs_diff(&Mat::eye(k)) < 1e-6, "Gram:\n{g:?}");
    }

    #[test]
    fn timings_report_mpi_share_for_multirank() {
        let ham = test_ham();
        let res = spmd(4, |c| {
            let clock = obskit::StageClock::now();
            let _ = distributed_casida_lobpcg(
                c,
                &ham,
                2,
                LobpcgOptions { max_iter: 50, tol: 1e-7 },
                1,
            );
            crate::StageTimings::since(clock)
        });
        for t in res {
            assert!(t.mpi > 0.0, "distributed solve must register comm time");
        }
    }

    #[test]
    fn two_collectives_per_iteration() {
        // The communication-avoiding schedule: after warmup, each iteration
        // costs exactly one packed Gram/norm reduce plus one H·Q reduction.
        let ham = test_ham();
        let res = spmd(2, |c| {
            let short = distributed_casida_lobpcg(
                c,
                &ham,
                2,
                LobpcgOptions { max_iter: 3, tol: 1e-300 },
                11,
            )
            .expect("short run");
            let calls_short = c.take_stats().collective_calls;
            let long = distributed_casida_lobpcg(
                c,
                &ham,
                2,
                LobpcgOptions { max_iter: 8, tol: 1e-300 },
                11,
            )
            .expect("long run");
            (calls_short, c.stats().collective_calls, short.iterations, long.iterations)
        });
        for (calls_short, calls_long, it_short, it_long) in res {
            assert_eq!(it_short, 3);
            assert_eq!(it_long, 8);
            assert_eq!(
                (calls_long - calls_short) as usize,
                2 * (it_long - it_short),
                "each extra iteration must cost exactly 2 collectives"
            );
        }
    }

    /// Casida-like `H`: positive diagonal `D` plus a small symmetric
    /// coupling.
    fn random_casida(n: usize, rng: &mut StdRng) -> (Mat, Vec<f64>) {
        let d: Vec<f64> = (0..n).map(|_| rng.gen_range(0.3..1.5)).collect();
        let mut h = Mat::from_fn(n, n, |_, _| 0.1 * rng.gen_range(-1.0..1.0));
        h.symmetrize();
        for (i, di) in d.iter().enumerate() {
            h[(i, i)] += di;
        }
        (h, d)
    }

    #[test]
    fn spaces_smaller_than_the_trial_block_return_the_dense_spectrum() {
        // With 3b > n the trial space [X W P] cannot hold its columns: the
        // drop-tolerance Cholesky keeps at most n of them. 200 seeds per
        // order; every run converges to the dense spectrum.
        let solo = Comm::solo();
        for n in [3usize, 4, 5, 6, 8] {
            for seed in 0..200u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let k = rng.gen_range(n / 3 + 1..=n);
                let (h, d) = random_casida(n, &mut rng);
                let dense = syev(&h);
                let op = CasidaOp::Dense { h: &h, diag_d: &d };
                let case = format!("n={n} k={k} seed={seed}");
                let res = distributed_casida_lobpcg(&solo, op, k, LobpcgOptions::default(), seed)
                    .unwrap_or_else(|e| panic!("{case}: {e}"));
                assert!(res.converged, "{case}: residual {}", res.residual);
                for (i, v) in res.values.iter().enumerate() {
                    let want = dense.values[i];
                    assert!((v - want).abs() < 1e-6, "{case} λ_{i}: {v} vs {want}");
                }
            }
        }
    }

    #[test]
    fn overflowed_gram_breaks_down_on_every_rank() {
        // One `f_xc` entry at f64::MAX: the factors are finite, but the
        // first iteration's subspace Gram [X W]ᵀ[X W] overflows. The check
        // reads the reduced (replicated) Gram, so every rank breaks down.
        let mut p = synthetic_problem([8, 8, 8], 6.0, 2, 2);
        p.fxc[100] = f64::MAX;
        let ham = build_isdf_hamiltonian(&Comm::solo(), &p, PointSelector::Kmeans, p.n_cv())
            .expect("finite");
        for ranks in [1, 2] {
            let res = spmd(ranks, |c| {
                distributed_casida_lobpcg(c, &ham, 2, LobpcgOptions::default(), 3).err()
            });
            for err in res {
                match err {
                    Some(SolveError::Breakdown { stage: "lobpcg", iteration: 1, .. }) => {}
                    other => panic!("{ranks} ranks: expected a breakdown, got {other:?}"),
                }
            }
        }
    }
}
