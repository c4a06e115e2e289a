//! Distributed implicit LOBPCG: the eigensolver side of the paper's parallel
//! design, restructured for **communication avoidance**.
//!
//! The excitation-vector block `X` (`N_cv × k`) is distributed by **pair
//! rows** across ranks. The seed schedule issued five latency-bound
//! collectives per iteration (Gram, residual norms, Cholesky-QR Gram, one
//! inside `H·S`, subspace Gram); this version issues **two**:
//!
//! 1. `H·W` — only the preconditioned-residual block pays an operator
//!    application (`H·X`, `H·P` are carried forward as local linear
//!    combinations of the previous `H·S`); its `C·W` partial-product
//!    reduction is settled after the local diagonal term is computed;
//! 2. one **fused** allreduce (a persistent [`ReducePlan`]) carrying
//!    `SᵀS`, `SᵀHS`, *and* the residual-norm partials of the current
//!    iterate in a single packed payload.
//!
//! Orthonormalization moved out of the collective schedule entirely: instead
//! of a distributed Cholesky-QR per iteration, the Rayleigh–Ritz step solves
//! the *generalized* problem `(SᵀHS) y = λ (SᵀS) y` from the already-reduced
//! Grams (`G = LLᵀ`, `M = L⁻¹(SᵀHS)L⁻ᵀ`, replicated and tiny), so the new
//! `X = S·(L⁻ᵀY)` is orthonormal by construction.
//!
//! The convergence test is **one-iteration-delayed**: residual-norm partials
//! are summed locally when the residual is formed, but ride the *next*
//! iteration's fused reduce. The test still grades exactly the iterate it
//! returns (the norms are that iterate's exact global norms — only the
//! collective moved), so the converged answer is never changed; the delay
//! costs at most one speculative `H·W` application.
//!
//! This is exactly why the implicit form scales: every collective carries
//! `O(N_μ·m)` or `O(m²)` doubles, never the `O(N_cv²)` Hamiltonian — and now
//! each iteration pays two latencies instead of five.

use crate::lobpcg_driver::initial_guess;
use crate::versions::IsdfHamiltonian;
use faultkit::SolveError;
use mathkit::chol::{
    cholesky, solve_lower, solve_lower_transpose, solve_right_lower_transpose, solve_spd,
};
use mathkit::gemm::{gemm, gemm_tn, syrk_tn, Transpose};
use mathkit::lobpcg::LobpcgOptions;
use mathkit::{syev, Mat};
use parcomm::layout::block_ranges;
use parcomm::{Comm, ReducePlan, RetryPolicy};
use std::ops::Range;

/// Result of the distributed eigensolve.
pub struct DistributedEigResult {
    pub values: Vec<f64>,
    /// This rank's row block of the eigenvectors (`my_rows × k`).
    pub local_vectors: Mat,
    pub iterations: usize,
    pub residual: f64,
    pub converged: bool,
}

impl DistributedEigResult {
    /// Convert honest non-convergence into the typed error, for callers that
    /// require a converged result.
    pub fn into_converged(self) -> Result<Self, SolveError> {
        if self.converged {
            Ok(self)
        } else {
            Err(SolveError::NotConverged {
                stage: "dist_lobpcg",
                residual: self.residual,
                iterations: self.iterations,
            })
        }
    }
}

/// Apply the implicit Hamiltonian to a row-distributed block:
/// `out_loc = D_loc ∘ X_loc + 2 C_locᵀ (Ṽ (ΣC_loc X_loc))`.
fn apply_distributed(
    comm: &Comm,
    ham: &IsdfHamiltonian,
    rows: &Range<usize>,
    x_loc: &Mat,
) -> Result<Mat, SolveError> {
    let n_mu = ham.c.nrows();
    let m = x_loc.ncols();
    // C restricted to my pair columns.
    let c_loc = ham.c.col_block(rows.start, rows.end);
    let mut cx = Mat::zeros(n_mu, m);
    gemm(1.0, &c_loc, Transpose::No, x_loc, Transpose::No, 0.0, &mut cx);
    // The CX reduction is issued before the diagonal term (independent of
    // CX) is computed and settled after it. The partial product is retained
    // so a dropped request can be re-issued (drop faults fire symmetrically
    // across ranks, so the re-issue stays collective).
    let cx_vec = cx.into_vec();
    let rq = comm.iallreduce_sum(cx_vec.clone());
    let mut diag_term = Mat::zeros(rows.len(), m);
    for j in 0..m {
        let xc = x_loc.col(j);
        let dc = diag_term.col_mut(j);
        for (il, i) in rows.clone().enumerate() {
            dc[il] = ham.diag_d[i] * xc[il];
        }
    }
    let data = comm.settle(rq, &RetryPolicy::default(), |c| c.iallreduce_sum(cx_vec.clone()))?;
    let cx = Mat::from_vec(n_mu, m, data);
    let mut vcx = Mat::zeros(n_mu, m);
    gemm(1.0, &ham.v_tilde, Transpose::No, &cx, Transpose::No, 0.0, &mut vcx);
    let mut out = Mat::zeros(rows.len(), m);
    gemm(2.0, &c_loc, Transpose::Yes, &vcx, Transpose::No, 0.0, &mut out);
    for j in 0..m {
        let dc = diag_term.col(j);
        let oc = out.col_mut(j);
        for (o, d) in oc.iter_mut().zip(dc) {
            *o += d;
        }
    }
    Ok(out)
}

/// Distributed Gram matrix `AᵀB` of row-distributed blocks (replicated result).
fn dist_gram(comm: &Comm, a_loc: &Mat, b_loc: &Mat) -> Mat {
    let mut g = gemm_tn(a_loc, b_loc);
    comm.allreduce_sum(g.as_mut_slice());
    g
}

/// Cholesky-QR of a row-distributed block; `None` if the Gram matrix
/// degenerates. Returns the orthonormalized local block. Used once on the
/// initial guess — the iteration itself orthonormalizes through the
/// generalized Rayleigh–Ritz step and needs no per-iteration collective.
fn dist_cholesky_qr(comm: &Comm, s_loc: &Mat) -> Option<Mat> {
    // SᵀS is a symmetric Gram — the packed rank-k engine computes only the
    // lower triangle and mirrors it; one small Allreduce replicates it.
    let mut g = syrk_tn(s_loc);
    comm.allreduce_sum(g.as_mut_slice());
    match cholesky(&g) {
        Ok(l) => Some(solve_right_lower_transpose(s_loc, &l)),
        Err(_) => None,
    }
}

/// Local residual block `R = HX − X·diag(θ)`.
fn residual(x: &Mat, hx: &Mat, theta: &[f64]) -> Mat {
    let mut r = hx.clone();
    for (j, &th) in theta.iter().enumerate() {
        let xc = x.col(j);
        for (rv, xv) in r.col_mut(j).iter_mut().zip(xc.iter()) {
            *rv -= th * xv;
        }
    }
    r
}

/// Diagonal preconditioner (paper Eq. 17), in place on the local block.
fn precondition(w: &mut Mat, rows: &Range<usize>, diag_d: &[f64], theta: &[f64]) {
    for (j, &th) in theta.iter().enumerate() {
        let col = w.col_mut(j);
        for (il, i) in rows.clone().enumerate() {
            let mut den = diag_d[i] - th;
            if den.abs() < 1e-3 {
                den = 1e-3f64.copysign(if den == 0.0 { 1.0 } else { den });
            }
            col[il] /= den;
        }
    }
}

/// Leading `n × n` principal submatrix (replicated, tiny).
fn principal(a: &Mat, n: usize) -> Mat {
    Mat::from_fn(n, n, |i, j| a[(i, j)])
}

/// Generalized Rayleigh–Ritz from the already-reduced replicated Grams
/// `G = SᵀS`, `A = SᵀHS`: factor `G = LLᵀ`, diagonalize `M = L⁻¹AL⁻ᵀ`, and
/// return the `k` lowest Ritz values with basis coefficients `C = L⁻ᵀY`
/// (so `CᵀGC = I` — the updated block is orthonormal with **no** extra
/// collective). `None` when `G` has lost positive definiteness.
fn rr_step(g: &Mat, a: &Mat, k: usize) -> Option<(Vec<f64>, Mat)> {
    let l = cholesky(g).ok()?;
    let half = solve_lower(&l, a);
    let mut m = solve_right_lower_transpose(&half, &l);
    m.symmetrize();
    let eig = syev(&m);
    let cols: Vec<usize> = (0..k).collect();
    let y = eig.vectors.select_cols(&cols);
    let c = solve_lower_transpose(&l, &y);
    Some((eig.values[..k].to_vec(), c))
}

/// Distributed implicit LOBPCG for the lowest `k` eigenpairs of the
/// (replicated) factored Hamiltonian. SPMD-collective; every rank gets the
/// same eigenvalues and its own row block of eigenvectors.
///
/// `Ok` with `converged == false` is honest non-convergence (see
/// [`DistributedEigResult::into_converged`]); `Err` is an iteration breakdown
/// or an exhausted communication retry. Breakdown guards test replicated
/// quantities (fused-allreduced norms and Gram matrices), so every rank takes
/// the same branch and the SPMD collective order never diverges.
pub fn distributed_casida_lobpcg(
    comm: &Comm,
    ham: &IsdfHamiltonian,
    k: usize,
    opts: LobpcgOptions,
    seed: u64,
) -> Result<DistributedEigResult, SolveError> {
    let ncv = ham.diag_d.len();
    let k = k.min(ncv);
    let rows = block_ranges(ncv, comm.size())[comm.rank()].clone();
    // One span over the whole solve: the nested mpi:* spans from the
    // collectives subtract out of its self time, so diag = elapsed − comm.
    let _sp = obskit::span(obskit::Stage::Diag, "diag.lobpcg.dist");

    // Replicated deterministic guess, then slice my rows.
    let x0 = initial_guess(&ham.diag_d, k, seed);
    let mut x = x0.row_block(rows.start, rows.end);
    if let Some(q) = dist_cholesky_qr(comm, &x) {
        x = q;
    }
    let mut hx = apply_distributed(comm, ham, &rows, &x)?;
    // θ₀ from one small Gram (X orthonormal ⇒ diagonal = Rayleigh quotients).
    let g0 = dist_gram(comm, &x, &hx);
    let mut theta: Vec<f64> = (0..k).map(|i| g0[(i, i)]).collect();
    // Current local residual; its norm partials ride the next fused reduce.
    let mut r = residual(&x, &hx, &theta);
    let mut p_blk: Option<(Mat, Mat)> = None; // (P, H·P), carried locally
    let mut prev_norms: Option<Vec<f64>> = None; // previous global ‖r‖²
    let mut best_residual = f64::INFINITY;
    let mut iterations = 0;
    let mut converged = false;
    // Persistent fused plan; rebuilt only when the subspace width changes
    // (once when P first appears).
    let mut plan: Option<ReducePlan> = None;
    let mut plan_m = 0usize;

    for it in 0..opts.max_iter {
        iterations = it + 1;
        // W = preconditioned residual. Columns are scaled by the previous
        // iteration's global residual norms — replicated, already paid for,
        // and within a convergence factor of the current norms — to keep the
        // subspace Gram well-conditioned without a fresh collective.
        let mut w = r.clone();
        precondition(&mut w, &rows, &ham.diag_d, &theta);
        if let Some(n2) = &prev_norms {
            for (j, n2j) in n2.iter().enumerate().take(k) {
                let s = n2j.sqrt();
                if s > 1e-300 {
                    let inv = 1.0 / s;
                    for v in w.col_mut(j) {
                        *v *= inv;
                    }
                }
            }
        }
        // Collective 1 of 2: H·W (the only operator application — H·X and
        // H·P are linear combinations of the previous H·S, formed locally).
        let hw = apply_distributed(comm, ham, &rows, &w)?;

        // S = [X, W, P], HS = [HX, HW, HP].
        let pn = p_blk.as_ref().map_or(0, |(pm, _)| pm.ncols());
        let m = 2 * k + pn;
        let mut s = Mat::zeros(rows.len(), m);
        let mut hs = Mat::zeros(rows.len(), m);
        for j in 0..k {
            s.col_mut(j).copy_from_slice(x.col(j));
            s.col_mut(k + j).copy_from_slice(w.col(j));
            hs.col_mut(j).copy_from_slice(hx.col(j));
            hs.col_mut(k + j).copy_from_slice(hw.col(j));
        }
        if let Some((pm, hpm)) = &p_blk {
            for j in 0..pn {
                s.col_mut(2 * k + j).copy_from_slice(pm.col(j));
                hs.col_mut(2 * k + j).copy_from_slice(hpm.col(j));
            }
        }

        // Collective 2 of 2: ONE fused reduce carrying SᵀS, SᵀHS, and the
        // residual-norm partials of the current X — what the seed spent
        // three separate latency-bound allreduces on.
        let plan_ref = match &mut plan {
            Some(pl) if plan_m == m => {
                pl.clear();
                pl
            }
            _ => {
                plan = Some(ReducePlan::new(&[m * m, m * m, k]));
                plan_m = m;
                plan.as_mut().expect("plan just installed")
            }
        };
        let g_loc = syrk_tn(&s);
        let a_loc = gemm_tn(&s, &hs);
        plan_ref.field_mut(0).copy_from_slice(g_loc.as_slice());
        plan_ref.field_mut(1).copy_from_slice(a_loc.as_slice());
        for j in 0..k {
            plan_ref.field_mut(2)[j] = r.col(j).iter().map(|v| v * v).sum::<f64>();
        }
        plan_ref.execute(comm)?;

        // Delayed convergence test: these are the exact global norms of the
        // residual of the *current* X/θ — the same quantity the seed tested,
        // one collective later. Passing it returns exactly this iterate.
        let norms = plan_ref.field(2).to_vec();
        let resid = norms
            .iter()
            .zip(theta.iter())
            .map(|(n2, th)| n2.sqrt() / th.abs().max(1.0))
            .fold(0.0f64, f64::max);
        // Replicated (fused-allreduced) quantity: every rank sees the same
        // value and errors out together.
        if !resid.is_finite() {
            return Err(SolveError::Breakdown {
                stage: "dist_lobpcg",
                iteration: iterations,
                reason: "non-finite residual norm".to_string(),
            });
        }
        best_residual = best_residual.min(resid);
        obskit::instant(
            obskit::Stage::Diag,
            "lobpcg.iter",
            &[
                ("iter", it as f64),
                ("resid", resid),
                ("theta_min", theta.iter().cloned().fold(f64::INFINITY, f64::min)),
            ],
        );
        if resid < opts.tol {
            converged = true;
            break;
        }

        let g = Mat::from_vec(m, m, plan_ref.field(0).to_vec());
        let a = Mat::from_vec(m, m, plan_ref.field(1).to_vec());
        // Also replicated — a poisoned subspace Gram would send syev into
        // NaN soup on every rank simultaneously; fail typed instead.
        if g.as_slice().iter().chain(a.as_slice().iter()).any(|v| !v.is_finite()) {
            return Err(SolveError::Breakdown {
                stage: "dist_lobpcg",
                iteration: iterations,
                reason: "non-finite subspace Gram matrix".to_string(),
            });
        }
        // Generalized Rayleigh–Ritz; on Cholesky breakdown drop the P block
        // (the leading 2k×2k principal blocks of the *already-reduced* Grams
        // — recovery costs no collective), else bail with best known.
        let (msub, step) = match rr_step(&g, &a, k) {
            Some(st) => (m, st),
            None => match rr_step(&principal(&g, 2 * k), &principal(&a, 2 * k), k) {
                Some(st) => (2 * k, st),
                None => break,
            },
        };
        let (theta_new, coef) = step;
        let s_use = if msub == m { s } else { s.col_block(0, msub) };
        let hs_use = if msub == m { hs } else { hs.col_block(0, msub) };

        let mut x_new = Mat::zeros(rows.len(), k);
        gemm(1.0, &s_use, Transpose::No, &coef, Transpose::No, 0.0, &mut x_new);
        let mut hx_new = Mat::zeros(rows.len(), k);
        gemm(1.0, &hs_use, Transpose::No, &coef, Transpose::No, 0.0, &mut hx_new);

        // P = S·C_p with the X-block rows of C zeroed (the classic LOBPCG
        // direction), column-normalized through the replicated Gram:
        // ‖P_j‖² = (C_pᵀ G C_p)_jj — again no collective.
        let mut c_p = coef.clone();
        for j in 0..k {
            for i in 0..k {
                c_p[(i, j)] = 0.0;
            }
        }
        let g_use = if msub == m { g } else { principal(&g, msub) };
        let mut gc_p = Mat::zeros(msub, k);
        gemm(1.0, &g_use, Transpose::No, &c_p, Transpose::No, 0.0, &mut gc_p);
        for j in 0..k {
            let n2: f64 = c_p.col(j).iter().zip(gc_p.col(j)).map(|(a, b)| a * b).sum();
            if n2 > 1e-300 {
                let inv = 1.0 / n2.sqrt();
                for v in c_p.col_mut(j) {
                    *v *= inv;
                }
            }
        }
        let mut p_new = Mat::zeros(rows.len(), k);
        gemm(1.0, &s_use, Transpose::No, &c_p, Transpose::No, 0.0, &mut p_new);
        let mut hp_new = Mat::zeros(rows.len(), k);
        gemm(1.0, &hs_use, Transpose::No, &c_p, Transpose::No, 0.0, &mut hp_new);

        x = x_new;
        hx = hx_new;
        p_blk = Some((p_new, hp_new));
        theta = theta_new;
        r = residual(&x, &hx, &theta);
        prev_norms = Some(norms);
    }

    // θ are exact Ritz values of the returned X already (CᵀGC = I in the
    // generalized step; θ₀ came from the explicit Gram) — the seed's
    // post-loop Gram collective is gone. Sort ascending (replicated).
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&a, &b| theta[a].partial_cmp(&theta[b]).unwrap());
    let values: Vec<f64> = order.iter().map(|&i| theta[i]).collect();
    let local_vectors = x.select_cols(&order);

    Ok(DistributedEigResult {
        values,
        local_vectors,
        iterations,
        residual: best_residual,
        converged,
    })
}

/// Distributed SPD solve helper kept for parity with ScaLAPACK-style flows
/// (used in tests to validate replicated small solves).
pub fn replicated_spd_solve(a: &Mat, b: &Mat) -> Mat {
    solve_spd(a, b).expect("replicated SPD solve")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lobpcg_driver::solve_casida_lobpcg;
    use crate::problem::synthetic_problem;
    use crate::versions::{build_isdf_hamiltonian, PointSelector};
    use parcomm::spmd;

    fn test_ham() -> IsdfHamiltonian {
        let p = synthetic_problem([8, 8, 8], 6.0, 3, 3);
        let solo = Comm::solo();
        build_isdf_hamiltonian(&solo, &p, PointSelector::Qrcp, p.n_cv(), &mut Vec::new())
            .expect("clean full-rank build")
    }

    #[test]
    fn distributed_matches_serial_eigenvalues() {
        let ham = test_ham();
        let k = 3;
        let serial = solve_casida_lobpcg(
            |x| ham.apply(x),
            &ham.diag_d,
            k,
            LobpcgOptions { max_iter: 300, tol: 1e-9 },
            42,
        )
        .expect("serial solve");
        for ranks in [1usize, 2, 4] {
            let res = spmd(ranks, |c| {
                distributed_casida_lobpcg(
                    c,
                    &ham,
                    k,
                    LobpcgOptions { max_iter: 300, tol: 1e-9 },
                    42,
                )
                .and_then(DistributedEigResult::into_converged)
                .map(|r| r.values)
            });
            for r in &res {
                let vals = match r {
                    Ok(vals) => vals,
                    Err(e) => panic!("ranks={ranks}: {e}"),
                };
                for (i, v) in vals.iter().enumerate().take(k) {
                    let rel =
                        (v - serial.values[i]).abs() / serial.values[i].abs().max(1e-12);
                    assert!(
                        rel < 1e-6,
                        "ranks={ranks} state {i}: {} vs {}",
                        v,
                        serial.values[i]
                    );
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
        // costs exactly one H·W reduction plus one fused Gram/norm reduce.
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
            let calls_short = c.stats().collective_calls;
            c.reset_stats();
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
        // Under `PARCOMM_NO_FUSE=1` the plan degrades to one collective per
        // field (H·W apply + SᵀS + SᵀHS + norms = 4), same iteration count.
        let per_iter = if parcomm::fusion_enabled() { 2 } else { 4 };
        for (calls_short, calls_long, it_short, it_long) in res {
            assert_eq!(it_short, 3);
            assert_eq!(it_long, 8);
            assert_eq!(
                (calls_long - calls_short) as usize,
                per_iter * (it_long - it_short),
                "each extra iteration must cost exactly {per_iter} collectives"
            );
        }
    }
}
