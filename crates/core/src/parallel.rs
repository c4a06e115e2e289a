//! Distributed LR-TDDFT pipeline (paper §5, Algorithm 1) on the simulated
//! MPI runtime.
//!
//! Data distributions follow paper Fig. 3: wavefunctions and orbital-pair
//! products live in **row-block** layout for the face-splitting product and
//! GEMM stages, are re-shuffled to **column-block** layout via `Alltoallv`
//! for the FFT stage (each rank then owns whole grids of a column subset),
//! and shuffled back. The `V_Hxc` contraction uses either the monolithic
//! GEMM+`Allreduce` or the pipelined GEMM+`Reduce` of [`crate::pipeline`].
//!
//! Every function here is SPMD-collective: all ranks call it with the same
//! global problem; each rank works on its slab and the returned data is
//! replicated (suitable for the replicated diagonalization step).

use crate::kernel::HxcKernel;
use crate::options::{Eig, SolveOptions};
use crate::parallel_eig::DistributedEigResult;
use crate::problem::CasidaProblem;
use crate::timers::StageTimings;
use crate::versions::IsdfHamiltonian;
use faultkit::NumericalError;
use isdf::face_splitting_product;
use mathkit::gemm::{gemm, Transpose};
use mathkit::{syev, Mat};
use parcomm::layout::block_ranges;
use parcomm::redist::{col_to_row_blocks, row_to_col_blocks};
use parcomm::{Comm, ReduceBatch, ReducePlan};

/// Apply `f_Hxc` to a row-block-distributed field batch: redistribute to
/// column blocks, FFT-apply locally, redistribute back. Returns the local
/// row-block piece of the transformed batch.
pub fn distributed_kernel_apply(
    comm: &Comm,
    problem: &CasidaProblem,
    local_rows: &Mat,
    n_cols_global: usize,
) -> Mat {
    let nr = problem.n_r();

    // Row-block → column-block (Algorithm 1 line 3).
    let col_piece = row_to_col_blocks(comm, local_rows.as_slice(), nr, n_cols_global);

    // FFT + f_xc on my full-grid columns (lines 4–5).
    let sp = obskit::span(obskit::Stage::Fft, "kernel.apply");
    let my_cols = block_ranges(n_cols_global, comm.size())[comm.rank()].len();
    let cols_mat = Mat::from_vec(nr, my_cols, col_piece);
    let kernel = HxcKernel::for_problem(problem);
    let mut transformed = Mat::zeros(nr, my_cols);
    kernel.apply_into(&cols_mat, &mut transformed);
    drop(sp);

    // Column-block → row-block (line 6).
    let back = col_to_row_blocks(comm, transformed.as_slice(), nr, n_cols_global);
    Mat::from_vec(local_rows.nrows(), n_cols_global, back)
}

/// Distributed naive Hamiltonian construction (Algorithm 1). Returns the
/// replicated dense `H` plus this rank's stage timings. `opts.pipelined`
/// selects the GEMM+`Reduce` overlap schedule for the `V_Hxc` contraction.
pub fn distributed_dense_hamiltonian_with(
    comm: &Comm,
    problem: &CasidaProblem,
    opts: &SolveOptions,
) -> (Mat, StageTimings) {
    let pipelined = opts.pipelined;
    let clock = obskit::StageClock::now();
    let nr = problem.n_r();
    let ncv = problem.n_cv();
    let dv = problem.grid.dv();
    let my_rows = block_ranges(nr, comm.size())[comm.rank()].clone();

    // Local face-splitting product on my grid slab (line 2).
    let sp = obskit::span(obskit::Stage::FaceSplit, "face_split");
    let psi_v_loc = problem.psi_v.row_block(my_rows.start, my_rows.end);
    let psi_c_loc = problem.psi_c.row_block(my_rows.start, my_rows.end);
    let z_loc = face_splitting_product(&psi_v_loc, &psi_c_loc);
    drop(sp);

    // f_Hxc through the FFT layout dance (lines 3–6).
    let fz_loc = distributed_kernel_apply(comm, problem, &z_loc, ncv);

    // V_Hxc: local GEMM + reduction (lines 7–8 / Figs. 4–5).
    let mut h = if pipelined {
        let sp = obskit::span(obskit::Stage::Gemm, "v_hxc.pipelined_reduce");
        let res = crate::pipeline::gram_pipelined_reduce(comm, &z_loc, &fz_loc, 2.0 * dv)
            .unwrap_or_else(|e| panic!("v_hxc pipelined reduce: {e}"));
        drop(sp);
        // Re-assemble the replicated matrix for the (replicated) eigensolve.
        let gathered = comm.allgatherv(res.local.as_slice());
        Mat::from_vec(ncv, ncv, gathered)
    } else {
        let sp = obskit::span(obskit::Stage::Gemm, "v_hxc.contract");
        let mut v = Mat::zeros(ncv, ncv);
        gemm(2.0 * dv, &z_loc, Transpose::Yes, &fz_loc, Transpose::No, 0.0, &mut v);
        drop(sp);
        comm.allreduce_sum(v.as_mut_slice());
        v
    };

    // H = D + 2 V_Hxc (line 10).
    for (i, d) in problem.diag_d().iter().enumerate() {
        h[(i, i)] += d;
    }
    h.symmetrize();
    (h, StageTimings::since(clock))
}

/// Distributed weighted K-Means (paper §4.2 parallel design): every rank
/// classifies its own grid slab; cluster sums are `Allreduce`d each Lloyd
/// step. Returns the replicated interpolation-point list.
pub fn distributed_kmeans(
    comm: &Comm,
    problem: &CasidaProblem,
    n_mu: usize,
    max_iter: usize,
) -> Vec<usize> {
    let nr = problem.n_r();
    let my_rows = block_ranges(nr, comm.size())[comm.rank()].clone();

    // Local weights, gathered so every rank can run the identical
    // deterministic initialization.
    let sp = obskit::span(obskit::Stage::Kmeans, "kmeans.weights");
    let psi_v_loc = problem.psi_v.row_block(my_rows.start, my_rows.end);
    let psi_c_loc = problem.psi_c.row_block(my_rows.start, my_rows.end);
    let w_loc = isdf::pair_weights(&psi_v_loc, &psi_c_loc);
    drop(sp);
    let w_all = comm.allgatherv(&w_loc);

    let sp = obskit::span(obskit::Stage::Kmeans, "kmeans.init");
    let wmax = w_all.iter().cloned().fold(0.0f64, f64::max);
    let cutoff = 1e-6 * wmax;
    // Deterministic weight-guided init (identical on every rank).
    let mut order: Vec<usize> = (0..nr).filter(|&i| w_all[i] > cutoff).collect();
    order.sort_by(|&a, &b| w_all[b].partial_cmp(&w_all[a]).unwrap());
    if order.is_empty() {
        panic!("{}", NumericalError::AllZeroWeights);
    }
    // Degrade rather than die: if pruning leaves fewer candidates than N_μ,
    // proceed at the reduced rank. The weights are replicated, so every rank
    // clamps identically and the collective schedule stays aligned;
    // downstream consumes `points.len()` as the effective rank.
    let n_mu = n_mu.min(order.len());
    let vol: f64 = problem.grid.cell.volume();
    let mut dmin = 0.5 * (vol / n_mu as f64).powf(1.0 / 3.0);
    let mut centroids: Vec<[f64; 3]> = Vec::new();
    loop {
        centroids.clear();
        for &gi in &order {
            let c = problem.grid.coords(gi);
            if centroids.iter().all(|&cc| dist2(cc, c) >= dmin * dmin) {
                centroids.push(c);
                if centroids.len() == n_mu {
                    break;
                }
            }
        }
        if centroids.len() == n_mu || dmin < 1e-12 {
            while centroids.len() < n_mu {
                centroids.push(problem.grid.coords(order[centroids.len() % order.len()]));
            }
            break;
        }
        dmin *= 0.5;
    }
    // Local active points.
    let active: Vec<usize> = my_rows.clone().filter(|&gi| w_all[gi] > cutoff).collect();
    drop(sp);

    // Lloyd iterations: local classification + ONE fused reduction per sweep.
    // The persistent plan carries three fields — per-cluster weighted
    // coordinate sums, per-cluster weight counts, and the scalar Lloyd
    // objective Σ w·d² — that the unfused schedule pays three collective
    // latencies for.
    let mut assign = vec![0usize; active.len()];
    let mut plan = ReducePlan::new(&[3 * n_mu, n_mu, 1]);
    for sweep in 0..max_iter {
        let sp = obskit::span(obskit::Stage::Kmeans, "kmeans.classify");
        plan.clear();
        for (a, &gi) in assign.iter_mut().zip(active.iter()) {
            let w = w_all[gi];
            let c = problem.grid.coords(gi);
            let (cluster, d2) = nearest(&centroids, c);
            *a = cluster;
            let sums = plan.field_mut(0);
            sums[3 * cluster] += w * c[0];
            sums[3 * cluster + 1] += w * c[1];
            sums[3 * cluster + 2] += w * c[2];
            plan.field_mut(1)[cluster] += w;
            plan.field_mut(2)[0] += w * d2;
        }
        drop(sp);
        plan.execute(comm).unwrap_or_else(|e| panic!("kmeans cluster reduction: {e}"));

        let sp = obskit::span(obskit::Stage::Kmeans, "kmeans.update");
        obskit::instant(
            obskit::Stage::Kmeans,
            "kmeans.sweep",
            &[("sweep", sweep as f64), ("objective", plan.field(2)[0])],
        );
        let mut movement = 0.0;
        for k in 0..n_mu {
            let wsum = plan.field(1)[k];
            if wsum > 0.0 {
                let sums = plan.field(0);
                let new =
                    [sums[3 * k] / wsum, sums[3 * k + 1] / wsum, sums[3 * k + 2] / wsum];
                movement += dist2(centroids[k], new);
                centroids[k] = new;
            }
        }
        drop(sp);
        if movement < 1e-12 {
            break;
        }
    }

    // Snap to grid points: global argmin per cluster via allreduce on
    // (negated distance, encoded index) — implemented as min over gathered
    // per-rank candidates.
    let sp = obskit::span(obskit::Stage::Kmeans, "kmeans.snap");
    let mut local_best = vec![f64::INFINITY; n_mu];
    let mut local_idx = vec![-1.0; n_mu];
    for (a, &gi) in assign.iter().zip(active.iter()) {
        let d = dist2(centroids[*a], problem.grid.coords(gi));
        if d < local_best[*a] {
            local_best[*a] = d;
            local_idx[*a] = gi as f64;
        }
    }
    let mut cand = Vec::with_capacity(2 * n_mu);
    cand.extend_from_slice(&local_best);
    cand.extend_from_slice(&local_idx);
    drop(sp);
    let all_cand = comm.allgatherv(&cand);

    let sp = obskit::span(obskit::Stage::Kmeans, "kmeans.select");
    let p = comm.size();
    let mut points = Vec::with_capacity(n_mu);
    for k in 0..n_mu {
        let mut best = f64::INFINITY;
        let mut idx: i64 = -1;
        for r in 0..p {
            let base = r * 2 * n_mu;
            let d = all_cand[base + k];
            let gi = all_cand[base + n_mu + k];
            if gi >= 0.0 && d < best {
                best = d;
                idx = gi as i64;
            }
        }
        if idx >= 0 {
            points.push(idx as usize);
        }
    }
    points.sort_unstable();
    points.dedup();
    drop(sp);
    points
}

/// Distributed ISDF Hamiltonian construction: K-Means points, row-block Θ
/// solve, FFT layout dance, monolithic or pipelined Ṽ reduction
/// (`opts.pipelined`). Returns the replicated factored Hamiltonian plus this
/// rank's timings.
pub fn distributed_isdf_hamiltonian_with(
    comm: &Comm,
    problem: &CasidaProblem,
    opts: &SolveOptions,
) -> (IsdfHamiltonian, StageTimings) {
    let clock = obskit::StageClock::now();
    let nr = problem.n_r();
    let dv = problem.grid.dv();
    let n_mu = opts.rank.resolve(nr, problem.n_v(), problem.n_c());
    let my_rows = block_ranges(nr, comm.size())[comm.rank()].clone();

    // 1. Interpolation points (distributed K-Means).
    let points = distributed_kmeans(comm, problem, n_mu, 100);
    let n_mu_eff = points.len();

    // 2. Sampled orbital rows, assembled by summation (each point's row
    // lives on exactly one rank).
    let sp = obskit::span(obskit::Stage::Theta, "theta.sample_rows");
    let (n_v, n_c) = (problem.n_v(), problem.n_c());
    let mut psi_hat = Mat::zeros(n_mu_eff, n_v);
    let mut phi_hat = Mat::zeros(n_mu_eff, n_c);
    for (mu, &gi) in points.iter().enumerate() {
        if my_rows.contains(&gi) {
            for j in 0..n_v {
                psi_hat[(mu, j)] = problem.psi_v[(gi, j)];
            }
            for j in 0..n_c {
                phi_hat[(mu, j)] = problem.psi_c[(gi, j)];
            }
        }
    }
    drop(sp);
    // Both sampled-row reductions ride ONE fused collective (each point's
    // row lives on exactly one rank, so summation assembles them); the
    // unfused fallback issues them per field with the same fold order.
    let mut batch = ReduceBatch::new(comm);
    let f_psi = batch.push(psi_hat.as_slice());
    let f_phi = batch.push(phi_hat.as_slice());
    let fused = batch.flush().unwrap_or_else(|e| panic!("sampled-row reduction: {e}"));
    let psi_hat = Mat::from_vec(n_mu_eff, n_v, fused.field(f_psi).to_vec());
    let phi_hat = Mat::from_vec(n_mu_eff, n_c, fused.field(f_phi).to_vec());

    // 3. Θ rows on my slab: (ZCᵀ)_loc ∘-factored, solved against CCᵀ from
    // the right, so the slab is never transposed.
    let sp = obskit::span(obskit::Stage::Theta, "theta.solve");
    let psi_v_loc = problem.psi_v.row_block(my_rows.start, my_rows.end);
    let psi_c_loc = problem.psi_c.row_block(my_rows.start, my_rows.end);
    let pair = isdf::interp::gram_pair(&psi_v_loc, &psi_c_loc, &psi_hat, &phi_hat);
    // CCᵀ is built from replicated sampled rows — identical on every rank —
    // so every rank climbs the same Tikhonov ladder as the serial fit would.
    let theta_loc = isdf::interp::fit(pair).unwrap_or_else(|e| panic!("theta.cc_t: {e}"));
    drop(sp);

    // 4. f_Hxc Θ through the FFT layout dance.
    let f_theta_loc = distributed_kernel_apply(comm, problem, &theta_loc, n_mu_eff);

    // 5. Ṽ = ΔV Θᵀ(fΘ): monolithic GEMM+Allreduce, or the chunked
    // GEMM+Reduce overlap schedule (bitwise-identical) followed by a tiny
    // allgather to re-replicate.
    let mut v_tilde = if opts.pipelined {
        let sp = obskit::span(obskit::Stage::Gemm, "v_tilde.pipelined_reduce");
        let res = crate::pipeline::gram_pipelined_reduce(comm, &theta_loc, &f_theta_loc, dv)
            .unwrap_or_else(|e| panic!("v_tilde pipelined reduce: {e}"));
        drop(sp);
        let gathered = comm.allgatherv(res.local.as_slice());
        Mat::from_vec(n_mu_eff, n_mu_eff, gathered)
    } else {
        let sp = obskit::span(obskit::Stage::Gemm, "v_tilde.contract");
        let mut v = Mat::zeros(n_mu_eff, n_mu_eff);
        gemm(dv, &theta_loc, Transpose::Yes, &f_theta_loc, Transpose::No, 0.0, &mut v);
        drop(sp);
        comm.allreduce_sum(v.as_mut_slice());
        v
    };
    v_tilde.symmetrize();
    // Fault-injection point for the distributed build (mirrors the serial
    // "ham.v_tilde" site): the poison lands on the same element of every
    // rank's replicated copy, so the matrix stays replicated.
    faultkit::inject_slice("par.v_tilde", v_tilde.as_mut_slice());

    // 6. Coefficients (replicated, from the replicated sampled rows).
    let sp = obskit::span(obskit::Stage::Gemm, "coefficients");
    let c = face_splitting_product(&psi_hat, &phi_hat);
    drop(sp);

    (IsdfHamiltonian { diag_d: problem.diag_d(), c, v_tilde }, StageTimings::since(clock))
}

/// Full distributed solve: ISDF construction (Algorithm 1 + §4) followed by
/// the eigensolver `opts.eigensolver` picks — distributed matrix-free
/// LOBPCG ([`Eig::Lobpcg`], paper Table 4 row 5) or a replicated dense SYEV
/// on the factored Hamiltonian ([`Eig::Syev`]). Returns replicated
/// eigenvalues plus this rank's timings. External callers go through
/// [`crate::Solver::solve_distributed`], which fronts this.
pub(crate) fn distributed_solve_with(
    comm: &Comm,
    problem: &CasidaProblem,
    opts: &SolveOptions,
) -> (Vec<f64>, StageTimings) {
    let clock = obskit::StageClock::now();
    let (ham, _) = distributed_isdf_hamiltonian_with(comm, problem, opts);
    let k = opts.n_states.min(problem.n_cv());
    let values = distributed_eigensolve(comm, &ham, k, opts);
    (values, StageTimings::since(clock))
}

/// The eigensolver half of [`distributed_solve_with`], split out so the
/// serving scheduler can amortize one Hamiltonian build across a batch of
/// same-structure jobs while keeping each job's eigensolve — and therefore
/// its results — bitwise identical to a solo [`distributed_solve_with`]
/// run with the same options.
pub fn distributed_eigensolve(
    comm: &Comm,
    ham: &IsdfHamiltonian,
    k: usize,
    opts: &SolveOptions,
) -> Vec<f64> {
    match opts.eigensolver {
        Eig::Lobpcg => {
            let res =
                crate::parallel_eig::distributed_casida_lobpcg(comm, ham, k, opts.lobpcg, opts.seed)
                    .and_then(DistributedEigResult::into_converged);
            match res {
                Ok(r) => r.values,
                Err(_) => {
                    // Every breakdown/convergence guard in the distributed
                    // solver tests replicated quantities, so all ranks land
                    // here together — fall back to the replicated dense
                    // solve rather than abort the whole calculation.
                    let sp = obskit::span(obskit::Stage::Diag, "diag.syev.fallback");
                    let eig = syev(&ham.to_dense());
                    drop(sp);
                    eig.values[..k].to_vec()
                }
            }
        }
        Eig::Syev => {
            // The factored H is replicated, so every rank runs the same
            // dense solve — exact while N_cv stays small.
            let sp = obskit::span(obskit::Stage::Diag, "diag.syev.replicated");
            let eig = syev(&ham.to_dense());
            drop(sp);
            eig.values[..k].to_vec()
        }
    }
}

#[inline]
fn dist2(a: [f64; 3], b: [f64; 3]) -> f64 {
    let dx = a[0] - b[0];
    let dy = a[1] - b[1];
    let dz = a[2] - b[2];
    dx * dx + dy * dy + dz * dz
}

#[inline]
fn nearest(centroids: &[[f64; 3]], p: [f64; 3]) -> (usize, f64) {
    let mut bi = 0;
    let mut bd = f64::INFINITY;
    for (k, &c) in centroids.iter().enumerate() {
        let d = dist2(c, p);
        if d < bd {
            bd = d;
            bi = k;
        }
    }
    (bi, bd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::IsdfRank;
    use crate::naive::build_dense_hamiltonian;
    use crate::problem::synthetic_problem;
    use mathkit::syev;
    use parcomm::spmd;

    #[test]
    fn distributed_dense_matches_serial() {
        let p = synthetic_problem([8, 8, 8], 6.0, 2, 2);
        let serial = build_dense_hamiltonian(&p);
        for ranks in [1usize, 2, 4] {
            for pipelined in [false, true] {
                let opts = SolveOptions::new().pipelined(pipelined);
                let res =
                    spmd(ranks, |c| distributed_dense_hamiltonian_with(c, &p, &opts).0);
                for h in res {
                    assert!(
                        h.max_abs_diff(&serial) < 1e-9,
                        "ranks={ranks} pipelined={pipelined}"
                    );
                }
            }
        }
    }

    #[test]
    fn distributed_kernel_apply_matches_serial() {
        let p = synthetic_problem([8, 8, 8], 5.0, 2, 1);
        let kernel = HxcKernel::new(&p.grid, p.fxc.clone());
        let fields = Mat::from_fn(p.n_r(), 3, |r, j| ((r * (j + 1)) % 9) as f64 * 0.1);
        let serial = kernel.apply(&fields);
        let ranks = 3;
        let res = spmd(ranks, |c| {
            let rr = block_ranges(p.n_r(), ranks)[c.rank()].clone();
            let loc = fields.row_block(rr.start, rr.end);
            let clock = obskit::StageClock::now();
            let out = distributed_kernel_apply(c, &p, &loc, 3);
            assert!(StageTimings::since(clock).fft > 0.0);
            (rr, out)
        });
        for (rr, out) in res {
            let expect = serial.row_block(rr.start, rr.end);
            assert!(out.max_abs_diff(&expect) < 1e-10);
        }
    }

    #[test]
    fn distributed_kmeans_replicated_and_plausible() {
        let p = synthetic_problem([8, 8, 8], 6.0, 2, 2);
        let n_mu = 6;
        let res = spmd(3, |c| {
            let clock = obskit::StageClock::now();
            let pts = distributed_kmeans(c, &p, n_mu, 50);
            assert!(StageTimings::since(clock).kmeans > 0.0);
            pts
        });
        // identical on every rank
        assert_eq!(res[0], res[1]);
        assert_eq!(res[1], res[2]);
        assert!(!res[0].is_empty() && res[0].len() <= n_mu);
        assert!(res[0].iter().all(|&gi| gi < p.n_r()));
    }

    #[test]
    fn distributed_isdf_spectrum_matches_serial() {
        let p = synthetic_problem([8, 8, 8], 6.0, 3, 2);
        let n_mu = p.n_cv(); // full rank → exact
        // Serial reference spectrum via the naive dense Hamiltonian.
        let serial_h = build_dense_hamiltonian(&p);
        let serial_eig = syev(&serial_h);
        let opts = SolveOptions::new().rank(IsdfRank::Fixed(n_mu));
        for ranks in [1usize, 2, 4] {
            let res =
                spmd(ranks, |c| distributed_isdf_hamiltonian_with(c, &p, &opts).0.to_dense());
            for h in res {
                let eig = syev(&h);
                for i in 0..3 {
                    let rel = (eig.values[i] - serial_eig.values[i]).abs()
                        / serial_eig.values[i].abs().max(1e-12);
                    assert!(rel < 1e-4, "ranks={ranks} λ_{i} rel {rel}");
                }
            }
        }
    }

    #[test]
    fn full_distributed_solve_matches_serial_implicit() {
        let p = synthetic_problem([8, 8, 8], 6.0, 3, 2);
        let n_mu = p.n_cv();
        let k = 3;
        let serial = crate::Solver::builder()
            .version(crate::Version::ImplicitKmeansIsdfLobpcg)
            .n_states(k)
            .rank(IsdfRank::Fixed(n_mu))
            .build()
            .solve(&p)
            .unwrap();
        let opts = SolveOptions::new().n_states(k).rank(IsdfRank::Fixed(n_mu)).seed(9);
        for ranks in [1usize, 3] {
            let res = spmd(ranks, |c| distributed_solve_with(c, &p, &opts).0);
            for vals in &res {
                for (i, v) in vals.iter().enumerate().take(k) {
                    let rel =
                        (v - serial.energies[i]).abs() / serial.energies[i].abs().max(1e-12);
                    assert!(
                        rel < 1e-5,
                        "ranks={ranks} state {i}: {} vs {}",
                        v,
                        serial.energies[i]
                    );
                }
            }
        }
    }

    #[test]
    fn timings_accumulate_mpi_for_multirank() {
        let p = synthetic_problem([8, 8, 8], 6.0, 2, 2);
        let res = spmd(4, |c| distributed_dense_hamiltonian_with(c, &p, &SolveOptions::new()).1);
        for t in res {
            assert!(t.mpi > 0.0, "collectives must register comm time");
            assert!(t.fft > 0.0 && t.gemm > 0.0 && t.face_split > 0.0);
        }
    }

    #[test]
    fn pipelined_solve_bitwise_matches_blocking() {
        // The overlap schedule reorders nothing: every distributed solve must
        // produce bitwise-identical eigenvalues either way.
        let p = synthetic_problem([8, 8, 8], 6.0, 2, 2);
        let base = SolveOptions::new().n_states(2).rank(IsdfRank::Fixed(p.n_cv())).seed(7);
        for ranks in [2usize, 4] {
            let blocking = spmd(ranks, |c| distributed_solve_with(c, &p, &base).0);
            let pipelined =
                spmd(ranks, |c| distributed_solve_with(c, &p, &base.pipelined(true)).0);
            for (b, q) in blocking.iter().zip(&pipelined) {
                assert_eq!(b.len(), q.len());
                for (x, y) in b.iter().zip(q) {
                    assert_eq!(x.to_bits(), y.to_bits(), "ranks={ranks}: {x:e} vs {y:e}");
                }
            }
        }
    }

    #[test]
    fn distributed_syev_matches_lobpcg_spectrum() {
        let p = synthetic_problem([8, 8, 8], 6.0, 3, 2);
        let base = SolveOptions::new().n_states(3).rank(IsdfRank::Fixed(p.n_cv()));
        let dense = spmd(2, |c| distributed_solve_with(c, &p, &base.eigensolver(Eig::Syev)).0);
        let iter = spmd(2, |c| distributed_solve_with(c, &p, &base).0);
        for (d, l) in dense.iter().zip(&iter) {
            for (x, y) in d.iter().zip(l) {
                let rel = (x - y).abs() / x.abs().max(1e-12);
                assert!(rel < 1e-6, "syev {x} vs lobpcg {y}");
            }
        }
    }

    #[test]
    fn lobpcg_fallback_to_dense_on_nonconvergence() {
        // One iteration at an impossible tolerance cannot converge, so the
        // Lobpcg arm must fall back to the replicated dense solve — which is
        // exactly what the Syev arm runs, hence bitwise equality.
        let p = synthetic_problem([8, 8, 8], 6.0, 3, 2);
        let base = SolveOptions::new().n_states(3).rank(IsdfRank::Fixed(p.n_cv()));
        let starved = base.lobpcg(mathkit::LobpcgOptions { max_iter: 1, tol: 1e-14 });
        let fell_back = spmd(2, |c| distributed_solve_with(c, &p, &starved).0);
        let dense = spmd(2, |c| distributed_solve_with(c, &p, &base.eigensolver(Eig::Syev)).0);
        for (f, d) in fell_back.iter().zip(&dense) {
            for (x, y) in f.iter().zip(d) {
                assert_eq!(x.to_bits(), y.to_bits(), "fallback {x:e} vs syev {y:e}");
            }
        }
    }

    #[test]
    fn shared_build_eigensolve_bitwise_matches_solo_solve() {
        // The serving scheduler's batching contract: one Hamiltonian build
        // shared by several jobs, each finishing with its own
        // `distributed_eigensolve`, must be bitwise identical to each job
        // running the whole `distributed_solve_with` alone.
        let p = synthetic_problem([8, 8, 8], 6.0, 2, 2);
        let opts_a = SolveOptions::new().rank(IsdfRank::Fixed(p.n_cv())).n_states(2).seed(9);
        let opts_b = opts_a.n_states(3).eigensolver(Eig::Syev);
        let solo_a = spmd(2, |c| distributed_solve_with(c, &p, &opts_a).0);
        let solo_b = spmd(2, |c| distributed_solve_with(c, &p, &opts_b).0);
        let batched = spmd(2, |c| {
            // Build once with the batch-key options (rank/seed/pipelined
            // agree between the two jobs), then eigensolve per job.
            let (ham, _) = distributed_isdf_hamiltonian_with(c, &p, &opts_a);
            let a = distributed_eigensolve(c, &ham, 2, &opts_a);
            let b = distributed_eigensolve(c, &ham, 3, &opts_b);
            (a, b)
        });
        for (rank, (a, b)) in batched.iter().enumerate() {
            for (x, y) in a.iter().zip(&solo_a[rank]) {
                assert_eq!(x.to_bits(), y.to_bits(), "job A diverged under batching");
            }
            for (x, y) in b.iter().zip(&solo_b[rank]) {
                assert_eq!(x.to_bits(), y.to_bits(), "job B diverged under batching");
            }
        }
    }
}
