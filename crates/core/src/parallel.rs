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
use crate::parallel_eig::{distributed_casida_lobpcg, DistributedEigResult};
use crate::pipeline::gram_replicated;
use crate::problem::CasidaProblem;
use crate::recover::build_ladder;
use crate::timers::StageTimings;
use crate::versions::IsdfHamiltonian;
use isdf::face_splitting_product;
use mathkit::{syev, Mat};
use parcomm::redist::{col_to_row_blocks, row_to_col_blocks};
use parcomm::{block_ranges, Comm};

/// Apply `f_Hxc` to a row-block-distributed field batch: redistribute to
/// column blocks, FFT-apply locally, redistribute back. Returns the local
/// row-block piece of the transformed batch. On one rank the column-block
/// piece *is* the row-block piece, and the kernel runs on the borrowed slab.
pub fn distributed_kernel_apply(comm: &Comm, problem: &CasidaProblem, local_rows: &Mat) -> Mat {
    let (nr, n_cols_global) = (problem.n_r(), local_rows.ncols());
    let kernel = HxcKernel::for_problem(problem);
    if comm.size() == 1 {
        let _sp = obskit::span(obskit::Stage::Fft, "kernel.apply");
        return kernel.apply(local_rows);
    }

    // Row-block → column-block (Algorithm 1 line 3).
    let col_piece = row_to_col_blocks(comm, local_rows.as_slice(), nr, n_cols_global);

    // FFT + f_xc on my full-grid columns (lines 4–5).
    let sp = obskit::span(obskit::Stage::Fft, "kernel.apply");
    let my_cols = block_ranges(n_cols_global, comm.size())[comm.rank()].len();
    let transformed = kernel.apply(&Mat::from_vec(nr, my_cols, col_piece));
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
    let clock = obskit::StageClock::now();

    // Local face-splitting product on my grid slab (line 2).
    let sp = obskit::span(obskit::Stage::FaceSplit, "face_split");
    let slab = problem.slab(comm);
    let z_loc = face_splitting_product(&slab.psi_v, &slab.psi_c);
    drop(sp);

    // f_Hxc through the FFT layout dance (lines 3–6).
    let fz_loc = distributed_kernel_apply(comm, problem, &z_loc);

    // V_Hxc: local GEMM + reduction (lines 7–8 / Figs. 4–5).
    let sp = obskit::span(obskit::Stage::Gemm, "v_hxc.contract");
    let scale = 2.0 * problem.grid.dv();
    let mut h = gram_replicated(comm, &z_loc, &fz_loc, scale, opts.pipelined, &mut [])
        .unwrap_or_else(|e| panic!("v_hxc reduction: {e}"));
    drop(sp);

    // H = D + 2 V_Hxc (line 10).
    for (i, d) in problem.diag_d().iter().enumerate() {
        h[(i, i)] += d;
    }
    h.symmetrize();
    (h, StageTimings::since(clock))
}

/// Full distributed solve: the K-Means [`crate::build_isdf_hamiltonian`]
/// behind the serial solve's rebuild ladder, then the eigensolver
/// `opts.eigensolver` picks — distributed matrix-free LOBPCG ([`Eig::Lobpcg`],
/// paper Table 4 row 5) or a replicated dense SYEV ([`Eig::Syev`]). Returns
/// replicated eigenvalues plus this rank's timings; a build the ladder cannot
/// heal panics with the typed error and the recovery log. External callers go
/// through [`crate::Solver::solve_distributed`].
pub(crate) fn distributed_solve_with(
    comm: &Comm,
    problem: &CasidaProblem,
    opts: &SolveOptions,
) -> (Vec<f64>, StageTimings) {
    let clock = obskit::StageClock::now();
    let mut recovery = opts.recovery_log();
    let n_mu = opts.rank.resolve(problem.n_r(), problem.n_v(), problem.n_c());
    let (selector, pipelined) = (opts.kmeans_selector(), opts.pipelined);
    let ham = build_ladder(comm, problem, selector, n_mu, pipelined, &mut recovery)
        .unwrap_or_else(|e| panic!("distributed ISDF build: {e} (recovery log: {recovery:?})"));
    let values = distributed_eigensolve(comm, &ham, opts.n_states.min(problem.n_cv()), opts);
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
    // The factored H is replicated, so every rank runs the same dense
    // solve — exact while N_cv stays small.
    let dense = |name| {
        let _sp = obskit::span(obskit::Stage::Diag, name);
        syev(&ham.to_dense()).values[..k].to_vec()
    };
    match opts.eigensolver {
        Eig::Syev => dense("diag.syev.replicated"),
        // Every breakdown/convergence guard in the distributed solver tests
        // replicated quantities, so all ranks fail together — and fall back
        // to the dense solve rather than abort the whole calculation.
        Eig::Lobpcg => distributed_casida_lobpcg(comm, ham, k, opts.lobpcg, opts.seed)
            .and_then(DistributedEigResult::into_converged)
            .map_or_else(|_| dense("diag.syev.fallback"), |res| res.values),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::build_dense_hamiltonian;
    use crate::problem::synthetic_problem;
    use crate::rank::IsdfRank;
    use crate::versions::build_isdf_hamiltonian;
    use mathkit::syev;
    use parcomm::spmd;

    /// The ISDF build the distributed solve runs, on `c`.
    fn build(c: &Comm, p: &CasidaProblem, opts: &SolveOptions) -> IsdfHamiltonian {
        let n_mu = opts.rank.resolve(p.n_r(), p.n_v(), p.n_c());
        build_isdf_hamiltonian(c, p, opts.kmeans_selector(), n_mu, opts.pipelined, &mut vec![])
            .expect("clean build")
    }

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
            let out = distributed_kernel_apply(c, &p, &loc);
            assert!(StageTimings::since(clock).fft > 0.0);
            (rr, out)
        });
        for (rr, out) in res {
            let expect = serial.row_block(rr.start, rr.end);
            assert!(out.max_abs_diff(&expect) < 1e-10);
        }
    }

    #[test]
    fn distributed_isdf_spectrum_matches_serial() {
        let p = synthetic_problem([8, 8, 8], 6.0, 3, 2);
        // Full rank → exact against the naive dense Hamiltonian …
        let naive = syev(&build_dense_hamiltonian(&p));
        let opts = SolveOptions::new().rank(IsdfRank::Fixed(p.n_cv()));
        let serial = syev(&build(&Comm::solo(), &p, &opts).to_dense());
        for i in 0..3 {
            let rel = (serial.values[i] - naive.values[i]).abs() / naive.values[i].abs();
            assert!(rel < 1e-5, "λ_{i} rel {rel} against the dense reference");
        }
        // … and the same build on every rank count.
        for ranks in [1usize, 2, 4] {
            for h in spmd(ranks, |c| build(c, &p, &opts).to_dense()) {
                let eig = syev(&h);
                for i in 0..3 {
                    let rel = (eig.values[i] - serial.values[i]).abs() / serial.values[i].abs();
                    assert!(rel < 1e-10, "ranks={ranks} λ_{i} rel {rel}");
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
                        rel < 1e-10,
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
            let ham = build(c, &p, &opts_a);
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
