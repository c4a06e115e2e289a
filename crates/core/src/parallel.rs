//! Distributed LR-TDDFT pipeline (paper §5, Algorithm 1) on the simulated
//! MPI runtime.
//!
//! Data distributions follow paper Fig. 3: wavefunctions and orbital-pair
//! products live in **row-block** layout for the face-splitting product and
//! GEMM stages, are re-shuffled to **column-block** layout via `Alltoallv`
//! for the FFT stage (each rank then owns whole grids of a column subset),
//! and shuffled back. The `V_Hxc` contraction is the symmetric
//! GEMM+`Allreduce` of [`crate::pipeline::gram_allreduce`].
//!
//! Every function here is SPMD-collective: all ranks call it with the same
//! global problem; each rank works on its slab and the returned data is
//! replicated (suitable for the replicated diagonalization step).

use crate::kernel::HxcKernel;
use crate::pipeline::gram_allreduce;
use crate::problem::{check_finite, CasidaProblem};
use crate::timers::StageTimings;
use faultkit::SolveError;
use isdf::face_splitting_product;
use mathkit::Mat;
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

/// Naive Hamiltonian construction (Algorithm 1), SPMD-collective on `comm`;
/// [`crate::build_dense_hamiltonian`] is its one-rank case. Returns the
/// replicated dense `H = D + 2 V_Hxc` plus this rank's stage timings, or a
/// typed failure: of the input check ([`CasidaProblem::check_inputs`]), or
/// `NonFinite` at `ham.h` when a finite input overflowed `H`, which the dense
/// eigensolve could not survive.
pub fn distributed_dense_hamiltonian(
    comm: &Comm,
    problem: &CasidaProblem,
) -> Result<(Mat, StageTimings), SolveError> {
    problem.check_inputs()?;
    let clock = obskit::StageClock::now();

    // Local face-splitting product on my grid slab (line 2).
    let sp = obskit::span(obskit::Stage::FaceSplit, "face_split");
    let slab = problem.slab(comm);
    let z_loc = face_splitting_product(&slab.psi_v, &slab.psi_c);
    drop(sp);

    // f_Hxc through the FFT layout dance (lines 3–6).
    let fz_loc = distributed_kernel_apply(comm, problem, &z_loc);

    // V_Hxc = ΔV · P_vcᵀ (f_Hxc P_vc): local symmetric product + reduction
    // (lines 7–8). The TDA singlet factor 2 (paper Eq. 2) and
    // ΔV fold into the product's alpha — no scale pass.
    let sp = obskit::span(obskit::Stage::Gemm, "v_hxc.contract");
    let scale = 2.0 * problem.grid.dv();
    let mut h = gram_allreduce(comm, &z_loc, &fz_loc, scale, &mut []).local;
    drop(sp);

    // H = D + 2 V_Hxc (line 10).
    for (i, d) in problem.diag_d().iter().enumerate() {
        h[(i, i)] += d;
    }
    h.symmetrize();
    check_finite("ham.h", h.as_slice())?;
    Ok((h, StageTimings::since(clock)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::build_dense_hamiltonian;
    use crate::problem::synthetic_problem;
    use crate::rank::IsdfRank;
    use crate::solver::Solver;
    use crate::versions::{Hamiltonian, Version};
    use mathkit::syev;
    use parcomm::spmd;

    #[test]
    fn distributed_dense_matches_serial() {
        let p = synthetic_problem([8, 8, 8], 6.0, 2, 2);
        let serial = build_dense_hamiltonian(&p).unwrap();
        for ranks in [1usize, 2, 4] {
            for h in spmd(ranks, |c| distributed_dense_hamiltonian(c, &p).unwrap().0) {
                assert!(h.max_abs_diff(&serial) < 1e-9, "ranks={ranks}");
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
        let naive = syev(&build_dense_hamiltonian(&p).unwrap());
        let solver = Solver::builder().version(Version::KmeansIsdf).rank(IsdfRank::Fixed(p.n_cv()));
        let build = |c: &Comm| -> Mat {
            let ham = solver.hamiltonian(c, &p).expect("clean build");
            assert!(matches!(ham, Hamiltonian::Isdf(_)));
            ham.dense().into_owned()
        };
        let serial = syev(&build(&Comm::solo()));
        for i in 0..3 {
            let rel = (serial.values[i] - naive.values[i]).abs() / naive.values[i].abs();
            assert!(rel < 1e-5, "λ_{i} rel {rel} against the dense reference");
        }
        // … and the same build on every rank count.
        for ranks in [1usize, 2, 4] {
            for h in spmd(ranks, build) {
                let eig = syev(&h);
                for i in 0..3 {
                    let rel = (eig.values[i] - serial.values[i]).abs() / serial.values[i].abs();
                    assert!(rel < 1e-10, "ranks={ranks} λ_{i} rel {rel}");
                }
            }
        }
    }

    #[test]
    fn timings_accumulate_mpi_for_multirank() {
        let p = synthetic_problem([8, 8, 8], 6.0, 2, 2);
        let res = spmd(4, |c| distributed_dense_hamiltonian(c, &p).unwrap().1);
        for t in res {
            assert!(t.mpi > 0.0, "collectives must register comm time");
            assert!(t.fft > 0.0 && t.gemm > 0.0 && t.face_split > 0.0);
        }
    }
}
