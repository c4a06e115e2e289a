//! # bench — harness regenerating every table and figure of the paper
//!
//! The `repro` binary (this crate's `main.rs`) has one subcommand per
//! experiment; this library holds the shared machinery:
//!
//! * [`scaling`] — the calibrated strong/weak-scaling model: per-stage
//!   compute work measured from real runs, collective communication charged
//!   by the α–β model with the byte counts of the actual implementation.
//!   This is how Cori-scale rank counts (the paper runs up to 12,288 cores;
//!   this host has one) are extrapolated — see DESIGN.md §2.
//! * [`report`] — fixed-width table printing and JSON result records.
//! * [`reference_gemm`] — the seed GEMM kernel, the baseline of the `gemm`
//!   and `obskit_overhead` benches.

pub mod experiments;
pub mod report;
pub mod scaling;
pub mod trace_cmd;

use mathkit::{Mat, Transpose};

pub use report::{print_table, ExperimentRecord};
pub use scaling::{CommPattern, ScalingStudy, Stage};

/// The pre-rewrite GEMM: parallel over output columns, scalar dot products,
/// operands read in place (strided for the transposed cases).
pub fn reference_gemm(
    alpha: f64,
    a: &Mat,
    ta: Transpose,
    b: &Mat,
    tb: Transpose,
    beta: f64,
    c: &mut Mat,
) {
    let (m, ka) = match ta {
        Transpose::No => (a.nrows(), a.ncols()),
        Transpose::Yes => (a.ncols(), a.nrows()),
    };
    let (kb, n) = match tb {
        Transpose::No => (b.nrows(), b.ncols()),
        Transpose::Yes => (b.ncols(), b.nrows()),
    };
    assert_eq!(ka, kb, "inner dimensions must agree");
    assert_eq!(c.shape(), (m, n), "output shape mismatch");
    let k = ka;
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    let (a_rows, b_rows) = (a.nrows(), b.nrows());

    c.par_for_each_col(|j, c_col| {
        if beta == 0.0 {
            c_col.fill(0.0);
        } else if beta != 1.0 {
            for x in c_col.iter_mut() {
                *x *= beta;
            }
        }
        match (ta, tb) {
            (Transpose::No, Transpose::No) => {
                let b_col = &b_data[j * b_rows..(j + 1) * b_rows];
                for l in 0..k {
                    let blj = alpha * b_col[l];
                    if blj == 0.0 {
                        continue;
                    }
                    let a_col = &a_data[l * a_rows..(l + 1) * a_rows];
                    for i in 0..m {
                        c_col[i] += blj * a_col[i];
                    }
                }
            }
            (Transpose::Yes, Transpose::No) => {
                let b_col = &b_data[j * b_rows..(j + 1) * b_rows];
                for i in 0..m {
                    let a_col = &a_data[i * a_rows..(i + 1) * a_rows];
                    let mut s = 0.0;
                    for l in 0..k {
                        s += a_col[l] * b_col[l];
                    }
                    c_col[i] += alpha * s;
                }
            }
            (Transpose::No, Transpose::Yes) => {
                for l in 0..k {
                    let blj = alpha * b_data[j + l * b_rows];
                    if blj == 0.0 {
                        continue;
                    }
                    let a_col = &a_data[l * a_rows..(l + 1) * a_rows];
                    for i in 0..m {
                        c_col[i] += blj * a_col[i];
                    }
                }
            }
            (Transpose::Yes, Transpose::Yes) => {
                for i in 0..m {
                    let a_col = &a_data[i * a_rows..(i + 1) * a_rows];
                    let mut s = 0.0;
                    for l in 0..k {
                        s += a_col[l] * b_data[j + l * b_rows];
                    }
                    c_col[i] += alpha * s;
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn operand(rows: usize, cols: usize, phase: usize) -> Mat {
        Mat::from_fn(rows, cols, |i, j| {
            (((i * 7 + j * 13 + phase) % 23) as f64) * 0.04 - 0.44
        })
    }

    #[test]
    fn reference_gemm_matches_packed_engine() {
        let a = operand(37, 19, 1);
        let b = operand(37, 23, 2);
        let mut c1 = operand(19, 23, 3);
        let mut c2 = c1.clone();
        reference_gemm(0.7, &a, Transpose::Yes, &b, Transpose::No, 0.3, &mut c1);
        mathkit::gemm(0.7, &a, Transpose::Yes, &b, Transpose::No, 0.3, &mut c2);
        assert!(c1.max_abs_diff(&c2) < 1e-11);
    }
}
