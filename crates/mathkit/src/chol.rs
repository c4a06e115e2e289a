//! Cholesky factorization and triangular solves.
//!
//! Used by the ISDF Galerkin fit (`Θ = ZCᵀ(CCᵀ)⁻¹` solves an SPD system) and
//! by the Cholesky-QR orthonormalization inside LOBPCG.
//!
//! Every triangular solve here is [`trsm_right`]: a right-side, in-place
//! solve that halves the triangle recursively and does the off-diagonal
//! update with the dispatched GEMM on contiguous column panels of `X`. The
//! left-side solves are the same engine on the transposed right-hand side
//! (`L X = B ⇔ Xᵀ Lᵀ = Bᵀ`), and [`cholesky`] is blocked right-looking with
//! the engine as its panel solve.

use crate::gemm::{gemm_ld, Transpose, View};
use crate::mat::Mat;
use crate::simd;
use rayon::prelude::*;

/// Width at which both recursions stop. A triangle this narrow is solved
/// (and factored) by exactly the historical per-element fold, so every
/// `n ≤ LEAF` caller — LOBPCG's Cholesky-QR on `[X W P]`, the reduced Gram
/// solves of the distributed eigensolver, the SCF band solver — keeps its
/// bits; wider ones spend all but `LEAF/n` of their flops in GEMM.
const LEAF: usize = 64;
/// Rows the leaf sweeps at a time: `LEAF` columns of `CHUNK` rows stay
/// L2-resident while each target column segment stays in L1.
const CHUNK: usize = 256;
/// Flops (`CHUNK·n²` per row block) a part of the parallel leaf must hold.
/// The axpy-bound leaf runs at a few Gflop/s, so this is ~150 µs — three
/// times a thread's spawn and join; a full-width block alone clears it.
const PAR_LEAF_FLOPS: usize = 1 << 20;

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
///
/// Returns `Err` with the failing pivot index if `a` is not (numerically)
/// positive definite — LOBPCG uses this signal to trigger basis truncation.
pub fn cholesky(a: &Mat) -> Result<Mat, usize> {
    let n = a.nrows();
    assert_eq!(n, a.ncols());
    let mut l = Mat::from_fn(n, n, |i, j| if i >= j { a[(i, j)] } else { 0.0 });
    let w = l.as_mut_slice();
    // Right-looking: factor a diagonal block, solve the panel under it
    // against that block, downdate what is left — one column block at a
    // time, so only the lower trapezoid is ever touched.
    let mut l11 = Vec::new();
    for j0 in (0..n).step_by(LEAF) {
        let nb = LEAF.min(n - j0);
        cholesky_leaf(&mut w[j0 * (n + 1)..], n, nb).map_err(|pivot| j0 + pivot)?;
        let below = n - j0 - nb;
        if below == 0 {
            break;
        }
        // L11 shares its columns with the panel, so the solve reads a copy.
        l11.clear();
        l11.extend(w[j0 * (n + 1)..].chunks(n).take(nb).flat_map(|col| &col[..nb]));
        let (done, rest) = w.split_at_mut((j0 + nb) * n);
        let panel = &mut done[j0 * n + j0 + nb..];
        trsm_right(panel, n, below, &l11, nb, nb, Transpose::Yes);
        for c0 in (0..below).step_by(LEAF) {
            let l21 = View { data: &panel[c0..], ld: n, trans: Transpose::No };
            let l21_t = View { trans: Transpose::Yes, ..l21 };
            let shape = (below - c0, LEAF.min(below - c0), nb);
            gemm_ld(-1.0, l21, l21_t, 1.0, &mut rest[c0 * (n + 1) + j0 + nb..], n, shape);
        }
    }
    // The diagonal blocks of the downdates spilled above the diagonal.
    for j in 1..n {
        w[j * n..j * n + j].fill(0.0);
    }
    Ok(l)
}

/// Unblocked Cholesky of the leading `n × n` window of `w` (column stride
/// `ld`), lower triangle in place.
fn cholesky_leaf(w: &mut [f64], ld: usize, n: usize) -> Result<(), usize> {
    for j in 0..n {
        let mut diag = w[j + j * ld];
        for k in 0..j {
            diag -= w[j + k * ld] * w[j + k * ld];
        }
        if diag <= 0.0 || !diag.is_finite() {
            return Err(j);
        }
        let ljj = diag.sqrt();
        w[j + j * ld] = ljj;
        for i in (j + 1)..n {
            let mut s = w[i + j * ld];
            for k in 0..j {
                s -= w[i + k * ld] * w[j + k * ld];
            }
            w[i + j * ld] = s / ljj;
        }
    }
    Ok(())
}

/// The triangular engine. Overwrites the `m × n` window `x` (column stride
/// `ldx`) with `X·L⁻ᵀ` (`Transpose::Yes`, i.e. solves `X Lᵀ = B`) or `X·L⁻¹`
/// (`Transpose::No`, `X L = B`), where `l` is an `n × n` lower-triangular
/// window with column stride `ldl`. Every row of `X` is one right-hand side.
fn trsm_right(x: &mut [f64], ldx: usize, m: usize, l: &[f64], ldl: usize, n: usize, tl: Transpose) {
    if n <= LEAF {
        return trsm_leaf(x, ldx, m, l, ldl, n, tl);
    }
    // X = [X1 X2] by columns, L = [L11 0; L21 L22]; the first half is a
    // whole number of leaves.
    let n1 = (n / 2).next_multiple_of(LEAF);
    let n2 = n - n1;
    let (x1, x2) = x.split_at_mut(n1 * ldx);
    let l21 = View { data: &l[n1..], ld: ldl, trans: tl };
    let l22 = &l[n1 * (ldl + 1)..];
    match tl {
        Transpose::Yes => {
            // X1 L11ᵀ = B1, then X2 L22ᵀ = B2 − X1 L21ᵀ.
            trsm_right(x1, ldx, m, l, ldl, n1, tl);
            let x1 = View { data: x1, ld: ldx, trans: Transpose::No };
            gemm_ld(-1.0, x1, l21, 1.0, x2, ldx, (m, n2, n1));
            trsm_right(x2, ldx, m, l22, ldl, n2, tl);
        }
        Transpose::No => {
            // X2 L22 = B2, then X1 L11 = B1 − X2 L21.
            trsm_right(x2, ldx, m, l22, ldl, n2, tl);
            let x2 = View { data: x2, ld: ldx, trans: Transpose::No };
            gemm_ld(-1.0, x2, l21, 1.0, x1, ldx, (m, n1, n2));
            trsm_right(x1, ldx, m, l, ldl, n1, tl);
        }
    }
}

/// Column-at-a-time substitution: per element, `s = b; s -= x_k·l_k` over
/// the already-solved columns in increasing `k`, then `s / l_jj` — one
/// multiply and one subtract per term, zero coefficients skipped. Every row
/// is an independent right-hand side, so the `CHUNK`-row blocks are solved
/// in parallel, each on its own segments of the `n` columns.
fn trsm_leaf(x: &mut [f64], ldx: usize, m: usize, l: &[f64], ldl: usize, n: usize, tl: Transpose) {
    if m == 0 || n == 0 {
        return;
    }
    // Segment `c·n + j` is rows `[c·CHUNK, (c+1)·CHUNK)` of column `j`.
    let mut cols: Vec<_> =
        x.chunks_mut(ldx).take(n).map(|col| col[..m].chunks_mut(CHUNK)).collect();
    let mut segs = Vec::with_capacity(m.div_ceil(CHUNK) * n);
    for _ in 0..m.div_ceil(CHUNK) {
        segs.extend(cols.iter_mut().map(|col| col.next().expect("one segment per row block")));
    }
    segs.par_chunks_mut(n)
        .with_min_len(PAR_LEAF_FLOPS.div_ceil(CHUNK * n * n))
        .for_each(|block| trsm_rows(block, l, ldl, tl));
}

/// [`trsm_leaf`] on one row block: `x[j]` is the block's segment of column
/// `j`.
fn trsm_rows(x: &mut [&mut [f64]], l: &[f64], ldl: usize, tl: Transpose) {
    let (n, forward) = (x.len(), tl == Transpose::Yes);
    for step in 0..n {
        let j = if forward { step } else { n - 1 - step };
        for k in if forward { 0..j } else { j + 1..n } {
            let coef = if forward { l[j + k * ldl] } else { l[k + j * ldl] };
            if coef == 0.0 {
                continue;
            }
            // Columns j and k, split where they part.
            let (lo, hi) = x.split_at_mut(j.max(k));
            let (lo, hi) = (&mut *lo[j.min(k)], &mut *hi[0]);
            let (xj, xk) = if forward { (hi, lo) } else { (lo, hi) };
            simd::axpy(-coef, xk, xj);
        }
        let ljj = l[j * (ldl + 1)];
        for v in x[j].iter_mut() {
            *v /= ljj;
        }
    }
}

/// In-place right solve on whole matrices: `x ← x·L⁻ᵀ` (`Transpose::Yes`)
/// or `x ← x·L⁻¹` (`Transpose::No`) for lower-triangular `l`. Applying both
/// in that order to `B` with `L = cholesky(A)` leaves `B·A⁻¹`.
pub fn solve_right_in_place(x: &mut Mat, l: &Mat, tl: Transpose) {
    let (m, n) = x.shape();
    assert_eq!(l.shape(), (n, n));
    trsm_right(x.as_mut_slice(), m, m, l.as_slice(), n, n, tl);
}

/// The left solves are the right solves of the transposed system.
fn solve_left(l: &Mat, b: &Mat, passes: &[Transpose]) -> Mat {
    assert_eq!(b.nrows(), l.nrows());
    let mut xt = b.transpose();
    for &tl in passes {
        solve_right_in_place(&mut xt, l, tl);
    }
    xt.transpose()
}

/// Solve `Lᵀ X = B` for lower-triangular `L`.
pub fn solve_lower_transpose(l: &Mat, b: &Mat) -> Mat {
    solve_left(l, b, &[Transpose::No])
}

/// Solve the SPD system `A X = B` via Cholesky.
pub fn solve_spd(a: &Mat, b: &Mat) -> Result<Mat, usize> {
    let l = cholesky(a)?;
    Ok(solve_left(&l, b, &[Transpose::Yes, Transpose::No]))
}

/// Solve `X Lᵀ = B` (right solve), i.e. `X = B L⁻ᵀ`, for lower-triangular `L`.
/// This is the shape LOBPCG's Cholesky-QR needs: `Q = S L⁻ᵀ`.
pub fn solve_right_lower_transpose(b: &Mat, l: &Mat) -> Mat {
    let mut x = b.clone();
    solve_right_in_place(&mut x, l, Transpose::Yes);
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm, matmul, syrk_tn, Transpose};

    /// The unblocked loops the engine replaced, kept verbatim as the oracle.
    mod reference {
        use crate::mat::Mat;

        pub fn cholesky(a: &Mat) -> Result<Mat, usize> {
            let n = a.nrows();
            let mut l = Mat::zeros(n, n);
            for j in 0..n {
                let mut diag = a[(j, j)];
                for k in 0..j {
                    diag -= l[(j, k)] * l[(j, k)];
                }
                if diag <= 0.0 || !diag.is_finite() {
                    return Err(j);
                }
                let ljj = diag.sqrt();
                l[(j, j)] = ljj;
                for i in (j + 1)..n {
                    let mut s = a[(i, j)];
                    for k in 0..j {
                        s -= l[(i, k)] * l[(j, k)];
                    }
                    l[(i, j)] = s / ljj;
                }
            }
            Ok(l)
        }

        pub fn solve_lower(l: &Mat, b: &Mat) -> Mat {
            let n = l.nrows();
            let mut x = b.clone();
            for j in 0..x.ncols() {
                for i in 0..n {
                    let mut s = x[(i, j)];
                    for k in 0..i {
                        s -= l[(i, k)] * x[(k, j)];
                    }
                    x[(i, j)] = s / l[(i, i)];
                }
            }
            x
        }

        pub fn solve_lower_transpose(l: &Mat, b: &Mat) -> Mat {
            let n = l.nrows();
            let mut x = b.clone();
            for j in 0..x.ncols() {
                for i in (0..n).rev() {
                    let mut s = x[(i, j)];
                    for k in (i + 1)..n {
                        s -= l[(k, i)] * x[(k, j)];
                    }
                    x[(i, j)] = s / l[(i, i)];
                }
            }
            x
        }

        pub fn solve_right_lower_transpose(b: &Mat, l: &Mat) -> Mat {
            let n = l.nrows();
            let mut x = b.clone();
            for j in 0..n {
                let ljj = l[(j, j)];
                for k in 0..j {
                    let ljk = l[(j, k)];
                    if ljk == 0.0 {
                        continue;
                    }
                    for i in 0..x.nrows() {
                        let v = x[(i, k)] * ljk;
                        x[(i, j)] -= v;
                    }
                }
                for i in 0..x.nrows() {
                    x[(i, j)] /= ljj;
                }
            }
            x
        }
    }

    fn spd(n: usize, rng: &mut impl rand::Rng) -> Mat {
        let b = Mat::random(n + 3, n, rng);
        let mut g = syrk_tn(&b);
        for i in 0..n {
            g[(i, i)] += 0.5;
        }
        g
    }

    fn bits(m: &Mat) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The four side/transpose cases: the engine's answer, the reference
    /// loops' answer, and `op(L)` applied back to the answer (which must
    /// reproduce `b`). `side_left` solves `op(L) X = B`, else `X op(L) = B`.
    fn solve_case(l: &Mat, b: &Mat, side_left: bool, trans: bool) -> (Mat, Mat, Mat) {
        let op_l = if trans { l.transpose() } else { l.clone() };
        match (side_left, trans) {
            (true, false) => {
                let x = solve_left(l, b, &[Transpose::Yes]);
                (x.clone(), reference::solve_lower(l, b), matmul(&op_l, &x))
            }
            (true, true) => {
                let x = solve_lower_transpose(l, b);
                (x.clone(), reference::solve_lower_transpose(l, b), matmul(&op_l, &x))
            }
            (false, true) => {
                let x = solve_right_lower_transpose(b, l);
                (x.clone(), reference::solve_right_lower_transpose(b, l), matmul(&x, &op_l))
            }
            (false, false) => {
                let mut x = b.clone();
                solve_right_in_place(&mut x, l, Transpose::No);
                let want = reference::solve_lower_transpose(l, &b.transpose()).transpose();
                (x.clone(), want, matmul(&x, &op_l))
            }
        }
    }

    #[test]
    fn cholesky_reconstructs() {
        let mut rng = rand::thread_rng();
        for n in [8, LEAF + 1, 3 * LEAF + 7] {
            let a = spd(n, &mut rng);
            let l = cholesky(&a).unwrap();
            let mut llt = Mat::zeros(n, n);
            gemm(1.0, &l, Transpose::No, &l, Transpose::Yes, 0.0, &mut llt);
            assert!(llt.max_abs_diff(&a) < 1e-10 * n as f64);
            // strict lower-triangular factor
            for j in 0..n {
                for i in 0..j {
                    assert_eq!(l[(i, j)], 0.0);
                }
            }
            let want = reference::cholesky(&a).unwrap();
            assert!(l.max_abs_diff(&want) < 1e-10);
            if n <= LEAF {
                assert_eq!(bits(&l), bits(&want));
            }
        }
    }

    #[test]
    fn indefinite_is_rejected_at_the_reference_pivot() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert_eq!(cholesky(&a), Err(1));
        // One negative direction planted at pivot `bad` of an SPD matrix, in
        // the first block, on a block edge and deep in the trailing part.
        let mut rng = rand::thread_rng();
        let n = 2 * LEAF + 9;
        for bad in [3, LEAF, 2 * LEAF + 5] {
            let mut a = spd(n, &mut rng);
            a[(bad, bad)] = -1.0;
            assert_eq!(cholesky(&a).unwrap_err(), bad);
            assert_eq!(reference::cholesky(&a).unwrap_err(), bad);
        }
        let mut a = spd(LEAF + 2, &mut rng);
        a[(LEAF + 1, LEAF + 1)] = f64::NAN;
        assert_eq!(cholesky(&a).unwrap_err(), LEAF + 1);
    }

    #[test]
    fn spd_solve_roundtrip() {
        let mut rng = rand::thread_rng();
        for n in [10, 2 * LEAF + 3] {
            let a = spd(n, &mut rng);
            let x_true = Mat::random(n, 3, &mut rng);
            let b = matmul(&a, &x_true);
            let x = solve_spd(&a, &b).unwrap();
            assert!(x.max_abs_diff(&x_true) < 1e-8);
        }
        // No right-hand sides: nothing to solve, nothing to split.
        let l = cholesky(&spd(LEAF + 2, &mut rng)).unwrap();
        let mut empty = Mat::zeros(0, LEAF + 2);
        solve_right_in_place(&mut empty, &l, Transpose::Yes);
        assert_eq!(empty.shape(), (0, LEAF + 2));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// The engine against the loops it replaced and against the
            /// definition, across the leaf boundary and for tall `m` that is
            /// no multiple of the GEMM tile or of the leaf's row chunk.
            #[test]
            fn engine_matches_reference_and_definition(
                n in prop_oneof![
                    Just(1usize), Just(LEAF - 1), Just(LEAF), Just(LEAF + 1),
                    Just(2 * LEAF + 3), Just(200)
                ],
                m in prop_oneof![Just(1usize), Just(13), Just(CHUNK + 37), Just(2 * CHUNK + 5)],
                case in 0usize..4,
                seed in 0u64..u64::MAX,
            ) {
                use rand::SeedableRng;
                let (side_left, trans) = (case & 1 != 0, case & 2 != 0);
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let l = cholesky(&spd(n, &mut rng)).unwrap();
                let b = if side_left {
                    Mat::random(n, m, &mut rng)
                } else {
                    Mat::random(m, n, &mut rng)
                };
                let (x, want, back) = solve_case(&l, &b, side_left, trans);
                let scale = want.norm_fro();
                let mut diff = x.clone();
                diff.axpy(-1.0, &want);
                prop_assert!(diff.norm_fro() <= 1e-10 * scale, "vs reference: {}", diff.norm_fro() / scale);
                if n <= LEAF {
                    prop_assert_eq!(bits(&x), bits(&want));
                }
                // Backward error of the defining equation.
                let mut resid = back;
                resid.axpy(-1.0, &b);
                let bound = 8.0 * n as f64 * f64::EPSILON * x.norm_fro() * l.norm_fro();
                prop_assert!(resid.norm_fro() <= bound, "residual {} > {bound}", resid.norm_fro());
            }
        }
    }
}
