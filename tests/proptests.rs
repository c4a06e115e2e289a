//! Property-based tests (proptest) on the core numerical invariants.

use fftkit::{fft, ifft, Complex};
use isdf::{face_splitting_product, pair_weights, IsdfDecomposition};
use mathkit::gemm::{gemm, matmul, Transpose};
use mathkit::{cholesky, gemm_tn, qrcp, syev, Mat};
use proptest::prelude::*;

fn mat_strategy(max_rows: usize, max_cols: usize) -> impl Strategy<Value = Mat> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
        prop::collection::vec(-1.0f64..1.0, r * c)
            .prop_map(move |data| Mat::from_vec(r, c, data))
    })
}

/// Two matrices sharing a row count (avoids `prop_assume` shape rejection).
fn mat_pair_strategy(
    max_rows: usize,
    max_a: usize,
    max_b: usize,
) -> impl Strategy<Value = (Mat, Mat)> {
    (1..=max_rows, 1..=max_a, 1..=max_b).prop_flat_map(|(r, ca, cb)| {
        (
            prop::collection::vec(-1.0f64..1.0, r * ca),
            prop::collection::vec(-1.0f64..1.0, r * cb),
        )
            .prop_map(move |(da, db)| (Mat::from_vec(r, ca, da), Mat::from_vec(r, cb, db)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // ---------------------------------------------------------------- FFT

    #[test]
    fn fft_roundtrip_any_length(re in prop::collection::vec(-10.0f64..10.0, 1..80)) {
        let x: Vec<Complex> = re.iter().map(|&v| Complex::new(v, -0.5 * v)).collect();
        let y = ifft(&fft(&x));
        for (a, b) in x.iter().zip(&y) {
            prop_assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn fft_parseval_any_length(re in prop::collection::vec(-5.0f64..5.0, 1..64)) {
        let x: Vec<Complex> = re.iter().map(|&v| Complex::new(v, v * 0.3)).collect();
        let y = fft(&x);
        let ex: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / x.len() as f64;
        prop_assert!((ex - ey).abs() < 1e-8 * ex.max(1.0));
    }

    #[test]
    fn fft_shift_theorem(re in prop::collection::vec(-3.0f64..3.0, 4..48), shift in 1usize..8) {
        // DFT of a circular shift = phase ramp times original DFT.
        let n = re.len();
        let shift = shift % n;
        let x: Vec<Complex> = re.iter().map(|&v| Complex::from_re(v)).collect();
        let mut xs = x.clone();
        xs.rotate_right(shift);
        let fx = fft(&x);
        let fxs = fft(&xs);
        for k in 0..n {
            let phase = Complex::cis(-2.0 * std::f64::consts::PI * (k * shift) as f64 / n as f64);
            let expect = fx[k] * phase;
            prop_assert!((fxs[k] - expect).abs() < 1e-8,
                "bin {k}: {:?} vs {:?}", fxs[k], expect);
        }
    }

    // --------------------------------------------------------------- GEMM

    #[test]
    fn gemm_transpose_identity((a, b) in mat_pair_strategy(10, 8, 6)) {
        // Only compatible shapes: use AᵀB vs (BᵀA)ᵀ.
        let ab = gemm_tn(&a, &b);
        let ba = gemm_tn(&b, &a);
        prop_assert!(ab.max_abs_diff(&ba.transpose()) < 1e-10);
    }

    #[test]
    fn gemm_distributes_over_addition(
        m in 1usize..7,
        k in 1usize..6,
        n in 1usize..5,
        seed in 1u64..1000,
    ) {
        // Build shape-compatible operands from one dimension tuple.
        let mut s = seed;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let a = Mat::from_fn(m, k, |_, _| next());
        let b = Mat::from_fn(k, n, |_, _| next());
        let c = Mat::from_fn(k, n, |_, _| next());
        let mut bc = b.clone();
        bc.axpy(1.0, &c);
        let lhs = matmul(&a, &bc);
        let mut rhs = matmul(&a, &b);
        rhs.axpy(1.0, &matmul(&a, &c));
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-10);
    }

    #[test]
    fn gemm_beta_accumulation(a in mat_strategy(5, 4), alpha in -2.0f64..2.0, beta in -2.0f64..2.0) {
        let b = Mat::eye(a.ncols());
        let mut c = a.clone();
        gemm(alpha, &a, Transpose::No, &b, Transpose::No, beta, &mut c);
        // C = alpha*A + beta*A = (alpha+beta) A
        let mut expect = a.clone();
        expect.scale(alpha + beta);
        prop_assert!(c.max_abs_diff(&expect) < 1e-10);
    }

    // -------------------------------------------------------------- eigen

    #[test]
    fn syev_reconstructs_matrix(a in mat_strategy(8, 8)) {
        prop_assume!(a.nrows() == a.ncols());
        let mut s = a.clone();
        s.symmetrize();
        let eig = syev(&s);
        // A = V Λ Vᵀ
        let mut vl = eig.vectors.clone();
        for j in 0..vl.ncols() {
            let lam = eig.values[j];
            for v in vl.col_mut(j) { *v *= lam; }
        }
        let mut recon = Mat::zeros(s.nrows(), s.ncols());
        gemm(1.0, &vl, Transpose::No, &eig.vectors, Transpose::Yes, 0.0, &mut recon);
        prop_assert!(recon.max_abs_diff(&s) < 1e-8);
    }

    #[test]
    fn syev_eigenvalues_bounded_by_norm(a in mat_strategy(7, 7)) {
        prop_assume!(a.nrows() == a.ncols());
        let mut s = a.clone();
        s.symmetrize();
        let eig = syev(&s);
        let bound = s.norm_fro() + 1e-12;
        for v in &eig.values {
            prop_assert!(v.abs() <= bound);
        }
    }

    // ----------------------------------------------------------- cholesky

    #[test]
    fn cholesky_of_gram_always_succeeds(a in mat_strategy(12, 5)) {
        prop_assume!(a.nrows() >= a.ncols());
        let mut g = gemm_tn(&a, &a);
        for i in 0..g.nrows() { g[(i, i)] += 1.0; } // shift to strict SPD
        let l = cholesky(&g);
        prop_assert!(l.is_ok());
        let l = l.unwrap();
        let mut llt = Mat::zeros(g.nrows(), g.ncols());
        gemm(1.0, &l, Transpose::No, &l, Transpose::Yes, 0.0, &mut llt);
        prop_assert!(llt.max_abs_diff(&g) < 1e-9);
    }

    // --------------------------------------------------------------- QRCP

    #[test]
    fn qrcp_pivot_magnitudes_nonincreasing(a in mat_strategy(12, 9)) {
        let steps = a.ncols().min(a.nrows());
        let f = qrcp(a.clone(), steps, 0.0).unwrap();
        for w in f.rdiag.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-9);
        }
        // perm is a permutation
        let mut sorted = f.perm.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..a.ncols()).collect::<Vec<_>>());
    }

    // --------------------------------------------------------------- ISDF

    #[test]
    fn face_splitting_columns_are_products((a, b) in mat_pair_strategy(10, 3, 3)) {
        let z = face_splitting_product(&a, &b);
        prop_assert_eq!(z.ncols(), a.ncols() * b.ncols());
        for i in 0..a.ncols() {
            for j in 0..b.ncols() {
                let col = z.col(i * b.ncols() + j);
                for r in 0..a.nrows() {
                    prop_assert!((col[r] - a[(r, i)] * b[(r, j)]).abs() < 1e-14);
                }
            }
        }
    }

    #[test]
    fn pair_weights_bound_by_column_norms((a, b) in mat_pair_strategy(10, 3, 3)) {
        let w = pair_weights(&a, &b);
        prop_assert!(w.iter().all(|&x| x >= 0.0));
        // w(r) = (Σψ²)(Σφ²) equals the squared row norm product
        for r in 0..a.nrows() {
            let pa: f64 = (0..a.ncols()).map(|j| a[(r, j)].powi(2)).sum();
            let pb: f64 = (0..b.ncols()).map(|j| b[(r, j)].powi(2)).sum();
            prop_assert!((w[r] - pa * pb).abs() < 1e-12);
        }
    }

    #[test]
    fn isdf_full_point_set_is_interpolatory((a, b) in mat_pair_strategy(12, 2, 2)) {
        prop_assume!(a.nrows() >= 4);
        // With every grid point selected, ZCᵀ(CCᵀ)⁻¹C reproduces Z exactly
        // (Θ becomes an oblique projector onto the full row space).
        let points: Vec<usize> = (0..a.nrows()).collect();
        let isdf = IsdfDecomposition::build(&a, &b, &points);
        let err = isdf.relative_error(&a, &b);
        prop_assert!(err < 1e-6, "relative error {err}");
    }

    // The dispatching entry point against an in-test triple loop, on shapes
    // that reach the small, skinny and blocked routes.
    #[test]
    fn gemm_matches_triple_loop(
        m in 1usize..24,
        n in 1usize..12,
        k in 1usize..24,
        seed in 0u64..1000,
    ) {
        let fill = |r: usize, c: usize, salt: u64| {
            Mat::from_fn(r, c, |i, j| {
                let h = (7 * i as u64 + 13 * j as u64)
                    .wrapping_mul(0x9e3779b97f4a7c15)
                    .wrapping_add(seed ^ salt);
                ((h % 1000) as f64 - 500.0) * 2e-3
            })
        };
        let a = fill(m, k, 4);
        let b = fill(k, n, 5);
        let reference = Mat::from_fn(m, n, |i, j| (0..k).map(|l| a[(i, l)] * b[(l, j)]).sum());
        let mut c = Mat::zeros(m, n);
        gemm(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c);
        let err = c.max_abs_diff(&reference);
        prop_assert!(err < 1e-12 * (k as f64), "err {err}");
    }
}
