//! Householder QR with column pivoting (QRCP).
//!
//! QRCP is the *traditional* ISDF interpolation-point selector (paper §4.1.1):
//! pivot columns of `Zᵀ` in decreasing residual-norm order; the first `N_μ`
//! pivots are the interpolation points. The paper replaces it with K-Means
//! because QRCP costs `O(N_e³)` and parallelizes poorly — we implement both so
//! the Table 3 comparison can be regenerated.

use crate::gemm::{gemm, Transpose};
use crate::mat::Mat;
use crate::simd;
use faultkit::NumericalError;
use rand::Rng;
use rayon::prelude::*;

/// Result of QR with column pivoting.
pub struct Qrcp {
    /// Pivot order: `perm[k]` is the original column index chosen at step `k`.
    pub perm: Vec<usize>,
    /// Diagonal of `R` in pivot order (non-increasing in magnitude).
    pub rdiag: Vec<f64>,
    /// Number of factorization steps performed.
    pub rank: usize,
}

/// Flops (about `4·rows` per column: dot, axpy, norm) a part of the
/// parallel trailing update must hold: ~70 µs of the update at its ~4
/// Gflop/s, above a thread's spawn and join.
const PAR_UPDATE_FLOPS: usize = 1 << 18;
/// Trailing columns whose dots share one sweep of the reflector: four
/// independent folds hide the add latency one sequential fold waits on.
const LANES: usize = 4;

/// Householder QRCP of `r`, factored in place (LAPACK `dgeqp3`-style with
/// classic column-norm downdates), stopping after `max_steps` pivots or when
/// the next pivot's column norm drops below `tol * (first pivot norm)`. A
/// residual column norm that is not finite (a finite entry whose square
/// overflows) has no pivot order: `NonFinite` at `qrcp.column_norms`,
/// `index` that column.
///
/// Each step's trailing update runs column-parallel on the `rayon` pool, in
/// groups of four columns: every column gets its own dot, axpy and norm
/// downdate, each the sequential fold a serial loop makes, so `perm`,
/// `rdiag` and `rank` do not depend on the thread count.
pub fn qrcp(mut r: Mat, max_steps: usize, tol: f64) -> Result<Qrcp, NumericalError> {
    let (m, n) = r.shape();
    let kmax = max_steps.min(m).min(n);
    let mut perm: Vec<usize> = (0..n).collect();
    let mut norms2 = vec![0.0; n];
    norms2
        .par_iter_mut()
        .enumerate()
        .with_min_len(PAR_UPDATE_FLOPS.div_ceil(2 * m.max(1)))
        .for_each(|(c, norm2)| *norm2 = r.col(c).iter().map(|x| x * x).sum());
    let mut rdiag = Vec::with_capacity(kmax);
    let mut first_norm = 0.0f64;

    for j in 0..kmax {
        if let Some(bad) = norms2[j..].iter().position(|v| !v.is_finite()) {
            let index = perm[j + bad];
            return Err(NumericalError::NonFinite { site: "qrcp.column_norms".into(), index });
        }
        // Select the remaining column with the largest residual norm.
        let (piv, &pnorm2) = norms2[j..]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite norms compare"))
            .map(|(i, v)| (i + j, v))
            .expect("j < kmax <= n leaves a column");
        let pnorm = pnorm2.max(0.0).sqrt();
        if j == 0 {
            first_norm = pnorm;
        }
        if pnorm <= tol * first_norm {
            return Ok(Qrcp { perm, rdiag, rank: j });
        }
        if piv != j {
            let (left, right) = r.as_mut_slice().split_at_mut(piv * m);
            left[j * m..(j + 1) * m].swap_with_slice(&mut right[..m]);
            perm.swap(j, piv);
            norms2.swap(j, piv);
        }
        // Householder reflector on column j, applied to rows j.. of every
        // column from j on; each trailing column's norm is downdated
        // (recomputed when cancellation ate it) while the column is still
        // in cache. The columns are carved here, on the calling thread, and
        // the region splits their groups of `LANES` into contiguous runs.
        let mut v = r.col(j)[j..].to_vec();
        let alpha = -v[0].signum() * v.iter().map(|x| x * x).sum::<f64>().sqrt();
        v[0] -= alpha;
        let vnorm2: f64 = v.iter().map(|x| x * x).sum();
        let floor2 = 1e-12 * first_norm * first_norm;
        let mut cols: Vec<(&mut [f64], &mut f64)> = r.as_mut_slice()[j * m..]
            .chunks_mut(m)
            .zip(&mut norms2[j..])
            .map(|(col, norm2)| (&mut col[j..], norm2))
            .collect();
        cols.par_chunks_mut(LANES)
            .enumerate()
            .with_min_len(PAR_UPDATE_FLOPS.div_ceil(4 * LANES * (m - j)))
            .for_each(|(g, group)| {
                if vnorm2 > 0.0 {
                    // Each column's dot is one sequential fold from 0.0 in row
                    // order; a short last group pads its lanes with `v`,
                    // whose dots are dropped.
                    let [a, b, c, d]: [&[f64]; LANES] =
                        std::array::from_fn(|k| group.get(k).map_or(&v[..], |(col, _)| &col[..]));
                    let mut dots = [0.0; LANES];
                    for ((((&vi, a), b), c), d) in v.iter().zip(a).zip(b).zip(c).zip(d) {
                        dots[0] += vi * a;
                        dots[1] += vi * b;
                        dots[2] += vi * c;
                        dots[3] += vi * d;
                    }
                    for (dot, (col, _)) in dots.iter().zip(group.iter_mut()) {
                        simd::axpy(-(2.0 * dot / vnorm2), &v, col);
                    }
                }
                for (k, (col, norm2)) in group.iter_mut().enumerate() {
                    if g * LANES + k > 0 {
                        **norm2 -= col[0] * col[0];
                        if **norm2 < floor2 {
                            **norm2 = col[1..].iter().map(|x| x * x).sum::<f64>().max(0.0);
                        }
                    }
                }
            });
        rdiag.push(r[(j, j)].abs());
    }
    Ok(Qrcp { perm, rdiag, rank: kmax })
}

/// The sorted first `n_mu` pivot columns of `zt` (`N_cv × N_r`, i.e. `Zᵀ`),
/// factored in place by [`qrcp`] — the paper's traditional ISDF point
/// selector. Returns grid-point indices, or [`qrcp`]'s typed error.
pub fn qrcp_select(zt: Mat, n_mu: usize) -> Result<Vec<usize>, NumericalError> {
    let fac = qrcp(zt, n_mu, 0.0)?;
    let mut pts: Vec<usize> = fac.perm[..fac.rank].to_vec();
    pts.sort_unstable();
    Ok(pts)
}

/// Randomized QRCP point selection (paper §4.1.1 "randomized sampling QRCP"):
/// sketch `zᵀ` with a Gaussian matrix `G` (`p × N_cv`, `p = n_mu +
/// oversample`), then run [`qrcp_select`] on the small `p × N_r` product.
pub fn randomized_qrcp_select(
    z: &Mat,
    n_mu: usize,
    oversample: usize,
    rng: &mut impl Rng,
) -> Result<Vec<usize>, NumericalError> {
    let (nr, ncv) = z.shape();
    let p = (n_mu + oversample).min(nr);
    let mut g = Mat::zeros(ncv, p);
    for x in g.as_mut_slice() {
        // Gaussian entries by Box–Muller on two uniforms.
        let u1: f64 = rng.gen_range(1e-12..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        *x = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    }
    // Yᵀ = z·G is nr × p; its transpose Y = Gᵀ·zᵀ is the sketch QRCP factors.
    let mut yt = Mat::zeros(nr, p);
    gemm(1.0, z, Transpose::No, &g, Transpose::No, 0.0, &mut yt);
    qrcp_select(yt.transpose(), n_mu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;

    /// The element-indexed loops the slice-based step replaced, kept
    /// verbatim as the oracle.
    mod reference {
        use super::{Mat, Qrcp};

        pub fn qrcp(a: &Mat, max_steps: usize, tol: f64) -> Qrcp {
            let (m, n) = a.shape();
            let kmax = max_steps.min(m).min(n);
            let mut r = a.clone();
            let mut perm: Vec<usize> = (0..n).collect();
            let mut norms2: Vec<f64> =
                (0..n).map(|j| r.col(j).iter().map(|x| x * x).sum()).collect();
            let mut rdiag = Vec::with_capacity(kmax);
            let mut first_norm = 0.0f64;

            for j in 0..kmax {
                let (piv, &pnorm2) = norms2[j..]
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .map(|(i, v)| (i + j, v))
                    .unwrap();
                let pnorm = pnorm2.max(0.0).sqrt();
                if j == 0 {
                    first_norm = pnorm;
                }
                if pnorm <= tol * first_norm {
                    return Qrcp { perm, rdiag, rank: j };
                }
                if piv != j {
                    for i in 0..m {
                        let t = r[(i, j)];
                        r[(i, j)] = r[(i, piv)];
                        r[(i, piv)] = t;
                    }
                    perm.swap(j, piv);
                    norms2.swap(j, piv);
                }
                let mut v = vec![0.0; m - j];
                for i in j..m {
                    v[i - j] = r[(i, j)];
                }
                let alpha = -v[0].signum() * v.iter().map(|x| x * x).sum::<f64>().sqrt();
                v[0] -= alpha;
                let vnorm2: f64 = v.iter().map(|x| x * x).sum();
                if vnorm2 > 0.0 {
                    for c in j..n {
                        let mut dot = 0.0;
                        for i in j..m {
                            dot += v[i - j] * r[(i, c)];
                        }
                        let coef = 2.0 * dot / vnorm2;
                        for i in j..m {
                            r[(i, c)] -= coef * v[i - j];
                        }
                    }
                }
                rdiag.push(r[(j, j)].abs());
                for c in (j + 1)..n {
                    let t = r[(j, c)];
                    norms2[c] -= t * t;
                    if norms2[c] < 1e-12 * first_norm * first_norm {
                        norms2[c] = r.col(c)[(j + 1)..m.max(j + 1)]
                            .iter()
                            .map(|x| x * x)
                            .sum::<f64>()
                            .max(0.0);
                    }
                }
            }
            Qrcp { perm, rdiag, rank: kmax }
        }
    }

    #[test]
    fn qrcp_is_bitwise_the_reference() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
        let low_rank = |m, n, r, rng: &mut rand::rngs::StdRng| {
            matmul(&Mat::random(m, r, rng), &Mat::random(r, n, rng))
        };
        // Zero columns under a negative tolerance: the pivots run past the
        // rank into all-zero residual columns, where `vnorm2 == 0`.
        let mut with_zero_cols = Mat::random(9, 6, &mut rng);
        for c in [1, 4, 5] {
            with_zero_cols.col_mut(c).fill(0.0);
        }
        let cases = [
            (Mat::random(20, 15, &mut rng), 15, 0.0),
            (Mat::random(7, 40, &mut rng), 7, 0.0),
            (low_rank(30, 12, 3, &mut rng), 12, 0.0),
            (low_rank(30, 12, 3, &mut rng), 12, 1e-8),
            (low_rank(8, 60, 4, &mut rng), 8, 0.0),
            (with_zero_cols, 6, -1.0),
            // Wide enough that the trailing update splits into three parts
            // for every one of its steps.
            (low_rank(64, 9000, 24, &mut rng), 16, 0.0),
        ];
        let (m, n) = cases[6].0.shape();
        assert!(4 * (m - 16) * (n - 16) >= 3 * PAR_UPDATE_FLOPS, "the wide case must split");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (i, (a, steps, tol)) in cases.iter().enumerate() {
            let want = reference::qrcp(a, *steps, *tol);
            for threads in [1, 2, 3] {
                let got = rayon::ThreadPool::new(threads)
                    .install(|| qrcp(a.clone(), *steps, *tol))
                    .unwrap();
                assert_eq!(got.perm, want.perm, "case {i}, {threads} threads");
                assert_eq!(bits(&got.rdiag), bits(&want.rdiag), "case {i}, {threads} threads");
                assert_eq!(got.rank, want.rank, "case {i}, {threads} threads");
            }
        }
        let past_rank = qrcp(cases[5].0.clone(), 6, -1.0).unwrap();
        assert_eq!((past_rank.rank, &past_rank.rdiag[3..]), (6, &[0.0; 3][..]));
    }

    #[test]
    fn qrcp_pivots_decreasing() {
        let mut rng = rand::thread_rng();
        let a = Mat::random(20, 15, &mut rng);
        let fac = qrcp(a, 15, 0.0).unwrap();
        for w in fac.rdiag.windows(2) {
            assert!(w[0] >= w[1] - 1e-10, "rdiag not non-increasing: {:?}", fac.rdiag);
        }
        assert_eq!(fac.rank, 15);
    }

    #[test]
    fn qrcp_finds_dominant_columns() {
        // Columns 3 and 7 are 100x larger: they must be the first two pivots.
        let mut rng = rand::thread_rng();
        let mut a = Mat::random(10, 9, &mut rng);
        for i in 0..10 {
            a[(i, 3)] *= 100.0;
            a[(i, 7)] *= 100.0;
        }
        let fac = qrcp(a, 2, 0.0).unwrap();
        let mut first_two = fac.perm[..2].to_vec();
        first_two.sort_unstable();
        assert_eq!(first_two, vec![3, 7]);
    }

    #[test]
    fn qrcp_rank_truncation_on_low_rank_input() {
        // Rank-2 matrix: QRCP with a tolerance must stop at 2 steps.
        let u = Mat::from_fn(12, 2, |i, j| if j == 0 { (i + 1) as f64 / 10.0 } else { ((i * i) as f64).sin() });
        let v = Mat::from_fn(2, 9, |i, j| ((i + 2) as f64).powi(j as i32 % 3 + 1) / 5.0);
        let a = matmul(&u, &v);
        let fac = qrcp(a, 9, 1e-8).unwrap();
        assert!(fac.rank <= 3, "rank {} too high for rank-2 input", fac.rank);
        assert!(fac.rank >= 2);
    }

    #[test]
    fn qrcp_select_rows_of_low_rank_z() {
        // z = outer product structure: N_r x N_cv with rank 3; any 3 selected
        // rows must span the row space well.
        let mut rng = rand::thread_rng();
        let u = Mat::random(30, 3, &mut rng);
        let v = Mat::random(3, 8, &mut rng);
        let z = matmul(&u, &v);
        let pts = qrcp_select(z.transpose(), 3).unwrap();
        assert_eq!(pts.len(), 3);
        for w in pts.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(pts.iter().all(|&p| p < 30));
    }

    #[test]
    fn randomized_qrcp_matches_plain_on_spiky_input() {
        // With hugely dominant rows, both selectors must find them.
        let mut rng = rand::thread_rng();
        let mut z = Mat::random(40, 6, &mut rng);
        for j in 0..6 {
            z[(5, j)] *= 500.0;
            z[(17, j)] *= 300.0;
        }
        let plain = qrcp_select(z.transpose(), 2).unwrap();
        let randomized = randomized_qrcp_select(&z, 2, 4, &mut rng).unwrap();
        assert_eq!(plain, vec![5, 17]);
        assert_eq!(randomized, vec![5, 17]);
    }

    #[test]
    fn overflowing_column_norm_is_a_typed_error() {
        // 1e160 is finite, its square is not: column 2 has no norm to pivot
        // on, and the pivot search must not compare it.
        let mut a = Mat::from_fn(4, 3, |i, j| (i + j) as f64 + 1.0);
        a[(1, 2)] = 1e160;
        match qrcp(a, 3, 0.0) {
            Err(NumericalError::NonFinite { site, index }) => {
                assert_eq!((site.as_str(), index), ("qrcp.column_norms", 2));
            }
            Err(other) => panic!("expected NonFinite, got {other}"),
            Ok(fac) => panic!("pivoted an overflowed column: {:?}", fac.perm),
        }
    }
}
