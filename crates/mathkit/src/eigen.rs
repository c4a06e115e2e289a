//! Dense symmetric eigensolver — our stand-in for `ScaLAPACK::SYEVD`.
//!
//! EISPACK `tred2`/`tql2` arithmetic, reorganised so that every pass reads
//! and writes whole columns of a column-major matrix:
//! 1. **Reduction** to symmetric tridiagonal form ([`reduce`]) on *full*
//!    symmetric storage: the lower triangle is mirrored into the upper one
//!    once, so `tred2`'s row walk `Σ_k a_jk·u_k` is a fold down column `j`,
//!    and its rank-2 update `upd(j,k) = u_j·e'_k + e'_j·u_k` can rewrite whole
//!    columns — `upd(j,k)` and `upd(k,j)` are the same two products summed,
//!    and IEEE `+` and `×` commute, so the mirror stays exact. Every operand
//!    meets the same operands in the same order as in `tred2`, so the
//!    tridiagonal and the reflectors are `tred2`'s to the bit.
//! 2. **Implicit-shift QL** on the tridiagonal ([`ql`], `tql2` unchanged)
//!    hands each Givens rotation to a sink.
//! 3. **Eigenvectors.** [`syev`] accumulates `Q` the way `tred2` does (on
//!    `Qᵀ`, so the fold again runs down columns) and rotates all `n` of its
//!    columns: `tred2`/`tql2`'s bits, values and vectors. [`lowest`] logs
//!    the rotations instead, replays them in reverse on the `k` unit vectors
//!    the sort picks and applies the reflectors — `O(n²k)` on top of the
//!    reduction instead of `O(n³)`, the same eigenvalues to the bit.
//!
//! Cost is the textbook `O(n³)` the paper quotes for dense diagonalization of
//! the `N_cv × N_cv` Casida Hamiltonian — this is exactly the bottleneck the
//! implicit LOBPCG path removes. The Casida finishers want the lowest few
//! states and call [`lowest`]; the Rayleigh–Ritz steps of LOBPCG and
//! Davidson call [`syev`], whose bits the SCF band solver depends on.

use crate::mat::Mat;

/// Eigendecomposition of a real symmetric matrix: `A = V diag(λ) Vᵀ`.
///
/// Eigenvalues are sorted ascending; `vectors.col(i)` belongs to `values[i]`.
pub struct Eigen {
    pub values: Vec<f64>,
    pub vectors: Mat,
}

/// Full eigendecomposition of symmetric `a`. Symmetry is *assumed*; only the
/// lower triangle is read (mirroring LAPACK `dsyev('L')`).
pub fn syev(a: &Mat) -> Eigen {
    assert_eq!(a.nrows(), a.ncols(), "syev needs a square matrix");
    let mut z = mirrored_lower(a);
    let Tridiagonal { mut d, mut e, h } = reduce(&mut z);
    accumulate(&mut z, &h);
    ql(&mut d, &mut e, |i, c, s| rotate_columns(&mut z, i, c, s));
    let order = ascending(&d);
    Eigen { values: order.iter().map(|&j| d[j]).collect(), vectors: z.select_cols(&order) }
}

/// The lowest `min(k, n)` eigenpairs of symmetric `a` (lower triangle read,
/// as in [`syev`]): the values are `syev(a).values[..k]` to the bit, the
/// `n × k` vectors agree with `syev`'s columns to rounding, up to sign.
pub fn lowest(a: &Mat, k: usize) -> Eigen {
    let n = a.nrows();
    assert_eq!(n, a.ncols(), "lowest needs a square matrix");
    let k = k.min(n);
    let mut z = mirrored_lower(a);
    let Tridiagonal { mut d, mut e, h } = reduce(&mut z);
    let mut log = RotationLog::default();
    ql(&mut d, &mut e, |i, c, s| log.push(i, c, s));
    let order = &ascending(&d)[..k];

    // The picked columns of the rotation product, built from the back on
    // unit vectors stored transposed: each rotation then touches two
    // contiguous rows of `k`.
    let mut yt = vec![0.0; n * k];
    for (p, &j) in order.iter().enumerate() {
        yt[j * k + p] = 1.0;
    }
    log.replay_reversed(|i, c, s| {
        let (lo, hi) = yt.split_at_mut((i + 1) * k);
        for (a, b) in lo[i * k..].iter_mut().zip(&mut hi[..k]) {
            let (x, y) = (*a, *b);
            *a = c * x + s * y;
            *b = c * y - s * x;
        }
    });
    let mut vectors = Mat::from_vec(k, n, yt).transpose();
    apply_reflectors(&z, &h, &mut vectors);
    Eigen { values: order.iter().map(|&j| d[j]).collect(), vectors }
}

/// `a`'s lower triangle with its mirror image above the diagonal: the full
/// symmetric storage [`reduce`] works on.
fn mirrored_lower(a: &Mat) -> Mat {
    let mut z = a.clone();
    let n = z.nrows();
    let w = z.as_mut_slice();
    for j in 0..n {
        for i in 0..j {
            w[i + j * n] = w[j + i * n];
        }
    }
    z
}

/// `T = QᵀAQ` as [`reduce`] leaves it: diagonal `d`, subdiagonal `e`
/// (`e[i]` couples `i − 1` and `i`, `e[0] = 0`), and `h[i]`, the scale of
/// reflector `P_i = I − u uᵀ/h[i]` (`0` where step `i` reflected nothing).
struct Tridiagonal {
    d: Vec<f64>,
    e: Vec<f64>,
    h: Vec<f64>,
}

/// `tred2`'s Householder reduction of the full symmetric `z`, one column
/// operation at a time. On exit the `u` of reflector `i` is column `i`,
/// rows `0..i` (`tred2` keeps it in row `i`); `u/h` is not stored — it is
/// one division away, the same one `tred2` stores.
fn reduce(z: &mut Mat) -> Tridiagonal {
    let n = z.nrows();
    let (mut e, mut h) = (vec![0.0; n], vec![0.0; n]);
    let w = z.as_mut_slice();
    for i in (1..n).rev() {
        // Columns `0..i` are the active block, `u` heads column `i`.
        let (active, rest) = w.split_at_mut(i * n);
        let u = &mut rest[..i];
        let l = i - 1;
        let scale: f64 = u.iter().map(|x| x.abs()).sum();
        if l == 0 || scale == 0.0 {
            e[i] = u[l];
            continue;
        }
        let mut hi = 0.0;
        for x in u.iter_mut() {
            *x /= scale;
            hi += *x * *x;
        }
        let f = u[l];
        let g = if f >= 0.0 { -hi.sqrt() } else { hi.sqrt() };
        e[i] = scale * g;
        hi -= f * g;
        u[l] = f - g;
        // p = A·u/h into e[..i], and f = uᵀp.
        fold_columns(active, n, u, &mut e[..i]);
        let mut f = 0.0;
        for (ej, &uj) in e[..i].iter_mut().zip(&*u) {
            *ej /= hi;
            f += *ej * uj;
        }
        let hh = f / (hi + hi);
        for (ej, &uj) in e[..i].iter_mut().zip(&*u) {
            *ej -= hh * uj;
        }
        // A −= u e'ᵀ + e' uᵀ, every column of the active block whole.
        for (col, (&ek, &uk)) in active.chunks_exact_mut(n).zip(e.iter().zip(&*u)) {
            for ((a, &uj), &ej) in col[..i].iter_mut().zip(&*u).zip(&e[..i]) {
                *a -= uj * ek + ej * uk;
            }
        }
        h[i] = hi;
    }
    if let Some(e0) = e.first_mut() {
        *e0 = 0.0;
    }
    let d = (0..n).map(|i| w[i * (n + 1)]).collect();
    Tridiagonal { d, e, h }
}

/// `out[j] = Σ_k a[j + k·ld]·u[k]` for `j < out.len()`, `k < u.len()`. Each
/// entry folds from `0.0` in increasing `k` — the order of `tred2`'s row
/// dots — while a block of entries advances in lockstep for the vector
/// units.
fn fold_columns(a: &[f64], ld: usize, u: &[f64], out: &mut [f64]) {
    const ROWS: usize = 32;
    for (b, block) in out.chunks_mut(ROWS).enumerate() {
        let mut acc = [0.0; ROWS];
        let acc = &mut acc[..block.len()];
        for (k, &uk) in u.iter().enumerate() {
            for (s, &x) in acc.iter_mut().zip(&a[k * ld + b * ROWS..]) {
                *s += x * uk;
            }
        }
        block.copy_from_slice(acc);
    }
}

/// `tred2`'s accumulation of `Q = P_{n−1}⋯P_2`, built in place over the
/// reflectors as `Qᵀ` — so `uᵀ·Q[:, j]` is again a fold down columns — and
/// transposed at the end.
fn accumulate(z: &mut Mat, h: &[f64]) {
    let n = z.nrows();
    let w = z.as_mut_slice();
    let (mut uh, mut g) = (vec![0.0; n], vec![0.0; n]);
    for (i, &hi) in h.iter().enumerate() {
        if hi != 0.0 {
            let (qt, rest) = w.split_at_mut(i * n);
            let u = &rest[..i];
            for (x, &uk) in uh.iter_mut().zip(u) {
                *x = uk / hi;
            }
            fold_columns(qt, n, u, &mut g[..i]);
            for (col, &uhk) in qt.chunks_exact_mut(n).zip(&uh[..i]) {
                for (q, &gj) in col[..i].iter_mut().zip(&g[..i]) {
                    *q -= gj * uhk;
                }
            }
        }
        w[i * (n + 1)] = 1.0;
        for j in 0..i {
            w[j + i * n] = 0.0;
            w[i + j * n] = 0.0;
        }
    }
    z.transpose_in_place();
}

/// `y ← Q·y` for the `Q` whose reflectors [`reduce`] left in `z`: `P_2`
/// first, each on the leading rows of every column of `y`.
fn apply_reflectors(z: &Mat, h: &[f64], y: &mut Mat) {
    let n = z.nrows();
    for (i, &hi) in h.iter().enumerate().filter(|&(_, &hi)| hi != 0.0) {
        let u = &z.as_slice()[i * n..][..i];
        for c in 0..y.ncols() {
            let col = &mut y.col_mut(c)[..i];
            let g = u.iter().zip(&*col).map(|(a, b)| a * b).sum::<f64>() / hi;
            for (x, &uk) in col.iter_mut().zip(u) {
                *x -= g * uk;
            }
        }
    }
}

/// `tql2`: implicit-shift QL iteration on the tridiagonal (`d`, `e`) of
/// [`reduce`], eigenvalues into `d`. Each Givens rotation of the plane
/// `(i, i + 1)` is handed to `rotate(i, c, s)` in the order it happens.
fn ql(d: &mut [f64], e: &mut [f64], mut rotate: impl FnMut(usize, f64, f64)) {
    let n = d.len();
    if n == 0 {
        return;
    }
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;
    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find small subdiagonal element.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            assert!(iter <= 50, "tql2 failed to converge after 50 iterations");
            // Form shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let (mut s, mut c) = (1.0, 1.0);
            let mut p = 0.0;
            let mut broke_early = false;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Recover from underflow.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    broke_early = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                rotate(i, c, s);
            }
            if broke_early {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
}

/// `z ← z·R` for the rotation `R` of the plane `(i, i + 1)`: `tql2`'s
/// eigenvector update, two contiguous columns.
fn rotate_columns(z: &mut Mat, i: usize, c: f64, s: f64) {
    let n = z.nrows();
    let (lo, hi) = z.as_mut_slice().split_at_mut((i + 1) * n);
    for (a, b) in lo[i * n..].iter_mut().zip(&mut hi[..n]) {
        let f = *b;
        *b = s * *a + c * f;
        *a = c * *a - s * f;
    }
}

/// The rotations of one [`ql`] run in the order they happened, as runs of
/// descending planes `(top, top+1), (top−1, top), …` — one QL sweep each —
/// and their `(c, s)`.
#[derive(Default)]
struct RotationLog {
    runs: Vec<(usize, usize)>,
    cs: Vec<(f64, f64)>,
}

impl RotationLog {
    fn push(&mut self, i: usize, c: f64, s: f64) {
        match self.runs.last_mut() {
            Some((top, len)) if *top == i + *len => *len += 1,
            _ => self.runs.push((i, 1)),
        }
        self.cs.push((c, s));
    }

    /// Every logged rotation, last first.
    fn replay_reversed(&self, mut rotate: impl FnMut(usize, f64, f64)) {
        let mut end = self.cs.len();
        for &(top, len) in self.runs.iter().rev() {
            let start = end - len;
            for (p, &(c, s)) in self.cs[start..end].iter().enumerate().rev() {
                rotate(top - p, c, s);
            }
            end = start;
        }
    }
}

/// Stable ascending order of `d` (ties keep their index order).
fn ascending(d: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..d.len()).collect();
    order.sort_by(|&a, &b| d[a].partial_cmp(&d[b]).unwrap());
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm_tn, matmul};
    use rand::{rngs::StdRng, SeedableRng};

    /// The row-strided EISPACK loops the engine replaced, kept verbatim as
    /// the oracle.
    mod reference {
        use super::super::Eigen;
        use crate::mat::Mat;

        pub fn syev(a: &Mat) -> Eigen {
            let n = a.nrows();
            assert_eq!(n, a.ncols(), "syev needs a square matrix");
            let mut z = a.clone();
            let mut d = vec![0.0; n];
            let mut e = vec![0.0; n];
            tred2(&mut z, &mut d, &mut e);
            tql2(&mut z, &mut d, &mut e);
            sort_eigen(&mut d, &mut z);
            Eigen { values: d, vectors: z }
        }

        fn tred2(z: &mut Mat, d: &mut [f64], e: &mut [f64]) {
            let n = z.nrows();
            for i in (1..n).rev() {
                let l = i - 1;
                let mut h = 0.0;
                if l > 0 {
                    let scale: f64 = (0..=l).map(|k| z[(i, k)].abs()).sum();
                    if scale == 0.0 {
                        e[i] = z[(i, l)];
                    } else {
                        for k in 0..=l {
                            z[(i, k)] /= scale;
                            h += z[(i, k)] * z[(i, k)];
                        }
                        let mut f = z[(i, l)];
                        let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                        e[i] = scale * g;
                        h -= f * g;
                        z[(i, l)] = f - g;
                        f = 0.0;
                        for j in 0..=l {
                            z[(j, i)] = z[(i, j)] / h;
                            let mut g = 0.0;
                            for k in 0..=j {
                                g += z[(j, k)] * z[(i, k)];
                            }
                            for k in (j + 1)..=l {
                                g += z[(k, j)] * z[(i, k)];
                            }
                            e[j] = g / h;
                            f += e[j] * z[(i, j)];
                        }
                        let hh = f / (h + h);
                        for j in 0..=l {
                            let f = z[(i, j)];
                            let g = e[j] - hh * f;
                            e[j] = g;
                            for k in 0..=j {
                                let upd = f * e[k] + g * z[(i, k)];
                                z[(j, k)] -= upd;
                            }
                        }
                    }
                } else {
                    e[i] = z[(i, l)];
                }
                d[i] = h;
            }
            d[0] = 0.0;
            e[0] = 0.0;
            // Accumulate transformations.
            for i in 0..n {
                let l = i;
                if d[i] != 0.0 {
                    for j in 0..l {
                        let mut g = 0.0;
                        for k in 0..l {
                            g += z[(i, k)] * z[(k, j)];
                        }
                        for k in 0..l {
                            let upd = g * z[(k, i)];
                            z[(k, j)] -= upd;
                        }
                    }
                }
                d[i] = z[(i, i)];
                z[(i, i)] = 1.0;
                for j in 0..l {
                    z[(j, i)] = 0.0;
                    z[(i, j)] = 0.0;
                }
            }
        }

        fn tql2(z: &mut Mat, d: &mut [f64], e: &mut [f64]) {
            let n = d.len();
            if n == 0 {
                return;
            }
            for i in 1..n {
                e[i - 1] = e[i];
            }
            e[n - 1] = 0.0;
            for l in 0..n {
                let mut iter = 0;
                loop {
                    let mut m = l;
                    while m + 1 < n {
                        let dd = d[m].abs() + d[m + 1].abs();
                        if e[m].abs() <= f64::EPSILON * dd {
                            break;
                        }
                        m += 1;
                    }
                    if m == l {
                        break;
                    }
                    iter += 1;
                    assert!(iter <= 50, "tql2 failed to converge after 50 iterations");
                    let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
                    let mut r = g.hypot(1.0);
                    g = d[m] - d[l] + e[l] / (g + r.copysign(g));
                    let (mut s, mut c) = (1.0, 1.0);
                    let mut p = 0.0;
                    let mut broke_early = false;
                    for i in (l..m).rev() {
                        let mut f = s * e[i];
                        let b = c * e[i];
                        r = f.hypot(g);
                        e[i + 1] = r;
                        if r == 0.0 {
                            d[i + 1] -= p;
                            e[m] = 0.0;
                            broke_early = true;
                            break;
                        }
                        s = f / r;
                        c = g / r;
                        g = d[i + 1] - p;
                        r = (d[i] - g) * s + 2.0 * c * b;
                        p = s * r;
                        d[i + 1] = g + p;
                        g = c * r - b;
                        for k in 0..n {
                            f = z[(k, i + 1)];
                            z[(k, i + 1)] = s * z[(k, i)] + c * f;
                            z[(k, i)] = c * z[(k, i)] - s * f;
                        }
                    }
                    if broke_early {
                        continue;
                    }
                    d[l] -= p;
                    e[l] = g;
                    e[m] = 0.0;
                }
            }
        }

        fn sort_eigen(d: &mut [f64], z: &mut Mat) {
            let n = d.len();
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| d[a].partial_cmp(&d[b]).unwrap());
            let sorted_d: Vec<f64> = order.iter().map(|&i| d[i]).collect();
            let sorted_z = z.select_cols(&order);
            d.copy_from_slice(&sorted_d);
            *z = sorted_z;
        }
    }

    fn residual(a: &Mat, eig: &Eigen) -> f64 {
        // ||A V - V diag(λ)||_max
        let av = matmul(a, &eig.vectors);
        let mut vl = eig.vectors.clone();
        for j in 0..vl.ncols() {
            let lam = eig.values[j];
            for v in vl.col_mut(j) {
                *v *= lam;
            }
        }
        av.max_abs_diff(&vl)
    }

    fn random_symmetric(n: usize, seed: u64) -> Mat {
        let mut a = Mat::random(n, n, &mut StdRng::seed_from_u64(seed));
        a.symmetrize();
        a
    }

    fn tridiagonal(d: &[f64], sub: &[f64]) -> Mat {
        Mat::from_fn(d.len(), d.len(), |i, j| match i.abs_diff(j) {
            0 => d[i],
            1 => sub[i.min(j)],
            _ => 0.0,
        })
    }

    /// The inputs the engine must reproduce `tred2`/`tql2` on, bit for bit:
    /// random symmetric matrices around the fold's 32-row blocks, plus every
    /// branch of the two loops.
    fn bitwise_cases() -> Vec<(String, Mat)> {
        let mut cases: Vec<(String, Mat)> = [1usize, 2, 3, 5, 63, 64, 65, 181, 300]
            .iter()
            .map(|&n| (format!("random n={n}"), random_symmetric(n, n as u64)))
            .collect();
        // Degenerate: I + 11ᵀ, eigenvalue 1 with multiplicity n − 1.
        for n in [6, 65] {
            let a = Mat::from_fn(n, n, |i, j| (i == j) as u8 as f64 + 1.0);
            cases.push((format!("I + 11ᵀ n={n}"), a));
        }
        // Block diagonal: the first row of each later block has nothing left
        // of its block to reflect, so tred2 takes its `scale == 0` branch.
        let blocks = random_symmetric(40, 7);
        let block = |i: usize| [0..13, 13..29, 29..40].iter().position(|r| r.contains(&i));
        cases.push((
            "block diagonal".into(),
            Mat::from_fn(40, 40, |i, j| if block(i) == block(j) { blocks[(i, j)] } else { 0.0 }),
        ));
        let laplacian = (vec![2.0; 30], vec![-1.0; 29]);
        cases.push(("tridiagonal".into(), tridiagonal(&laplacian.0, &laplacian.1)));
        // Nearly split, with couplings at the underflow scale: tql2's
        // `r == 0` recovery break fires.
        cases.push((
            "split tridiagonal".into(),
            tridiagonal(&[1e-200, 0.0, 5e-324, 1e-300], &[1e-200, 2.0, 1.0]),
        ));
        cases
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn syev_is_tred2_tql2_to_the_bit() {
        for (name, a) in bitwise_cases() {
            let (got, want) = (syev(&a), reference::syev(&a));
            assert_eq!(bits(&got.values), bits(&want.values), "{name}: values");
            let (got_v, want_v) = (got.vectors.as_slice(), want.vectors.as_slice());
            assert_eq!(bits(got_v), bits(want_v), "{name}: vectors");
        }
    }

    #[test]
    fn only_the_lower_triangle_is_read() {
        let mut a = random_symmetric(37, 3);
        let clean = syev(&a);
        for j in 1..37 {
            for i in 0..j {
                a[(i, j)] = f64::NAN;
            }
        }
        let (dirty, lo) = (syev(&a), lowest(&a, 4));
        assert_eq!(bits(&dirty.values), bits(&clean.values));
        assert_eq!(bits(dirty.vectors.as_slice()), bits(clean.vectors.as_slice()));
        assert_eq!(bits(&lo.values), bits(&clean.values[..4]));
    }

    #[test]
    fn lowest_is_syev_truncated() {
        for (name, a) in bitwise_cases() {
            let n = a.nrows();
            let full = syev(&a);
            for k in [0, 1, 8, n] {
                let lo = lowest(&a, k);
                let k = k.min(n);
                assert_eq!(bits(&lo.values), bits(&full.values[..k]), "{name} k={k}: values");
                assert_eq!(lo.vectors.shape(), (n, k), "{name} k={k}");
                for j in 0..k {
                    let (x, y) = (lo.vectors.col(j), full.vectors.col(j));
                    let dot: f64 = x.iter().zip(y).map(|(a, b)| a * b).sum();
                    let sign = if dot < 0.0 { -1.0 } else { 1.0 };
                    let off = x.iter().zip(y).fold(0.0f64, |m, (a, b)| m.max((a - sign * b).abs()));
                    assert!(off <= 1e-12, "{name} k={k} column {j}: {off:e} from syev");
                }
                let vtv = gemm_tn(&lo.vectors, &lo.vectors);
                let ortho = vtv.max_abs_diff(&Mat::eye(k));
                assert!(ortho <= 1e-12, "{name} k={k}: orthonormality {ortho:e}");
            }
        }
    }

    #[test]
    fn empty_and_clamped_shapes() {
        let empty = syev(&Mat::zeros(0, 0));
        assert!(empty.values.is_empty());
        assert_eq!(empty.vectors.shape(), (0, 0));
        let empty = lowest(&Mat::zeros(0, 0), 3);
        assert!(empty.values.is_empty());
        assert_eq!(empty.vectors.shape(), (0, 0));

        let a = random_symmetric(5, 11);
        let none = lowest(&a, 0);
        assert!(none.values.is_empty());
        assert_eq!(none.vectors.shape(), (5, 0));
        let all = lowest(&a, 99);
        assert_eq!(bits(&all.values), bits(&syev(&a).values));
        assert_eq!(all.vectors.shape(), (5, 5));
    }

    #[test]
    fn rotation_log_replays_every_rotation_last_first() {
        // A sweep that continues the last one's planes merges into its run;
        // every rotation still comes back with its own plane, last first.
        let pushed = [(3, 0.1), (2, 0.2), (1, 0.3), (0, 0.4), (2, 0.5), (1, 0.6), (4, 0.7)];
        let mut log = RotationLog::default();
        for &(i, c) in &pushed {
            log.push(i, c, -c);
        }
        let mut replayed = Vec::new();
        log.replay_reversed(|i, c, s| replayed.push((i, c, s)));
        let want: Vec<_> = pushed.iter().rev().map(|&(i, c)| (i, c, -c)).collect();
        assert_eq!(replayed, want);
    }

    #[test]
    fn diagonal_matrix() {
        let a = Mat::from_rows(&[&[3.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 2.0]]);
        let e = syev(&a);
        assert!((e.values[0] - 1.0).abs() < 1e-12);
        assert!((e.values[1] - 2.0).abs() < 1e-12);
        assert!((e.values[2] - 3.0).abs() < 1e-12);
        assert!(residual(&a, &e) < 1e-12);
    }

    #[test]
    fn two_by_two_analytic() {
        let a = Mat::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = syev(&a);
        assert!((e.values[0] - 1.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn random_symmetric_residual_and_orthonormality() {
        let mut rng = rand::thread_rng();
        for &n in &[1usize, 2, 3, 5, 16, 40] {
            let mut a = Mat::random(n, n, &mut rng);
            a.symmetrize();
            for e in [syev(&a), lowest(&a, n)] {
                assert!(residual(&a, &e) < 1e-9 * (n as f64), "n={n}");
                let vtv = gemm_tn(&e.vectors, &e.vectors);
                assert!(vtv.max_abs_diff(&Mat::eye(n)) < 1e-10, "n={n}");
                // ascending
                for w in e.values.windows(2) {
                    assert!(w[0] <= w[1] + 1e-12);
                }
            }
        }
    }

    #[test]
    fn trace_and_det_invariants() {
        let mut rng = rand::thread_rng();
        let n = 12;
        let mut a = Mat::random(n, n, &mut rng);
        a.symmetrize();
        let e = syev(&a);
        let tr: f64 = (0..n).map(|i| a[(i, i)]).sum();
        let sum: f64 = e.values.iter().sum();
        assert!((tr - sum).abs() < 1e-10);
    }

    #[test]
    fn degenerate_eigenvalues() {
        // A = I + rank-1; eigenvalues {1 (n-1 times), 1 + n}.
        let n = 6;
        let mut a = Mat::eye(n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] += 1.0;
            }
        }
        let e = syev(&a);
        for i in 0..n - 1 {
            assert!((e.values[i] - 1.0).abs() < 1e-10);
        }
        assert!((e.values[n - 1] - (1.0 + n as f64)).abs() < 1e-10);
        assert!(residual(&a, &e) < 1e-10);
    }

    #[test]
    fn already_tridiagonal() {
        // Known spectrum of the 1-D Laplacian: 2 - 2cos(kπ/(n+1)).
        let n = 10;
        let a = tridiagonal(&[2.0; 10], &[-1.0; 9]);
        let e = syev(&a);
        for k in 0..n {
            let exact = 2.0 - 2.0 * ((k + 1) as f64 * std::f64::consts::PI / (n + 1) as f64).cos();
            assert!((e.values[k] - exact).abs() < 1e-10);
        }
    }
}
