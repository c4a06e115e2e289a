//! The vector kernels: one plain loop per kernel, which the committed
//! `-C target-cpu=native` (`.cargo/config.toml`) lets LLVM vectorise over
//! the row index for the host's ISA. No runtime dispatch, no second copy.
//! The vector width is LLVM's choice, not the widest register of the ISA:
//! on an AVX-512 host whose tuning prefers 256-bit vectors (the 2-vCPU
//! Sapphire Rapids guest) the loops compile to ymm registers only.
//!
//! The bits are fixed by the source. Every f64 kernel performs, per output
//! element, one fixed sequence of IEEE-754 operations: a separate multiply
//! and add, with the reduction over the shared dimension folded in
//! ascending order into one accumulator per element. Rust never contracts
//! a multiply and an add into a fused multiply-add, and vectorising only
//! changes which elements are computed together, so the results are the
//! same on every host and at every vector width.

/// Microkernel row height (matches `gemm::MR`).
pub(crate) const MR: usize = 8;

/// The vector ISA the build targets, as a name: `"avx512"`, `"avx2"`,
/// `"neon"` or `"baseline"`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Kernel(&'static str);

impl Kernel {
    pub fn name(self) -> &'static str {
        self.0
    }
}

/// The vector ISA the build targets, read from the compile-time target
/// features: no detection, no override. Kept because the end-to-end
/// benchmark (`benchmark/`) prints it in every report.
pub fn active_kernel() -> Kernel {
    Kernel(match () {
        _ if cfg!(target_feature = "avx512f") => "avx512",
        _ if cfg!(target_feature = "avx2") => "avx2",
        _ if cfg!(target_feature = "neon") => "neon",
        _ => "baseline",
    })
}

/// Blocked-path microkernel: the rank-`kc` update of an `MR × nr` register
/// tile (`nr` 4 or 8) from packed micropanels, `ap` holding `kc` steps of
/// `MR` values and `bp` `kc` steps of `nr`. Overwrites
/// `acc[j·MR + i] = Σ_l ap[l·MR + i] · bp[l·nr + j]`.
pub(crate) fn microkernel_f64(nr: usize, kc: usize, ap: &[f64], bp: &[f64], acc: &mut [f64]) {
    debug_assert!(nr == 4 || nr == 8);
    match nr {
        8 => microkernel::<8>(kc, ap, bp, acc),
        _ => microkernel::<4>(kc, ap, bp, acc),
    }
}

/// The whole `MR × NR` tile stays in vector registers.
#[inline(never)]
fn microkernel<const NR: usize>(kc: usize, ap: &[f64], bp: &[f64], out: &mut [f64]) {
    let mut acc = [[0.0f64; MR]; NR];
    // Exact-length panels make the zip one counted loop.
    let (ap, bp) = (&ap[..kc * MR], &bp[..kc * NR]);
    for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        for j in 0..NR {
            let bj = b[j];
            for i in 0..MR {
                acc[j][i] += a[i] * bj;
            }
        }
    }
    for (j, accj) in acc.iter().enumerate() {
        out[j * MR..(j + 1) * MR].copy_from_slice(accj);
    }
}

// Skinny-shape tiles: one MR-row strip of op(A), swept over the full shared
// dimension, against a k × n column-major B with n ≤ MR. Each pass takes up
// to GROUP columns of C, so one load of an A row feeds all of them; the
// fold of each element over l is the column-at-a-time one.

/// C columns per pass of a skinny tile: four `[f64; MR]` accumulators, the
/// A row and the broadcast fit the 16-register AVX2 file.
const GROUP: usize = 4;

/// Axpy-fold skinny tile (op(A) untransposed): per `l`,
/// `c += (alpha·b[l, j]) · a[:, l]`, skipping a column whose `alpha·b[l, j]`
/// is zero. `ap` holds the strip's rows of A with column stride `astride` —
/// a window straight into column-major A, whose strip rows are contiguous
/// in every column, so no pack is needed. `b` is `k × n` with column stride
/// `ldb ≥ k`; `c` points at element `(strip row 0, 0)` of an `ldc`-row
/// column-major C whose tile was already scaled by beta.
///
/// # Safety
/// Caller guarantees exclusive access to rows `[0, mr_eff)` of all `n`
/// columns of `c` (stride `ldc`), `mr_eff ≤ MR` and `n ≤ MR`.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn skinny_axpy_tile(
    k: usize,
    ap: &[f64],
    astride: usize,
    b: &[f64],
    ldb: usize,
    n: usize,
    mr_eff: usize,
    alpha: f64,
    c: *mut f64,
    ldc: usize,
) {
    debug_assert!((1..=MR).contains(&n) && mr_eff <= MR && astride >= mr_eff && ldb >= k);
    debug_assert!(k >= 1 && ap.len() >= (k - 1) * astride + mr_eff);
    debug_assert!(b.len() >= (n - 1) * ldb + k);
    let mut cols = strip_columns(c, ldc, n, mr_eff);
    for (g, cg) in cols[..n].chunks_mut(GROUP).enumerate() {
        let bg = &b[g * GROUP * ldb..];
        match cg.len() {
            1 => axpy_group::<1>(k, ap, astride, bg, ldb, alpha, cg),
            2 => axpy_group::<2>(k, ap, astride, bg, ldb, alpha, cg),
            3 => axpy_group::<3>(k, ap, astride, bg, ldb, alpha, cg),
            _ => axpy_group::<4>(k, ap, astride, bg, ldb, alpha, cg),
        }
    }
}

/// Rows `[0, rows)` of the first `n` columns (stride `ldc`) of the C tile
/// at `c`; the rest are empty.
///
/// # Safety
/// The tile functions' contract: exclusive access to those rows.
unsafe fn strip_columns<'a>(c: *mut f64, ldc: usize, n: usize, rows: usize) -> [&'a mut [f64]; MR] {
    std::array::from_fn(|j| {
        if j < n {
            std::slice::from_raw_parts_mut(c.add(j * ldc), rows)
        } else {
            &mut []
        }
    })
}

/// `N` columns of an axpy tile. A full strip gets its own copy of the body,
/// with a constant row count the compiler turns into whole vector registers.
/// Kept out of line: inlined into the tile, the four widths share one
/// register allocation and the narrow ones lose their vector form.
#[inline(never)]
fn axpy_group<const N: usize>(
    k: usize,
    ap: &[f64],
    astride: usize,
    b: &[f64],
    ldb: usize,
    alpha: f64,
    c: &mut [&mut [f64]],
) {
    let b: [&[f64]; N] = std::array::from_fn(|j| &b[j * ldb..j * ldb + k]);
    match c[0].len() {
        MR => axpy_rows(MR, k, ap, astride, &b, alpha, c),
        rows => axpy_rows(rows, k, ap, astride, &b, alpha, c),
    }
}

/// Load `rows` rows of the C columns, fold every `l`, store them back.
#[inline(always)]
fn axpy_rows<const N: usize>(
    rows: usize,
    k: usize,
    ap: &[f64],
    astride: usize,
    b: &[&[f64]; N],
    alpha: f64,
    c: &mut [&mut [f64]],
) {
    let mut acc = [[0.0f64; MR]; N];
    for (s, cj) in acc.iter_mut().zip(c.iter()) {
        s[..rows].copy_from_slice(&cj[..rows]);
    }
    for l in 0..k {
        let a = &ap[l * astride..][..rows];
        let bl: [f64; N] = std::array::from_fn(|j| alpha * b[j][l]);
        // One test for the common step, so it runs without a branch per
        // column.
        let all = bl.iter().all(|&v| v != 0.0);
        for (s, &blj) in acc.iter_mut().zip(&bl) {
            if all || blj != 0.0 {
                for (sv, &av) in s.iter_mut().zip(a) {
                    *sv += blj * av;
                }
            }
        }
    }
    for (s, cj) in acc.iter().zip(c.iter_mut()) {
        cj[..rows].copy_from_slice(&s[..rows]);
    }
}

/// Dot-fold skinny tile (op(A) transposed): `c += alpha · Σ_l a·b`. `ap` is
/// one zero-padded packed `MR × k` strip (the row-interleaved layout puts one
/// `l` slice of the 8 rows in one vector, which transposed A cannot give in
/// place); `b` is `k × n` column-major; `c` as for [`skinny_axpy_tile`].
///
/// # Safety
/// Same C-tile exclusivity as [`skinny_axpy_tile`].
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn skinny_dot_tile(
    k: usize,
    ap: &[f64],
    b: &[f64],
    n: usize,
    mr_eff: usize,
    alpha: f64,
    c: *mut f64,
    ldc: usize,
) {
    debug_assert!((1..=MR).contains(&n) && mr_eff <= MR);
    debug_assert!(ap.len() >= k * MR && b.len() >= k * n);
    let mut cols = strip_columns(c, ldc, n, mr_eff);
    for (g, cg) in cols[..n].chunks_mut(GROUP).enumerate() {
        let bg = &b[g * GROUP * k..];
        match cg.len() {
            1 => dot_group::<1>(k, ap, bg, alpha, cg),
            2 => dot_group::<2>(k, ap, bg, alpha, cg),
            3 => dot_group::<3>(k, ap, bg, alpha, cg),
            _ => dot_group::<4>(k, ap, bg, alpha, cg),
        }
    }
}

/// `N` columns of a dot tile. The padding rows of a partial strip are zero
/// in `ap`, so the fold always runs on whole `[f64; MR]` rows and only the
/// C update is clipped; a full strip gets its own copy of that update, with
/// a constant row count. Kept out of line, as [`axpy_group`] is.
#[inline(never)]
fn dot_group<const N: usize>(k: usize, ap: &[f64], b: &[f64], alpha: f64, c: &mut [&mut [f64]]) {
    match c[0].len() {
        MR => dot_rows::<N>(MR, k, ap, b, alpha, c),
        rows => dot_rows::<N>(rows, k, ap, b, alpha, c),
    }
}

#[inline(always)]
fn dot_rows<const N: usize>(
    rows: usize,
    k: usize,
    ap: &[f64],
    b: &[f64],
    alpha: f64,
    c: &mut [&mut [f64]],
) {
    let ap = &ap[..k * MR];
    let b: [&[f64]; N] = std::array::from_fn(|j| &b[j * k..(j + 1) * k]);
    let mut acc = [[0.0f64; MR]; N];
    for l in 0..k {
        let a: &[f64; MR] = ap[l * MR..(l + 1) * MR].try_into().unwrap();
        let bl: [f64; N] = std::array::from_fn(|j| b[j][l]);
        for (s, &blj) in acc.iter_mut().zip(&bl) {
            for (sv, &av) in s.iter_mut().zip(a) {
                *sv += av * blj;
            }
        }
    }
    for (s, cj) in acc.iter().zip(c.iter_mut()) {
        for (cv, &sv) in cj[..rows].iter_mut().zip(s) {
            *cv += alpha * sv;
        }
    }
}

/// `y += alpha · x` (elementwise).
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += alpha * xv;
    }
}

/// `out[i] = a[i] · b[i]`.
pub fn pointwise_mul(out: &mut [f64], a: &[f64], b: &[f64]) {
    assert!(out.len() == a.len() && out.len() == b.len());
    for ((o, &av), &bv) in out.iter_mut().zip(a).zip(b) {
        *o = av * bv;
    }
}

/// `out[i] += a[i] · b[i]` (separate multiply and add).
pub fn pointwise_muladd(out: &mut [f64], a: &[f64], b: &[f64]) {
    assert!(out.len() == a.len() && out.len() == b.len());
    for ((o, &av), &bv) in out.iter_mut().zip(a).zip(b) {
        *o += av * bv;
    }
}

/// `acc[i] += x[i]²` (the ISDF pair-weight accumulation).
pub fn add_squares(acc: &mut [f64], x: &[f64]) {
    assert_eq!(acc.len(), x.len());
    for (a, &v) in acc.iter_mut().zip(x) {
        *a += v * v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference axpy fold: one C column at a time, re-reading the A strip
    /// for each column.
    #[allow(clippy::too_many_arguments)]
    fn skinny_axpy_ref(
        k: usize,
        ap: &[f64],
        astride: usize,
        b: &[f64],
        ldb: usize,
        n: usize,
        mr_eff: usize,
        alpha: f64,
        c: &mut [f64],
        ldc: usize,
    ) {
        for j in 0..n {
            let cc = &mut c[j * ldc..j * ldc + mr_eff];
            for l in 0..k {
                let blj = alpha * b[l + j * ldb];
                if blj == 0.0 {
                    continue;
                }
                let a = &ap[l * astride..l * astride + mr_eff];
                for (cv, &av) in cc.iter_mut().zip(a.iter()) {
                    *cv += blj * av;
                }
            }
        }
    }

    /// Reference dot fold: one C column at a time.
    #[allow(clippy::too_many_arguments)]
    fn skinny_dot_ref(
        k: usize,
        ap: &[f64],
        b: &[f64],
        n: usize,
        mr_eff: usize,
        alpha: f64,
        c: &mut [f64],
        ldc: usize,
    ) {
        for j in 0..n {
            let mut acc = [0.0f64; MR];
            for l in 0..k {
                let blj = b[l + j * k];
                for (av, accv) in ap[l * MR..l * MR + mr_eff].iter().zip(acc.iter_mut()) {
                    *accv += *av * blj;
                }
            }
            for (cv, &accv) in c[j * ldc..j * ldc + mr_eff].iter_mut().zip(acc.iter()) {
                *cv += alpha * accv;
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Deterministic values in [-1, 1), with every `zero_every`-th one an
    /// exact zero (0 = none).
    fn fill(len: usize, salt: u64, zero_every: usize) -> Vec<f64> {
        (0..len)
            .map(|i| {
                if zero_every > 0 && i % zero_every == 0 {
                    return 0.0;
                }
                let h = (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt;
                (h >> 11) as f64 / (1u64 << 52) as f64 - 1.0
            })
            .collect()
    }

    #[test]
    fn active_kernel_names_the_targeted_isa() {
        let name = active_kernel().name();
        assert!(["avx512", "avx2", "neon", "baseline"].contains(&name), "{name}");
        let avx2_only = cfg!(target_feature = "avx2") && !cfg!(target_feature = "avx512f");
        assert_eq!(name == "avx2", avx2_only);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The grouped skinny tiles reproduce the column-at-a-time
        /// reference bitwise: every column count, full and partial strips,
        /// both folds, both A strides, and B columns holding exact zeros
        /// (the axpy fold's skip).
        #[test]
        fn skinny_tiles_match_column_reference_bitwise(
            n in 1usize..=MR,
            mr_eff in prop_oneof![Just(MR), 1usize..MR],
            k in prop_oneof![Just(1usize), 2usize..70],
            direct in prop_oneof![Just(false), Just(true)],
            zero_every in prop_oneof![Just(0usize), 1usize..5],
            alpha in prop_oneof![Just(1.0f64), -2.0f64..2.0],
            seed in 0u64..u64::MAX,
        ) {
            let ldc = mr_eff + 3;
            let c0 = fill(ldc * n, seed ^ 3, 0);
            let b = fill(k * n, seed ^ 2, zero_every);

            // Axpy fold: a packed strip (stride MR) or a window of a
            // column-major A (stride lda) that ends at its last element.
            let astride = if direct { mr_eff + 5 } else { MR };
            let a_axpy = fill((k - 1) * astride + mr_eff, seed ^ 1, 0);
            let mut want_axpy = c0.clone();
            skinny_axpy_ref(k, &a_axpy, astride, &b, k, n, mr_eff, alpha, &mut want_axpy, ldc);
            // Dot fold: a packed strip, zero-padded past mr_eff.
            let mut a_dot = fill(k * MR, seed ^ 4, 0);
            for row in a_dot.chunks_exact_mut(MR) {
                row[mr_eff..].fill(0.0);
            }
            let mut want_dot = c0.clone();
            skinny_dot_ref(k, &a_dot, &b, n, mr_eff, alpha, &mut want_dot, ldc);

            let (mut got_axpy, mut got_dot) = (c0.clone(), c0.clone());
            // SAFETY: each C buffer holds n columns of ldc ≥ mr_eff rows.
            unsafe {
                let c = got_axpy.as_mut_ptr();
                skinny_axpy_tile(k, &a_axpy, astride, &b, k, n, mr_eff, alpha, c, ldc);
                skinny_dot_tile(k, &a_dot, &b, n, mr_eff, alpha, got_dot.as_mut_ptr(), ldc);
            }
            let case = format!("n={n} mr_eff={mr_eff} k={k}");
            prop_assert_eq!(bits(&got_axpy), bits(&want_axpy), "axpy {}", case);
            prop_assert_eq!(bits(&got_dot), bits(&want_dot), "dot {}", case);
        }
    }
}
