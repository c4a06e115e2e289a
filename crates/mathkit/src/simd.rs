//! Explicit SIMD microkernels with one-time runtime dispatch.
//!
//! The packed GEMM engine in [`crate::gemm`] used to rely on `#[inline(never)]`
//! coaxing LLVM into auto-vectorizing the register tile. This module replaces
//! that hope with explicit `std::arch` AVX2 kernels selected once per process
//! by [`active_kernel`], plus a bit-compatible scalar fallback.
//!
//! ## Bit-compatibility contract
//!
//! Every f64 kernel here performs, per output element, the *same sequence of
//! IEEE-754 operations* as its scalar twin: separate multiply and add (never
//! a fused multiply-add), with the reduction over the shared dimension folded
//! in ascending order into one accumulator per element. Vectorizing over the
//! *row* index only changes which elements are computed together, not the
//! per-element operation stream — so `Avx2` and `Scalar` produce bitwise
//! identical results, and the solver pipeline's results are independent of
//! the host CPU. The dispatch override (`MATHKIT_KERNEL`, [`force_kernel`])
//! exists so tests and CI can prove that property rather than assume it.
//!
//! [`dot`] uses a 4-lane split reduction (documented at the function) and is
//! intended for new code where the fold order is free; the solver paths keep
//! their historical sequential folds.

use std::sync::atomic::{AtomicU8, Ordering};

/// Microkernel row height (matches `gemm::MR`).
pub(crate) const MR: usize = 8;

/// Which kernel family [`active_kernel`] resolved to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Explicit AVX2 `std::arch` code.
    Avx2,
    /// Portable scalar loops, bitwise identical to the AVX2 kernels.
    Scalar,
}

impl Kernel {
    /// Short name used in dispatch counters and reports.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Avx2 => "avx2",
            Kernel::Scalar => "scalar",
        }
    }
}

/// 0 = undecided, 1 = Avx2, 2 = Scalar.
static KERNEL_STATE: AtomicU8 = AtomicU8::new(0);

/// Resolve the kernel family for this process (cached after the first call).
///
/// Order: `MATHKIT_KERNEL` env override (`auto` / `avx2` / `scalar`), then
/// runtime CPU feature detection (`avx2` *and* `fma` required — every AVX2
/// part of interest has both).
#[inline]
pub fn active_kernel() -> Kernel {
    match KERNEL_STATE.load(Ordering::Relaxed) {
        1 => Kernel::Avx2,
        2 => Kernel::Scalar,
        _ => {
            let k = detect();
            KERNEL_STATE.store(if k == Kernel::Avx2 { 1 } else { 2 }, Ordering::Relaxed);
            k
        }
    }
}

/// Test/CI hook: pin the dispatcher to one kernel (`Some`) or reset it to
/// re-detect on next use (`None`). Safe at any time — both kernels produce
/// bitwise identical results, so racing callers only affects performance.
pub fn force_kernel(k: Option<Kernel>) {
    let code = match k {
        Some(Kernel::Avx2) => {
            assert!(avx2_available(), "force_kernel(Avx2) on a CPU without avx2+fma");
            1
        }
        Some(Kernel::Scalar) => 2,
        None => 0,
    };
    KERNEL_STATE.store(code, Ordering::Relaxed);
}

/// Whether the host CPU can run the AVX2 kernels.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn detect() -> Kernel {
    match std::env::var("MATHKIT_KERNEL").as_deref() {
        Ok("scalar") => return Kernel::Scalar,
        Ok("avx2") => {
            assert!(avx2_available(), "MATHKIT_KERNEL=avx2 but the CPU lacks avx2+fma");
            return Kernel::Avx2;
        }
        Ok("") | Ok("auto") | Err(_) => {}
        Ok(other) => panic!("MATHKIT_KERNEL must be auto|avx2|scalar, got {other:?}"),
    }
    if avx2_available() {
        Kernel::Avx2
    } else {
        Kernel::Scalar
    }
}

// ---------------------------------------------------------------------------
// Blocked-path microkernels: rank-kc update of an MR × NR register tile from
// packed micropanels (`ap`: kc steps of MR values, `bp`: kc steps of NR
// values). `acc[j * MR + i] = Σ_l ap[l * MR + i] · bp[l * NR + j]`.
// ---------------------------------------------------------------------------

/// Dispatching microkernel entry. `nr` must be 4 or 8; `acc` holds at least
/// `nr * MR` elements and is fully overwritten.
pub(crate) fn microkernel_f64(kernel: Kernel, nr: usize, kc: usize, ap: &[f64], bp: &[f64], acc: &mut [f64]) {
    debug_assert!(nr == 4 || nr == 8);
    debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * nr && acc.len() >= nr * MR);
    match kernel {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe {
            if nr == 8 {
                mk8x8_avx2(kc, ap, bp, acc);
            } else {
                mk8x4_avx2(kc, ap, bp, acc);
            }
        },
        _ => {
            if nr == 8 {
                mk_scalar::<8>(kc, ap, bp, acc);
            } else {
                mk_scalar::<4>(kc, ap, bp, acc);
            }
        }
    }
}

/// Scalar twin of the AVX2 microkernels — the historical auto-vectorized
/// fold: per element, ascending-`l` multiply-then-add into one accumulator.
#[inline(never)]
fn mk_scalar<const NR: usize>(kc: usize, ap: &[f64], bp: &[f64], out: &mut [f64]) {
    let mut acc = [[0.0f64; MR]; NR];
    for (a, b) in ap.chunks_exact(MR).take(kc).zip(bp.chunks_exact(NR)) {
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

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mk8x4_avx2(kc: usize, ap: &[f64], bp: &[f64], out: &mut [f64]) {
    use std::arch::x86_64::*;
    let mut acc = [_mm256_setzero_pd(); 8]; // [2j] = rows 0..4, [2j+1] = rows 4..8
    let mut a = ap.as_ptr();
    let mut b = bp.as_ptr();
    for _ in 0..kc {
        let a0 = _mm256_loadu_pd(a);
        let a1 = _mm256_loadu_pd(a.add(4));
        for j in 0..4 {
            let bj = _mm256_set1_pd(*b.add(j));
            acc[2 * j] = _mm256_add_pd(acc[2 * j], _mm256_mul_pd(a0, bj));
            acc[2 * j + 1] = _mm256_add_pd(acc[2 * j + 1], _mm256_mul_pd(a1, bj));
        }
        a = a.add(MR);
        b = b.add(4);
    }
    for j in 0..4 {
        _mm256_storeu_pd(out.as_mut_ptr().add(j * MR), acc[2 * j]);
        _mm256_storeu_pd(out.as_mut_ptr().add(j * MR + 4), acc[2 * j + 1]);
    }
}

/// Wider 8×8 variant: 16 ymm accumulators — the whole tile stays in the
/// register file, halving the B-broadcast traffic per flop vs 8×4.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mk8x8_avx2(kc: usize, ap: &[f64], bp: &[f64], out: &mut [f64]) {
    use std::arch::x86_64::*;
    let mut acc = [_mm256_setzero_pd(); 16];
    let mut a = ap.as_ptr();
    let mut b = bp.as_ptr();
    for _ in 0..kc {
        let a0 = _mm256_loadu_pd(a);
        let a1 = _mm256_loadu_pd(a.add(4));
        for j in 0..8 {
            let bj = _mm256_set1_pd(*b.add(j));
            acc[2 * j] = _mm256_add_pd(acc[2 * j], _mm256_mul_pd(a0, bj));
            acc[2 * j + 1] = _mm256_add_pd(acc[2 * j + 1], _mm256_mul_pd(a1, bj));
        }
        a = a.add(MR);
        b = b.add(8);
    }
    for j in 0..8 {
        _mm256_storeu_pd(out.as_mut_ptr().add(j * MR), acc[2 * j]);
        _mm256_storeu_pd(out.as_mut_ptr().add(j * MR + 4), acc[2 * j + 1]);
    }
}

// ---------------------------------------------------------------------------
// Skinny-shape tile kernels: one MR-row strip of op(A), packed once over the
// FULL shared dimension (no KC split), against a k × n column-major B buffer
// with n ≤ MR. Two fold variants mirroring the serial kernels exactly:
//
//  * axpy fold (op(A) untransposed): C tile pre-scaled by beta lives in the
//    accumulator registers; per l, `c += (alpha·b[l,j]) · a[:,l]` with the
//    historical `alpha·b == 0` skip.
//  * dot fold (op(A) transposed): zero-initialized accumulators collect
//    `Σ_l a·b`, then `c += alpha · acc` once at the end.
//
// Partial strips (`mr_eff < MR`) always take the scalar twin — loading or
// storing a full ymm row there would touch out-of-bounds C memory — so the
// Avx2/Scalar choice never changes results there either.
// ---------------------------------------------------------------------------

/// Axpy-fold skinny tile. `ap` holds the strip's rows of untransposed A with
/// column stride `astride`: either one zero-padded packed `MR × k` strip
/// (`astride == MR`) or a window straight into column-major A itself
/// (`astride == lda`) — the MR rows of one strip are contiguous within each
/// A column, so no pack is needed and the large-`k` shapes skip the pack
/// traffic entirely. `b` is a `k × n` window of a column-major staging
/// buffer with column stride `ldb ≥ k` (panel callers window the full
/// staged B), `c` points at element `(strip_row_0, 0)` of an `ldc`-row
/// column-major C whose tile was already scaled by beta.
///
/// # Safety
/// Caller guarantees exclusive access to rows `[0, mr_eff)` of all `n`
/// columns of `c` (stride `ldc`), `mr_eff ≤ MR`, `n ≤ MR`, and that
/// `ap[l * astride .. l * astride + mr_eff]` is in bounds for every
/// `l < k` — plus a full `MR` elements per column when `mr_eff == MR`.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn skinny_axpy_tile(
    kernel: Kernel,
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
    debug_assert!(
        k >= 1 && ap.len() >= (k - 1) * astride + mr_eff && b.len() >= (n - 1) * ldb + k
    );
    #[cfg(target_arch = "x86_64")]
    if kernel == Kernel::Avx2 && mr_eff == MR {
        // ≤ 4 columns per microkernel pass: 8 accumulator ymm plus the two
        // A-row registers and the broadcast stay inside the 16-register
        // file (8 columns spill accumulators every iteration). The strip is
        // L2-resident, so the second pass re-reads it cheaply, and the
        // per-element fold over l is unchanged — still bitwise identical to
        // the column-at-a-time scalar twin.
        let mut j0 = 0;
        while j0 < n {
            let nb = (n - j0).min(4);
            let bj = &b[j0 * ldb..];
            let cj = c.add(j0 * ldc);
            match nb {
                1 => skinny_axpy_avx2::<1>(k, ap, astride, bj, ldb, alpha, cj, ldc),
                2 => skinny_axpy_avx2::<2>(k, ap, astride, bj, ldb, alpha, cj, ldc),
                3 => skinny_axpy_avx2::<3>(k, ap, astride, bj, ldb, alpha, cj, ldc),
                _ => skinny_axpy_avx2::<4>(k, ap, astride, bj, ldb, alpha, cj, ldc),
            }
            j0 += nb;
        }
        return;
    }
    let _ = kernel;
    skinny_axpy_scalar(k, ap, astride, b, ldb, n, mr_eff, alpha, c, ldc);
}

#[allow(clippy::too_many_arguments)]
unsafe fn skinny_axpy_scalar(
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
    for j in 0..n {
        let cc = std::slice::from_raw_parts_mut(c.add(j * ldc), mr_eff);
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

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::needless_range_loop, clippy::too_many_arguments)]
unsafe fn skinny_axpy_avx2<const N: usize>(
    k: usize,
    ap: &[f64],
    astride: usize,
    b: &[f64],
    ldb: usize,
    alpha: f64,
    c: *mut f64,
    ldc: usize,
) {
    use std::arch::x86_64::*;
    let mut lo = [_mm256_setzero_pd(); N];
    let mut hi = [_mm256_setzero_pd(); N];
    for j in 0..N {
        lo[j] = _mm256_loadu_pd(c.add(j * ldc));
        hi[j] = _mm256_loadu_pd(c.add(j * ldc + 4));
    }
    let mut a = ap.as_ptr();
    for l in 0..k {
        let a0 = _mm256_loadu_pd(a);
        let a1 = _mm256_loadu_pd(a.add(4));
        for j in 0..N {
            let blj = alpha * *b.get_unchecked(l + j * ldb);
            if blj != 0.0 {
                let bv = _mm256_set1_pd(blj);
                lo[j] = _mm256_add_pd(lo[j], _mm256_mul_pd(bv, a0));
                hi[j] = _mm256_add_pd(hi[j], _mm256_mul_pd(bv, a1));
            }
        }
        a = a.add(astride);
    }
    for j in 0..N {
        _mm256_storeu_pd(c.add(j * ldc), lo[j]);
        _mm256_storeu_pd(c.add(j * ldc + 4), hi[j]);
    }
}

/// Dot-fold skinny tile (op(A) transposed case). `ap` is one zero-padded
/// packed `MR × k` strip (stride `MR` — the row-interleaved layout is what
/// lets the vector load gather one `l` slice across the 8 rows, so unlike
/// the axpy fold this path cannot read transposed A in place); otherwise
/// the same C-tile contract as [`skinny_axpy_tile`]; C receives
/// `c += alpha · Σ_l a·b`.
///
/// # Safety
/// Same C-tile exclusivity as [`skinny_axpy_tile`], with
/// `ap.len() ≥ k · MR`.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn skinny_dot_tile(
    kernel: Kernel,
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
    #[cfg(target_arch = "x86_64")]
    if kernel == Kernel::Avx2 && mr_eff == MR {
        // Same ≤ 4-column grouping as the axpy tile (register pressure);
        // per-element accumulation order over l is unaffected.
        let mut j0 = 0;
        while j0 < n {
            let nb = (n - j0).min(4);
            let bj = &b[j0 * k..];
            let cj = c.add(j0 * ldc);
            match nb {
                1 => skinny_dot_avx2::<1>(k, ap, bj, alpha, cj, ldc),
                2 => skinny_dot_avx2::<2>(k, ap, bj, alpha, cj, ldc),
                3 => skinny_dot_avx2::<3>(k, ap, bj, alpha, cj, ldc),
                _ => skinny_dot_avx2::<4>(k, ap, bj, alpha, cj, ldc),
            }
            j0 += nb;
        }
        return;
    }
    let _ = kernel;
    skinny_dot_scalar(k, ap, b, n, mr_eff, alpha, c, ldc);
}

#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
unsafe fn skinny_dot_scalar(
    k: usize,
    ap: &[f64],
    b: &[f64],
    n: usize,
    mr_eff: usize,
    alpha: f64,
    c: *mut f64,
    ldc: usize,
) {
    let mut acc = [[0.0f64; MR]; MR];
    for l in 0..k {
        let a = &ap[l * MR..l * MR + mr_eff];
        for j in 0..n {
            let blj = b[l + j * k];
            for (av, accv) in a.iter().zip(acc[j].iter_mut()) {
                *accv += *av * blj;
            }
        }
    }
    for j in 0..n {
        let cc = std::slice::from_raw_parts_mut(c.add(j * ldc), mr_eff);
        for (cv, &accv) in cc.iter_mut().zip(acc[j].iter()) {
            *cv += alpha * accv;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::needless_range_loop)]
unsafe fn skinny_dot_avx2<const N: usize>(
    k: usize,
    ap: &[f64],
    b: &[f64],
    alpha: f64,
    c: *mut f64,
    ldc: usize,
) {
    use std::arch::x86_64::*;
    let mut lo = [_mm256_setzero_pd(); N];
    let mut hi = [_mm256_setzero_pd(); N];
    let mut a = ap.as_ptr();
    for l in 0..k {
        let a0 = _mm256_loadu_pd(a);
        let a1 = _mm256_loadu_pd(a.add(4));
        for j in 0..N {
            let bv = _mm256_set1_pd(*b.get_unchecked(l + j * k));
            lo[j] = _mm256_add_pd(lo[j], _mm256_mul_pd(a0, bv));
            hi[j] = _mm256_add_pd(hi[j], _mm256_mul_pd(a1, bv));
        }
        a = a.add(MR);
    }
    let av = _mm256_set1_pd(alpha);
    for j in 0..N {
        let clo = _mm256_loadu_pd(c.add(j * ldc));
        let chi = _mm256_loadu_pd(c.add(j * ldc + 4));
        _mm256_storeu_pd(c.add(j * ldc), _mm256_add_pd(clo, _mm256_mul_pd(av, lo[j])));
        _mm256_storeu_pd(c.add(j * ldc + 4), _mm256_add_pd(chi, _mm256_mul_pd(av, hi[j])));
    }
}

// ---------------------------------------------------------------------------
// Vectorized level-1 helpers. All elementwise ones are bit-identical to their
// obvious scalar loops (independent elements, one mul + one add each).
// ---------------------------------------------------------------------------

/// `y += alpha · x` (elementwise; bitwise identical across kernels).
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { axpy_avx2(alpha, x, y) },
        _ => {
            for (yv, &xv) in y.iter_mut().zip(x.iter()) {
                *yv += alpha * xv;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axpy_avx2(alpha: f64, x: &[f64], y: &mut [f64]) {
    use std::arch::x86_64::*;
    let n = x.len();
    let av = _mm256_set1_pd(alpha);
    let xp = x.as_ptr();
    let yp = y.as_mut_ptr();
    let mut i = 0;
    while i + 4 <= n {
        let yv = _mm256_loadu_pd(yp.add(i));
        let xv = _mm256_loadu_pd(xp.add(i));
        _mm256_storeu_pd(yp.add(i), _mm256_add_pd(yv, _mm256_mul_pd(av, xv)));
        i += 4;
    }
    while i < n {
        *yp.add(i) += alpha * *xp.add(i);
        i += 1;
    }
}

/// `out[i] = a[i] · b[i]` (bitwise identical across kernels).
pub fn pointwise_mul(out: &mut [f64], a: &[f64], b: &[f64]) {
    assert!(out.len() == a.len() && out.len() == b.len());
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { pointwise_mul_avx2(out, a, b) },
        _ => {
            for ((o, &av), &bv) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
                *o = av * bv;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn pointwise_mul_avx2(out: &mut [f64], a: &[f64], b: &[f64]) {
    use std::arch::x86_64::*;
    let n = out.len();
    let (op, ap, bp) = (out.as_mut_ptr(), a.as_ptr(), b.as_ptr());
    let mut i = 0;
    while i + 4 <= n {
        let prod = _mm256_mul_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(bp.add(i)));
        _mm256_storeu_pd(op.add(i), prod);
        i += 4;
    }
    while i < n {
        *op.add(i) = *ap.add(i) * *bp.add(i);
        i += 1;
    }
}

/// `out[i] += a[i] · b[i]` (separate mul + add; bitwise identical across
/// kernels).
pub fn pointwise_muladd(out: &mut [f64], a: &[f64], b: &[f64]) {
    assert!(out.len() == a.len() && out.len() == b.len());
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { pointwise_muladd_avx2(out, a, b) },
        _ => {
            for ((o, &av), &bv) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
                *o += av * bv;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn pointwise_muladd_avx2(out: &mut [f64], a: &[f64], b: &[f64]) {
    use std::arch::x86_64::*;
    let n = out.len();
    let (op, ap, bp) = (out.as_mut_ptr(), a.as_ptr(), b.as_ptr());
    let mut i = 0;
    while i + 4 <= n {
        let prod = _mm256_mul_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(bp.add(i)));
        _mm256_storeu_pd(op.add(i), _mm256_add_pd(_mm256_loadu_pd(op.add(i)), prod));
        i += 4;
    }
    while i < n {
        *op.add(i) += *ap.add(i) * *bp.add(i);
        i += 1;
    }
}

/// `acc[i] += x[i]²` (bitwise identical across kernels; used by the ISDF
/// pair-weight accumulation).
pub fn add_squares(acc: &mut [f64], x: &[f64]) {
    assert_eq!(acc.len(), x.len());
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { add_squares_avx2(acc, x) },
        _ => {
            for (a, &v) in acc.iter_mut().zip(x.iter()) {
                *a += v * v;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn add_squares_avx2(acc: &mut [f64], x: &[f64]) {
    use std::arch::x86_64::*;
    let n = acc.len();
    let (ap, xp) = (acc.as_mut_ptr(), x.as_ptr());
    let mut i = 0;
    while i + 4 <= n {
        let xv = _mm256_loadu_pd(xp.add(i));
        let av = _mm256_loadu_pd(ap.add(i));
        _mm256_storeu_pd(ap.add(i), _mm256_add_pd(av, _mm256_mul_pd(xv, xv)));
        i += 4;
    }
    while i < n {
        let v = *xp.add(i);
        *ap.add(i) += v * v;
        i += 1;
    }
}

/// Dot product with a fixed 4-lane split reduction: element `i` folds into
/// lane `i mod 4`, lanes reduce as `(l0 + l1) + (l2 + l3)` at the end. Both
/// kernels implement exactly this fold, so the result is bitwise identical
/// across them (but NOT identical to a plain sequential fold — use this only
/// where the reduction order is free, e.g. reports and new code).
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { dot_avx2(x, y) },
        _ => dot_scalar(x, y),
    }
}

fn dot_scalar(x: &[f64], y: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 4];
    for (i, (&xv, &yv)) in x.iter().zip(y.iter()).enumerate() {
        lanes[i % 4] += xv * yv;
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_avx2(x: &[f64], y: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    let n = x.len();
    let (xp, yp) = (x.as_ptr(), y.as_ptr());
    let mut acc = _mm256_setzero_pd();
    let mut i = 0;
    while i + 4 <= n {
        let prod = _mm256_mul_pd(_mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)));
        acc = _mm256_add_pd(acc, prod);
        i += 4;
    }
    let mut lanes = [0.0f64; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
    // Tail elements continue the `i mod 4` lane assignment (i - n4 == i % 4
    // because the vector loop consumed a multiple of 4).
    let mut lane = 0;
    while i < n {
        lanes[lane] += *xp.add(i) * *yp.add(i);
        lane += 1;
        i += 1;
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
}

/// Test support: serialize tests that pin the global dispatcher, and run a
/// closure under a forced kernel. Compiled only for tests.
#[cfg(test)]
pub(crate) mod testutil {
    use super::{force_kernel, Kernel};

    /// Serialize tests that pin the global dispatcher.
    pub(crate) fn dispatch_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Run `f` with the dispatcher pinned to `k`, restoring auto-detection.
    pub(crate) fn with_kernel<T>(k: Kernel, f: impl FnOnce() -> T) -> T {
        force_kernel(Some(k));
        let out = f();
        force_kernel(None);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{dispatch_lock, with_kernel};
    use super::*;

    #[test]
    fn detection_resolves_and_is_cached() {
        let _g = dispatch_lock();
        force_kernel(None);
        let k = active_kernel();
        assert_eq!(k, active_kernel());
        // An explicit env override (the CI scalar-fallback job sets
        // MATHKIT_KERNEL=scalar) wins over CPU detection.
        match std::env::var("MATHKIT_KERNEL").as_deref() {
            Ok("scalar") => assert_eq!(k.name(), "scalar"),
            Ok("avx2") => assert_eq!(k.name(), "avx2"),
            _ => {
                if avx2_available() {
                    assert_eq!(k.name(), "avx2");
                } else {
                    assert_eq!(k.name(), "scalar");
                }
            }
        }
        force_kernel(None);
    }

    #[test]
    fn force_kernel_overrides_detection() {
        let _g = dispatch_lock();
        force_kernel(Some(Kernel::Scalar));
        assert_eq!(active_kernel(), Kernel::Scalar);
        force_kernel(None);
    }

    #[test]
    fn microkernel_kernels_agree_bitwise() {
        let _g = dispatch_lock();
        if !avx2_available() {
            return;
        }
        for nr in [4usize, 8] {
            for kc in [0usize, 1, 3, 17, 64] {
                let ap: Vec<f64> =
                    (0..kc * MR).map(|i| ((i * 37 % 19) as f64 - 9.0) * 0.13).collect();
                let bp: Vec<f64> =
                    (0..kc * nr).map(|i| ((i * 23 % 17) as f64 - 8.0) * 0.07).collect();
                let mut acc_a = vec![f64::NAN; nr * MR];
                let mut acc_s = vec![f64::NAN; nr * MR];
                microkernel_f64(Kernel::Avx2, nr, kc, &ap, &bp, &mut acc_a);
                microkernel_f64(Kernel::Scalar, nr, kc, &ap, &bp, &mut acc_s);
                for (a, s) in acc_a.iter().zip(acc_s.iter()) {
                    assert_eq!(a.to_bits(), s.to_bits(), "nr={nr} kc={kc}");
                }
            }
        }
    }

    #[test]
    fn level1_helpers_agree_bitwise_across_kernels() {
        let _g = dispatch_lock();
        if !avx2_available() {
            return;
        }
        // Lengths straddling the 4-wide vector body and its scalar tail.
        for n in [0usize, 1, 3, 4, 5, 8, 31] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.731).sin() * 3.0).collect();
            let y0: Vec<f64> = (0..n).map(|i| (i as f64 * 1.17).cos() - 0.4).collect();

            let mut ya = y0.clone();
            let mut ys = y0.clone();
            with_kernel(Kernel::Avx2, || axpy(0.37, &x, &mut ya));
            with_kernel(Kernel::Scalar, || axpy(0.37, &x, &mut ys));
            assert_eq!(
                ya.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                ys.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );

            let mut oa = y0.clone();
            let mut os = y0.clone();
            with_kernel(Kernel::Avx2, || pointwise_muladd(&mut oa, &x, &y0));
            with_kernel(Kernel::Scalar, || pointwise_muladd(&mut os, &x, &y0));
            assert_eq!(oa.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), os.iter().map(|v| v.to_bits()).collect::<Vec<_>>());

            let mut ma = vec![0.0; n];
            let mut ms = vec![0.0; n];
            with_kernel(Kernel::Avx2, || pointwise_mul(&mut ma, &x, &y0));
            with_kernel(Kernel::Scalar, || pointwise_mul(&mut ms, &x, &y0));
            assert_eq!(ma, ms);

            let mut sa = y0.clone();
            let mut ss = y0.clone();
            with_kernel(Kernel::Avx2, || add_squares(&mut sa, &x));
            with_kernel(Kernel::Scalar, || add_squares(&mut ss, &x));
            assert_eq!(sa.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), ss.iter().map(|v| v.to_bits()).collect::<Vec<_>>());

            let da = with_kernel(Kernel::Avx2, || dot(&x, &y0));
            let ds = with_kernel(Kernel::Scalar, || dot(&x, &y0));
            assert_eq!(da.to_bits(), ds.to_bits(), "dot n={n}");
        }
    }
}
