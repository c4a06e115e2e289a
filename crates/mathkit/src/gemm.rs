//! BLIS-style packed/tiled GEMM engine and friends.
//!
//! The paper leans on MKL `dgemm` for the face-splitting products and the
//! `V_Hxc = P_vcᵀ (f_Hxc P_vc)` contractions. This module provides the same
//! role: a cache-blocked, packed, register-tiled GEMM in the style of BLIS
//! (Van Zee & van de Geijn, TOMS 2015), parallelized with Rayon over 2-D
//! macro-tiles of `C` — the same shape of parallelism the row-block data
//! distribution in the paper exploits.
//!
//! Structure (the BLIS loop order, `MC × MC` tiles of C):
//!
//! ```text
//! for pc in 0..k step KC                  // rank-KC updates, in order
//!   pack op(B)[pc.., cols] → KC × n slice of NR-wide strips   (one region)
//!   each part, over its run of tiles (row block first):       (one region)
//!     pack op(A)[ic.., pc..] → MC × KC block of MR-wide strips, once per row block
//!     for jr, ir: 8×NR microkernel over the KC strip, C[tile] += alpha·acc
//! ```
//!
//! Packing absorbs all four transpose cases, so the microkernel always sees
//! two contiguous streams regardless of `op(A)`/`op(B)`, and the register
//! tile is computed by the microkernel in [`crate::simd`] (8×4 and a wider
//! 8×8 variant, selected by output width). Every pack lives in one
//! grow-only scratch of the calling thread: `KC × n` of `op(B)` plus one
//! `MC × KC` block of `op(A)` per part, whatever `k` and the row count. The
//! parts take contiguous runs of equal tile work, so both M and N are
//! partitioned and the lower triangle of a symmetric product splits as
//! evenly as a rectangle.
//!
//! Skinny outputs (`n ≤ MR`, the implicit-Hamiltonian `H·X` shape with a
//! handful of excitation states) take a dedicated strip-tiled path: the C
//! strip rides in registers over the *full* shared dimension, `op(B)` is
//! staged into one small `k × n` buffer, and `op(A)` is either read in
//! place (untransposed — panel-blocked so the strided strip reads stay
//! cache-resident) or packed once into MR-row strips (transposed), so every
//! A element is read exactly once from DRAM and the fold per output element
//! stays single-pass — bitwise identical to the serial kernels.
//!
//! Tiny inputs (Rayleigh–Ritz blocks, 3×3 cell algebra) skip packing
//! entirely through a serial small-size fast path.

use crate::mat::Mat;
use crate::simd;
use rayon::prelude::*;
use std::ops::Range;

/// Whether an operand is used as-is or transposed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transpose {
    No,
    Yes,
}

/// Microkernel register tile: MR rows × NR columns of C. NR8 is the wider
/// 8×8 tile used when the output has enough columns to fill it.
const MR: usize = 8;
const NR: usize = 4;
const NR8: usize = 8;
/// Cache blocking: C tiles are MC×MC, op(A) blocks MC×KC (L2-resident), and
/// op(B) is packed one KC-row slice at a time.
const MC: usize = 128;
const KC: usize = 512;
/// Flop count (2·m·n·k) below which packing overhead beats the blocked path.
const SMALL_FLOPS: usize = 1 << 17;
/// Flops a part of a parallel region must hold: a scoped spawn plus join
/// costs 40–46 µs, and this is a few hundred µs of kernel time, so a region
/// smaller than two of these runs inline on the calling thread.
const PAR_FLOPS: usize = 1 << 22;
/// Doubles a part of a parallel packing region must copy (≈ 512 KiB).
const PAR_PACK: usize = 1 << 16;
/// Panel budget (in doubles, ≈1 MiB) for the direct skinny-axpy path: the
/// strip sweep reads one cache line per A column at stride `lda`, so without
/// blocking a tall-`k` sweep touches a new page per load (no prefetch, TLB
/// misses on every strip). Blocking the shared dimension to panels of
/// `DIRECT_PANEL / lda` columns keeps the panel L2/TLB-resident: the first
/// strip streams it from DRAM, the rest re-read it from cache.
const DIRECT_PANEL: usize = 1 << 17;

/// `C = alpha * op(A) * op(B) + beta * C`.
///
/// Shapes (after `op`): `op(A)` is `m × k`, `op(B)` is `k × n`, `C` is `m × n`.
pub fn gemm(
    alpha: f64,
    a: &Mat,
    ta: Transpose,
    b: &Mat,
    tb: Transpose,
    beta: f64,
    c: &mut Mat,
) {
    let (m, k) = op_shape(a, ta);
    let (kb, n) = op_shape(b, tb);
    assert_eq!(k, kb, "inner dimensions must agree");
    assert_eq!(c.shape(), (m, n), "output shape mismatch");
    let (av, bv) = (View::of(a, ta), View::of(b, tb));
    gemm_ld(alpha, av, bv, beta, c.as_mut_slice(), m, (m, n, k));
}

/// [`gemm`] on column-major windows: `c[i + j·ldc]` is `C[i, j]`, and each
/// operand is a [`View`] whose `data` starts at the window's first element
/// and whose `ld` is the column stride of the matrix it was cut from. This is
/// the one dispatcher — [`gemm`] is it with every stride equal to the row
/// count — so a sub-block update (the triangular engine and the blocked
/// Cholesky in [`crate::chol`]) runs the same kernels with the same fold as
/// a whole-matrix product of that shape.
pub fn gemm_ld(
    alpha: f64,
    av: View,
    bv: View,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
    (m, n, k): (usize, usize, usize),
) {
    if m == 0 || n == 0 {
        return;
    }
    // The tile kernels write C through raw pointers: the window must fit.
    assert!(ldc >= m && c.len() >= (n - 1) * ldc + m, "C window out of bounds");
    let c = &mut c[..(n - 1) * ldc + m];
    obskit::record_gemm_shape(m, n, k);
    if k == 0 || alpha == 0.0 {
        scale_cols(c, ldc, m, beta);
        return;
    }
    assert!(av.spans(m, k) && bv.spans(k, n), "operand window out of bounds");

    if 2 * m * n * k < SMALL_FLOPS {
        obskit::record_kernel_dispatch("gemm.small");
        gemm_small(alpha, &av, &bv, beta, c, ldc, m, n, k);
    } else if n <= MR && m >= 3 * MR {
        // The implicit-H·X family: a tall `op(A)` against at most MR columns.
        // Keep the whole C strip in registers and sweep A in one pass.
        // Untransposed A is read in place (contiguous 8-row segments of each
        // column — "direct"); transposed A is packed once over the full k
        // ("packed") so the dot fold can vectorize across rows. At large k
        // these shapes are DRAM-bound, and skipping the A pack is what keeps
        // the single-stream traffic at parity with the reference loop.
        obskit::record_kernel_dispatch(match av.trans {
            Transpose::No => "gemm.skinny_direct",
            Transpose::Yes => "gemm.skinny_packed",
        });
        gemm_skinny_packed(alpha, &av, &bv, beta, c, ldc, m, n, k);
    } else if n < 3 * NR || m < 3 * MR {
        // Skinny output: every packed element would be reused fewer than ~3
        // times, so packing overhead beats the microkernel win. Column-
        // parallel axpy/dot loops instead (LOBPCG `S·coef` blocks and short
        // outputs land here).
        obskit::record_kernel_dispatch("gemm.skinny_cols");
        gemm_skinny(alpha, &av, &bv, beta, c, ldc, m, n, k);
    } else {
        obskit::record_kernel_dispatch(match blocked_nr(n) {
            NR8 => "gemm.blocked.8x8",
            _ => "gemm.blocked.8x4",
        });
        gemm_blocked(alpha, &av, &bv, beta, c, ldc, m, n, k);
    }
}

/// Register-tile width for the blocked path: the 8×8 microkernel needs at
/// least two full tiles of columns to pay for its wider B packing.
#[inline]
fn blocked_nr(n: usize) -> usize {
    if n >= 2 * NR8 {
        NR8
    } else {
        NR
    }
}

/// Convenience: `C = AᵀB` (the dominant contraction in `V_Hxc` assembly).
pub fn gemm_tn(a: &Mat, b: &Mat) -> Mat {
    let mut c = Mat::zeros(a.ncols(), b.ncols());
    gemm(1.0, a, Transpose::Yes, b, Transpose::No, 0.0, &mut c);
    c
}

/// Convenience: `C = A·B`.
pub fn matmul(a: &Mat, b: &Mat) -> Mat {
    let mut c = Mat::zeros(a.nrows(), b.ncols());
    gemm(1.0, a, Transpose::No, b, Transpose::No, 0.0, &mut c);
    c
}

/// Symmetric rank-k update `C = alpha·AᵀA` (Gram matrix). Only the lower
/// triangle of macro-tiles is computed through the packed engine; the upper
/// triangle is mirrored afterwards.
pub fn syrk_tn_scaled(alpha: f64, a: &Mat) -> Mat {
    symm_tn(alpha, a, a, 0..a.ncols())
}

/// Symmetric rank-k update `C = AᵀA` (Gram matrix), exploiting symmetry.
pub fn syrk_tn(a: &Mat) -> Mat {
    syrk_tn_scaled(1.0, a)
}

/// Symmetric rank-k update `C = alpha·A·Aᵀ` (the `Ψ̂ Ψ̂ᵀ` factors of the ISDF
/// Gram pair).
pub fn syrk_nt_scaled(alpha: f64, a: &Mat) -> Mat {
    let n = a.nrows();
    let k = a.ncols();
    let av = View::of(a, Transpose::No);
    let bv = View::of(a, Transpose::Yes);
    syrk_engine(alpha, &av, &bv, n, k, 0..n)
}

/// Symmetric rank-k update `C = A·Aᵀ`.
pub fn syrk_nt(a: &Mat) -> Mat {
    syrk_nt_scaled(1.0, a)
}

/// Columns `cols` of `C = alpha·AᵀB` for equal-shape `A`, `B` whose product
/// is symmetric by construction — `B = K·A` with `K` symmetric, as for the
/// `f_Hxc`-applied factors of `V_Hxc` and `Ṽ`. Only the lower triangle is
/// computed and the upper one mirrored, so the whole product costs half a
/// GEMM, and column blocks of `C` assemble it bit for bit.
pub fn symm_tn(alpha: f64, a: &Mat, b: &Mat, cols: Range<usize>) -> Mat {
    assert_eq!(a.shape(), b.shape(), "the factors of a symmetric product have one shape");
    let av = View::of(a, Transpose::Yes);
    let bv = View::of(b, Transpose::No);
    syrk_engine(alpha, &av, &bv, a.ncols(), a.nrows(), cols)
}

/// Items per part for a region whose items cost `flops` each.
#[inline]
fn par_floor(flops: usize) -> usize {
    PAR_FLOPS.div_ceil(flops.max(1))
}

/// Shape of `op(X)`.
#[inline]
fn op_shape(x: &Mat, t: Transpose) -> (usize, usize) {
    match t {
        Transpose::No => (x.nrows(), x.ncols()),
        Transpose::Yes => (x.ncols(), x.nrows()),
    }
}

/// `s *= beta` with the BLAS convention that `beta == 0` overwrites NaNs.
fn scale_slice(s: &mut [f64], beta: f64) {
    if beta == 0.0 {
        s.fill(0.0);
    } else if beta != 1.0 {
        for v in s.iter_mut() {
            *v *= beta;
        }
    }
}

/// `s *= beta` on the `m`-row columns of a window with column stride `ldc`
/// (the slice ends with the last column's `m`-th element), parallel over
/// columns: on a fresh output this pass is the first touch of its pages, so
/// the page faults split over the threads as well.
fn scale_cols(c: &mut [f64], ldc: usize, m: usize, beta: f64) {
    if beta == 1.0 {
        return;
    }
    c.par_chunks_mut(ldc)
        .with_min_len(PAR_PACK.div_ceil(m.max(1)))
        .for_each(|col| scale_slice(&mut col[..m], beta));
}

/// A transpose-aware read-only window of a column-major operand: stored
/// element `(i, l)` is `data[i + l·ld]`.
#[derive(Clone, Copy)]
pub struct View<'a> {
    pub data: &'a [f64],
    pub ld: usize,
    pub trans: Transpose,
}

impl<'a> View<'a> {
    /// All of `x`, used as `op(x)`.
    pub fn of(x: &'a Mat, trans: Transpose) -> Self {
        View { data: x.as_slice(), ld: x.nrows(), trans }
    }

    /// Whether a `rows × cols` `op(X)` fits inside `data`.
    fn spans(&self, rows: usize, cols: usize) -> bool {
        let (r, c) = match self.trans {
            Transpose::No => (rows, cols),
            Transpose::Yes => (cols, rows),
        };
        self.ld >= r && self.data.len() >= (c - 1) * self.ld + r
    }

    /// `op(X)[i, l]`.
    #[inline(always)]
    fn get(&self, i: usize, l: usize) -> f64 {
        match self.trans {
            Transpose::No => self.data[i + l * self.ld],
            Transpose::Yes => self.data[l + i * self.ld],
        }
    }
}

/// Serial fast path: seed-style column-wise loops, no packing, no Rayon.
#[allow(clippy::too_many_arguments)]
fn gemm_small(
    alpha: f64,
    av: &View,
    bv: &View,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
    m: usize,
    n: usize,
    k: usize,
) {
    scale_cols(c, ldc, m, beta);
    for j in 0..n {
        let c_col = &mut c[j * ldc..j * ldc + m];
        match (av.trans, bv.trans) {
            (Transpose::No, Transpose::No) => {
                let b_col = &bv.data[j * bv.ld..j * bv.ld + k];
                for (l, &bl) in b_col.iter().enumerate() {
                    let blj = alpha * bl;
                    if blj == 0.0 {
                        continue;
                    }
                    let a_col = &av.data[l * av.ld..l * av.ld + m];
                    simd::axpy(blj, a_col, c_col);
                }
            }
            (Transpose::Yes, Transpose::No) => {
                let b_col = &bv.data[j * bv.ld..j * bv.ld + k];
                for (i, cv) in c_col.iter_mut().enumerate() {
                    let a_col = &av.data[i * av.ld..i * av.ld + k];
                    let mut s = 0.0;
                    for (a, b) in a_col.iter().zip(b_col.iter()) {
                        s += a * b;
                    }
                    *cv += alpha * s;
                }
            }
            (Transpose::No, Transpose::Yes) => {
                for l in 0..k {
                    let blj = alpha * bv.get(l, j);
                    if blj == 0.0 {
                        continue;
                    }
                    let a_col = &av.data[l * av.ld..l * av.ld + m];
                    simd::axpy(blj, a_col, c_col);
                }
            }
            (Transpose::Yes, Transpose::Yes) => {
                for (i, cv) in c_col.iter_mut().enumerate() {
                    let a_col = &av.data[i * av.ld..i * av.ld + k];
                    let mut s = 0.0;
                    for (l, &a) in a_col.iter().enumerate() {
                        s += a * bv.get(l, j);
                    }
                    *cv += alpha * s;
                }
            }
        }
    }
}

/// Unpacked column-parallel path for skinny outputs: each worker owns one
/// C column and runs the serial kernels on it (`gemm_small` with `n = 1`,
/// the B view offset to the matching column).
#[allow(clippy::too_many_arguments)]
fn gemm_skinny(
    alpha: f64,
    av: &View,
    bv: &View,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
    m: usize,
    n: usize,
    k: usize,
) {
    debug_assert_eq!(c.len(), (n - 1) * ldc + m);
    c.par_chunks_mut(ldc).enumerate().with_min_len(par_floor(2 * m * k)).for_each(|(j, col)| {
        let boff = match bv.trans {
            Transpose::No => j * bv.ld,
            Transpose::Yes => j,
        };
        let bj = View { data: &bv.data[boff..], ld: bv.ld, trans: bv.trans };
        gemm_small(alpha, av, &bj, beta, &mut col[..m], m, m, 1, k);
    });
}

/// Strip-tiled path for skinny outputs (`n ≤ MR`, tall `op(A)`): the whole C
/// strip of `n` columns rides in one register tile per MR rows, swept over
/// the full shared dimension in a single pass (no KC split — the per-element
/// fold stays bitwise identical to the serial kernels), with `op(B)` staged
/// into one `k × n` column-major buffer.
///
/// `op(A)` handling depends on the fold:
/// * **Axpy fold** (`A` untransposed): read A in place — each strip's MR rows
///   are contiguous within every column of column-major A, so the tile just
///   walks the column stride `lda`. No pack at all; at large `k` the A pack
///   would *triple* memory traffic (write + re-read 8·k·strips doubles the
///   single streaming read) and these shapes are DRAM-bound, which is exactly
///   how the `implicit_512x4096_x_4096x8` benchmark shape regressed below the
///   reference loop before this path existed.
/// * **Dot fold** (`A` transposed): pack once into row-interleaved `MR × k`
///   strips — the vector kernel needs one `l` slice across 8 rows per load,
///   which transposed A cannot provide in place.
///
/// This is the shape of the paper's implicit `H·X` apply (`N_mu × N_cv`
/// operators against `k ≤ 8` excitation states), where the column-parallel
/// fallback used to re-read A once per column.
#[allow(clippy::too_many_arguments)]
fn gemm_skinny_packed(
    alpha: f64,
    av: &View,
    bv: &View,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
    m: usize,
    n: usize,
    k: usize,
) {
    debug_assert!((1..=MR).contains(&n));
    let strips = m.div_ceil(MR);
    let dot_fold = av.trans == Transpose::Yes;
    let a_need = if dot_fold { strips * MR * k } else { 0 };
    // A fresh zeroed Vec would cost more than the whole tile sweep at these
    // skinny shapes (page zeroing dominates), hence the reused scratch.
    with_pack_scratch(a_need + k * n, |buf| {
        let (apack, bp) = buf.split_at_mut(a_need);
        apack
            .par_chunks_mut(MR * k)
            .enumerate()
            .with_min_len(PAR_PACK.div_ceil(MR * k))
            .for_each(|(s, buf)| pack_a_strip(av, s * MR, m, 0, k, buf));
        for j in 0..n {
            for (l, d) in bp[j * k..(j + 1) * k].iter_mut().enumerate() {
                *d = bv.get(l, j);
            }
        }
        let (apack, bp) = (&*apack, &*bp);
        scale_cols(c, ldc, m, beta);
        let cptr = CPtr(c.as_mut_ptr());
        let lda = av.ld;
        if dot_fold {
            (0..strips).into_par_iter().with_min_len(par_floor(2 * MR * n * k)).for_each(|s| {
                let it = s * MR;
                let mr_eff = MR.min(m - it);
                let ap = &apack[s * MR * k..(s + 1) * MR * k];
                // SAFETY: strips own disjoint row ranges `[it, it + mr_eff)` of
                // every C column; the tile kernels only touch those rows.
                unsafe {
                    let cbase = cptr.get().add(it);
                    simd::skinny_dot_tile(k, ap, bp, n, mr_eff, alpha, cbase, ldc);
                }
            });
        } else {
            // Direct-from-A sweep, panel-blocked over the shared dimension (see
            // DIRECT_PANEL). C accumulates panel by panel in increasing `l`, so
            // the per-element fold order — and hence bitwise identity with the
            // serial kernels — is unchanged; the register tile is simply stored
            // and reloaded between panels (exact round trips). Each part sweeps
            // its own run of strips panel by panel, so a panel stays cached
            // across that run.
            let kc = (DIRECT_PANEL / lda).max(MR).min(k);
            let parts = rayon::current_num_threads().min(2 * m * n * k / PAR_FLOPS).max(1);
            let run = strips.div_ceil(parts);
            (0..strips.div_ceil(run)).into_par_iter().for_each(|r| {
                let mut l0 = 0;
                while l0 < k {
                    let kc_eff = kc.min(k - l0);
                    for s in r * run..strips.min((r + 1) * run) {
                        let it = s * MR;
                        let mr_eff = MR.min(m - it);
                        // Direct window into A: rows [it, it + mr_eff) of columns
                        // [l0, l0 + kc_eff), stride lda, ending exactly at the
                        // window's last element.
                        let ap = &av.data[l0 * lda + it..(l0 + kc_eff - 1) * lda + it + mr_eff];
                        // SAFETY: same disjoint-strip ownership of C rows as above.
                        unsafe {
                            let cbase = cptr.get().add(it);
                            simd::skinny_axpy_tile(
                                kc_eff,
                                ap,
                                lda,
                                &bp[l0..],
                                k,
                                n,
                                mr_eff,
                                alpha,
                                cbase,
                                ldc,
                            );
                        }
                    }
                    l0 += kc_eff;
                }
            });
        }
    });
}

std::thread_local! {
    /// This thread's pack scratch, shared by the skinny and the blocked
    /// paths and reused across calls (grown, never shrunk).
    static PACK_SCRATCH: std::cell::Cell<Vec<f64>> = const { std::cell::Cell::new(Vec::new()) };
}

/// Run `f` on `len` doubles of this thread's pack scratch, whose contents
/// are left over from earlier calls. The scratch is allocated here, on the
/// calling thread, and a region's workers only fill disjoint slices of it:
/// a worker that allocated would grow a malloc arena of its own.
fn with_pack_scratch<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    let mut buf = PACK_SCRATCH.take();
    if buf.len() < len {
        // Free the old buffer first, so the two never coexist.
        drop(buf);
        buf = vec![0.0; len];
    }
    let r = f(&mut buf[..len]);
    PACK_SCRATCH.set(buf);
    r
}

/// Raw pointer into C, shareable across workers writing disjoint tiles.
#[derive(Clone, Copy)]
struct CPtr(*mut f64);
// SAFETY: the pointer is only written through inside the tile kernels, and
// the tasks of one region own disjoint elements of C, so the threads of a
// region never touch the same element.
unsafe impl Send for CPtr {}
unsafe impl Sync for CPtr {}

impl CPtr {
    /// The pointer, read through a method so a closure captures the whole
    /// `Sync` wrapper rather than its raw field.
    fn get(self) -> *mut f64 {
        self.0
    }
}

/// Packed/tiled path: the `beta` pass over C, then [`packed_engine`] over
/// every tile.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked(
    alpha: f64,
    av: &View,
    bv: &View,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
    m: usize,
    n: usize,
    k: usize,
) {
    scale_cols(c, ldc, m, beta);
    packed_engine(alpha, av, bv, k, 0..m, 0..n, false, c, ldc);
}

/// The packed engine, in BLIS loop order:
/// `out[(i − rows.start) + (j − cols.start)·ldo] += alpha·Σ_l op(A)[i,l]·op(B)[l,j]`
/// over the `MC × MC` tiles of `rows × cols`, or, with `lower`, over those
/// holding an entry on or below the diagonal (`i ≥ j`), each computed whole.
///
/// For each `KC` slice in increasing order, the slice of `op(B)` columns
/// `cols` is packed once, in parallel; then each part of a second region
/// runs its share of the tiles, packing one `MC × KC` block of `op(A)` at a
/// time into its own slice of the pack scratch. Tiles are numbered row block
/// first and parts take contiguous runs of equal tile work, so a part packs
/// each block it needs once per slice, and a lower triangle splits as evenly
/// as a rectangle. The scratch holds `KC × n` of `op(B)` and `MC × KC` per
/// part, whatever `k` and the row count. Returns the flops spent.
#[allow(clippy::too_many_arguments)]
fn packed_engine(
    alpha: f64,
    av: &View,
    bv: &View,
    k: usize,
    rows: Range<usize>,
    cols: Range<usize>,
    lower: bool,
    out: &mut [f64],
    ldo: usize,
) -> u64 {
    let (m, n, r0, c0) = (rows.len(), cols.len(), rows.start, cols.start);
    // The tile kernels write `out` through raw pointers: the window must fit.
    assert!(ldo >= m && out.len() >= (n - 1) * ldo + m, "output window out of bounds");
    let tiles = move || {
        (0..m)
            .step_by(MC)
            .flat_map(move |i0| (0..n).step_by(MC).map(move |j0| (i0, j0, MC.min(m - i0), MC.min(n - j0))))
            .filter(move |&(i0, j0, mc, _)| !lower || r0 + i0 + mc > c0 + j0)
    };
    let work: usize = tiles().map(|(_, _, mc, nc)| mc * nc).sum();
    let nr = blocked_nr(n);
    let (b_len, a_len) = (n.next_multiple_of(nr) * KC.min(k), MC * KC.min(k));
    let parts = rayon::current_num_threads().min(2 * work * KC.min(k) / PAR_FLOPS).max(1);
    let cptr = CPtr(out.as_mut_ptr());
    with_pack_scratch(b_len + parts * a_len, |buf| {
        let (bpack, apacks) = buf.split_at_mut(b_len);
        for p0 in (0..k).step_by(KC) {
            let kc = KC.min(k - p0);
            let bp = &mut bpack[..n.next_multiple_of(nr) * kc];
            bp.par_chunks_mut(nr * kc)
                .enumerate()
                .with_min_len(PAR_PACK.div_ceil(nr * kc))
                .for_each(|(s, strip)| pack_b_strip(bv, c0 + s * nr, cols.end, p0, kc, nr, strip));
            let bp = &*bp;
            apacks.par_chunks_mut(a_len).enumerate().for_each(|(part, apack)| {
                let (mut before, mut packed_block) = (0, None);
                for (i0, j0, mc, nc) in tiles() {
                    let owner = before * parts / work;
                    before += mc * nc;
                    if owner != part {
                        continue;
                    }
                    let ap = &mut apack[..mc.next_multiple_of(MR) * kc];
                    if packed_block != Some(i0) {
                        pack_a(av, r0 + i0, mc, p0, kc, ap);
                        packed_block = Some(i0);
                    }
                    // SAFETY: each tile belongs to one part, and `out` holds
                    // the window (asserted above).
                    unsafe { macro_tile(nr, alpha, ap, &bp[j0 * kc..], kc, mc, nc, cptr, ldo, i0, j0) };
                }
            });
        }
    });
    2 * (work * k) as u64
}

/// Pack one MR-row strip starting at op(A) row `ib` (rows clipped to
/// `i_max`) × cols `[p0, p0+kc)` into `buf` (`MR·kc`): element `(i, l)`
/// lands at `l·MR + i`, and padding rows are zeroed.
fn pack_a_strip(av: &View, ib: usize, i_max: usize, p0: usize, kc: usize, buf: &mut [f64]) {
    let mr_eff = MR.min(i_max - ib);
    // Partial strips zero their padding lanes explicitly: the pack scratch
    // is reused, so the buffer is not pre-zeroed.
    if mr_eff < MR {
        for l in 0..kc {
            buf[l * MR + mr_eff..(l + 1) * MR].fill(0.0);
        }
    }
    match av.trans {
        Transpose::No => {
            for l in 0..kc {
                let col = &av.data[(p0 + l) * av.ld + ib..];
                let dst = &mut buf[l * MR..l * MR + mr_eff];
                dst.copy_from_slice(&col[..mr_eff]);
            }
        }
        Transpose::Yes => {
            // kc-outer keeps both sides streaming: mr_eff sequential
            // read cursors (one per op(A) row = stored column) advance
            // in lockstep while writes stay contiguous.
            for l in 0..kc {
                let dst = &mut buf[l * MR..l * MR + mr_eff];
                for (i, d) in dst.iter_mut().enumerate() {
                    *d = av.data[(ib + i) * av.ld + p0 + l];
                }
            }
        }
    }
}

/// Pack rows `[i0, i0+mc)` × cols `[p0, p0+kc)` of `op(A)` into the MR-row
/// micropanels of `buf`: element `(i, l)` of strip `s` lands at
/// `s·MR·kc + l·MR + i`. Partial strips are zero-padded so the microkernel
/// never branches.
fn pack_a(av: &View, i0: usize, mc: usize, p0: usize, kc: usize, buf: &mut [f64]) {
    for (s, strip) in buf.chunks_mut(MR * kc).enumerate() {
        pack_a_strip(av, i0 + s * MR, i0 + mc, p0, kc, strip);
    }
}

/// Pack one `nr`-column strip starting at op(B) column `jb` (columns clipped
/// to `j_max`) × rows `[p0, p0+kc)` into `buf` (`nr·kc`): element `(l, j)`
/// lands at `l·nr + j`, and padding columns are zeroed.
fn pack_b_strip(bv: &View, jb: usize, j_max: usize, p0: usize, kc: usize, nr: usize, buf: &mut [f64]) {
    let nr_eff = nr.min(j_max - jb);
    if nr_eff < nr {
        for l in 0..kc {
            buf[l * nr + nr_eff..(l + 1) * nr].fill(0.0);
        }
    }
    match bv.trans {
        Transpose::No => {
            // kc-outer for the same streaming-access reason as pack_a_strip.
            for l in 0..kc {
                let dst = &mut buf[l * nr..l * nr + nr_eff];
                for (j, d) in dst.iter_mut().enumerate() {
                    *d = bv.data[(jb + j) * bv.ld + p0 + l];
                }
            }
        }
        Transpose::Yes => {
            for l in 0..kc {
                let col = &bv.data[(p0 + l) * bv.ld + jb..];
                buf[l * nr..l * nr + nr_eff].copy_from_slice(&col[..nr_eff]);
            }
        }
    }
}

/// One tile of C updated from a packed A block and packed B panel:
/// `C[i0.., j0..] += alpha · op(A)_panel · op(B)_panel`. The register tile
/// itself is computed by the microkernel in [`crate::simd`]
/// (`nr` ∈ {4, 8} selects the 8×4 or 8×8 variant; both packed panels must
/// have been laid out with the same `nr`).
///
/// # Safety
/// The caller must guarantee exclusive access to the tile
/// `(i0..i0+mc) × (j0..j0+nc)` of the `ldc`-row column-major buffer `c`.
#[allow(clippy::too_many_arguments)]
unsafe fn macro_tile(
    nr: usize,
    alpha: f64,
    ap: &[f64],
    bp: &[f64],
    kc: usize,
    mc: usize,
    nc: usize,
    c: CPtr,
    ldc: usize,
    i0: usize,
    j0: usize,
) {
    let m_strips = mc.div_ceil(MR);
    let n_strips = nc.div_ceil(nr);
    let mut acc = [0.0f64; MR * NR8];
    for js in 0..n_strips {
        let bstrip = &bp[js * nr * kc..(js + 1) * nr * kc];
        let jt = js * nr;
        let nr_eff = nr.min(nc - jt);
        for is in 0..m_strips {
            let astrip = &ap[is * MR * kc..(is + 1) * MR * kc];
            let it = is * MR;
            let mr_eff = MR.min(mc - it);
            simd::microkernel_f64(nr, kc, astrip, bstrip, &mut acc);
            for (j, accj) in acc.chunks_exact(MR).enumerate().take(nr_eff) {
                let base = c.0.add((j0 + jt + j) * ldc + i0 + it);
                for (i, &v) in accj.iter().enumerate().take(mr_eff) {
                    *base.add(i) += alpha * v;
                }
            }
        }
    }
}

/// Shared engine of the symmetric products: columns `cols` of the `n × n`
/// product `C = alpha·op(A)·op(B)`, which is symmetric by construction.
/// Only entries on or below the diagonal are computed (macro-tiles strictly
/// above it are skipped); every other entry is the mirror image of one. The
/// fold of an entry depends on `n` and `k` alone, so column blocks of `C`
/// assemble the whole product bit for bit. The flops of the tiles computed
/// are added to `obskit`'s count.
fn syrk_engine(alpha: f64, av: &View, bv: &View, n: usize, k: usize, cols: Range<usize>) -> Mat {
    assert!(cols.end <= n, "column block out of bounds");
    let (c0, w) = (cols.start, cols.len());
    let mut c = Mat::zeros(n, w);
    if w == 0 || k == 0 || alpha == 0.0 {
        return c;
    }
    let small = 2 * n * n * k < SMALL_FLOPS;
    let part = |rows: Range<usize>, cols: Range<usize>, out: &mut [f64], ldo: usize| {
        if rows.is_empty() || cols.is_empty() {
            0
        } else if small {
            lower_dots(alpha, av, bv, k, rows, cols, out, ldo)
        } else {
            packed_engine(alpha, av, bv, k, rows, cols, true, out, ldo)
        }
    };
    // The block column's own rows `[c0, n)`, then the block row beside it,
    // `[c0, c1) × [0, c0)`, whose transpose is the part above the block.
    let mut flops = part(c0..n, cols.clone(), &mut c.as_mut_slice()[c0..], n);
    let mut beside = Mat::zeros(w, c0);
    flops += part(cols.clone(), 0..c0, beside.as_mut_slice(), w);
    obskit::add_flops(flops);
    for jl in 0..w {
        let j = c0 + jl;
        for i in 0..j {
            c[(i, jl)] = if i < c0 { beside[(jl, i)] } else { c[(j, i - c0)] };
        }
    }
    c
}

/// The serial fold of the symmetric engine's small products:
/// `out[(i − rows.start) + (j − cols.start)·ldo] = alpha·Σ_l op(A)[i,l]·op(B)[l,j]`
/// for the entries of `rows × cols` on or below the diagonal (`i ≥ j`), one
/// dot over all of `k` each. Returns the flops spent.
#[allow(clippy::too_many_arguments)]
fn lower_dots(
    alpha: f64,
    av: &View,
    bv: &View,
    k: usize,
    rows: Range<usize>,
    cols: Range<usize>,
    out: &mut [f64],
    ldo: usize,
) -> u64 {
    let mut dots = 0;
    for j in cols.clone() {
        for i in rows.start.max(j)..rows.end {
            let mut s = 0.0;
            for l in 0..k {
                s += av.get(i, l) * bv.get(l, j);
            }
            out[i - rows.start + (j - cols.start) * ldo] = alpha * s;
            dots += 1;
        }
    }
    2 * dots * k as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fixed-seed RNG so failures reproduce exactly across runs and hosts.
    fn test_rng() -> rand::rngs::StdRng {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(0x9e3779b97f4a7c15)
    }

    fn naive_mul(a: &Mat, b: &Mat) -> Mat {
        let mut c = Mat::zeros(a.nrows(), b.ncols());
        for i in 0..a.nrows() {
            for j in 0..b.ncols() {
                let mut s = 0.0;
                for l in 0..a.ncols() {
                    s += a[(i, l)] * b[(l, j)];
                }
                c[(i, j)] = s;
            }
        }
        c
    }

    #[test]
    fn gemm_nn_matches_naive() {
        let mut rng = test_rng();
        let a = Mat::random(17, 9, &mut rng);
        let b = Mat::random(9, 13, &mut rng);
        let c = matmul(&a, &b);
        assert!(c.max_abs_diff(&naive_mul(&a, &b)) < 1e-12);
    }

    #[test]
    fn gemm_tn_matches_naive() {
        let mut rng = test_rng();
        let a = Mat::random(23, 7, &mut rng);
        let b = Mat::random(23, 5, &mut rng);
        let c = gemm_tn(&a, &b);
        assert!(c.max_abs_diff(&naive_mul(&a.transpose(), &b)) < 1e-12);
    }

    #[test]
    fn gemm_nt_and_tt() {
        let mut rng = test_rng();
        let a = Mat::random(6, 8, &mut rng);
        let b = Mat::random(10, 8, &mut rng);
        let mut c = Mat::zeros(6, 10);
        gemm(1.0, &a, Transpose::No, &b, Transpose::Yes, 0.0, &mut c);
        assert!(c.max_abs_diff(&naive_mul(&a, &b.transpose())) < 1e-12);

        let e = Mat::random(10, 6, &mut rng);
        let mut d = Mat::zeros(8, 10);
        gemm(1.0, &a, Transpose::Yes, &e, Transpose::Yes, 0.0, &mut d);
        assert!(d.max_abs_diff(&naive_mul(&a.transpose(), &e.transpose())) < 1e-12);
    }

    #[test]
    fn gemm_alpha_beta_accumulate() {
        let a = Mat::eye(3);
        let b = Mat::from_fn(3, 3, |i, j| (i + j) as f64);
        let mut c = Mat::eye(3);
        gemm(2.0, &a, Transpose::No, &b, Transpose::No, 3.0, &mut c);
        // C = 2*B + 3*I
        assert_eq!(c[(0, 0)], 3.0);
        assert_eq!(c[(1, 2)], 6.0);
        assert_eq!(c[(2, 2)], 11.0);
    }

    #[test]
    fn blocked_path_matches_naive_all_transposes() {
        // Sizes chosen to exceed SMALL_FLOPS and exercise edge strips
        // (m, n not multiples of MR/NR; k not a multiple of KC).
        let mut rng = test_rng();
        let (m, n, k) = (77, 45, 41);
        for (ta, tb) in [
            (Transpose::No, Transpose::No),
            (Transpose::Yes, Transpose::No),
            (Transpose::No, Transpose::Yes),
            (Transpose::Yes, Transpose::Yes),
        ] {
            let a = match ta {
                Transpose::No => Mat::random(m, k, &mut rng),
                Transpose::Yes => Mat::random(k, m, &mut rng),
            };
            let b = match tb {
                Transpose::No => Mat::random(k, n, &mut rng),
                Transpose::Yes => Mat::random(n, k, &mut rng),
            };
            let av = View::of(&a, ta);
            let bv = View::of(&b, tb);
            let mut c = Mat::zeros(m, n);
            gemm_blocked(1.0, &av, &bv, 0.0, c.as_mut_slice(), m, m, n, k);
            let a_eff = if ta == Transpose::Yes { a.transpose() } else { a.clone() };
            let b_eff = if tb == Transpose::Yes { b.transpose() } else { b.clone() };
            assert!(
                c.max_abs_diff(&naive_mul(&a_eff, &b_eff)) < 1e-11,
                "({ta:?},{tb:?}) mismatch"
            );
        }
    }

    #[test]
    fn blocked_spans_multiple_panels() {
        // Cross every blocking boundary: m, n > MC, k > KC.
        let mut rng = test_rng();
        let (m, n, k) = (MC + 13, 2 * MC + 7, KC + 5);
        let a = Mat::random(m, k, &mut rng);
        let b = Mat::random(k, n, &mut rng);
        let c = matmul(&a, &b);
        let reference = naive_mul(&a, &b);
        assert!(c.max_abs_diff(&reference) < 1e-9 * (k as f64));
    }

    /// Element-indexed reference for the packed engine's fold: the `beta`
    /// pass, then for each `KC` slice `acc` folds from 0.0 in increasing `l`
    /// and `c += alpha·acc`.
    #[allow(clippy::too_many_arguments)]
    fn kc_fold(alpha: f64, av: &View, bv: &View, beta: f64, c: f64, i: usize, j: usize, k: usize) -> f64 {
        let mut c = if beta == 0.0 {
            0.0
        } else if beta == 1.0 {
            c
        } else {
            beta * c
        };
        for p0 in (0..k).step_by(KC) {
            let mut acc = 0.0;
            for l in p0..k.min(p0 + KC) {
                acc += av.get(i, l) * bv.get(l, j);
            }
            c += alpha * acc;
        }
        c
    }

    /// `op(X)` of shape `rows × cols`, stored transposed when `t` says so.
    fn random_op(rows: usize, cols: usize, t: Transpose, rng: &mut rand::rngs::StdRng) -> Mat {
        match t {
            Transpose::No => Mat::random(rows, cols, rng),
            Transpose::Yes => Mat::random(cols, rows, rng),
        }
    }

    const ALL_TRANSPOSES: [(Transpose, Transpose); 4] = [
        (Transpose::No, Transpose::No),
        (Transpose::Yes, Transpose::No),
        (Transpose::No, Transpose::Yes),
        (Transpose::Yes, Transpose::Yes),
    ];

    #[test]
    fn blocked_engine_is_the_kc_fold_bitwise() {
        // Every dimension crosses its cache block at least twice and ends
        // ragged; n = 14 takes the 8×4 microkernel, n = 4·MC + 19 the 8×8.
        let mut rng = test_rng();
        let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (m, n, k) in [(2 * MC + 37, 4 * MC + 19, 2 * KC + 29), (2 * MC + 5, 14, 2 * KC + 3)] {
            for (ta, tb) in ALL_TRANSPOSES {
                let a = random_op(m, k, ta, &mut rng);
                let b = random_op(k, n, tb, &mut rng);
                let c0 = Mat::random(m, n, &mut rng);
                let (av, bv) = (View::of(&a, ta), View::of(&b, tb));
                let want = Mat::from_fn(m, n, |i, j| kc_fold(0.7, &av, &bv, -0.3, c0[(i, j)], i, j, k));
                for threads in [1, 2, 3] {
                    let mut c = c0.clone();
                    rayon::ThreadPool::new(threads).install(|| {
                        gemm_blocked(0.7, &av, &bv, -0.3, c.as_mut_slice(), m, m, n, k)
                    });
                    assert_eq!(
                        bits(c.as_slice()),
                        bits(want.as_slice()),
                        "({ta:?},{tb:?}) {m}×{n}×{k} at {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn symmetric_engine_is_the_kc_fold_bitwise() {
        // Lower entries fold like the dense engine from a zero output; upper
        // entries are their mirrors. Column blocks straddle tile edges.
        let mut rng = test_rng();
        let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (n, k) = (4 * MC + 19, 2 * KC + 29);
        for (ta, tb) in ALL_TRANSPOSES {
            let a = random_op(n, k, ta, &mut rng);
            let b = random_op(k, n, tb, &mut rng);
            let (av, bv) = (View::of(&a, ta), View::of(&b, tb));
            let lower = Mat::from_fn(n, n, |i, j| {
                if i >= j {
                    kc_fold(-1.3, &av, &bv, 0.0, 0.0, i, j, k)
                } else {
                    0.0
                }
            });
            for threads in [1, 2, 3] {
                for cols in [0..n, 0..1, MC - 3..MC + 200, 2 * MC + 1..n] {
                    let got =
                        rayon::ThreadPool::new(threads).install(|| syrk_engine(-1.3, &av, &bv, n, k, cols.clone()));
                    let want = Mat::from_fn(n, cols.len(), |i, jl| {
                        let j = cols.start + jl;
                        lower[(i.max(j), i.min(j))]
                    });
                    assert_eq!(
                        bits(got.as_slice()),
                        bits(want.as_slice()),
                        "({ta:?},{tb:?}) columns {cols:?} at {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn syrk_is_gram() {
        let mut rng = test_rng();
        let a = Mat::random(14, 6, &mut rng);
        let g = syrk_tn(&a);
        assert!(g.max_abs_diff(&gemm_tn(&a, &a)) < 1e-12);
        // symmetric
        assert!(g.max_abs_diff(&g.transpose()) < 1e-14);
    }

    #[test]
    fn syrk_blocked_matches_gemm() {
        let mut rng = test_rng();
        // Big enough for the tiled path, non-multiple of the block size.
        let a = Mat::random(500, 2 * MC + 11, &mut rng);
        let g = syrk_tn(&a);
        assert!(g.max_abs_diff(&gemm_tn(&a, &a)) < 1e-10);
        assert!(g.max_abs_diff(&g.transpose()) == 0.0, "exact symmetry by mirroring");
    }

    #[test]
    fn syrk_nt_is_outer_gram() {
        let mut rng = test_rng();
        let a = Mat::random(9, 17, &mut rng);
        let g = syrk_nt(&a);
        let mut expect = Mat::zeros(9, 9);
        gemm(1.0, &a, Transpose::No, &a, Transpose::Yes, 0.0, &mut expect);
        assert!(g.max_abs_diff(&expect) < 1e-12);
        let gs = syrk_nt_scaled(2.5, &a);
        expect.scale(2.5);
        assert!(gs.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn symm_column_blocks_assemble_the_whole_product_bitwise() {
        // B = diag(d)·A makes AᵀB symmetric by construction. The serial and
        // the tiled fold, with blocks that straddle macro-tile edges.
        let mut rng = test_rng();
        for (k, n) in [(9, 7), (300, 2 * MC + 11)] {
            let a = Mat::random(k, n, &mut rng);
            let b = Mat::from_fn(k, n, |l, j| (1.0 + 0.1 * l as f64) * a[(l, j)]);
            let whole = symm_tn(0.7, &a, &b, 0..n);
            let mut expect = gemm_tn(&a, &b);
            expect.scale(0.7);
            assert!(whole.max_abs_diff(&expect) < 1e-10);
            assert_eq!(whole.max_abs_diff(&whole.transpose()), 0.0, "exact symmetry by mirroring");
            for cuts in [vec![0, 1, n], vec![0, n / 3, n / 2, n], vec![0, MC.min(n - 1) + 1, n]] {
                for pair in cuts.windows(2) {
                    let block = symm_tn(0.7, &a, &b, pair[0]..pair[1]);
                    let want = whole.col_block(pair[0], pair[1]);
                    let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&block), bits(&want), "n={n} columns {pair:?}");
                }
            }
        }
    }

    #[test]
    fn empty_inner_dim() {
        let a = Mat::zeros(3, 0);
        let b = Mat::zeros(0, 2);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), (3, 2));
        assert_eq!(c.norm_fro(), 0.0);
        // k == 0 with beta: pure scaling.
        let mut c2 = Mat::eye(3);
        let z = Mat::zeros(3, 0);
        let z2 = Mat::zeros(0, 3);
        gemm(1.0, &z, Transpose::No, &z2, Transpose::No, 2.0, &mut c2);
        assert_eq!(c2[(0, 0)], 2.0);
    }

    #[test]
    fn skinny_packed_matches_naive_all_transposes() {
        // Forces the n ≤ MR packed path: tall output, few columns, both
        // full and partial MR strips, all four folds.
        let mut rng = test_rng();
        for (m, n, k) in [(67, 3, 50), (64, 8, 33), (200, 1, 7), (40, 5, 1)] {
            for (ta, tb) in [
                (Transpose::No, Transpose::No),
                (Transpose::Yes, Transpose::No),
                (Transpose::No, Transpose::Yes),
                (Transpose::Yes, Transpose::Yes),
            ] {
                let a = match ta {
                    Transpose::No => Mat::random(m, k, &mut rng),
                    Transpose::Yes => Mat::random(k, m, &mut rng),
                };
                let b = match tb {
                    Transpose::No => Mat::random(k, n, &mut rng),
                    Transpose::Yes => Mat::random(n, k, &mut rng),
                };
                let av = View::of(&a, ta);
                let bv = View::of(&b, tb);
                let mut c = Mat::from_fn(m, n, |i, j| (i + 2 * j) as f64 * 0.01);
                let mut expect = c.clone();
                gemm_small(1.7, &av, &bv, -0.3, expect.as_mut_slice(), m, m, n, k);
                gemm_skinny_packed(1.7, &av, &bv, -0.3, c.as_mut_slice(), m, m, n, k);
                // Same fold per element as the serial kernels → exact match.
                for (got, want) in c.as_slice().iter().zip(expect.as_slice().iter()) {
                    assert_eq!(got.to_bits(), want.to_bits(), "({ta:?},{tb:?}) m={m} n={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn implicit_hx_shape_routes_to_skinny_tiles() {
        let mut rng = test_rng();
        // The previously-regressed BENCH_gemm shape family, scaled down:
        // tall A, 8 states. Untransposed A must take the direct (pack-free)
        // axpy tile; transposed A must take the packed dot tile.
        let a = Mat::random(96, 512, &mut rng);
        let at = Mat::random(512, 96, &mut rng);
        let b = Mat::random(512, 8, &mut rng);
        obskit::enable();
        let mut c = Mat::zeros(96, 8);
        gemm(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c);
        gemm(1.0, &at, Transpose::Yes, &b, Transpose::No, 0.0, &mut c);
        obskit::disable();
        let dispatch = obskit::take_trace().counters.kernel_dispatch;
        for label in ["gemm.skinny_direct", "gemm.skinny_packed"] {
            let hit = dispatch.iter().any(|(l, _)| l == label);
            assert!(hit, "missing {label} in dispatch counters: {dispatch:?}");
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Dense reference: plain triple loop over `alpha·op(A)op(B) + beta·C`.
        fn reference(
            alpha: f64,
            a: &Mat,
            ta: Transpose,
            b: &Mat,
            tb: Transpose,
            beta: f64,
            c0: &Mat,
        ) -> Mat {
            let (m, k) = op_shape(a, ta);
            let (_, n) = op_shape(b, tb);
            let av = View::of(a, ta);
            let bv = View::of(b, tb);
            let mut c = Mat::zeros(m, n);
            for j in 0..n {
                for i in 0..m {
                    let mut s = 0.0;
                    for l in 0..k {
                        s += av.get(i, l) * bv.get(l, j);
                    }
                    c[(i, j)] = alpha * s + beta * c0[(i, j)];
                }
            }
            c
        }

        fn transpose_strategy() -> impl Strategy<Value = Transpose> {
            prop_oneof![Just(Transpose::No), Just(Transpose::Yes)]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The correctness gate for the microkernel: the packed engine
            /// must match the naive reference for every transpose combo,
            /// arbitrary alpha/beta, and degenerate shapes (zero dims,
            /// single rows/columns, non-multiple-of-tile edges).
            #[test]
            fn packed_gemm_matches_reference(
                m in prop_oneof![Just(0usize), Just(1), 2usize..40],
                n in prop_oneof![Just(0usize), Just(1), 2usize..40],
                k in prop_oneof![Just(0usize), Just(1), 2usize..40],
                ta in transpose_strategy(),
                tb in transpose_strategy(),
                alpha in -2.0f64..2.0,
                beta in prop_oneof![Just(0.0f64), Just(1.0), -1.5f64..1.5],
                seed in 0u64..u64::MAX,
            ) {
                use rand::SeedableRng;
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let a = match ta {
                    Transpose::No => Mat::random(m, k, &mut rng),
                    Transpose::Yes => Mat::random(k, m, &mut rng),
                };
                let b = match tb {
                    Transpose::No => Mat::random(k, n, &mut rng),
                    Transpose::Yes => Mat::random(n, k, &mut rng),
                };
                let c0 = Mat::random(m, n, &mut rng);
                let expect = reference(alpha, &a, ta, &b, tb, beta, &c0);

                // Dispatching entry point.
                let mut c = c0.clone();
                gemm(alpha, &a, ta, &b, tb, beta, &mut c);
                prop_assert!(c.max_abs_diff(&expect) < 1e-10);

                // Forced blocked path (the small-size dispatcher would route
                // these shapes to the serial loops otherwise).
                if m > 0 && n > 0 && k > 0 && alpha != 0.0 {
                    let av = View::of(&a, ta);
                    let bv = View::of(&b, tb);
                    let mut cb = c0.clone();
                    gemm_blocked(alpha, &av, &bv, beta, cb.as_mut_slice(), m, m, n, k);
                    prop_assert!(cb.max_abs_diff(&expect) < 1e-10);
                }
            }

            /// The skinny strip tiles reproduce the serial kernels bitwise
            /// (same fold per element, grouped columns): every column count
            /// up to MR, partial strips, both folds, beta accumulation onto
            /// a pre-filled C, and B columns holding exact zeros (the axpy
            /// fold's skip).
            #[test]
            fn skinny_tiles_match_serial_kernels_bitwise(
                m in prop_oneof![Just(1usize), Just(7), Just(8), Just(9), Just(25), 1usize..70],
                n in 1usize..=MR,
                k in prop_oneof![Just(1usize), Just(2), 1usize..90],
                ta in transpose_strategy(),
                tb in transpose_strategy(),
                alpha in -2.0f64..2.0,
                beta in prop_oneof![Just(0.0f64), Just(1.0), -1.5f64..1.5],
                zero_every in prop_oneof![Just(0usize), 1usize..4],
                seed in 0u64..u64::MAX,
            ) {
                use rand::SeedableRng;
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let a = match ta {
                    Transpose::No => Mat::random(m, k, &mut rng),
                    Transpose::Yes => Mat::random(k, m, &mut rng),
                };
                let mut b = match tb {
                    Transpose::No => Mat::random(k, n, &mut rng),
                    Transpose::Yes => Mat::random(n, k, &mut rng),
                };
                if zero_every > 0 {
                    for v in b.as_mut_slice().iter_mut().step_by(zero_every) {
                        *v = 0.0;
                    }
                }
                let c0 = Mat::random(m, n, &mut rng);
                let bits = |c: &Mat| c.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                let (av, bv) = (View::of(&a, ta), View::of(&b, tb));
                let mut skinny = c0.clone();
                gemm_skinny_packed(alpha, &av, &bv, beta, skinny.as_mut_slice(), m, m, n, k);
                let mut serial = c0.clone();
                gemm_small(alpha, &av, &bv, beta, serial.as_mut_slice(), m, m, n, k);
                prop_assert_eq!(bits(&skinny), bits(&serial));
            }

            #[test]
            fn packed_syrk_matches_gemm(
                n in 1usize..30,
                k in 1usize..30,
                alpha in -2.0f64..2.0,
                seed in 0u64..u64::MAX,
            ) {
                use rand::SeedableRng;
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let a = Mat::random(k, n, &mut rng);
                let expect = {
                    let mut e = gemm_tn(&a, &a);
                    e.scale(alpha);
                    e
                };
                let g = syrk_tn_scaled(alpha, &a);
                prop_assert!(g.max_abs_diff(&expect) < 1e-10);
                // Forced tiled path.
                let av = View::of(&a, Transpose::Yes);
                let bv = View::of(&a, Transpose::No);
                let mut gt = syrk_engine(alpha, &av, &bv, n, k, 0..n);
                // syrk_engine dispatches on size internally; compare anyway.
                prop_assert!(gt.max_abs_diff(&expect) < 1e-10);
                gt.symmetrize();
                prop_assert!(gt.max_abs_diff(&expect) < 1e-10);
            }
        }
    }
}
