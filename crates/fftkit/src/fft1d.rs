//! 1-D complex FFT with precomputed plans, executed across *lanes*.
//!
//! Every kind transforms a panel laid out `[n][lanes]` — element-major, the
//! `lanes` independent lines interleaved at unit stride — so one butterfly is
//! one unit-stride sweep over `lanes` complex numbers with its twiddle held
//! in a register, which the compiler vectorises without help. What happens
//! to one element never depends on `lanes`: a panel of twenty lines and the
//! same lines run one by one agree bit for bit.
//!
//! * Power-of-two lengths: iterative radix-2 decimation in time reading the
//!   bit-reversal and stage-major twiddle tables built at plan time. Its
//!   bits are frozen while the Si8 SCF does not converge: the band solver's
//!   iteration count follows the last bit of every 16³ transform (DESIGN §7;
//!   `crate::reference` holds the scalar original the bit tests compare to).
//! * Other lengths whose prime factors are all ≤ 13 — what the paper's
//!   `(N_r)_i = √(2E_cut)·L_i/π` produces (20, 12, 48; Si₁₀₀₀ ran on
//!   104 = 2³·13): mixed-radix Stockham autosort, radix-4/2/3/5 butterflies
//!   written out, one generic `O(p²)` butterfly for 7/11/13, per-stage
//!   twiddle tables.
//! * Anything else: Bluestein's chirp-z with the chirp and both
//!   convolution-kernel spectra cached in the plan — pointwise sweeps around
//!   an inner power-of-two transform, through the same lane driver.
//!
//! No transform runs any trig. [`Plan1d`] is the planned engine; the free
//! functions [`fft`]/[`ifft`] remain as conveniences backed by a process-wide
//! plan cache keyed on length.

use crate::complex::Complex;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Stockham radices in order of preference; a length with any other prime
/// factor goes to Bluestein.
const RADICES: [usize; 7] = [4, 2, 3, 5, 7, 11, 13];

/// Lanes a Bluestein panel is chirped through at a time: bounds its scratch
/// at `m × LANE_BLOCK` whatever the panel width and keeps the inner
/// power-of-two transform in cache (128 rows × 32 lanes = 64 KiB).
const LANE_BLOCK: usize = 32;

/// A reusable 1-D FFT plan: all tables precomputed, no trig per transform.
#[derive(Debug)]
pub struct Plan1d {
    n: usize,
    kind: Kind,
}

#[derive(Debug)]
enum Kind {
    /// `n <= 1`: the transform is the identity.
    Trivial,
    /// Power-of-two Cooley–Tukey, decimation in time.
    Radix2 {
        /// Bit-reversed index of every position (u32: lines are ≪ 4G long).
        bitrev: Vec<u32>,
        /// Forward twiddles `e^{-2πik/len}`, stage-major: the stage with
        /// butterfly span `len` owns `len/2` consecutive entries at offset
        /// `len/2 - 1`. Inverse transforms conjugate on the fly.
        twiddles: Vec<Complex>,
    },
    /// Mixed-radix Stockham autosort; the stage radices multiply to `n`.
    Stockham(Vec<Stage>),
    /// Bluestein chirp-z for arbitrary `n` via a power-of-two convolution.
    Bluestein {
        /// Forward chirp `e^{-iπ j²/n}` (j² taken mod 2n); inverse is conj.
        chirp: Vec<Complex>,
        /// FFT_m of the forward convolution kernel `b[j] = conj(chirp[j])`.
        bspec_fwd: Vec<Complex>,
        /// FFT_m of the inverse convolution kernel `b[j] = chirp[j]`.
        bspec_inv: Vec<Complex>,
        /// Inner power-of-two plan of length `m ≥ 2n−1`.
        inner: Box<Plan1d>,
    },
}

/// One Stockham stage: radix-`radix` butterflies on sub-transforms of length
/// `radix·m`.
#[derive(Debug)]
struct Stage {
    radix: usize,
    m: usize,
    /// Forward `ω_{radix·m}^{p·j}` at `p·(radix−1) + j − 1`, `j` in `1..radix`.
    twiddles: Vec<Complex>,
    /// Forward `ω_radix^k`, `k` in `0..radix` — the generic butterfly only.
    roots: Vec<Complex>,
}

impl Plan1d {
    pub fn new(n: usize) -> Self {
        let kind = if n <= 1 {
            Kind::Trivial
        } else if n.is_power_of_two() {
            let (bitrev, twiddles) = radix2_tables(n);
            Kind::Radix2 { bitrev, twiddles }
        } else if let Some(stages) = stockham_stages(n) {
            Kind::Stockham(stages)
        } else {
            bluestein_plan(n)
        };
        Plan1d { n, kind }
    }

    /// Transform length.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Forward DFT in place (no normalization). `scratch` is grown on demand
    /// on Stockham and Bluestein lengths — pass the same `Vec` across calls
    /// to keep repeated transforms allocation-free.
    pub fn forward(&self, x: &mut [Complex], scratch: &mut Vec<Complex>) {
        self.lanes(x, 1, false, scratch);
    }

    /// Inverse DFT in place, including the `1/n` normalization.
    pub fn inverse(&self, x: &mut [Complex], scratch: &mut Vec<Complex>) {
        self.lanes(x, 1, true, scratch);
        let inv = 1.0 / self.n.max(1) as f64;
        for v in x.iter_mut() {
            *v = v.scale(inv);
        }
    }

    /// Length of the work buffer [`Plan1d::lanes`] needs on `lanes` lanes.
    pub(crate) fn work_len(&self, lanes: usize) -> usize {
        match &self.kind {
            Kind::Stockham(_) => self.n * lanes,
            Kind::Bluestein { inner, .. } => inner.n * lanes.min(LANE_BLOCK),
            _ => 0,
        }
    }

    /// The lane driver every transform goes through: `x` is an `[n][lanes]`
    /// panel (element `e` of line `l` at `e·lanes + l`), transformed in place
    /// along `n` with no normalization in either direction. `work` is grown,
    /// never shrunk, to one panel (Stockham ping-pong) or `m × LANE_BLOCK`
    /// (Bluestein); radix-2 runs in place.
    pub(crate) fn lanes(
        &self,
        x: &mut [Complex],
        lanes: usize,
        inverse: bool,
        work: &mut Vec<Complex>,
    ) {
        assert_eq!(x.len(), self.n * lanes, "panel must hold n × lanes elements");
        let need = self.work_len(lanes);
        if work.len() < need {
            work.resize(need, Complex::ZERO);
        }
        let work = &mut work[..need];
        match (&self.kind, inverse) {
            (Kind::Trivial, _) => {}
            (Kind::Radix2 { bitrev, twiddles }, false) => {
                radix2_lanes::<false>(x, lanes, bitrev, twiddles)
            }
            (Kind::Radix2 { bitrev, twiddles }, true) => {
                radix2_lanes::<true>(x, lanes, bitrev, twiddles)
            }
            (Kind::Stockham(stages), false) => stockham_lanes::<false>(x, lanes, stages, work),
            (Kind::Stockham(stages), true) => stockham_lanes::<true>(x, lanes, stages, work),
            (Kind::Bluestein { chirp, bspec_fwd, inner, .. }, false) => {
                bluestein_lanes::<false>(x, lanes, chirp, bspec_fwd, inner, work)
            }
            (Kind::Bluestein { chirp, bspec_inv, inner, .. }, true) => {
                bluestein_lanes::<true>(x, lanes, chirp, bspec_inv, inner, work)
            }
        }
    }
}

/// A forward table entry as the transform direction reads it.
#[inline(always)]
fn dir<const INV: bool>(w: Complex) -> Complex {
    if INV {
        w.conj()
    } else {
        w
    }
}

/// `z·ω₄`: the quarter turn, `−i` forward and `+i` inverse.
#[inline(always)]
fn turn<const INV: bool>(z: Complex) -> Complex {
    if INV {
        Complex::new(-z.im, z.re)
    } else {
        Complex::new(z.im, -z.re)
    }
}

/// Bit-reversal permutation and stage-major twiddle tables for length `n`.
fn radix2_tables(n: usize) -> (Vec<u32>, Vec<Complex>) {
    debug_assert!(n.is_power_of_two() && n >= 2);
    let mut bitrev = vec![0u32; n];
    let mut j = 0usize;
    for slot in bitrev.iter_mut().skip(1) {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        *slot = j as u32;
    }
    let mut twiddles = Vec::with_capacity(n - 1);
    let mut len = 2;
    while len <= n {
        let half = len / 2;
        for k in 0..half {
            let ang = -2.0 * std::f64::consts::PI * k as f64 / len as f64;
            twiddles.push(Complex::cis(ang));
        }
        len <<= 1;
    }
    (bitrev, twiddles)
}

/// Iterative radix-2 over rows of `lanes`: the per-line algorithm with every
/// element widened to a row, so bit reversal swaps rows and a butterfly is
/// `t = v·w; u' = u + t; v' = u − t` swept along two rows.
fn radix2_lanes<const INV: bool>(
    x: &mut [Complex],
    lanes: usize,
    bitrev: &[u32],
    twiddles: &[Complex],
) {
    for (i, &rev) in bitrev.iter().enumerate().skip(1) {
        let j = rev as usize;
        if i < j {
            let (lo, hi) = x.split_at_mut(j * lanes);
            lo[i * lanes..][..lanes].swap_with_slice(&mut hi[..lanes]);
        }
    }
    let mut half = 1;
    while half < bitrev.len() {
        // The stage with butterfly span 2·half owns entries half−1 .. 2·half−1.
        let stage = &twiddles[half - 1..2 * half - 1];
        for block in x.chunks_exact_mut(2 * half * lanes) {
            let (lo, hi) = block.split_at_mut(half * lanes);
            for ((us, vs), &tw) in
                lo.chunks_exact_mut(lanes).zip(hi.chunks_exact_mut(lanes)).zip(stage)
            {
                radix2_sweep(us, vs, dir::<INV>(tw));
            }
        }
        half *= 2;
    }
}

/// The radix-2 butterfly along two rows. A function of its own so that the
/// rows are distinct `&mut` parameters (see [`butterfly`]).
fn radix2_sweep(us: &mut [Complex], vs: &mut [Complex], tw: Complex) {
    for (u, v) in us.iter_mut().zip(vs.iter_mut()) {
        let t = *v * tw;
        let s = *u;
        *u = s + t;
        *v = s - t;
    }
}

/// Factor `n` over [`RADICES`] and build the per-stage tables; `None` when a
/// prime factor above 13 is left over.
fn stockham_stages(n: usize) -> Option<Vec<Stage>> {
    let unit = |k: usize, of: usize| {
        Complex::cis(-2.0 * std::f64::consts::PI * (k % of) as f64 / of as f64)
    };
    let mut stages = Vec::new();
    let mut n_cur = n;
    for radix in RADICES {
        while n_cur.is_multiple_of(radix) {
            let m = n_cur / radix;
            let twiddles = (0..m)
                .flat_map(|p| (1..radix).map(move |j| unit(p * j, radix * m)))
                .collect();
            let roots = (0..radix).map(|k| unit(k, radix)).collect();
            stages.push(Stage { radix, m, twiddles, roots });
            n_cur = m;
        }
    }
    (n_cur == 1).then_some(stages)
}

/// Stockham autosort across lanes, ping-ponging between `x` and `work` (same
/// length) with the result left in `x`. A stage of radix `r` on sub-length
/// `r·m` reads `a_k = src[(p + m·k)·run ..][..run]` and writes
/// `dst[(r·p + j)·run ..][..run] = (DFT_r a)_j · ω_{r·m}^{p·j}`, where `run` =
/// `lanes` × the earlier radices: every slice is contiguous, nothing is
/// gathered.
fn stockham_lanes<const INV: bool>(
    x: &mut [Complex],
    lanes: usize,
    stages: &[Stage],
    work: &mut [Complex],
) {
    let (mut src, mut dst) = (x, work);
    let mut run = lanes;
    for st in stages {
        for p in 0..st.m {
            let out = &mut dst[st.radix * p * run..][..st.radix * run];
            // ω^{0·j} = 1: the first butterfly of every stage, and all of the
            // last stage, multiply by no twiddle.
            if p == 0 {
                butterfly::<INV, false>(st, p, run, src, out);
            } else {
                butterfly::<INV, true>(st, p, run, src, out);
            }
        }
        run *= st.radix;
        std::mem::swap(&mut src, &mut dst);
    }
    if stages.len() % 2 == 1 {
        dst.copy_from_slice(src);
    }
}

const SIN_3: f64 = 0.866_025_403_784_438_6; // sin 2π/3
const COS_5: [f64; 2] = [0.309_016_994_374_947_45, -0.809_016_994_374_947_5]; // cos 2π/5, 4π/5
const SIN_5: [f64; 2] = [0.951_056_516_295_153_5, 0.587_785_252_292_473_1]; // sin 2π/5, 4π/5

/// One butterfly of a Stockham stage swept along a run. Every output run is
/// handed to its kernel as a `&mut` parameter of its own: that the runs do
/// not overlap is then part of the kernel's signature, and its loop
/// vectorises from four elements up with no run-time overlap checks.
fn butterfly<const INV: bool, const TW: bool>(
    st: &Stage,
    p: usize,
    run: usize,
    src: &[Complex],
    out: &mut [Complex],
) {
    let r = st.radix;
    let a = |k: usize| &src[(p + st.m * k) * run..][..run];
    let w = |j: usize| dir::<INV>(st.twiddles[p * (r - 1) + j - 1]);
    let mut ys = out.chunks_exact_mut(run);
    let mut y = || ys.next().expect("a butterfly writes `radix` runs");
    match r {
        2 => radix2::<TW>([a(0), a(1)], w(1), y(), y()),
        3 => radix3::<INV, TW>([a(0), a(1), a(2)], [w(1), w(2)], y(), y(), y()),
        4 => radix4::<INV, TW>([a(0), a(1), a(2), a(3)], [w(1), w(2), w(3)], y(), y(), y(), y()),
        5 => {
            let (a, w) = ([a(0), a(1), a(2), a(3), a(4)], [w(1), w(2), w(3), w(4)]);
            radix5::<INV, TW>(a, w, y(), y(), y(), y(), y())
        }
        // Odd primes 7, 11, 13: the O(r²) definition, one sweep per term.
        _ => {
            for j in 0..r {
                let yj = y();
                yj.copy_from_slice(a(0));
                for k in 1..r {
                    axpy(yj, a(k), dir::<INV>(st.roots[j * k % r]));
                }
                if TW && j > 0 {
                    let wj = w(j);
                    yj.iter_mut().for_each(|o| *o *= wj);
                }
            }
        }
    }
}

/// `z·w` where the stage has a twiddle to apply, `z` where it is one.
#[inline(always)]
fn tw<const TW: bool>(z: Complex, w: Complex) -> Complex {
    if TW {
        z * w
    } else {
        z
    }
}

fn axpy(y: &mut [Complex], x: &[Complex], w: Complex) {
    for (o, &v) in y.iter_mut().zip(x) {
        *o += v * w;
    }
}

fn radix2<const TW: bool>(a: [&[Complex]; 2], w1: Complex, y0: &mut [Complex], y1: &mut [Complex]) {
    for (((y0, y1), &a0), &a1) in y0.iter_mut().zip(y1).zip(a[0]).zip(a[1]) {
        *y0 = a0 + a1;
        *y1 = tw::<TW>(a0 - a1, w1);
    }
}

fn radix3<const INV: bool, const TW: bool>(
    a: [&[Complex]; 3],
    w: [Complex; 2],
    y0: &mut [Complex],
    y1: &mut [Complex],
    y2: &mut [Complex],
) {
    let run = y0.len();
    let ([a0, a1, a2], y1, y2) = (a.map(|s| &s[..run]), &mut y1[..run], &mut y2[..run]);
    for i in 0..run {
        let t = a1[i] + a2[i];
        let c = a0[i] - t.scale(0.5);
        let s = turn::<INV>((a1[i] - a2[i]).scale(SIN_3));
        y0[i] = a0[i] + t;
        y1[i] = tw::<TW>(c + s, w[0]);
        y2[i] = tw::<TW>(c - s, w[1]);
    }
}

fn radix4<const INV: bool, const TW: bool>(
    a: [&[Complex]; 4],
    w: [Complex; 3],
    y0: &mut [Complex],
    y1: &mut [Complex],
    y2: &mut [Complex],
    y3: &mut [Complex],
) {
    let run = y0.len();
    let [a0, a1, a2, a3] = a.map(|s| &s[..run]);
    let (y1, y2, y3) = (&mut y1[..run], &mut y2[..run], &mut y3[..run]);
    for i in 0..run {
        let (b0, b1) = (a0[i] + a2[i], a0[i] - a2[i]);
        let (b2, b3) = (a1[i] + a3[i], turn::<INV>(a1[i] - a3[i]));
        y0[i] = b0 + b2;
        y1[i] = tw::<TW>(b1 + b3, w[0]);
        y2[i] = tw::<TW>(b0 - b2, w[1]);
        y3[i] = tw::<TW>(b1 - b3, w[2]);
    }
}

fn radix5<const INV: bool, const TW: bool>(
    a: [&[Complex]; 5],
    w: [Complex; 4],
    y0: &mut [Complex],
    y1: &mut [Complex],
    y2: &mut [Complex],
    y3: &mut [Complex],
    y4: &mut [Complex],
) {
    let run = y0.len();
    let [a0, a1, a2, a3, a4] = a.map(|s| &s[..run]);
    let (y1, y2, y3, y4) = (&mut y1[..run], &mut y2[..run], &mut y3[..run], &mut y4[..run]);
    for i in 0..run {
        let (t1, t2) = (a1[i] + a4[i], a2[i] + a3[i]);
        let (t3, t4) = (a1[i] - a4[i], a2[i] - a3[i]);
        let c1 = a0[i] + t1.scale(COS_5[0]) + t2.scale(COS_5[1]);
        let c2 = a0[i] + t1.scale(COS_5[1]) + t2.scale(COS_5[0]);
        let s1 = turn::<INV>(t3.scale(SIN_5[0]) + t4.scale(SIN_5[1]));
        let s2 = turn::<INV>(t3.scale(SIN_5[1]) - t4.scale(SIN_5[0]));
        y0[i] = a0[i] + t1 + t2;
        y1[i] = tw::<TW>(c1 + s1, w[0]);
        y2[i] = tw::<TW>(c2 + s2, w[1]);
        y3[i] = tw::<TW>(c2 - s2, w[2]);
        y4[i] = tw::<TW>(c1 - s1, w[3]);
    }
}

/// Build the cached Bluestein tables for length `n`.
fn bluestein_plan(n: usize) -> Kind {
    let m = (2 * n - 1).next_power_of_two();
    let inner = Box::new(Plan1d::new(m));
    // chirp[j] = e^{-iπ j²/n}; j² mod 2n keeps the phase argument exact for
    // large j (e^{-iπ (j² + 2n t)/n} = e^{-iπ j²/n}).
    let chirp: Vec<Complex> = (0..n)
        .map(|j| {
            let jj = (j * j) % (2 * n);
            Complex::cis(-std::f64::consts::PI * jj as f64 / n as f64)
        })
        .collect();
    let mut scratch = Vec::new();
    let mut spectrum_of = |b0: &dyn Fn(usize) -> Complex| -> Vec<Complex> {
        let mut b = vec![Complex::ZERO; m];
        b[0] = b0(0);
        for j in 1..n {
            b[j] = b0(j);
            b[m - j] = b0(j);
        }
        inner.forward(&mut b, &mut scratch);
        b
    };
    let bspec_fwd = spectrum_of(&|j| chirp[j].conj());
    let bspec_inv = spectrum_of(&|j| chirp[j]);
    Kind::Bluestein { chirp, bspec_fwd, bspec_inv, inner }
}

/// Chirp-z against the cached tables, one block of lanes at a time: chirp the
/// block into `work` (`[m][w]`, zero-padded), convolve with the kernel whose
/// spectrum is `bspec` through the inner power-of-two plan, and chirp the
/// first `n` rows back into `x`, folding the convolution's `1/m` in.
fn bluestein_lanes<const INV: bool>(
    x: &mut [Complex],
    lanes: usize,
    chirp: &[Complex],
    bspec: &[Complex],
    inner: &Plan1d,
    work: &mut [Complex],
) {
    let (n, m) = (chirp.len(), inner.len());
    let minv = 1.0 / m as f64;
    // The inner plan is power-of-two, so its own scratch demand is zero.
    let mut no_scratch = Vec::new();
    for l0 in (0..lanes).step_by(LANE_BLOCK) {
        let w = LANE_BLOCK.min(lanes - l0);
        let buf = &mut work[..m * w];
        for ((row, xs), &c) in buf.chunks_exact_mut(w).zip(x.chunks_exact(lanes)).zip(chirp) {
            let c = dir::<INV>(c);
            for (b, &v) in row.iter_mut().zip(&xs[l0..l0 + w]) {
                *b = v * c;
            }
        }
        buf[n * w..].fill(Complex::ZERO);
        inner.lanes(buf, w, false, &mut no_scratch);
        for (row, &b) in buf.chunks_exact_mut(w).zip(bspec) {
            row.iter_mut().for_each(|v| *v *= b);
        }
        inner.lanes(buf, w, true, &mut no_scratch);
        for ((row, xs), &c) in buf.chunks_exact(w).zip(x.chunks_exact_mut(lanes)).zip(chirp) {
            let c = dir::<INV>(c);
            for (o, &v) in xs[l0..l0 + w].iter_mut().zip(row) {
                *o = v.scale(minv) * c;
            }
        }
    }
}

/// Process-wide plan cache backing the free functions: one `Plan1d` per
/// length, shared by reference.
fn cached_plan(n: usize) -> Arc<Plan1d> {
    static CACHE: OnceLock<Mutex<HashMap<usize, Arc<Plan1d>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut guard = cache.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(p) = guard.get(&n) {
        obskit::add_fft_plan_hit();
        return p.clone();
    }
    obskit::add_fft_plan_miss();
    guard.entry(n).or_insert_with(|| Arc::new(Plan1d::new(n))).clone()
}

/// Shared plan for length `n` from the process-wide cache.
pub fn plan(n: usize) -> Arc<Plan1d> {
    cached_plan(n)
}

/// Forward DFT: `X[k] = Σ_j x[j] e^{-2πi jk/n}` (no normalization).
pub fn fft(x: &[Complex]) -> Vec<Complex> {
    let mut buf = x.to_vec();
    fft_inplace(&mut buf);
    buf
}

/// Inverse DFT: `x[j] = (1/n) Σ_k X[k] e^{+2πi jk/n}`.
pub fn ifft(x: &[Complex]) -> Vec<Complex> {
    let mut buf = x.to_vec();
    ifft_inplace(&mut buf);
    buf
}

/// In-place forward DFT.
pub fn fft_inplace(x: &mut [Complex]) {
    if x.len() <= 1 {
        return;
    }
    let plan = cached_plan(x.len());
    let mut scratch = Vec::new();
    plan.forward(x, &mut scratch);
}

/// In-place inverse DFT (includes the `1/n` normalization).
pub fn ifft_inplace(x: &mut [Complex]) {
    if x.len() <= 1 {
        return;
    }
    let plan = cached_plan(x.len());
    let mut scratch = Vec::new();
    plan.inverse(x, &mut scratch);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dft(x: &[Complex], inverse: bool) -> Vec<Complex> {
        let n = x.len();
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut out = vec![Complex::ZERO; n];
        for (k, o) in out.iter_mut().enumerate() {
            for (j, &xi) in x.iter().enumerate() {
                let ang = sign * 2.0 * std::f64::consts::PI * ((j * k) % n) as f64 / n as f64;
                *o += xi * Complex::cis(ang);
            }
        }
        if inverse {
            for o in &mut out {
                *o = o.scale(1.0 / n as f64);
            }
        }
        out
    }

    fn rand_signal(n: usize, seed: u64) -> Vec<Complex> {
        // Simple xorshift so the test needs no RNG dependency wiring.
        let mut s = seed.max(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        (0..n).map(|_| Complex::new(next(), next())).collect()
    }

    fn close(a: &[Complex], b: &[Complex], tol: f64) -> bool {
        a.iter().zip(b.iter()).all(|(x, y)| (*x - *y).abs() < tol)
    }

    #[test]
    fn long_line_accuracy_vs_naive_dft() {
        // The old `w *= wlen` twiddle recurrence drifted measurably by
        // n = 4096; the table-driven plan must stay at DFT-roundoff level
        // (tolerance ~1e-12·n, i.e. ≈4e-9 absolute here).
        let n = 4096;
        let x = rand_signal(n, 2024);
        let tol = 1e-12 * n as f64;
        let planned = fft(&x);
        let naive = naive_dft(&x, false);
        let worst = planned
            .iter()
            .zip(naive.iter())
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0f64, f64::max);
        assert!(worst < tol, "worst deviation {worst:.3e} exceeds {tol:.3e}");
    }

    #[test]
    fn plan_reuse_matches_free_functions() {
        for &n in &[32usize, 45] {
            let p = Plan1d::new(n);
            let mut scratch = Vec::new();
            let x = rand_signal(n, 3 * n as u64);
            let mut y = x.clone();
            p.forward(&mut y, &mut scratch);
            assert!(close(&y, &fft(&x), 1e-11), "forward n={n}");
            p.inverse(&mut y, &mut scratch);
            assert!(close(&y, &x, 1e-10), "roundtrip n={n}");
        }
    }

    #[test]
    fn roundtrip_identity() {
        for &n in &[8usize, 13, 32, 45, 128] {
            let x = rand_signal(n, n as u64);
            let y = ifft(&fft(&x));
            assert!(close(&x, &y, 1e-10), "n={n}");
        }
    }

    #[test]
    fn delta_transforms_to_constant() {
        let mut x = vec![Complex::ZERO; 16];
        x[0] = Complex::ONE;
        let y = fft(&x);
        for v in y {
            assert!((v.re - 1.0).abs() < 1e-12 && v.im.abs() < 1e-12);
        }
    }

    #[test]
    fn parseval_energy_conserved() {
        for &n in &[16usize, 21] {
            let x = rand_signal(n, 99);
            let y = fft(&x);
            let ex: f64 = x.iter().map(|z| z.norm_sqr()).sum();
            let ey: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
            assert!((ex - ey).abs() < 1e-9 * ex.max(1.0), "n={n}");
        }
    }

    #[test]
    fn pure_tone_single_bin() {
        let n = 32;
        let k0 = 5;
        let x: Vec<Complex> = (0..n)
            .map(|j| Complex::cis(2.0 * std::f64::consts::PI * (k0 * j) as f64 / n as f64))
            .collect();
        let y = fft(&x);
        for (k, v) in y.iter().enumerate() {
            if k == k0 {
                assert!((v.re - n as f64).abs() < 1e-9);
            } else {
                assert!(v.abs() < 1e-9, "leakage at bin {k}");
            }
        }
    }

    #[test]
    fn linearity() {
        let n = 24;
        let x = rand_signal(n, 1);
        let y = rand_signal(n, 2);
        let sum: Vec<Complex> = x.iter().zip(&y).map(|(a, b)| *a + b.scale(2.5)).collect();
        let fs = fft(&sum);
        let fx = fft(&x);
        let fy = fft(&y);
        let expect: Vec<Complex> = fx.iter().zip(&fy).map(|(a, b)| *a + b.scale(2.5)).collect();
        assert!(close(&fs, &expect, 1e-9));
    }

    #[test]
    fn every_length_matches_naive_dft_both_ways() {
        // 1..=64 covers every kind and every radix (7, 11, 13 through the
        // generic butterfly; 17, 19, … through Bluestein); the rest are the
        // paper's 104 = 2³·13, pure 3ᵏ/5ᵏ, a long power of two and a prime.
        let mut scratch = Vec::new();
        for n in (1..=64).chain([97, 100, 104, 125, 128, 243, 250]) {
            let plan = Plan1d::new(n);
            let tol = 1e-12 * n as f64;
            let x = rand_signal(n, 31 + n as u64);
            let mut y = x.clone();
            plan.forward(&mut y, &mut scratch);
            assert!(close(&y, &naive_dft(&x, false), tol), "forward n={n}");
            let mut y = x.clone();
            plan.inverse(&mut y, &mut scratch);
            assert!(close(&y, &naive_dft(&x, true), tol), "inverse n={n}");
        }
    }

    #[test]
    fn lengths_pick_the_intended_kind() {
        let stockham = |n| matches!(Plan1d::new(n).kind, Kind::Stockham(_));
        assert!([6, 12, 20, 48, 100, 104, 7 * 11 * 13].into_iter().all(stockham));
        assert!(matches!(Plan1d::new(64).kind, Kind::Radix2 { .. }));
        assert!(matches!(Plan1d::new(34).kind, Kind::Bluestein { .. }));
        let Kind::Stockham(stages) = Plan1d::new(104).kind else { unreachable!() };
        assert_eq!(stages.iter().map(|s| s.radix).collect::<Vec<_>>(), [4, 2, 13]);
    }

    #[test]
    fn lane_batched_output_is_bitwise_the_line_by_line_output() {
        // Radix-2 (16, 64), Stockham (12, 20, 48; 77 and 104 take the generic
        // butterfly) and Bluestein (17, 34); 40 lanes cross a LANE_BLOCK edge.
        for n in [16usize, 64, 12, 20, 48, 77, 104, 17, 34] {
            let plan = Plan1d::new(n);
            for lanes in [1usize, 3, 8, 20, 40] {
                for inverse in [false, true] {
                    let lines: Vec<Vec<Complex>> =
                        (0..lanes).map(|l| rand_signal(n, (n * 100 + l) as u64)).collect();
                    let mut panel: Vec<Complex> =
                        (0..n * lanes).map(|i| lines[i % lanes][i / lanes]).collect();
                    plan.lanes(&mut panel, lanes, inverse, &mut Vec::new());
                    for (l, line) in lines.iter().enumerate() {
                        let mut y = line.clone();
                        plan.lanes(&mut y, 1, inverse, &mut Vec::new());
                        for (e, v) in y.iter().enumerate() {
                            let got = panel[e * lanes + l];
                            assert!(
                                got.re.to_bits() == v.re.to_bits()
                                    && got.im.to_bits() == v.im.to_bits(),
                                "n={n} lanes={lanes} inverse={inverse} line {l} element {e}"
                            );
                        }
                    }
                }
            }
        }
    }
}
