//! The scalar per-line radix-2 engine as it shipped before the lane driver,
//! kept test-only as the bit-for-bit reference for power-of-two grids.
//!
//! Why bits and not a tolerance: the Si8 SCF (`si8_scf_casida`, 16³) stops
//! unconverged, so its band solver amplifies the last bit of every transform
//! — a 2e-16 change in the 16³ output took it from 372 band iterations and
//! 29 045 FFTs to 691 and 54 965 (EXPERIMENTS.md). Until that SCF converges,
//! "the power-of-two path did not change" has to mean `to_bits` equality.
//! Nothing here depends on the machine (no FMA contraction, no SIMD
//! dispatch), so the tests hold on the forced-scalar CI job too.
//!
//! The code below is the old `fft1d::radix2_tables`/`radix2_planned`, the old
//! `Plan1d::inverse` (which rescaled every line by `1/n` on every axis) and
//! the old 1 → 2 → 3 line order, gathering each strided line into a `Vec`.

use crate::fft3d::tests::rand_field;
use crate::{Complex, Fft3};

/// Per-line radix-2 plan: bit-reversal and stage-major twiddle tables.
struct Line {
    bitrev: Vec<u32>,
    twiddles: Vec<Complex>,
}

impl Line {
    fn new(n: usize) -> Self {
        assert!(n.is_power_of_two() && n >= 2);
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
        Line { bitrev, twiddles }
    }

    /// One line in place; the inverse includes its `1/n`.
    fn run(&self, x: &mut [Complex], inverse: bool) {
        let n = x.len();
        assert_eq!(self.bitrev.len(), n);
        for (i, &rev) in self.bitrev.iter().enumerate().skip(1) {
            let j = rev as usize;
            if i < j {
                x.swap(i, j);
            }
        }
        let mut len = 2;
        let mut toff = 0;
        while len <= n {
            let half = len / 2;
            let stage = &self.twiddles[toff..toff + half];
            for block in x.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(half);
                for ((u, v), w) in lo.iter_mut().zip(hi.iter_mut()).zip(stage.iter()) {
                    let t = if inverse { *v * w.conj() } else { *v * *w };
                    let s = *u;
                    *u = s + t;
                    *v = s - t;
                }
            }
            toff += half;
            len <<= 1;
        }
        if inverse {
            let inv = 1.0 / n as f64;
            for v in x.iter_mut() {
                *v = v.scale(inv);
            }
        }
    }
}

/// The old 3-D transform: every axis-1 line, then every axis-2 line, then
/// every axis-3 line, each normalised on its own when `inverse`.
fn transform(dims: [usize; 3], data: &mut [Complex], inverse: bool) {
    let [n1, n2, n3] = dims;
    let plane = n1 * n2;
    // (line length, stride between its elements, starts of all its lines)
    let axes: [(usize, usize, Vec<usize>); 3] = [
        (n1, 1, (0..n2 * n3).map(|l| l * n1).collect()),
        (n2, n1, (0..n3).flat_map(|i3| (0..n1).map(move |i1| i3 * plane + i1)).collect()),
        (n3, plane, (0..plane).collect()),
    ];
    for (n, stride, starts) in axes {
        let line_plan = Line::new(n);
        let mut line = vec![Complex::ZERO; n];
        for start in starts {
            for (e, v) in line.iter_mut().enumerate() {
                *v = data[start + e * stride];
            }
            line_plan.run(&mut line, inverse);
            for (e, v) in line.iter().enumerate() {
                data[start + e * stride] = *v;
            }
        }
    }
}

/// The old `apply_real_diagonal_batch`: pack pairs, forward, scale by the
/// bare coefficient, normalised inverse, unpack.
fn apply_real_diagonal_batch(
    dims: [usize; 3],
    coeff: &[f64],
    fields: &[f64],
    out: &mut [f64],
    accumulate: bool,
) {
    let len = coeff.len();
    for (f, o) in fields.chunks(2 * len).zip(out.chunks_mut(2 * len)) {
        let (fa, fb) = f.split_at(len);
        let mut z: Vec<Complex> = (0..len)
            .map(|i| Complex::new(fa[i], fb.get(i).copied().unwrap_or(0.0)))
            .collect();
        transform(dims, &mut z, false);
        for (zv, &c) in z.iter_mut().zip(coeff) {
            *zv = zv.scale(c);
        }
        transform(dims, &mut z, true);
        let put = |o: &mut f64, v: f64| if accumulate { *o += v } else { *o = v };
        let (oa, ob) = o.split_at_mut(len);
        for (i, zv) in z.iter().enumerate() {
            put(&mut oa[i], zv.re);
            if let Some(q) = ob.get_mut(i) {
                put(q, zv.im);
            }
        }
    }
}

const GRIDS: [[usize; 3]; 3] = [[8, 8, 8], [16, 16, 16], [32, 16, 8]];

fn assert_same_bits(got: &[Complex], want: &[Complex], what: &str) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
            "{what}: element {i} is {g:?}, the reference has {w:?}"
        );
    }
}

#[test]
fn single_grid_transforms_keep_their_bits() {
    for dims in GRIDS {
        let plan = Fft3::new(dims[0], dims[1], dims[2]);
        let x = rand_field(plan.len(), 17 + plan.len() as u64);
        let (mut got, mut want) = (x.clone(), x);
        plan.forward(&mut got);
        transform(dims, &mut want, false);
        assert_same_bits(&got, &want, &format!("forward {dims:?}"));
        plan.inverse(&mut got);
        transform(dims, &mut want, true);
        assert_same_bits(&got, &want, &format!("inverse {dims:?}"));
    }
}

#[test]
fn batched_transforms_keep_their_bits() {
    for dims in GRIDS {
        let plan = Fft3::new(dims[0], dims[1], dims[2]);
        let len = plan.len();
        let mut got = rand_field(3 * len, 5);
        let mut want = got.clone();
        plan.forward_many(&mut got);
        want.chunks_mut(len).for_each(|g| transform(dims, g, false));
        assert_same_bits(&got, &want, &format!("forward_many {dims:?}"));
        plan.inverse_many(&mut got);
        want.chunks_mut(len).for_each(|g| transform(dims, g, true));
        assert_same_bits(&got, &want, &format!("inverse_many {dims:?}"));
    }
}

#[test]
fn diagonal_batch_keeps_its_bits() {
    for dims in GRIDS {
        let plan = Fft3::new(dims[0], dims[1], dims[2]);
        let len = plan.len();
        let coeff: Vec<f64> = (0..len)
            .map(|g| 1.0 / (1.0 + 0.37 * (g.min(plan.conj_index(g)) % 97) as f64))
            .collect();
        for k in [1usize, 2, 5] {
            let fields: Vec<f64> =
                rand_field(k * len, 100 + k as u64).iter().map(|z| z.re).collect();
            for accumulate in [false, true] {
                let mut got = vec![0.25; k * len];
                let mut want = got.clone();
                plan.apply_real_diagonal_batch(&coeff, &fields, &mut got, accumulate);
                apply_real_diagonal_batch(dims, &coeff, &fields, &mut want, accumulate);
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        g.to_bits() == w.to_bits(),
                        "{dims:?} k={k} accumulate={accumulate}: value {i} is {g:e}, not {w:e}"
                    );
                }
            }
        }
    }
}
