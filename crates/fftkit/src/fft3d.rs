//! 3-D FFT over a real-space grid — planned, batched, with a two-for-one
//! real-field path.
//!
//! Layout convention: a scalar field on an `n1 × n2 × n3` grid is stored as a
//! flat slice with index `i1 + n1*(i2 + n2*i3)` — the same Fortran-ordering
//! PWDFT uses, so axis-1 lines are contiguous.
//!
//! The 3-D transform is three lane-batched passes through the per-axis
//! [`Plan1d`] lane driver (tables built once in [`Fft3::new`]), in the order
//! axis 1 → 2 → 3. Seen along axis 2 an `n1 × n2` plane already is an
//! `[n2][n1]` panel, and along axis 3 the whole grid is an `[n3][n1·n2]`
//! panel, so both are transformed where they lie; axis 1 goes through one
//! transpose of the plane into the worker's scratch and back. No line is
//! gathered or scattered and no trig runs inside a transform.
//!
//! One grid is transformed on the calling thread; batches are parallel over
//! grids — the paper's column-block distribution, where every MPI task FFTs
//! its own orbitals independently. Each call allocates one scratch set per
//! part of the batch, on the calling thread and sized for every pass, and a
//! part reuses it for every grid it touches; nothing is allocated per grid,
//! per pass or per line, and nothing on a worker.
//!
//! For *real* fields (Γ-point orbital pair products, densities, potentials)
//! the engine additionally offers a two-for-one path: two real fields `a, b`
//! are packed as `z = a + i·b`, one complex transform produces both spectra
//! (recoverable by Hermitian symmetry, see [`Fft3::split_packed_spectrum`]),
//! a diagonal reciprocal-space kernel is applied, and one inverse transform
//! returns both filtered fields in the real and imaginary parts. This halves
//! the 3-D FFT count of every real-field kernel application in the code base
//! — see [`Fft3::apply_real_diagonal_batch`].

use crate::complex::Complex;
use crate::fft1d::Plan1d;
use rayon::prelude::*;
use std::sync::Arc;

/// Grid points a part of a parallel batch must transform (≈ 0.1–0.3 ms):
/// a smaller batch is not worth a thread's 40–46 µs spawn and join.
const PAR_POINTS: usize = 1 << 15;

/// A reusable 3-D FFT plan: grid dimensions plus per-axis 1-D plans
/// (radix-2, Stockham or Bluestein tables by axis length). Cloning shares the
/// tables via `Arc`.
#[derive(Clone, Debug)]
pub struct Fft3 {
    pub n1: usize,
    pub n2: usize,
    pub n3: usize,
    ax1: Arc<Plan1d>,
    ax2: Arc<Plan1d>,
    ax3: Arc<Plan1d>,
}

/// Per-part scratch: the transposed plane of the axis-1 pass and the lane
/// driver's work buffer — at most one grid (the Stockham ping-pong of the
/// axis-3 pass) plus one plane.
#[derive(Default)]
struct Scratch {
    plane: Vec<Complex>,
    work: Vec<Complex>,
}

impl Scratch {
    /// Scratch sized for every pass of `plan`, so a transform never grows it.
    fn for_plan(plan: &Fft3) -> Scratch {
        let (n1, n2) = (plan.n1, plan.n2);
        let work = plan.ax1.work_len(n2).max(plan.ax2.work_len(n1)).max(plan.ax3.work_len(n1 * n2));
        Scratch { plane: vec![Complex::ZERO; n1 * n2], work: vec![Complex::ZERO; work] }
    }
}

impl Fft3 {
    pub fn new(n1: usize, n2: usize, n3: usize) -> Self {
        assert!(n1 > 0 && n2 > 0 && n3 > 0);
        let ax1 = crate::fft1d::plan(n1);
        let ax2 = if n2 == n1 { ax1.clone() } else { crate::fft1d::plan(n2) };
        let ax3 = if n3 == n1 {
            ax1.clone()
        } else if n3 == n2 {
            ax2.clone()
        } else {
            crate::fft1d::plan(n3)
        };
        Fft3 { n1, n2, n3, ax1, ax2, ax3 }
    }

    /// Total grid points.
    #[inline]
    pub fn len(&self) -> usize {
        self.n1 * self.n2 * self.n3
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flat index of grid point `(i1, i2, i3)`.
    #[inline]
    pub fn idx(&self, i1: usize, i2: usize, i3: usize) -> usize {
        i1 + self.n1 * (i2 + self.n2 * i3)
    }

    /// Flat index of `−G` for flat index `idx` — the bin whose spectrum value
    /// is the conjugate of `idx`'s for any real field (Hermitian symmetry).
    #[inline]
    pub fn conj_index(&self, idx: usize) -> usize {
        let i1 = idx % self.n1;
        let i2 = (idx / self.n1) % self.n2;
        let i3 = idx / (self.n1 * self.n2);
        let j1 = (self.n1 - i1) % self.n1;
        let j2 = (self.n2 - i2) % self.n2;
        let j3 = (self.n3 - i3) % self.n3;
        self.idx(j1, j2, j3)
    }

    /// Forward in-place 3-D FFT (no normalization).
    pub fn forward(&self, data: &mut [Complex]) {
        assert_eq!(data.len(), self.len());
        obskit::add_fft_calls(1);
        self.transform(data, false, 1.0, &mut Scratch::default());
    }

    /// Inverse in-place 3-D FFT (normalized by `1/N`).
    pub fn inverse(&self, data: &mut [Complex]) {
        assert_eq!(data.len(), self.len());
        obskit::add_fft_calls(1);
        self.transform(data, true, 1.0 / self.len() as f64, &mut Scratch::default());
    }

    /// Forward transform of a batch of grids stored back to back
    /// (`batch.len()` must be a multiple of [`Fft3::len`]). Grids are split
    /// into contiguous parts, each owning one scratch set.
    pub fn forward_many(&self, batch: &mut [Complex]) {
        self.many(batch, false);
    }

    /// Inverse transform (normalized) of a back-to-back batch of grids.
    pub fn inverse_many(&self, batch: &mut [Complex]) {
        self.many(batch, true);
    }

    fn many(&self, batch: &mut [Complex], inverse: bool) {
        let len = self.len();
        assert_eq!(batch.len() % len, 0, "batch length must be a multiple of the grid size");
        let count = batch.len() / len;
        obskit::add_fft_calls(count as u64);
        let scale = if inverse { 1.0 / len as f64 } else { 1.0 };
        batch
            .par_chunks_mut(len)
            .with_min_len(PAR_POINTS.div_ceil(len))
            .for_each_init(
                || Scratch::for_plan(self),
                |s, grid| self.transform(grid, inverse, scale, s),
            );
    }

    /// Forward transform of a real field into a freshly allocated complex grid.
    pub fn forward_real(&self, real: &[f64]) -> Vec<Complex> {
        assert_eq!(real.len(), self.len());
        let mut c: Vec<Complex> = real.iter().map(|&v| Complex::from_re(v)).collect();
        self.forward(&mut c);
        c
    }

    /// Inverse transform returning only the real part (for fields known to be
    /// real in real space, e.g. densities and Hartree potentials).
    pub fn inverse_to_real(&self, mut data: Vec<Complex>) -> Vec<f64> {
        self.inverse(&mut data);
        data.into_iter().map(|z| z.re).collect()
    }

    /// Split a packed-pair spectrum: if `z = FFT(a + i·b)` for real fields
    /// `a, b`, Hermitian symmetry recovers both individual spectra as
    /// `A(G) = (z(G) + conj(z(−G)))/2` and `B(G) = −i(z(G) − conj(z(−G)))/2`.
    pub fn split_packed_spectrum(&self, z: &[Complex]) -> (Vec<Complex>, Vec<Complex>) {
        assert_eq!(z.len(), self.len());
        let mut a = vec![Complex::ZERO; z.len()];
        let mut b = vec![Complex::ZERO; z.len()];
        for g in 0..z.len() {
            let zc = z[self.conj_index(g)].conj();
            a[g] = (z[g] + zc).scale(0.5);
            b[g] = (z[g] - zc) * Complex::new(0.0, -0.5);
        }
        (a, b)
    }

    /// Apply a diagonal reciprocal-space kernel `coeff` to `k` real fields
    /// stored column-major in `fields` (length `k·N`), writing the filtered
    /// real fields into `out` (`+=` when `accumulate`).
    ///
    /// `coeff` must be real and even under `G → −G` (`coeff[conj_index(g)] ==
    /// coeff[g]`) — true for any kernel that is a function of `|G|²`, e.g. the
    /// Hartree `4π/|G|²`, the kinetic `½|G|²`, or the Teter preconditioner.
    /// Evenness is what keeps the two-for-one packing exact: columns are
    /// packed in pairs `z = a + i·b`, one forward transform yields both
    /// spectra superposed, the even kernel scales both Hermitian halves
    /// identically, and one inverse transform returns `kernel∗a` in the real
    /// part and `kernel∗b` in the imaginary part — two 3-D FFTs per pair of
    /// columns instead of four.
    pub fn apply_real_diagonal_batch(
        &self,
        coeff: &[f64],
        fields: &[f64],
        out: &mut [f64],
        accumulate: bool,
    ) {
        let len = self.len();
        assert_eq!(coeff.len(), len, "coefficient table must match the grid");
        assert_eq!(fields.len(), out.len(), "fields/out length mismatch");
        assert_eq!(fields.len() % len, 0, "fields length must be a multiple of the grid size");
        debug_assert!(
            (0..len).step_by((len / 64).max(1)).all(|g| {
                let c = coeff[g];
                (c - coeff[self.conj_index(g)]).abs() <= 1e-12 * c.abs().max(1.0)
            }),
            "diagonal kernel must be even under G → −G for the two-for-one path"
        );
        let k = fields.len() / len;
        let inv_n = 1.0 / len as f64;
        obskit::add_fft_calls(2 * k.div_ceil(2) as u64);
        let pairs = out.par_chunks_mut(2 * len).enumerate();
        pairs.with_min_len(PAR_POINTS.div_ceil(2 * len)).for_each_init(
            || (vec![Complex::ZERO; len], Scratch::for_plan(self)),
            |(z, s), (p, out_pair)| {
                let f = &fields[2 * p * len..2 * p * len + out_pair.len()];
                if out_pair.len() == 2 * len {
                    let (fa, fb) = f.split_at(len);
                    for ((zv, &a), &b) in z.iter_mut().zip(fa.iter()).zip(fb.iter()) {
                        *zv = Complex::new(a, b);
                    }
                } else {
                    for (zv, &a) in z.iter_mut().zip(f.iter()) {
                        *zv = Complex::from_re(a);
                    }
                }
                self.transform(z, false, 1.0, s);
                // The inverse's 1/N rides on the kernel (exact when N is a
                // power of two), so it costs no sweep of its own.
                for (zv, &c) in z.iter_mut().zip(coeff.iter()) {
                    *zv = zv.scale(c * inv_n);
                }
                self.transform(z, true, 1.0, s);
                if out_pair.len() == 2 * len {
                    let (oa, ob) = out_pair.split_at_mut(len);
                    if accumulate {
                        for ((o, q), zv) in oa.iter_mut().zip(ob.iter_mut()).zip(z.iter()) {
                            *o += zv.re;
                            *q += zv.im;
                        }
                    } else {
                        for ((o, q), zv) in oa.iter_mut().zip(ob.iter_mut()).zip(z.iter()) {
                            *o = zv.re;
                            *q = zv.im;
                        }
                    }
                } else if accumulate {
                    for (o, zv) in out_pair.iter_mut().zip(z.iter()) {
                        *o += zv.re;
                    }
                } else {
                    for (o, zv) in out_pair.iter_mut().zip(z.iter()) {
                        *o = zv.re;
                    }
                }
            },
        );
    }

    /// One 3-D transform on the calling thread, every output multiplied by
    /// `scale` (the inverse's `1/N`, or one). Axes 1 and 2 are done plane by
    /// plane while the plane is in cache, axis 3 over the whole grid; `scale`
    /// rides on the transpose back out of the axis-1 pass, the one copy a
    /// transform makes anyway.
    fn transform(&self, data: &mut [Complex], inverse: bool, scale: f64, s: &mut Scratch) {
        let (n1, n2) = (self.n1, self.n2);
        s.plane.resize(n1 * n2, Complex::ZERO);
        for plane in data.chunks_exact_mut(n1 * n2) {
            transpose(plane, n2, n1, &mut s.plane, 1.0);
            self.ax1.lanes(&mut s.plane, n2, inverse, &mut s.work);
            transpose(&s.plane, n1, n2, plane, scale);
            self.ax2.lanes(plane, n1, inverse, &mut s.work);
        }
        self.ax3.lanes(data, n1 * n2, inverse, &mut s.work);
    }
}

/// `dst[c][r] = scale · src[r][c]` for a row-major `rows × cols` `src`.
fn transpose(src: &[Complex], rows: usize, cols: usize, dst: &mut [Complex], scale: f64) {
    for (c, out) in dst.chunks_exact_mut(rows).enumerate() {
        for (o, row) in out.iter_mut().zip(src.chunks_exact(cols)) {
            *o = row[c].scale(scale);
        }
    }
}

/// Pack two real fields into one complex grid: `out[i] = a[i] + i·b[i]`.
pub fn pack_real_pair(a: &[f64], b: &[f64], out: &mut [Complex]) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len(), out.len());
    for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
        *o = Complex::new(x, y);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn rand_field(n: usize, seed: u64) -> Vec<Complex> {
        let mut s = seed.max(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        (0..n).map(|_| Complex::new(next(), next())).collect()
    }

    fn rand_real(n: usize, seed: u64) -> Vec<f64> {
        rand_field(n, seed).into_iter().map(|z| z.re).collect()
    }

    #[test]
    fn roundtrip_cubic() {
        let plan = Fft3::new(8, 8, 8);
        let x = rand_field(plan.len(), 3);
        let mut y = x.clone();
        plan.forward(&mut y);
        plan.inverse(&mut y);
        for (a, b) in x.iter().zip(&y) {
            assert!((*a - *b).abs() < 1e-10);
        }
    }

    #[test]
    fn roundtrip_anisotropic_nonpow2() {
        let plan = Fft3::new(6, 5, 9);
        let x = rand_field(plan.len(), 11);
        let mut y = x.clone();
        plan.forward(&mut y);
        plan.inverse(&mut y);
        for (a, b) in x.iter().zip(&y) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn matches_separable_naive_dft() {
        // 3-D DFT of a delta at the origin is all-ones.
        let plan = Fft3::new(4, 3, 5);
        let mut x = vec![Complex::ZERO; plan.len()];
        x[0] = Complex::ONE;
        plan.forward(&mut x);
        for v in &x {
            assert!((v.re - 1.0).abs() < 1e-10 && v.im.abs() < 1e-10);
        }
    }

    #[test]
    fn plane_wave_maps_to_single_g() {
        // x(r) = e^{2πi (k·r)/n} → delta at bin k.
        let plan = Fft3::new(8, 8, 8);
        let (k1, k2, k3) = (2usize, 5, 1);
        let mut x = vec![Complex::ZERO; plan.len()];
        for i3 in 0..8 {
            for i2 in 0..8 {
                for i1 in 0..8 {
                    let phase = 2.0 * std::f64::consts::PI
                        * ((k1 * i1 + k2 * i2 + k3 * i3) as f64 / 8.0);
                    x[plan.idx(i1, i2, i3)] = Complex::cis(phase);
                }
            }
        }
        plan.forward(&mut x);
        let hot = plan.idx(k1, k2, k3);
        for (i, v) in x.iter().enumerate() {
            if i == hot {
                assert!((v.re - 512.0).abs() < 1e-7);
            } else {
                assert!(v.abs() < 1e-7, "leakage at {i}");
            }
        }
    }

    #[test]
    fn real_field_has_hermitian_spectrum() {
        let plan = Fft3::new(4, 4, 4);
        let real: Vec<f64> = (0..plan.len()).map(|i| ((i * 37 % 11) as f64) - 5.0).collect();
        let spec = plan.forward_real(&real);
        // F(-G) = conj(F(G)), with conj_index supplying the -G bin.
        for (g, v) in spec.iter().enumerate() {
            let b = spec[plan.conj_index(g)];
            assert!((*v - b.conj()).abs() < 1e-9);
        }
        let back = plan.inverse_to_real(spec);
        for (a, b) in real.iter().zip(&back) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn conj_index_is_an_involution() {
        let plan = Fft3::new(4, 6, 5);
        for g in 0..plan.len() {
            assert_eq!(plan.conj_index(plan.conj_index(g)), g);
        }
        assert_eq!(plan.conj_index(0), 0);
    }

    #[test]
    fn batched_matches_single_transforms() {
        let plan = Fft3::new(4, 5, 8);
        let len = plan.len();
        let k = 3;
        let mut batch: Vec<Complex> = (0..k).flat_map(|j| rand_field(len, 7 + j)).collect();
        let singles: Vec<Vec<Complex>> = (0..k)
            .map(|j| {
                let mut g = batch[j as usize * len..(j as usize + 1) * len].to_vec();
                plan.forward(&mut g);
                g
            })
            .collect();
        plan.forward_many(&mut batch);
        for j in 0..k as usize {
            for (a, b) in batch[j * len..(j + 1) * len].iter().zip(singles[j].iter()) {
                assert!((*a - *b).abs() < 1e-11);
            }
        }
        plan.inverse_many(&mut batch);
        for (j, orig) in (0..k).map(|j| rand_field(len, 7 + j)).enumerate() {
            for (a, b) in batch[j * len..(j + 1) * len].iter().zip(orig.iter()) {
                assert!((*a - *b).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn split_packed_spectrum_recovers_individual_spectra() {
        let plan = Fft3::new(4, 4, 6);
        let a = rand_real(plan.len(), 21);
        let b = rand_real(plan.len(), 22);
        let mut z = vec![Complex::ZERO; plan.len()];
        pack_real_pair(&a, &b, &mut z);
        plan.forward(&mut z);
        let (sa, sb) = plan.split_packed_spectrum(&z);
        let ra = plan.forward_real(&a);
        let rb = plan.forward_real(&b);
        for g in 0..plan.len() {
            assert!((sa[g] - ra[g]).abs() < 1e-10, "A spectrum differs at {g}");
            assert!((sb[g] - rb[g]).abs() < 1e-10, "B spectrum differs at {g}");
        }
    }

    #[test]
    fn two_for_one_kernel_apply_matches_per_column() {
        let plan = Fft3::new(4, 6, 4);
        let len = plan.len();
        // Even diagonal kernel: a function of the bin's |G|-like magnitude.
        let coeff: Vec<f64> = (0..len)
            .map(|g| {
                let cg = plan.conj_index(g);
                1.0 + 0.1 * (g.min(cg) as f64)
            })
            .collect();
        for k in [1usize, 2, 3, 5] {
            let fields: Vec<f64> = (0..k).flat_map(|j| rand_real(len, 40 + j as u64)).collect();
            let mut out = vec![0.5; fields.len()];
            plan.apply_real_diagonal_batch(&coeff, &fields, &mut out, false);
            for j in 0..k {
                let col = &fields[j * len..(j + 1) * len];
                let mut spec = plan.forward_real(col);
                for (z, &c) in spec.iter_mut().zip(coeff.iter()) {
                    *z = z.scale(c);
                }
                let expect = plan.inverse_to_real(spec);
                for (o, e) in out[j * len..(j + 1) * len].iter().zip(expect.iter()) {
                    assert!((o - e).abs() < 1e-10, "k={k} col={j}");
                }
            }
            // Accumulate mode adds on top.
            let mut acc = vec![1.0; fields.len()];
            plan.apply_real_diagonal_batch(&coeff, &fields, &mut acc, true);
            for (a, o) in acc.iter().zip(out.iter()) {
                assert!((a - 1.0 - o).abs() < 1e-10);
            }
        }
    }

    /// Separable 3-D DFT straight from the definition, one axis at a time.
    fn naive_dft3(dims: [usize; 3], x: &[Complex]) -> Vec<Complex> {
        let strides = [1, dims[0], dims[0] * dims[1]];
        let mut cur = x.to_vec();
        for (&n, &stride) in dims.iter().zip(&strides) {
            let mut next = vec![Complex::ZERO; cur.len()];
            for (g, o) in next.iter_mut().enumerate() {
                let k = (g / stride) % n;
                let base = g - k * stride;
                for j in 0..n {
                    let ang = -2.0 * std::f64::consts::PI * ((j * k) % n) as f64 / n as f64;
                    *o += cur[base + j * stride] * Complex::cis(ang);
                }
            }
            cur = next;
        }
        cur
    }

    #[test]
    fn anisotropic_grids_match_naive_dft_roundtrip_and_parseval() {
        // Radix-2, Stockham (20, 12, 6, 9), generic-radix (7) and Bluestein
        // (17) axes mixed in every position, plus unit axes around one line.
        for dims in [[20usize, 16, 12], [7, 20, 9], [17, 8, 6], [1, 20, 1], [1, 17, 1]] {
            let plan = Fft3::new(dims[0], dims[1], dims[2]);
            let n = plan.len() as f64;
            let x = rand_field(plan.len(), 5 + plan.len() as u64);
            let mut y = x.clone();
            plan.forward(&mut y);
            for (g, (a, b)) in y.iter().zip(&naive_dft3(dims, &x)).enumerate() {
                assert!((*a - *b).abs() < 1e-12 * n, "{dims:?}: bin {g} is {a:?}, DFT says {b:?}");
            }
            let ex: f64 = x.iter().map(|z| z.norm_sqr()).sum();
            let ey: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / n;
            assert!((ex - ey).abs() < 1e-12 * ex, "{dims:?}: Parseval {ex} vs {ey}");
            plan.inverse(&mut y);
            for (a, b) in x.iter().zip(&y) {
                assert!((*a - *b).abs() < 1e-13, "{dims:?}: round trip");
            }
        }
    }

    #[test]
    fn diagonal_batch_on_a_mixed_grid_matches_per_column_path() {
        // 20 (Stockham) × 12 (Stockham) × 16 (radix-2); odd column counts
        // leave one unpaired column, and `accumulate` must add on top.
        let plan = Fft3::new(20, 12, 16);
        let len = plan.len();
        let coeff: Vec<f64> =
            (0..len).map(|g| 0.5 + 0.01 * (g.min(plan.conj_index(g)) % 53) as f64).collect();
        for k in [1usize, 3, 7] {
            let fields: Vec<f64> = (0..k).flat_map(|j| rand_real(len, 60 + j as u64)).collect();
            let mut out = vec![0.5; fields.len()];
            plan.apply_real_diagonal_batch(&coeff, &fields, &mut out, false);
            for (col, got) in fields.chunks(len).zip(out.chunks(len)) {
                let mut spec = plan.forward_real(col);
                for (z, &c) in spec.iter_mut().zip(coeff.iter()) {
                    *z = z.scale(c);
                }
                for (o, e) in got.iter().zip(&plan.inverse_to_real(spec)) {
                    assert!((o - e).abs() < 1e-13, "k={k}");
                }
            }
            let mut acc = vec![1.0; fields.len()];
            plan.apply_real_diagonal_batch(&coeff, &fields, &mut acc, true);
            for (a, o) in acc.iter().zip(out.iter()) {
                assert!((a - 1.0 - o).abs() < 1e-13, "k={k} accumulate");
            }
        }
    }
}
