//! `repro fft-report` — the planned/batched FFT engine vs. the seed
//! implementation, written to `BENCH_fft.json`.
//!
//! Three measurements:
//!
//! 1. **Transform time per grid** — forward+inverse round trip of a complex
//!    field, seed engine ([`SeedFft3`]: per-call twiddle recurrence, per-call
//!    Bluestein setup, per-line `Vec` allocations) vs. the planned engine
//!    (`fftkit::Fft3`: cached tables, lane-batched passes), on the grids the
//!    end-to-end benchmark runs (12³, 16³, 20³) and larger ones. `--check`
//!    holds two ratios of planned times that do not depend on machine speed:
//!    a grid between two powers of two beats the next power of two up, and a
//!    20³ grid point costs at most 1.5× a 16³ one.
//! 2. **Batched vs. per-column Hxc apply** — `HxcKernel::apply_into` through
//!    the fused two-for-one Hartree path vs. the per-column complex-transform
//!    loop it replaced (reconstructed here as [`hxc_apply_per_column`]).
//! 3. **FFT-call counts** — obskit's `fft_calls` counter for both Hxc paths;
//!    the two-for-one packing must cut the count to `⌈k/2⌉/k` (≤ 55 % for the
//!    benchmarked column counts), which `--check` asserts.
//!
//! The seed transform is benchmarked from a faithful in-tree copy (same
//! pattern as [`crate::reference_gemm`]) so the comparison runs in one
//! build instead of an old git checkout.

use crate::report::json;
use fftkit::{Complex, Fft3, PoissonSolver};
use lrtddft::kernel::HxcKernel;
use mathkit::Mat;
use pwdft::{Cell, Grid};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Seed engine: the pre-plan FFT implementation, copied from the growth seed.
// ---------------------------------------------------------------------------

/// Per-call radix-2 with the twiddle recurrence (`w *= wlen`) the seed used —
/// no precomputed tables, accuracy drifting with line length.
fn seed_radix2(x: &mut [Complex], inverse: bool) {
    let n = x.len();
    debug_assert!(n.is_power_of_two());
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            x.swap(i, j);
        }
    }
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::cis(ang);
        let half = len / 2;
        let mut i = 0;
        while i < n {
            let mut w = Complex::ONE;
            for k in 0..half {
                let u = x[i + k];
                let v = x[i + k + half] * w;
                x[i + k] = u + v;
                x[i + k + half] = u - v;
                w *= wlen;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// Per-call Bluestein: chirp and convolution kernel rebuilt on every line.
fn seed_bluestein(x: &mut [Complex], inverse: bool) {
    let n = x.len();
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut chirp = Vec::with_capacity(n);
    for j in 0..n {
        let jj = (j * j) % (2 * n);
        chirp.push(Complex::cis(sign * std::f64::consts::PI * jj as f64 / n as f64));
    }
    let m = (2 * n - 1).next_power_of_two();
    let mut a = vec![Complex::ZERO; m];
    let mut b = vec![Complex::ZERO; m];
    for j in 0..n {
        a[j] = x[j] * chirp[j];
        b[j] = chirp[j].conj();
    }
    for j in 1..n {
        b[m - j] = chirp[j].conj();
    }
    seed_radix2(&mut a, false);
    seed_radix2(&mut b, false);
    for (av, bv) in a.iter_mut().zip(b.iter()) {
        *av *= *bv;
    }
    seed_radix2(&mut a, true);
    let minv = 1.0 / m as f64;
    for j in 0..n {
        x[j] = a[j].scale(minv) * chirp[j];
    }
}

fn seed_fft_inplace(x: &mut [Complex], inverse: bool) {
    let n = x.len();
    if n <= 1 {
        return;
    }
    if n.is_power_of_two() {
        seed_radix2(x, inverse);
    } else {
        seed_bluestein(x, inverse);
    }
    if inverse {
        let inv = 1.0 / n as f64;
        for v in x.iter_mut() {
            *v = v.scale(inv);
        }
    }
}

/// The seed 3-D transform: unplanned 1-D lines, one `Vec` allocation per
/// contiguous line in pass 1 and one scratch line per plane/row in passes
/// 2–3, gathered element by element with no tiling.
pub struct SeedFft3 {
    pub n1: usize,
    pub n2: usize,
    pub n3: usize,
}

impl SeedFft3 {
    pub fn new(n1: usize, n2: usize, n3: usize) -> Self {
        SeedFft3 { n1, n2, n3 }
    }

    pub fn len(&self) -> usize {
        self.n1 * self.n2 * self.n3
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn forward(&self, data: &mut [Complex]) {
        self.transform(data, false);
    }

    pub fn inverse(&self, data: &mut [Complex]) {
        self.transform(data, true);
    }

    fn transform(&self, data: &mut [Complex], inverse: bool) {
        assert_eq!(data.len(), self.len());
        let (n1, n2, n3) = (self.n1, self.n2, self.n3);
        // Pass 1: contiguous axis-1 lines — with the seed's per-line copy.
        for chunk in data.chunks_mut(n1) {
            let mut line = chunk.to_vec();
            seed_fft_inplace(&mut line, inverse);
            chunk.copy_from_slice(&line);
        }
        // Pass 2: axis-2 lines, stride n1 within each i3-plane.
        let plane = n1 * n2;
        for i3 in 0..n3 {
            let base = i3 * plane;
            let mut line = vec![Complex::ZERO; n2];
            for i1 in 0..n1 {
                for (i2, l) in line.iter_mut().enumerate() {
                    *l = data[base + i1 + i2 * n1];
                }
                seed_fft_inplace(&mut line, inverse);
                for (i2, &l) in line.iter().enumerate() {
                    data[base + i1 + i2 * n1] = l;
                }
            }
        }
        // Pass 3: axis-3 lines, stride n1*n2.
        for i2 in 0..n2 {
            let mut line = vec![Complex::ZERO; n3];
            for i1 in 0..n1 {
                let off = i1 + i2 * n1;
                for (i3, l) in line.iter_mut().enumerate() {
                    *l = data[off + i3 * plane];
                }
                seed_fft_inplace(&mut line, inverse);
                for (i3, &l) in line.iter().enumerate() {
                    data[off + i3 * plane] = l;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Per-column Hxc reference: the pre-rewrite kernel application.
// ---------------------------------------------------------------------------

/// The Hxc apply `HxcKernel::apply_into` shipped before the batched engine:
/// per column, one full complex forward transform, the diagonal `4π/|G|²`
/// scale, and one inverse — two 3-D FFTs per column, with freshly allocated
/// spectra. Runs on the *planned* transform so the FFT-call comparison
/// isolates the two-for-one packing (not table caching).
pub fn hxc_apply_per_column(
    solver: &PoissonSolver,
    fxc: &[f64],
    fields: &Mat,
    out: &mut Mat,
) {
    let plan = solver.plan();
    let n = plan.len();
    assert_eq!(fields.nrows(), n);
    for j in 0..fields.ncols() {
        let col = fields.col(j);
        let out_col = out.col_mut(j);
        for ((o, &f), &x) in out_col.iter_mut().zip(fxc.iter()).zip(col.iter()) {
            *o = f * x;
        }
        let mut spec: Vec<Complex> = col.iter().map(|&v| Complex::from_re(v)).collect();
        plan.forward(&mut spec);
        solver.apply_in_reciprocal(&mut spec);
        plan.inverse(&mut spec);
        for (o, z) in out_col.iter_mut().zip(spec.iter()) {
            *o += z.re;
        }
    }
}

// ---------------------------------------------------------------------------
// Measurement harness.
// ---------------------------------------------------------------------------

/// Best-of-reps wall time of `f`, in seconds (1 warmup, then up to `reps`
/// timed runs, stopping early past a 2 s budget).
fn best_seconds<F: FnMut()>(mut f: F, reps: usize) -> f64 {
    f();
    let mut best = f64::INFINITY;
    let budget = Instant::now();
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
        if budget.elapsed().as_secs_f64() > 2.0 {
            break;
        }
    }
    best
}

fn complex_field(n: usize, seed: u64) -> Vec<Complex> {
    let mut s = seed.max(1);
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s as f64 / u64::MAX as f64) * 2.0 - 1.0
    };
    (0..n).map(|_| Complex::new(next(), next())).collect()
}

/// Cubic grid sizes for the transform comparison: the end-to-end benchmark's
/// shapes (12³ served, 16³ Si8 and the ladder, 20³ Si64), then a mixed-radix
/// size (24 = 2³·3, 48 = 2⁴·3) right below the power of two it is gated
/// against.
fn transform_grids(quick: bool) -> &'static [usize] {
    if quick {
        &[12, 16, 20, 24, 32]
    } else {
        &[12, 16, 20, 32, 48, 64]
    }
}

struct HxcCase {
    n: usize,
    cols: usize,
}

fn hxc_case(quick: bool) -> HxcCase {
    if quick {
        HxcCase { n: 16, cols: 16 }
    } else {
        // The acceptance shape: 64³ grid, 64 columns.
        HxcCase { n: 64, cols: 64 }
    }
}

/// Run the report, write `BENCH_fft.json` into `out_dir`, and (with `check`)
/// assert the acceptance gates: the two grid-time ratios above, batched output
/// equal to the per-column path to ≤ 1e-8, and a two-for-one FFT-call count
/// ≤ 55 % of per-column.
pub fn run(out_dir: &Path, quick: bool, check: bool) -> std::io::Result<()> {
    // --- 1. seed vs planned transform times per grid ----------------------
    let mut grid_entries = Vec::new();
    let mut grid_rows = Vec::new();
    let mut planned_s = std::collections::BTreeMap::new();
    for &n in transform_grids(quick) {
        let seed = SeedFft3::new(n, n, n);
        let plan = Fft3::new(n, n, n);
        let field = complex_field(plan.len(), 0x5eed + plan.len() as u64);
        // A 12³ round trip is tens of microseconds: the minimum needs many
        // more repetitions there than on 64³ before it stops moving.
        let reps = ((1 << 21) / plan.len()).clamp(8, 256);

        let mut buf = field.clone();
        let t_seed = best_seconds(
            || {
                seed.forward(&mut buf);
                seed.inverse(&mut buf);
            },
            reps,
        );
        let seed_result = buf.clone();

        buf.copy_from_slice(&field);
        let t_planned = best_seconds(
            || {
                plan.forward(&mut buf);
                plan.inverse(&mut buf);
            },
            reps,
        );
        planned_s.insert(n, t_planned);
        // Both engines compute the same DFT: round trips must agree.
        let diff = buf
            .iter()
            .zip(seed_result.iter())
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0f64, f64::max);
        assert!(diff < 1e-9, "planned engine disagrees with seed on {n}^3: {diff}");

        let speedup = t_seed / t_planned;
        let label = format!("{n}x{n}x{n}");
        grid_rows.push(vec![
            label.clone(),
            format!("{:.3}", t_seed * 1e3),
            format!("{:.3}", t_planned * 1e3),
            format!("{speedup:.2}x"),
        ]);
        grid_entries.push(format!(
            "    {{\"grid\": {}, \"seed_roundtrip_s\": {}, \"planned_roundtrip_s\": {}, \
             \"speedup\": {}}}",
            json::string(&label),
            json::number(t_seed),
            json::number(t_planned),
            json::number(speedup)
        ));
    }
    crate::report::print_table(
        &["grid", "seed fwd+inv (ms)", "planned fwd+inv (ms)", "speedup"],
        &grid_rows,
    );
    // Two ratios between rows of the table above, free of machine speed.
    let (mixed, pow2) = if quick { (24, 32) } else { (48, 64) };
    let mixed_vs_pow2 = planned_s[&mixed] / planned_s[&pow2];
    let per_point_20_vs_16 = (planned_s[&20] / 20f64.powi(3)) / (planned_s[&16] / 16f64.powi(3));
    if check {
        assert!(
            mixed_vs_pow2 < 1.0,
            "{mixed}^3 round trip takes {mixed_vs_pow2:.2}x the {pow2}^3 one; the mixed-radix \
             grid must beat the next power of two up"
        );
        assert!(
            per_point_20_vs_16 <= 1.5,
            "a 20^3 grid point costs {per_point_20_vs_16:.2}x a 16^3 one (gate 1.5x)"
        );
        println!(
            "check passed: {mixed}^3 / {pow2}^3 round trip {mixed_vs_pow2:.2} < 1, \
             20^3 / 16^3 seconds per point {per_point_20_vs_16:.2} <= 1.5"
        );
    }

    // --- 2. batched vs per-column Hxc apply + FFT-call counts -------------
    let case = hxc_case(quick);
    let grid = Grid::new(Cell::cubic(case.n as f64 * 0.25), [case.n, case.n, case.n]);
    let fxc: Vec<f64> = (0..grid.len()).map(|i| -0.2 - ((i % 11) as f64) * 0.01).collect();
    let kernel = HxcKernel::new(&grid, fxc.clone());
    let solver = PoissonSolver::new(grid.plan(), grid.cell.lengths);
    let fields = Mat::from_fn(grid.len(), case.cols, |r, j| {
        (((r * 7 + j * 131 + 5) % 23) as f64) * 0.04 - 0.44
    });
    let mut out_ref = Mat::zeros(grid.len(), case.cols);
    let mut out_batched = Mat::zeros(grid.len(), case.cols);

    // FFT-call counts, one application each (measured before timing so the
    // counters aren't inflated by benchmark repetitions). Drain any stale
    // counter state first — the counters are process-global.
    let _ = obskit::take_trace();
    obskit::enable();
    hxc_apply_per_column(&solver, &fxc, &fields, &mut out_ref);
    obskit::disable();
    let calls_ref = obskit::take_trace().counters.fft_calls;
    obskit::enable();
    kernel.apply_into(&fields, &mut out_batched);
    obskit::disable();
    let calls_batched = obskit::take_trace().counters.fft_calls;
    let call_ratio = calls_batched as f64 / calls_ref as f64;

    let diff = out_batched.max_abs_diff(&out_ref);
    assert!(
        diff < 1e-8,
        "batched Hxc apply disagrees with per-column path: max |Δ| = {diff}"
    );

    let t_ref = best_seconds(|| hxc_apply_per_column(&solver, &fxc, &fields, &mut out_ref), 6);
    let t_batched = best_seconds(|| kernel.apply_into(&fields, &mut out_batched), 6);
    let hxc_speedup = t_ref / t_batched;

    let hxc_label = format!("{0}x{0}x{0}", case.n);
    crate::report::print_table(
        &["hxc apply", "per-column (ms)", "batched (ms)", "speedup", "fft calls", "ratio"],
        &[vec![
            format!("{hxc_label} x{}", case.cols),
            format!("{:.3}", t_ref * 1e3),
            format!("{:.3}", t_batched * 1e3),
            format!("{hxc_speedup:.2}x"),
            format!("{calls_ref} -> {calls_batched}"),
            format!("{call_ratio:.3}"),
        ]],
    );

    if check {
        assert!(
            call_ratio <= 0.55,
            "two-for-one FFT-call ratio {call_ratio:.3} exceeds 0.55 \
             ({calls_batched} of {calls_ref} calls)"
        );
        println!(
            "check passed: fft-call ratio {call_ratio:.3} <= 0.55, outputs agree to {diff:.2e}"
        );
    }

    // --- JSON report ------------------------------------------------------
    let body = format!(
        "{{\n  \"benchmark\": \"fft-report\",\n  \"threads\": {},\n  \"grids\": [\n{}\n  ],\n  \
         \"mixed_vs_pow2_roundtrip\": {{\"grids\": \"{mixed}^3 / {pow2}^3\", \"ratio\": {}}},\n  \
         \"per_point_20_vs_16\": {},\n  \
         \"hxc_apply\": {{\n    \"grid\": {}, \"columns\": {},\n    \"per_column_s\": {}, \
         \"batched_s\": {}, \"speedup\": {},\n    \"fft_calls_per_column\": {}, \
         \"fft_calls_batched\": {}, \"fft_call_ratio\": {},\n    \"max_abs_diff\": {}\n  }}\n}}",
        rayon::current_num_threads(),
        grid_entries.join(",\n"),
        json::number(mixed_vs_pow2),
        json::number(per_point_20_vs_16),
        json::string(&hxc_label),
        case.cols,
        json::number(t_ref),
        json::number(t_batched),
        json::number(hxc_speedup),
        calls_ref,
        calls_batched,
        json::number(call_ratio),
        json::number(diff),
    );
    std::fs::create_dir_all(out_dir)?;
    let path = out_dir.join("BENCH_fft.json");
    let mut f = std::fs::File::create(&path)?;
    f.write_all(body.as_bytes())?;
    println!("\nReport written to {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_engine_matches_planned_engine() {
        for [n1, n2, n3] in [[8usize, 8, 8], [6, 8, 4]] {
            let seed = SeedFft3::new(n1, n2, n3);
            let plan = Fft3::new(n1, n2, n3);
            let field = complex_field(plan.len(), 42);
            let mut a = field.clone();
            let mut b = field.clone();
            seed.forward(&mut a);
            plan.forward(&mut b);
            for (x, y) in a.iter().zip(b.iter()) {
                assert!((*x - *y).abs() < 1e-9);
            }
            seed.inverse(&mut a);
            plan.inverse(&mut b);
            for ((x, y), z) in a.iter().zip(b.iter()).zip(field.iter()) {
                assert!((*x - *y).abs() < 1e-9);
                assert!((*x - *z).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn per_column_reference_matches_batched_kernel() {
        let grid = Grid::new(Cell::cubic(5.0), [8, 8, 8]);
        let fxc: Vec<f64> = (0..grid.len()).map(|i| -0.1 - 0.001 * (i % 17) as f64).collect();
        let kernel = HxcKernel::new(&grid, fxc.clone());
        let solver = PoissonSolver::new(grid.plan(), grid.cell.lengths);
        let fields = Mat::from_fn(grid.len(), 3, |r, j| ((r + 5 * j) % 13) as f64 * 0.2 - 1.2);
        let mut a = Mat::zeros(grid.len(), 3);
        let mut b = Mat::zeros(grid.len(), 3);
        hxc_apply_per_column(&solver, &fxc, &fields, &mut a);
        kernel.apply_into(&fields, &mut b);
        assert!(a.max_abs_diff(&b) < 1e-10);
    }

    // The obskit counters are process-global, so the FFT-call-count and
    // full-report assertions live in their own integration test binary
    // (`tests/fft_report_counts.rs`) where no unrelated test can pollute
    // the counts mid-measurement.
}
