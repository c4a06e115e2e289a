//! The batched `f_Hxc` apply packs two real columns into one complex
//! transform pair: it must compute what one forward/inverse pair per column
//! computes, with half the 3-D transforms.
//!
//! FFT calls are counted by obskit's process-global counters, so these tests
//! live in their own binary (no unrelated test runs transforms mid-count) and
//! serialize on one lock.

use fftkit::{Complex, PoissonSolver};
use lrtddft::kernel::HxcKernel;
use mathkit::Mat;
use pwdft::{Cell, Grid};
use std::sync::{Mutex, MutexGuard};

static OBSKIT_LOCK: Mutex<()> = Mutex::new(());

/// Serialize on the lock and drain any stale counter state.
fn exclusive() -> MutexGuard<'static, ()> {
    let g = OBSKIT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    obskit::disable();
    let _ = obskit::take_trace();
    g
}

/// The apply the batched engine replaced: per column, one complex forward
/// transform, the diagonal `4π/|G|²` scale, and one inverse.
fn hxc_apply_per_column(solver: &PoissonSolver, fxc: &[f64], fields: &Mat, out: &mut Mat) {
    let plan = solver.plan();
    for j in 0..fields.ncols() {
        let col = fields.col(j);
        let out_col = out.col_mut(j);
        for ((o, &f), &x) in out_col.iter_mut().zip(fxc).zip(col) {
            *o = f * x;
        }
        let mut spec: Vec<Complex> = col.iter().map(|&v| Complex::from_re(v)).collect();
        plan.forward(&mut spec);
        solver.apply_in_reciprocal(&mut spec);
        plan.inverse(&mut spec);
        for (o, z) in out_col.iter_mut().zip(&spec) {
            *o += z.re;
        }
    }
}

/// FFT calls made by `f` with obskit recording.
fn fft_calls(f: impl FnOnce()) -> u64 {
    obskit::enable();
    f();
    obskit::disable();
    obskit::take_trace().counters.fft_calls
}

#[test]
fn two_for_one_halves_fft_calls() {
    let _g = exclusive();
    let grid = Grid::new(Cell::cubic(4.0), [8, 8, 8]);
    let fxc = vec![0.0; grid.len()];
    let kernel = HxcKernel::new(&grid, fxc.clone());
    let solver = PoissonSolver::new(grid.plan(), grid.cell.lengths);
    let fields = Mat::from_fn(grid.len(), 8, |r, j| ((r + j) % 7) as f64 - 3.0);
    let mut out = Mat::zeros(grid.len(), 8);

    let per_column = fft_calls(|| hxc_apply_per_column(&solver, &fxc, &fields, &mut out));
    let batched = fft_calls(|| kernel.apply_into(&fields, &mut out));
    assert_eq!(per_column, 16, "2 transforms per column on 8 columns");
    assert_eq!(batched, 8, "2 transforms per column pair on 4 pairs");
}

#[test]
fn odd_column_count_rounds_up_one_pair() {
    let _g = exclusive();
    let grid = Grid::new(Cell::cubic(4.0), [8, 8, 8]);
    let kernel = HxcKernel::new(&grid, vec![0.0; grid.len()]);
    let fields = Mat::from_fn(grid.len(), 5, |r, j| ((r * 3 + j) % 11) as f64 * 0.1);
    let mut out = Mat::zeros(grid.len(), 5);
    // ⌈5/2⌉ = 3 pairs, 2 transforms each.
    assert_eq!(fft_calls(|| kernel.apply_into(&fields, &mut out)), 6);
}

/// On a radix-2 grid and on a mixed-radix one, with `f_xc` switched on: the
/// packed pair splits back into the two per-column answers.
#[test]
fn batched_apply_matches_per_column() {
    let _g = exclusive();
    for (n, cols) in [(8usize, 3usize), (12, 16)] {
        let grid = Grid::new(Cell::cubic(n as f64 * 0.6), [n, n, n]);
        let fxc: Vec<f64> = (0..grid.len()).map(|i| -0.1 - 0.001 * (i % 17) as f64).collect();
        let kernel = HxcKernel::new(&grid, fxc.clone());
        let solver = PoissonSolver::new(grid.plan(), grid.cell.lengths);
        let fields = Mat::from_fn(grid.len(), cols, |r, j| {
            (((r * 7 + j * 131 + 5) % 23) as f64) * 0.04 - 0.44
        });
        let mut want = Mat::zeros(grid.len(), cols);
        let mut got = Mat::zeros(grid.len(), cols);
        hxc_apply_per_column(&solver, &fxc, &fields, &mut want);
        kernel.apply_into(&fields, &mut got);
        let diff = got.max_abs_diff(&want);
        assert!(diff < 1e-10, "{n}^3 x {cols}: batched and per-column differ by {diff:e}");
    }
}
