//! Criterion bench for the planned FFT engine.
//!
//! Covers the Si64 workload's 20³ grid (the kernel number behind the
//! end-to-end benchmark's `fftkit.gflops` row) and 32³–96³ (20, 48 and 96 are
//! mixed-radix Stockham axes, the rest radix-2), plus the batched Hxc kernel
//! application on a 64³ grid with 64 columns.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fftkit::{Complex, Fft3};
use lrtddft::kernel::HxcKernel;
use mathkit::Mat;
use pwdft::{Cell, Grid};

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

fn bench_transforms(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft3");
    group.sample_size(10);
    for n in [20usize, 32, 48, 64, 96] {
        let plan = Fft3::new(n, n, n);
        let mut buf = complex_field(plan.len(), 0xf3 + n as u64);
        let label = format!("{n}x{n}x{n}");
        group.bench_with_input(BenchmarkId::new("planned", &label), &n, |bch, _| {
            bch.iter(|| {
                plan.forward(&mut buf);
                plan.inverse(&mut buf);
            });
        });
    }
    group.finish();
}

fn bench_hxc_apply(c: &mut Criterion) {
    let n = 64usize;
    let cols = 64usize;
    let grid = Grid::new(Cell::cubic(n as f64 * 0.25), [n, n, n]);
    let fxc: Vec<f64> = (0..grid.len()).map(|i| -0.2 - ((i % 11) as f64) * 0.01).collect();
    let kernel = HxcKernel::new(&grid, fxc);
    let fields = Mat::from_fn(grid.len(), cols, |r, j| {
        (((r * 7 + j * 131 + 5) % 23) as f64) * 0.04 - 0.44
    });
    let mut out = Mat::zeros(grid.len(), cols);

    let mut group = c.benchmark_group("hxc_apply");
    group.sample_size(10);
    let label = format!("{n}x{n}x{n}_x{cols}");
    group.bench_with_input(BenchmarkId::new("batched", &label), &cols, |bch, _| {
        bch.iter(|| kernel.apply_into(&fields, &mut out));
    });
    group.finish();
}

criterion_group!(benches, bench_transforms, bench_hxc_apply);
criterion_main!(benches);
