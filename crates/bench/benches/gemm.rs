//! Criterion bench for the packed GEMM engine against the pre-rewrite
//! column-parallel reference kernel (`bench::reference_gemm`).
//!
//! The headline shape is the `V_Hxc` contraction of Algorithm 1 line 7:
//! `C(128×128) = Aᵀ(32768×128)·B(32768×128)` — a 32³ grid with
//! `N_cv = 128` orbital-pair products. The acceptance bar for the engine is
//! ≥3× over the reference on this shape.

use bench::reference_gemm;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mathkit::{Mat, Transpose};

fn operand(rows: usize, cols: usize, phase: usize) -> Mat {
    Mat::from_fn(rows, cols, |i, j| {
        (((i * 7 + j * 13 + phase) % 23) as f64) * 0.04 - 0.44
    })
}

struct Case {
    label: &'static str,
    m: usize,
    n: usize,
    k: usize,
    ta: Transpose,
    tb: Transpose,
}

fn bench_gemm(c: &mut Criterion) {
    let cases = [
        Case {
            label: "vhxc_32768x128t_x_32768x128",
            m: 128,
            n: 128,
            k: 32768,
            ta: Transpose::Yes,
            tb: Transpose::No,
        },
        Case {
            label: "vtilde_8192x256t_x_8192x256",
            m: 256,
            n: 256,
            k: 8192,
            ta: Transpose::Yes,
            tb: Transpose::No,
        },
        Case {
            label: "implicit_512x4096_x_4096x8",
            m: 512,
            n: 8,
            k: 4096,
            ta: Transpose::No,
            tb: Transpose::No,
        },
        Case { label: "square_384", m: 384, n: 384, k: 384, ta: Transpose::No, tb: Transpose::No },
    ];

    let mut group = c.benchmark_group("gemm");
    group.sample_size(10);
    for case in &cases {
        let (ar, ac) = match case.ta {
            Transpose::No => (case.m, case.k),
            Transpose::Yes => (case.k, case.m),
        };
        let (br, bc) = match case.tb {
            Transpose::No => (case.k, case.n),
            Transpose::Yes => (case.n, case.k),
        };
        let a = operand(ar, ac, 0);
        let b = operand(br, bc, 5);
        let mut out = Mat::zeros(case.m, case.n);

        group.bench_with_input(BenchmarkId::new("reference", case.label), case, |bch, cs| {
            bch.iter(|| reference_gemm(1.0, &a, cs.ta, &b, cs.tb, 0.0, &mut out));
        });
        group.bench_with_input(BenchmarkId::new("packed", case.label), case, |bch, cs| {
            bch.iter(|| mathkit::gemm(1.0, &a, cs.ta, &b, cs.tb, 0.0, &mut out));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gemm);
criterion_main!(benches);
