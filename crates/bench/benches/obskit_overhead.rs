//! Criterion bench for the tracing subsystem's overhead on the `V_Hxc`
//! contraction hot path (Algorithm 1 line 7, the shape from Fig. 5).
//!
//! Three configurations of the same packed GEMM:
//!
//! * `disabled`  — `obskit` recording off: the instrumented kernel pays one
//!   relaxed atomic load per span plus the shape-histogram counter. The
//!   acceptance budget is < 2% over `seed`.
//! * `enabled`   — recording on: span events are written to a thread-local
//!   buffer, bounding the cost of actually capturing a trace.
//! * `seed`      — the uninstrumented pre-rewrite reference kernel
//!   (`bench::reference_gemm`), the absolute baseline.
//!
//! Two bare pieces ride along with tracing off: `span_disabled`, a span
//! guard around no work (what every instrumented call pays), and
//! `record_kernel_dispatch`, a counter adder.
//!
//! `seed` uses a different (slower) kernel than the packed engine, so the
//! disabled-vs-seed comparison is dominated by the engine speedup; the
//! < 2% overhead claim is asserted after the groups on a min-of-N
//! disabled-vs-bare comparison of the *same* kernel (also enforced in CI by
//! `tests/tracing.rs::disabled_tracing_overhead_under_budget`).

use bench::reference_gemm;
use criterion::{criterion_group, BenchmarkId, Criterion};
use mathkit::{Mat, Transpose};
use std::time::Instant;

fn operand(rows: usize, cols: usize, phase: usize) -> Mat {
    Mat::from_fn(rows, cols, |i, j| {
        (((i * 7 + j * 13 + phase) % 23) as f64) * 0.04 - 0.44
    })
}

fn bench_obskit_overhead(c: &mut Criterion) {
    // V_Hxc shape: C(128×128) = Aᵀ(16384×128)·B(16384×128).
    let (m, n, k) = (128usize, 128usize, 16384usize);
    let a = operand(k, m, 0);
    let b = operand(k, n, 5);
    let mut out = Mat::zeros(m, n);
    let shape = "vhxc_16384x128t_x_16384x128";

    let mut group = c.benchmark_group("obskit_overhead");
    group.sample_size(10);

    obskit::disable();
    let _ = obskit::take_trace();
    group.bench_with_input(BenchmarkId::new("disabled", shape), &(), |bch, _| {
        bch.iter(|| {
            let sp = obskit::span(obskit::Stage::Gemm, "v_hxc.contract");
            mathkit::gemm(2.0, &a, Transpose::Yes, &b, Transpose::No, 0.0, &mut out);
            drop(sp);
        });
    });

    obskit::enable();
    group.bench_with_input(BenchmarkId::new("enabled", shape), &(), |bch, _| {
        bch.iter(|| {
            let sp = obskit::span(obskit::Stage::Gemm, "v_hxc.contract");
            mathkit::gemm(2.0, &a, Transpose::Yes, &b, Transpose::No, 0.0, &mut out);
            drop(sp);
        });
    });
    obskit::disable();
    let _ = obskit::take_trace(); // drop the captured events

    group.bench_with_input(BenchmarkId::new("seed", shape), &(), |bch, _| {
        bch.iter(|| reference_gemm(2.0, &a, Transpose::Yes, &b, Transpose::No, 0.0, &mut out));
    });

    group.bench_function("span_disabled", |bch| {
        bch.iter(|| {
            let sp = obskit::span(obskit::Stage::Gemm, "v_hxc.contract");
            std::hint::black_box(&out);
            drop(sp);
        });
    });
    group.bench_function("record_kernel_dispatch", |bch| {
        bch.iter(|| obskit::record_kernel_dispatch("gemm.blocked.8x8.avx2"));
    });
    group.finish();
}

criterion_group!(benches, bench_obskit_overhead);

fn main() {
    benches();

    // Asserted overhead budget: disabled-mode span guard vs the bare call on
    // the same packed kernel, min-of-N interleaved with alternating order
    // (min absorbs scheduler noise; alternation cancels warm-up bias).
    let (m, n, k) = (96usize, 96usize, 4096usize);
    let a = operand(k, m, 0);
    let b = operand(k, n, 5);
    let mut out = Mat::zeros(m, n);
    obskit::disable();
    let _ = obskit::take_trace();
    let mut run = |with_span: bool| -> f64 {
        let t0 = Instant::now();
        let sp = with_span.then(|| obskit::span(obskit::Stage::Gemm, "v_hxc.contract"));
        mathkit::gemm(2.0, &a, Transpose::Yes, &b, Transpose::No, 0.0, &mut out);
        drop(sp);
        t0.elapsed().as_secs_f64()
    };
    run(true);
    run(false);
    let mut best_ratio = f64::INFINITY;
    for _attempt in 0..3 {
        let mut t_inst = f64::INFINITY;
        let mut t_raw = f64::INFINITY;
        for i in 0..8 {
            let first_instrumented = i % 2 == 0;
            let s1 = run(first_instrumented);
            let s2 = run(!first_instrumented);
            let (ti, tr) = if first_instrumented { (s1, s2) } else { (s2, s1) };
            t_inst = t_inst.min(ti);
            t_raw = t_raw.min(tr);
        }
        best_ratio = best_ratio.min(t_inst / t_raw);
        if best_ratio <= 1.02 {
            break;
        }
    }
    println!(
        "\ndisabled-mode overhead on v_hxc gemm: {:+.2}% (budget < 2%)",
        (best_ratio - 1.0) * 100.0
    );
    assert!(
        best_ratio <= 1.02,
        "disabled-tracing overhead {:.2}% exceeds the 2% budget",
        (best_ratio - 1.0) * 100.0
    );
}
