//! Criterion bench for paper Figs. 4–5: monolithic GEMM+Allreduce vs
//! pipelined GEMM+Reduce across rank counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lrtddft::pipeline::{gram_allreduce, gram_pipelined_reduce};
use mathkit::Mat;
use parcomm::{block_ranges, spmd};

fn bench_pipeline(c: &mut Criterion) {
    let (nr, ncv) = (2048usize, 128usize);
    let a = Mat::from_fn(nr, ncv, |i, j| (((i * 13 + j * 5) % 17) as f64) * 0.1 - 0.8);

    let mut group = c.benchmark_group("fig5_gemm_reduce");
    group.sample_size(10);
    for ranks in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("monolithic", ranks), &ranks, |b, &ranks| {
            b.iter(|| {
                spmd(ranks, |comm| {
                    let rr = block_ranges(nr, ranks)[comm.rank()].clone();
                    let al = a.row_block(rr.start, rr.end);
                    gram_allreduce(comm, &al, &al, 1.0, &mut []).local.norm_fro()
                })
            });
        });
        group.bench_with_input(BenchmarkId::new("pipelined", ranks), &ranks, |b, &ranks| {
            b.iter(|| {
                spmd(ranks, |comm| {
                    let rr = block_ranges(nr, ranks)[comm.rank()].clone();
                    let al = a.row_block(rr.start, rr.end);
                    gram_pipelined_reduce(comm, &al, &al, 1.0).local.norm_fro()
                })
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
