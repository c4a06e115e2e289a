//! Criterion bench for the paper's Table 2 kernel inventory: face-splitting
//! product, FFT kernel application, GEMM contraction, dense eigensolve, and
//! the implicit Hamiltonian apply.

use criterion::{criterion_group, criterion_main, Criterion};
use isdf::face_splitting_product;
use lrtddft::problem::silicon_like_problem;
use lrtddft::versions::{build_isdf_hamiltonian, PointSelector};
use lrtddft::HxcKernel;
use mathkit::{gemm_tn, syev, Mat};

fn bench_kernels(c: &mut Criterion) {
    let problem = silicon_like_problem(1, 12, 4);
    let mut group = c.benchmark_group("table2_kernels");
    group.sample_size(10);

    group.bench_function("face_splitting_product", |b| {
        b.iter(|| face_splitting_product(&problem.psi_v, &problem.psi_c));
    });

    let p_vc = face_splitting_product(&problem.psi_v, &problem.psi_c);
    let kernel = HxcKernel::new(&problem.grid, problem.fxc.clone());
    group.bench_function("fhxc_apply", |b| {
        b.iter(|| kernel.apply(&p_vc));
    });

    let f_p = kernel.apply(&p_vc);
    group.bench_function("vhxc_gemm", |b| {
        b.iter(|| gemm_tn(&p_vc, &f_p));
    });

    let mut h = gemm_tn(&p_vc, &f_p);
    h.symmetrize();
    group.bench_function("syevd_dense", |b| {
        b.iter(|| syev(&h));
    });

    let ham =
        build_isdf_hamiltonian(&problem, PointSelector::Qrcp, problem.n_cv() / 2, &mut Vec::new())
            .expect("isdf build on clean benchmark input");
    let x = Mat::from_fn(problem.n_cv(), 4, |i, j| ((i + 3 * j) % 7) as f64 * 0.1);
    group.bench_function("implicit_hamiltonian_apply", |b| {
        b.iter(|| ham.apply(&x));
    });

    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
