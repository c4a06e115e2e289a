//! Criterion bench for the paper's Table 2 kernel inventory: face-splitting
//! product, FFT kernel application, GEMM contraction, dense eigensolve, and
//! the implicit Hamiltonian apply — plus the Θ fit at the end-to-end
//! benchmark's Si64 shape, phase by phase.

use criterion::{criterion_group, criterion_main, Criterion};
use isdf::interp::{fit, gram_pair};
use isdf::{face_splitting_product, kmeans_points, pair_weights, KmeansOptions};
use lrtddft::problem::silicon_like_problem;
use lrtddft::versions::{build_isdf_hamiltonian, PointSelector};
use lrtddft::HxcKernel;
use mathkit::{cholesky, gemm_tn, syev, Mat};

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

    let (solo, n_mu) = (parcomm::Comm::solo(), problem.n_cv() / 2);
    let ham = build_isdf_hamiltonian(&solo, &problem, PointSelector::Qrcp, n_mu, &mut vec![])
        .expect("isdf build on clean benchmark input");
    let x = Mat::from_fn(problem.n_cv(), 4, |i, j| ((i + 3 * j) % 7) as f64 * 0.1);
    group.bench_function("implicit_hamiltonian_apply", |b| {
        b.iter(|| ham.apply(&x));
    });

    group.finish();
}

/// The Galerkin fit `Θ = ZCᵀ(CCᵀ)⁻¹` of `si64_implicit_r1` (`N_r` = 8000,
/// `N_μ` = 720 K-Means points): Gram assembly, the Cholesky of `CCᵀ`, and the
/// whole fit (floor ladder + Cholesky + the two right-side solves, which are
/// 2·N_r·N_μ² = 8.3 Gflop of it).
fn bench_theta_fit(c: &mut Criterion) {
    let problem = silicon_like_problem(2, 20, 16);
    let (psi, phi) = (&problem.psi_v, &problem.psi_c);
    let coords: Vec<[f64; 3]> = (0..problem.n_r()).map(|i| problem.grid.coords(i)).collect();
    let points =
        kmeans_points(&coords, &pair_weights(psi, phi), 720, KmeansOptions::default()).points;
    let (psi_hat, phi_hat) = (psi.select_rows(&points), phi.select_rows(&points));

    let mut group = c.benchmark_group("theta_fit/8000x720");
    group.sample_size(10);
    group.bench_function("gram_pair", |b| {
        b.iter(|| gram_pair(psi, phi, &psi_hat, &phi_hat));
    });
    let mut spd = gram_pair(psi, phi, &psi_hat, &phi_hat).cc_t;
    for i in 0..spd.nrows() {
        spd[(i, i)] += 1e-6;
    }
    group.bench_function("cholesky", |b| {
        b.iter(|| cholesky(&spd).expect("ridged Gram is SPD"));
    });
    group.bench_function("gram_pair+fit", |b| {
        b.iter(|| fit(gram_pair(psi, phi, &psi_hat, &phi_hat)).expect("fit on clean input"));
    });
    group.finish();
}

criterion_group!(benches, bench_kernels, bench_theta_fit);
criterion_main!(benches);
