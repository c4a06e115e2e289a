//! Layer probes: one timed public call per layer at the workload's shapes,
//! run after the units in the traced pass. They separate "the layer got
//! slower" from "the solve calls the layer more", which the ledger alone
//! cannot. Shapes are capped where the full one would cost seconds; the
//! caps are part of each metric's description in `spec.rs`.

use crate::stats::median;
use fftkit::Complex;
use isdf::{kmeans_points, pair_weights, IsdfDecomposition, KmeansOptions};
use lrtddft::{CasidaProblem, HxcKernel};
use mathkit::{gemm_tn, solve_spd, syev, syrk_tn, Mat};
use pwdft::KsHamiltonian;
use served::{ServeConfig, Service};
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 3;

#[derive(Clone, Debug, Default)]
pub struct Probes {
    pub hamiltonian_apply_s: f64,
    pub kmeans_s: f64,
    pub kmeans_iterations: f64,
    pub kmeans_objective: f64,
    pub fit_rel_err: f64,
    pub fft3_roundtrip_s: f64,
    pub fft_gflops: f64,
    pub hxc_apply_s: f64,
    pub gemm_gflops: f64,
    pub syev_s: f64,
    pub solve_spd_s: f64,
    pub allreduce_latency_us: f64,
    pub alltoallv_mb_per_s: f64,
    pub serve_start_s: f64,
    pub serve_shutdown_s: f64,
}

/// Median seconds of `REPS` calls.
fn time<T>(mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Deterministic dense test data in `[-0.5, 0.5)`.
fn pseudo_random(nrows: usize, ncols: usize, seed: u64) -> Mat {
    let mut rng = crate::jobmix::SplitMix64::new(seed);
    Mat::from_fn(nrows, ncols, |_, _| {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    })
}

pub fn run(problem: &CasidaProblem, n_mu: usize, seed: u64) -> Probes {
    let mut out = Probes::default();
    let grid = &problem.grid;
    let (n_r, n_cv) = (problem.n_r(), problem.n_cv());

    // pwdft: the Kohn–Sham operator on all the problem's bands.
    let bands = {
        let mut m = Mat::zeros(n_r, problem.n_v() + problem.n_c());
        for j in 0..problem.n_v() {
            m.col_mut(j).copy_from_slice(problem.psi_v.col(j));
        }
        for j in 0..problem.n_c() {
            m.col_mut(problem.n_v() + j)
                .copy_from_slice(problem.psi_c.col(j));
        }
        m
    };
    let h = KsHamiltonian::new(grid, problem.fxc.clone());
    out.hamiltonian_apply_s = time(|| h.apply(&bands));

    // isdf: K-Means point selection, then the fit those points give.
    let coords: Vec<[f64; 3]> = (0..n_r).map(|i| grid.coords(i)).collect();
    let t = Instant::now();
    let weights = pair_weights(&problem.psi_v, &problem.psi_c);
    let outcome = kmeans_points(
        &coords,
        &weights,
        n_mu,
        KmeansOptions {
            seed,
            ..Default::default()
        },
    );
    out.kmeans_s = t.elapsed().as_secs_f64();
    out.kmeans_iterations = outcome.iterations as f64;
    out.kmeans_objective = outcome.objective;
    let fit = IsdfDecomposition::build(&problem.psi_v, &problem.psi_c, &outcome.points);
    out.fit_rel_err = fit.sampled_relative_error(&problem.psi_v, &problem.psi_c);

    // fftkit: batched 3-D round trip on the workload's grid, and the
    // f_Hxc kernel that is the solve's FFT stage.
    const BATCH: usize = 8;
    let plan = grid.plan();
    let mut fields: Vec<Complex> = (0..BATCH * n_r)
        .map(|i| Complex::new((i % 97) as f64 * 0.01, 0.0))
        .collect();
    let roundtrip = time(|| {
        plan.forward_many(&mut fields);
        plan.inverse_many(&mut fields);
    });
    out.fft3_roundtrip_s = roundtrip / BATCH as f64;
    out.fft_gflops = 2.0 * 5.0 * n_r as f64 * (n_r as f64).log2() / out.fft3_roundtrip_s * 1e-9;
    let kernel = HxcKernel::for_problem(problem);
    let columns = pseudo_random(n_r, n_mu.min(256), seed);
    out.hxc_apply_s = time(|| kernel.apply(&columns));

    // mathkit: the contraction, dense eigensolve and SPD solve shapes.
    let tall = pseudo_random(n_r, n_mu.min(512), seed + 1);
    let k = tall.ncols() as f64;
    out.gemm_gflops = 2.0 * k * k * n_r as f64 / time(|| gemm_tn(&tall, &tall)) * 1e-9;
    let n = n_cv.min(512);
    let mut sym = pseudo_random(n, n, seed + 2);
    sym.symmetrize();
    out.syev_s = time(|| syev(&sym));
    // Gram of a tall random matrix plus a ridge: SPD and well conditioned.
    let mut spd = syrk_tn(&pseudo_random(2 * n_mu, n_mu, seed + 3));
    for i in 0..n_mu {
        spd[(i, i)] += 1.0;
    }
    let rhs = pseudo_random(n_mu, n_r.min(1024), seed + 4);
    out.solve_spd_s = time(|| solve_spd(&spd, &rhs).expect("ridge keeps the matrix SPD"));

    // parcomm: small-message latency and large-message bandwidth, 2 ranks.
    const CALLS: usize = 2000;
    const WORDS: usize = (1 << 20) / 8; // 1 MiB per rank, half to each peer
    const ROUNDS: usize = 20;
    let comm = parcomm::spmd(2, |c| {
        let mut x = [1.0];
        c.barrier();
        let t = Instant::now();
        for _ in 0..CALLS {
            c.allreduce_sum(&mut x);
        }
        let latency = t.elapsed().as_secs_f64() / CALLS as f64;
        c.barrier();
        let t = Instant::now();
        for _ in 0..ROUNDS {
            black_box(c.alltoallv(vec![vec![1.0; WORDS / 2]; 2]));
        }
        (latency, t.elapsed().as_secs_f64() / ROUNDS as f64)
    });
    out.allreduce_latency_us = comm.iter().map(|r| r.0).fold(0.0, f64::max) * 1e6;
    let slowest = comm.iter().map(|r| r.1).fold(0.0, f64::max);
    out.alltoallv_mb_per_s = (WORDS * 8) as f64 / slowest * 1e-6;

    // served: the fixed cost of a pool.
    let (mut starts, mut stops) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t = Instant::now();
        let service = Service::start(ServeConfig {
            ranks: 2,
            groups: 1,
            ..ServeConfig::default()
        });
        starts.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        service.shutdown();
        stops.push(t.elapsed().as_secs_f64());
    }
    out.serve_start_s = median(&starts);
    out.serve_shutdown_s = median(&stops);
    out
}
