//! Parallel pipeline demo: run the distributed Algorithm-1 construction on
//! real thread ranks, then extrapolate to Cori-scale core counts with the
//! calibrated α–β model (paper Figs. 7–8 methodology, see DESIGN.md).
//!
//! ```sh
//! cargo run --release --example scaling_study
//! ```

use lrtddft::parallel::distributed_dense_hamiltonian;
use lrtddft::problem::silicon_like_problem;
use lrtddft::{build_isdf_hamiltonian, CasidaProblem, Solver, StageTimings};
use parcomm::{spmd, Comm};

/// Stage timings of one K-Means-ISDF build at rank `n_mu` on `comm`.
fn timed_isdf_build(comm: &Comm, problem: &CasidaProblem, n_mu: usize) -> StageTimings {
    let clock = obskit::StageClock::now();
    let selector = Solver::default().kmeans_selector();
    build_isdf_hamiltonian(comm, problem, selector, n_mu).expect("clean ISDF build");
    StageTimings::since(clock)
}

fn main() {
    let problem = silicon_like_problem(1, 12, 4);
    let n_mu = 40.min(problem.n_cv());
    println!(
        "Workload: N_r = {}, N_cv = {}, N_mu = {n_mu}",
        problem.n_r(),
        problem.n_cv()
    );

    // Real thread-rank runs: verify the distributed pipeline and read the
    // per-rank stage/communication breakdown.
    println!("\n-- real SPMD runs (thread ranks, simulated MPI collectives) --");
    println!("{:>5} | {:>10} | {:>10} | {:>10} | {:>12}", "ranks", "face+theta", "fft (s)", "gemm (s)", "comm calls");
    for ranks in [1usize, 2, 4] {
        let naive = spmd(ranks, |c| {
            let (_, t) = distributed_dense_hamiltonian(c, &problem).expect("dense build");
            (t, c.stats())
        });
        let isdf = spmd(ranks, |c| (timed_isdf_build(c, &problem, n_mu), c.stats()));
        let (tn, sn) = &naive[0];
        let (ti, si) = &isdf[0];
        println!(
            "{ranks:>5} | naive: {:.3}s fft {:.3}s gemm {:.3}s, {} collectives",
            tn.face_split, tn.fft, tn.gemm, sn.collective_calls
        );
        println!(
            "      | isdf : kmeans {:.3}s theta {:.3}s fft {:.3}s gemm {:.3}s, {} collectives ({:.1} MB sent)",
            ti.kmeans,
            ti.theta,
            ti.fft,
            ti.gemm,
            si.collective_calls,
            si.bytes_sent as f64 / 1e6
        );
    }

    // Model-extrapolated strong scaling (the Fig. 7 reproduction lives in
    // `cargo run --release -p bench --bin repro -- fig7`).
    println!("\n-- alpha-beta extrapolation to Cori-scale ranks --");
    let cal = bench_calibration(&problem, n_mu);
    for p in [128usize, 512, 2048] {
        let t = cal.time_at(p);
        println!("   P = {p:>5}: modeled ISDF construction {:.4} s", t);
    }
    println!("\nFull tables: cargo run --release -p bench --bin repro -- fig7");
}

/// The ISDF build's scaling study, calibrated by one serial build here.
fn bench_calibration(
    problem: &lrtddft::CasidaProblem,
    n_mu: usize,
) -> bench::scaling::ScalingStudy {
    let t = timed_isdf_build(&Comm::solo(), problem, n_mu);
    let (n_r, n_v, n_c) = (problem.n_r(), problem.n_v(), problem.n_c());
    bench::scaling::ScalingStudy::new(
        bench::scaling::isdf_construct_stages(&t, n_r, n_v, n_c, n_mu),
        parcomm::CostModel::default(),
    )
}
