//! Integration tests for the parallel pipeline: the simulated-MPI runs must
//! reproduce the serial results across rank counts — the correctness
//! contract behind the paper's Fig. 3 distributions.

use lrtddft::naive::build_dense_hamiltonian;
use lrtddft::parallel::distributed_dense_hamiltonian;
use lrtddft::problem::{silicon_like_problem, CasidaProblem};
use lrtddft::{build_isdf_hamiltonian, Solver};
use mathkit::syev;
use parcomm::{spmd, spmd_with_model, Comm, CostModel};

/// Spectrum of the K-Means-ISDF Hamiltonian built at rank `n_mu` on `comm`.
fn isdf_spectrum(comm: &Comm, p: &CasidaProblem, n_mu: usize) -> Vec<f64> {
    let selector = Solver::builder().kmeans_selector();
    let ham = build_isdf_hamiltonian(comm, p, selector, n_mu, &mut Vec::new())
        .expect("clean build");
    syev(&ham.to_dense()).values
}

fn assert_spectra_agree(got: &[f64], want: &[f64], what: &str) {
    for i in 0..4 {
        let rel = (got[i] - want[i]).abs() / want[i].abs().max(1e-12);
        assert!(rel < 1e-10, "{what}, state {i}: {} vs {} (rel {rel})", got[i], want[i]);
    }
}

#[test]
fn distributed_naive_invariant_across_rank_counts() {
    let p = silicon_like_problem(1, 8, 2);
    let serial = build_dense_hamiltonian(&p).unwrap();
    for ranks in [1usize, 2, 3, 5, 8] {
        let res = spmd(ranks, |c| distributed_dense_hamiltonian(c, &p).unwrap().0);
        for h in &res {
            assert!(
                h.max_abs_diff(&serial) < 1e-8,
                "ranks={ranks}: max diff {}",
                h.max_abs_diff(&serial)
            );
        }
    }
}

#[test]
fn distributed_isdf_spectrum_stable_across_ranks() {
    let p = silicon_like_problem(1, 8, 2);
    let n_mu = p.n_cv(); // full rank: spectrum pinned by the exact fit
    let baseline = spmd(1, |c| isdf_spectrum(c, &p, n_mu)).remove(0);
    for ranks in [2usize, 4] {
        let res = spmd(ranks, |c| isdf_spectrum(c, &p, n_mu));
        assert_spectra_agree(&res[0], &baseline, &format!("ranks={ranks}"));
    }
}

#[test]
fn distributed_isdf_matches_serial_isdf_spectrum() {
    // At half rank the point set decides the spectrum: the ranks run the
    // serial K-Means, so they pick the serial points.
    let p = silicon_like_problem(1, 8, 2);
    let n_mu = p.n_cv() / 2;
    let serial = isdf_spectrum(&Comm::solo(), &p, n_mu);
    for dist in spmd(3, |c| isdf_spectrum(c, &p, n_mu)) {
        assert_spectra_agree(&dist, &serial, "3 ranks vs the calling thread");
    }
}

#[test]
fn comm_cost_model_does_not_change_results() {
    // The α-β model only affects *charged* time, never data.
    let p = silicon_like_problem(1, 8, 2);
    let free = spmd_with_model(2, CostModel::free(), |c| {
        distributed_dense_hamiltonian(c, &p).unwrap().0
    });
    let expensive = spmd_with_model(
        2,
        CostModel { alpha: 1.0, beta: 1e-3 },
        |c| distributed_dense_hamiltonian(c, &p).unwrap().0,
    );
    assert!(free[0].max_abs_diff(&expensive[0]) < 1e-14);
}

#[test]
fn rank_timings_report_comm_share() {
    let p = silicon_like_problem(1, 8, 2);
    let res = spmd(4, |c| {
        let (_, t) = distributed_dense_hamiltonian(c, &p).unwrap();
        (t, c.stats())
    });
    for (t, stats) in res {
        assert!(t.mpi >= 0.0);
        assert!(stats.collective_calls >= 3, "expected alltoall x2 + allreduce");
        assert!(stats.bytes_sent > 0);
        assert!(stats.modeled_seconds > 0.0);
    }
}
