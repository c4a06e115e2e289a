//! The width a served batch runs on: its whole group when the group is idle,
//! one rank otherwise. A job's values are bitwise those of a solo
//! `solve_distributed` at that width, and the two widths agree far inside
//! the 1e-10 relative tolerance the end-to-end served check allows.

use lrtddft::{silicon_like_problem, synthetic_problem, CasidaProblem, Solver};
use parcomm::spmd;
use served::{JobSpec, ServeConfig, Service};
use std::sync::Arc;

fn solo(problem: &CasidaProblem, solver: &Solver, ranks: usize) -> Vec<f64> {
    spmd(ranks, |c| solver.solve_distributed(c, problem).0).swap_remove(0)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Forty distinct jobs (no cache hit, no batch mate) from four clients on
/// two groups of two ranks: the first claim of each idle group goes wide,
/// and the claims made while a group is busy run alone.
#[test]
fn a_loaded_pool_runs_wide_and_alone_and_every_job_matches_its_width() {
    const JOBS: u64 = 40;
    const CLIENTS: u64 = 4;
    let problem = Arc::new(synthetic_problem([6, 6, 6], 6.0, 2, 2));
    let solver = |job: u64| Solver::builder().n_states(2).seed(100 + job).build();
    let service = Service::start(ServeConfig { ranks: 4, groups: 2, ..Default::default() });
    let results: Vec<_> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (service, problem) = (&service, &problem);
                s.spawn(move || {
                    let handles: Vec<_> = (client..JOBS)
                        .step_by(CLIENTS as usize)
                        .map(|job| {
                            let spec = JobSpec::new(client, Arc::clone(problem))
                                .with_solver(solver(job));
                            (job, service.submit(spec).expect("fits the quotas"))
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|(job, h)| (job, h.wait().expect("job completes")))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients.into_iter().flat_map(|c| c.join().expect("client thread")).collect()
    });
    service.shutdown();

    assert_eq!(results.len(), JOBS as usize);
    let count = |ranks| results.iter().filter(|(_, r)| r.ranks == ranks).count();
    let (alone, wide) = (count(1), count(2));
    assert_eq!(alone + wide, JOBS as usize, "every job was solved on one or two ranks");
    assert!(wide >= 1, "an idle group went wide on its first claim");
    assert!(alone >= 1, "a busy group ran a claim alone");
    for (job, res) in &results {
        assert!(!res.cache_hit && res.batch_size == 1, "job {job} is distinct");
        let want = solo(&problem, &solver(*job), res.ranks);
        assert_eq!(bits(&res.values), bits(&want), "job {job} at {} ranks", res.ranks);
    }
}

/// The shapes of the end-to-end `served_stream` pool: what a served job
/// returns at one rank and at two agrees to 1e-10 relative, the tolerance
/// of that workload's served-against-solo check.
#[test]
fn one_rank_and_two_rank_energies_agree_on_the_served_shapes() {
    let shapes = [
        silicon_like_problem(1, 12, 4),
        silicon_like_problem(1, 12, 6),
        silicon_like_problem(1, 16, 8),
        synthetic_problem([12; 3], 8.0, 4, 4),
    ];
    let mut worst = 0.0f64;
    for (i, problem) in shapes.iter().enumerate() {
        for seed in [1, 2, 3, 1_000_007] {
            for n_states in [3, 5] {
                let solver = Solver::builder().n_states(n_states).seed(seed).build();
                let (one, two) = (solo(problem, &solver, 1), solo(problem, &solver, 2));
                assert_eq!(one.len(), two.len());
                for (a, b) in one.iter().zip(&two) {
                    let rel = (a - b).abs() / b.abs();
                    assert!(
                        rel <= 1e-10,
                        "shape {i} seed {seed} n_states {n_states}: {a} vs {b} ({rel:.2e})"
                    );
                    worst = worst.max(rel);
                }
            }
        }
    }
    println!("largest 1-rank vs 2-rank relative difference: {worst:.2e}");
}
