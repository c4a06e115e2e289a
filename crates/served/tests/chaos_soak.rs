//! Chaos soak of the resilience layer on a 4-rank / 2-group service: a
//! clean tenant shares the service with a tenant whose jobs cycle through a
//! NaN-poisoned, an Inf-poisoned and the clean problem.
//!
//! What is asserted is what does not depend on the schedule: every job ends
//! in its scripted outcome (a poisoned build fails, everything else
//! completes), a solved job's values equal the fault-free solo oracle at the
//! width it ran on bit for bit, a cache hit's equal a solved job's, and the
//! same-seed soak repeats job for job. Widths, cache hits, batch sizes and
//! latencies depend on which rank claims what first, so none of them is
//! asserted.

use lrtddft::{synthetic_problem, CasidaProblem, Solver};
use parcomm::spmd;
use served::{JobOutcome, JobSpec, ServeConfig, Service};
use std::sync::Arc;

const T_CLEAN: u64 = 1;
const T_FAULT: u64 = 666;
/// Distinct solver seeds the clean jobs cycle over; repeats may be served
/// from the cache or batched, which must not change a bit.
const CLEAN_SEEDS: usize = 4;

fn config() -> ServeConfig {
    ServeConfig { ranks: 4, groups: 2, ..Default::default() }
}

fn clean_solver(seed: u64) -> Solver {
    Solver::builder().n_states(2).seed(0xc1ea + seed).build()
}

/// The faulty tenant's problem for job `slot`: one NaN (slot 0 mod 3) or
/// +Inf (slot 1) orbital value, else the clean problem.
fn fault_problem(clean: &Arc<CasidaProblem>, slot: usize) -> Arc<CasidaProblem> {
    let poison = match slot % 3 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        _ => return Arc::clone(clean),
    };
    let mut p = synthetic_problem([8, 8, 8], 6.0, 2, 2);
    p.psi_v.as_mut_slice()[7] = poison;
    Arc::new(p)
}

/// One job's result: its scripted part, its values and the width it ran on
/// (0 for a cache hit).
#[derive(Debug)]
struct Record {
    tenant: u64,
    index: usize,
    outcome: &'static str,
    value_bits: Vec<u64>,
    ranks: usize,
}

impl Record {
    /// The part the schedule does not decide.
    fn script(&self) -> (u64, usize, &'static str) {
        (self.tenant, self.index, self.outcome)
    }
}

/// The outcome a job's script implies: the poisoned slots of
/// [`fault_problem`] fail their one build, every other job completes.
fn scripted_outcome(tenant: u64, index: usize) -> &'static str {
    if tenant == T_FAULT && index % 3 < 2 {
        "failed"
    } else {
        "completed"
    }
}

/// The soak's job list, interleaved by index so every tenant genuinely
/// shares the service.
fn plan_jobs(problem: &Arc<CasidaProblem>, chaos: bool) -> Vec<(u64, usize, JobSpec)> {
    let spec =
        |tenant, problem, seed| JobSpec::new(tenant, problem).with_solver(clean_solver(seed));
    let mut jobs: Vec<_> = (0..16)
        .map(|i| (T_CLEAN, i, spec(T_CLEAN, Arc::clone(problem), (i % CLEAN_SEEDS) as u64)))
        .collect();
    if chaos {
        jobs.extend((0..6).map(|i| (T_FAULT, i, spec(T_FAULT, fault_problem(problem, i), 0))));
        jobs.sort_by_key(|(tenant, index, _)| (*index, *tenant));
    }
    jobs
}

/// Run the jobs on a fresh service, one client thread each.
fn soak(jobs: Vec<(u64, usize, JobSpec)>) -> Vec<Record> {
    let service = Service::start(config());
    let mut records: Vec<Record> = std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|(tenant, index, spec)| {
                let service = &service;
                s.spawn(move || {
                    let outcome = service.submit(spec).expect("soak fits the quotas").outcome();
                    let (outcome, value_bits, ranks) = match outcome {
                        JobOutcome::Completed(r) => {
                            // A solved job ran its batch's one build; a hit
                            // ran none.
                            let builds = if r.cache_hit { 0 } else { 1 };
                            assert_eq!(r.attempts, builds, "tenant {tenant} job {index}");
                            let bits = r.values.iter().map(|v| v.to_bits()).collect();
                            ("completed", bits, r.ranks)
                        }
                        JobOutcome::Failed { error } => {
                            let job = format!("tenant {tenant} job {index}");
                            let want = "non-finite value in `problem.psi_v`";
                            assert!(error.contains(want), "{job}: {error}");
                            ("failed", vec![], 0)
                        }
                    };
                    Record { tenant, index, outcome, value_bits, ranks }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    service.shutdown();
    records.sort_by_key(|r| (r.tenant, r.index));
    records
}

#[test]
fn chaos_soak_keeps_every_tenant_on_script_and_repeats_job_for_job() {
    let problem = Arc::new(synthetic_problem([8, 8, 8], 6.0, 2, 2));
    // Fault-free oracles at one rank and at the group size, one per clean
    // seed: `oracles[ranks - 1][seed]`.
    let oracles: Vec<Vec<Vec<u64>>> = (1..=2)
        .map(|ranks| {
            (0..CLEAN_SEEDS as u64)
                .map(|seed| {
                    let solver = clean_solver(seed);
                    let values =
                        spmd(ranks, |c| solver.solve_distributed(c, &problem).0).swap_remove(0);
                    values.iter().map(|v| v.to_bits()).collect()
                })
                .collect()
        })
        .collect();
    // The faulty tenant's clean slots solve the clean problem with seed 0.
    let seed = |r: &Record| if r.tenant == T_CLEAN { r.index % CLEAN_SEEDS } else { 0 };
    // A solved job is its oracle at its width; a hit carries the values of
    // a solved job of its seed in the same soak.
    let check = |records: &[Record]| {
        for r in records.iter().filter(|r| r.outcome == "completed") {
            let job = format!("tenant {} job {}", r.tenant, r.index);
            if r.ranks > 0 {
                assert_eq!(r.value_bits, oracles[r.ranks - 1][seed(r)], "{job} was contaminated");
            } else {
                let solved = |s: &&Record| s.ranks > 0 && seed(s) == seed(r);
                assert!(
                    records.iter().filter(solved).any(|s| s.value_bits == r.value_bits),
                    "{job} hit an entry no solve of its seed wrote"
                );
            }
        }
    };

    let control = soak(plan_jobs(&problem, false));
    for r in &control {
        assert_eq!(r.outcome, "completed", "control job {} ended {}", r.index, r.outcome);
    }
    check(&control);

    let first = soak(plan_jobs(&problem, true));
    for r in &first {
        let job = format!("tenant {} job {}", r.tenant, r.index);
        assert_eq!(r.outcome, scripted_outcome(r.tenant, r.index), "{job}");
    }
    check(&first);
    let again = soak(plan_jobs(&problem, true));
    check(&again);
    let script = |records: &[Record]| records.iter().map(Record::script).collect::<Vec<_>>();
    assert_eq!(script(&again), script(&first), "the same-seed soak did not repeat");
}
