//! Chaos soak of the resilience layer on a 4-rank / 2-group service: a
//! clean tenant shares the service with a tenant whose jobs carry NaN-,
//! Inf-poison and comm-delay plans.
//!
//! What is asserted is what does not depend on the schedule: every job ends
//! in its scripted outcome (a poisoned build fails, everything else
//! completes), completed values equal the fault-free solo oracle bit for
//! bit, and the same-seed soak repeats job for job. Cache hits, batch sizes
//! and latencies depend on which group claims what first, so none of them
//! is asserted.

use faultkit::{FaultKind, FaultPlan};
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

fn fault_plan(slot: usize) -> FaultPlan {
    let plan = FaultPlan::new(0xbad);
    match slot % 3 {
        0 => plan.with("ham.v_tilde", 0, FaultKind::NanPoison),
        1 => plan.with("ham.v_tilde", 0, FaultKind::InfPoison),
        _ => plan.with("comm.allreduce", 0, FaultKind::CommDelay { micros: 1500 }),
    }
}

/// The deterministic part of one job's result.
#[derive(Debug, PartialEq)]
struct Record {
    tenant: u64,
    index: usize,
    outcome: &'static str,
    value_bits: Vec<u64>,
}

/// The outcome a job's script implies: the poison slots of [`fault_plan`]
/// fail their one build, every other job completes.
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
        |tenant, seed| JobSpec::new(tenant, Arc::clone(problem)).with_solver(clean_solver(seed));
    let mut jobs: Vec<_> =
        (0..16).map(|i| (T_CLEAN, i, spec(T_CLEAN, (i % CLEAN_SEEDS) as u64))).collect();
    if chaos {
        jobs.extend((0..6).map(|i| (T_FAULT, i, spec(T_FAULT, 0).with_fault_plan(fault_plan(i)))));
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
                    let (outcome, value_bits) = match outcome {
                        JobOutcome::Completed(r) => {
                            // A solved job ran its batch's one build; a hit
                            // ran none.
                            let builds = if r.cache_hit { 0 } else { 1 };
                            assert_eq!(r.attempts, builds, "tenant {tenant} job {index}");
                            ("completed", r.values.iter().map(|v| v.to_bits()).collect())
                        }
                        JobOutcome::Failed { error } => {
                            let job = format!("tenant {tenant} job {index}");
                            assert!(error.contains("non-finite"), "{job}: {error}");
                            ("failed", vec![])
                        }
                    };
                    Record { tenant, index, outcome, value_bits }
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
    // Fault-free oracles at the group size, one per clean seed.
    let oracles: Vec<Vec<u64>> = (0..CLEAN_SEEDS as u64)
        .map(|seed| {
            let solver = clean_solver(seed);
            let values = spmd(2, |c| solver.solve_distributed(c, &problem).0).swap_remove(0);
            values.iter().map(|v| v.to_bits()).collect()
        })
        .collect();
    let oracle = |r: &Record| match r.tenant {
        T_CLEAN => &oracles[r.index % CLEAN_SEEDS],
        // A delay never touches the arithmetic.
        _ => &oracles[0],
    };

    for r in soak(plan_jobs(&problem, false)) {
        assert_eq!(r.outcome, "completed", "control job {} ended {}", r.index, r.outcome);
        assert_eq!(&r.value_bits, oracle(&r), "control job {} left the oracle", r.index);
    }

    let first = soak(plan_jobs(&problem, true));
    for r in &first {
        let job = format!("tenant {} job {}", r.tenant, r.index);
        assert_eq!(r.outcome, scripted_outcome(r.tenant, r.index), "{job}");
        if r.outcome == "completed" {
            assert_eq!(&r.value_bits, oracle(r), "{job} was contaminated");
        }
    }
    assert_eq!(soak(plan_jobs(&problem, true)), first, "the same-seed soak did not repeat");
}
