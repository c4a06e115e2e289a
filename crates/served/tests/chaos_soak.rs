//! Chaos soak of the resilience layer on a 4-rank / 2-group service: a
//! clean tenant shares the service with a tenant whose jobs carry NaN-,
//! Inf-poison and comm-delay plans, a tenant whose zero budgets expire at
//! claim time, and a tenant whose deadlines pressure its jobs onto the
//! degrade ladder.
//!
//! What is asserted is what does not depend on the schedule: every job ends
//! in its scripted outcome, clean and healed values equal the fault-free
//! solo oracle bit for bit, a degraded job always carries its label, every
//! job ran the builds its script implies (a poisoned job 2, a solved one 1,
//! a cache hit 0), and the same-seed soak repeats job for job. Cache hits,
//! batch sizes and latencies depend on which group claims what first, so
//! none of them is asserted.

use faultkit::{FaultKind, FaultPlan};
use lrtddft::{synthetic_problem, CasidaProblem, Solver};
use parcomm::spmd;
use served::{JobOutcome, JobSpec, ServeConfig, Service};
use std::sync::Arc;
use std::time::Duration;

const T_CLEAN: u64 = 1;
const T_FAULT: u64 = 666;
const T_DEAD: u64 = 13;
const T_DEGRADE: u64 = 42;
/// Distinct solver seeds the clean jobs cycle over; repeats may be served
/// from the cache or batched, which must not change a bit.
const CLEAN_SEEDS: usize = 4;

/// The 60 s pressure window pressures every deadline-carrying job (the
/// degrade tenant) without touching deadline-free work; zero budgets expire
/// before pressure matters.
fn config() -> ServeConfig {
    ServeConfig {
        ranks: 4,
        groups: 2,
        pressure_window: Duration::from_secs(60),
        ..Default::default()
    }
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
    degraded: Option<String>,
    /// Builds run, with a cache hit counted as the one build it stands for.
    builds: u32,
}

/// The builds a completed job's script implies: the poison slots of
/// [`fault_plan`] fail their first build and heal on the clean rebuild.
fn scripted_builds(tenant: u64, index: usize) -> u32 {
    if tenant == T_FAULT && index % 3 < 2 {
        2
    } else {
        1
    }
}

/// The soak's job list, interleaved by index so every tenant genuinely
/// shares the service. Deadline and degrade jobs use seeds disjoint from
/// the clean tenant's: a shared cache key would complete them at admission,
/// depending on submit order.
fn plan_jobs(problem: &Arc<CasidaProblem>, chaos: bool) -> Vec<(u64, usize, JobSpec)> {
    let spec =
        |tenant, seed| JobSpec::new(tenant, Arc::clone(problem)).with_solver(clean_solver(seed));
    let mut jobs: Vec<_> =
        (0..16).map(|i| (T_CLEAN, i, spec(T_CLEAN, (i % CLEAN_SEEDS) as u64))).collect();
    if chaos {
        jobs.extend((0..6).map(|i| (T_FAULT, i, spec(T_FAULT, 0).with_fault_plan(fault_plan(i)))));
        jobs.extend(
            (0..4).map(|i| (T_DEAD, i, spec(T_DEAD, 200 + i as u64).with_deadline(Duration::ZERO))),
        );
        jobs.extend((0..4).map(|i| {
            (T_DEGRADE, i, spec(T_DEGRADE, 100 + i as u64).with_deadline(Duration::from_secs(30)))
        }));
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
                    let (outcome, value_bits, degraded, builds) = match outcome {
                        JobOutcome::Completed(r) => {
                            // A hit reads 0 and runs no build; it stands for
                            // its key's one clean build.
                            assert_eq!(r.cache_hit, r.attempts == 0, "tenant {tenant} job {index}");
                            let bits = r.values.iter().map(|v| v.to_bits()).collect();
                            ("completed", bits, r.degraded, r.attempts.max(1))
                        }
                        JobOutcome::DeadlineExceeded { .. } => {
                            ("deadline-exceeded", vec![], None, 0)
                        }
                        JobOutcome::Failed { .. } => ("failed", vec![], None, 0),
                    };
                    Record { tenant, index, outcome, value_bits, degraded, builds }
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
        T_CLEAN => Some(&oracles[r.index % CLEAN_SEEDS]),
        // Poison heals on the rebuild and a delay never touches the arithmetic.
        T_FAULT => Some(&oracles[0]),
        _ => None,
    };

    for r in soak(plan_jobs(&problem, false)) {
        assert_eq!(r.outcome, "completed", "control job {} ended {}", r.index, r.outcome);
        assert_eq!(Some(&r.value_bits), oracle(&r), "control job {} left the oracle", r.index);
        assert_eq!(r.builds, 1, "control job {}", r.index);
    }

    let first = soak(plan_jobs(&problem, true));
    for r in &first {
        let scripted = if r.tenant == T_DEAD { "deadline-exceeded" } else { "completed" };
        assert_eq!(r.outcome, scripted, "tenant {} job {}", r.tenant, r.index);
        if r.outcome == "completed" {
            let want = scripted_builds(r.tenant, r.index);
            assert_eq!(r.builds, want, "tenant {} job {} builds", r.tenant, r.index);
        }
        if let Some(want) = oracle(r) {
            assert_eq!(&r.value_bits, want, "tenant {} job {} was contaminated", r.tenant, r.index);
        }
        if r.tenant == T_DEGRADE {
            assert!(r.degraded.is_some(), "pressured job {} degraded silently", r.index);
        }
    }
    assert_eq!(soak(plan_jobs(&problem, true)), first, "the same-seed soak did not repeat");
}
