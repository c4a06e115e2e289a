//! `repro chaos-report` — the chaos soak gate for the `served` resilience
//! layer, written to `BENCH_chaos.json`.
//!
//! Four phases, all on a 4-rank / 2-group service:
//!
//! 1. **Fault-free control** — a clean mixed-tenant workload measuring the
//!    baseline client latency distribution (p50/p99/p999, shared
//!    linear-interpolated [`quantile`]) and asserting every result is
//!    bitwise identical to a solo `solve_distributed` run at the group
//!    size: the resilience machinery must leave the clean path untouched.
//! 2. **Chaos soak** — the same clean tenant co-scheduled with a fault
//!    tenant cycling NaN-poison, Inf-poison, and comm-delay plans, a
//!    deadline tenant whose zero budgets expire at claim time, and a
//!    pressured tenant whose jobs are degraded on the ladder. Reports
//!    throughput, the clean tenant's latency quantiles under fire, per-kind
//!    outcome counts, `serve.*` counter deltas, and cross-tenant
//!    contamination (clean and healed values compared bitwise against the
//!    per-seed oracles).
//! 3. **Breaker exercise** — a sequential closed → open → shed → half-open
//!    probe → closed walk on a one-strike service, recording each observed
//!    transition.
//! 4. **Reproducibility** — the whole soak runs twice with identical seeds;
//!    a digest over every job's (tenant, index, outcome kind, value bits,
//!    degrade label) must match bit for bit. Timing-dependent fields
//!    (latency, attempts, cache hits, fault-event counts) are excluded:
//!    the one-shot fault plans fire per rank thread, so a retry landing on
//!    the other group is poisoned once more — outcomes converge, schedules
//!    differ.
//!
//! `--check` gates: control bitwise-clean; all jobs terminal with their
//! expected outcome kind; zero contaminations; clean-tenant p99 under
//! chaos within 3× the control p99 (plus a 20 ms absolute slack — quick
//! solves are sub-millisecond, where a single scheduler hiccup would
//! otherwise dominate the ratio); equal same-seed digests; and the breaker
//! observed opening, shedding, and re-closing. A panic on any rank aborts
//! the report itself — reaching the gate summary is the no-panic check.

use crate::report::{json, quantile};
use faultkit::{FaultKind, FaultPlan};
use lrtddft::{synthetic_problem, CasidaProblem, Solver};
use parcomm::spmd;
use served::{
    AdmissionError, JobOutcome, JobSpec, ResilienceConfig, ServeConfig, Service,
};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// World size of every service in this report.
const RANKS: usize = 4;
/// Solver groups the world splits into (group size = 2).
const GROUPS: usize = 2;
/// `--check` gate: clean-tenant p99 under chaos over fault-free p99.
const P99_RATIO_GATE: f64 = 3.0;
/// Absolute slack on the p99 gate (sub-millisecond quick solves).
const P99_SLACK: Duration = Duration::from_millis(20);

struct Workload {
    grid: [usize; 3],
    box_len: f64,
    n_v: usize,
    n_c: usize,
    /// Clean jobs per soak (also the control workload size).
    clean_jobs: usize,
    /// Distinct solver seeds the clean jobs cycle over (each needs its own
    /// oracle; repeats past this exercise the result cache).
    clean_seeds: usize,
    /// Fault-tenant jobs per soak (cycling the three plan kinds).
    fault_jobs: usize,
    /// Zero-budget deadline jobs per soak.
    dead_jobs: usize,
    /// Pressured (to-be-degraded) jobs per soak.
    degrade_jobs: usize,
}

fn workload(quick: bool) -> Workload {
    if quick {
        Workload {
            grid: [8, 8, 8],
            box_len: 6.0,
            n_v: 2,
            n_c: 2,
            clean_jobs: 16,
            clean_seeds: 4,
            fault_jobs: 6,
            dead_jobs: 4,
            degrade_jobs: 4,
        }
    } else {
        Workload {
            grid: [10, 10, 10],
            box_len: 8.0,
            n_v: 3,
            n_c: 3,
            clean_jobs: 24,
            clean_seeds: 6,
            fault_jobs: 9,
            dead_jobs: 6,
            degrade_jobs: 6,
        }
    }
}

/// One service config for control and soak alike: the 60 s pressure window
/// deterministically pressures every deadline-carrying job (the degrade
/// tenant) without touching deadline-free work, and zero-budget jobs expire
/// before pressure matters.
fn config() -> ServeConfig {
    ServeConfig {
        ranks: RANKS,
        groups: GROUPS,
        resilience: ResilienceConfig {
            pressure_window: Duration::from_secs(60),
            ..Default::default()
        },
        ..Default::default()
    }
}

const T_CLEAN: u64 = 1;
const T_FAULT: u64 = 666;
const T_DEAD: u64 = 13;
const T_DEGRADE: u64 = 42;

fn clean_solver(seed: u64) -> Solver {
    Solver::builder().n_states(2).seed(0xc1ea + seed).build()
}

/// The three chaos plans the fault tenant cycles through.
fn fault_plan(slot: usize) -> (&'static str, FaultPlan) {
    match slot % 3 {
        0 => ("nan-poison", FaultPlan::new(0xbad).with("ham.v_tilde", 0, FaultKind::NanPoison)),
        1 => ("inf-poison", FaultPlan::new(0xbad).with("ham.v_tilde", 0, FaultKind::InfPoison)),
        _ => (
            "comm-delay",
            FaultPlan::new(0xbad)
                .with("comm.ireduce", 0, FaultKind::CommDelay { micros: 1500 })
                .with("comm.iallreduce", 0, FaultKind::CommDelay { micros: 1500 }),
        ),
    }
}

/// What one job contributed to the soak record. Only the deterministic
/// fields (tenant, index, outcome kind, value bits, degrade label) feed the
/// reproducibility digest.
struct JobRecord {
    tenant: u64,
    index: usize,
    /// "clean" / "nan-poison" / "inf-poison" / "comm-delay" / "deadline" /
    /// "degrade".
    kind: &'static str,
    /// "completed" / "deadline-exceeded" / "failed" / "cancelled" /
    /// "aborted".
    outcome: &'static str,
    values: Vec<f64>,
    degraded: Option<String>,
    latency_s: f64,
}

fn outcome_name(o: &JobOutcome) -> &'static str {
    match o {
        JobOutcome::Completed(_) => "completed",
        JobOutcome::Failed { .. } => "failed",
        JobOutcome::DeadlineExceeded { .. } => "deadline-exceeded",
        JobOutcome::Cancelled => "cancelled",
        JobOutcome::Aborted => "aborted",
    }
}

/// FNV-1a digest over the deterministic slice of a soak's job records.
fn digest(records: &[JobRecord]) -> u64 {
    fn byte(h: u64, b: u8) -> u64 {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    }
    fn word(h: u64, v: u64) -> u64 {
        v.to_le_bytes().iter().fold(h, |h, &b| byte(h, b))
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in records {
        h = word(h, r.tenant);
        h = word(h, r.index as u64);
        h = r.kind.bytes().chain(r.outcome.bytes()).fold(h, byte);
        h = r.values.iter().fold(h, |h, v| word(h, v.to_bits()));
        h = r.degraded.as_deref().unwrap_or("").bytes().fold(h, byte);
    }
    h
}

/// Everything a client thread needs to run one job.
struct PlannedJob {
    tenant: u64,
    index: usize,
    kind: &'static str,
    spec: JobSpec,
}

/// The soak's deterministic job list: clean, fault, deadline, and degrade
/// tenants interleaved by index so every kind genuinely shares the service.
fn plan_jobs(w: &Workload, problem: &Arc<CasidaProblem>, chaos: bool) -> Vec<PlannedJob> {
    let mut jobs = Vec::new();
    for i in 0..w.clean_jobs {
        jobs.push(PlannedJob {
            tenant: T_CLEAN,
            index: i,
            kind: "clean",
            spec: JobSpec::new(T_CLEAN, Arc::clone(problem))
                .with_solver(clean_solver((i % w.clean_seeds) as u64)),
        });
    }
    if chaos {
        for i in 0..w.fault_jobs {
            let (kind, plan) = fault_plan(i);
            jobs.push(PlannedJob {
                tenant: T_FAULT,
                index: i,
                kind,
                spec: JobSpec::new(T_FAULT, Arc::clone(problem))
                    .with_solver(clean_solver(0))
                    .with_fault_plan(plan),
            });
        }
        for i in 0..w.dead_jobs {
            jobs.push(PlannedJob {
                tenant: T_DEAD,
                index: i,
                kind: "deadline",
                // Seeds disjoint from the clean tenant's: a shared cache key
                // would complete the job at admission (a hit beats any
                // deadline), and whether that happens would depend on submit
                // ordering — breaking the reproducibility digest.
                spec: JobSpec::new(T_DEAD, Arc::clone(problem))
                    .with_solver(clean_solver(200 + i as u64))
                    .with_deadline(Duration::ZERO),
            });
        }
        for i in 0..w.degrade_jobs {
            jobs.push(PlannedJob {
                tenant: T_DEGRADE,
                index: i,
                kind: "degrade",
                // Disjoint seeds for the same reason as the deadline tenant:
                // pressured degradation only happens on a solver group.
                spec: JobSpec::new(T_DEGRADE, Arc::clone(problem))
                    .with_solver(clean_solver(100 + i as u64))
                    .with_deadline(Duration::from_secs(30)),
            });
        }
        // Interleave by index so the attacker kinds land between clean work
        // rather than in one trailing burst.
        jobs.sort_by_key(|j| (j.index, j.tenant));
    }
    jobs
}

struct SoakResult {
    records: Vec<JobRecord>,
    wall_s: f64,
}

/// Run one planned workload on a fresh service, one client thread per job
/// (submit→terminal latency is what the tenant observes).
fn run_soak(jobs: Vec<PlannedJob>) -> SoakResult {
    let service = Service::start(config());
    let t0 = Instant::now();
    let mut records = Vec::with_capacity(jobs.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|job| {
                let service = &service;
                s.spawn(move || {
                    let start = Instant::now();
                    let handle = service.submit(job.spec).expect("soak fits the quotas");
                    let outcome = handle.outcome();
                    let latency_s = start.elapsed().as_secs_f64();
                    let (values, degraded) = match &outcome {
                        JobOutcome::Completed(r) => (r.values.clone(), r.degraded.clone()),
                        _ => (Vec::new(), None),
                    };
                    JobRecord {
                        tenant: job.tenant,
                        index: job.index,
                        kind: job.kind,
                        outcome: outcome_name(&outcome),
                        values,
                        degraded,
                        latency_s,
                    }
                })
            })
            .collect();
        for h in handles {
            records.push(h.join().expect("client thread"));
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    service.shutdown();
    // Digest order must not depend on thread-join timing.
    records.sort_by_key(|r| (r.tenant, r.index));
    SoakResult { records, wall_s }
}

/// Sorted clean-tenant latencies of a soak.
fn clean_latencies(records: &[JobRecord]) -> Vec<f64> {
    let mut lat: Vec<f64> =
        records.iter().filter(|r| r.tenant == T_CLEAN).map(|r| r.latency_s).collect();
    lat.sort_by(f64::total_cmp);
    lat
}

/// Completed values that must match an oracle bitwise: every clean job, and
/// every healed fault job (poison retried to a clean solve, delay never
/// corrupts arithmetic). Degraded jobs are labeled downgrades — excluded.
fn contaminations(records: &[JobRecord], oracles: &HashMap<u64, Vec<f64>>, w: &Workload) -> usize {
    records
        .iter()
        .filter(|r| {
            let seed = match (r.tenant, r.outcome) {
                (T_CLEAN, "completed") => (r.index % w.clean_seeds) as u64,
                (T_FAULT, "completed") => 0,
                _ => return false,
            };
            let oracle = &oracles[&seed];
            r.values.len() != oracle.len()
                || r.values.iter().zip(oracle).any(|(a, b)| a.to_bits() != b.to_bits())
        })
        .count()
}

struct BreakerTrace {
    opened: bool,
    shed_observed: bool,
    probe_completed: bool,
    probe_degraded: Option<String>,
    closed: bool,
}

/// Sequential closed → open → shed → probe → closed walk on a one-strike
/// service: a poisoned job with no retry budget fails terminally and opens
/// the tenant's breaker, a clean submit is shed with `CircuitOpen`, and
/// after the cooldown the half-open probe solves and re-closes it.
fn breaker_exercise(problem: &Arc<CasidaProblem>) -> BreakerTrace {
    let cooldown = Duration::from_millis(40);
    let service = Service::start(ServeConfig {
        resilience: ResilienceConfig {
            retry_max_attempts: 1,
            breaker_threshold: 1,
            breaker_cooldown: cooldown,
            ..Default::default()
        },
        ..config()
    });
    let poisoned = JobSpec::new(T_FAULT, Arc::clone(problem))
        .with_fault_plan(FaultPlan::new(0xbad).with("ham.v_tilde", 0, FaultKind::NanPoison));
    let opened = matches!(
        service.submit(poisoned).expect("admitted").outcome(),
        JobOutcome::Failed { .. }
    );
    let shed_observed = matches!(
        service.submit(JobSpec::new(T_FAULT, Arc::clone(problem))),
        Err(AdmissionError::CircuitOpen { .. })
    );
    std::thread::sleep(cooldown + Duration::from_millis(20));
    let probe = service
        .submit(JobSpec::new(T_FAULT, Arc::clone(problem)))
        .expect("half-open breaker admits the probe")
        .wait();
    let (probe_completed, probe_degraded) = match probe {
        Some(r) => (r.values.iter().all(|v| v.is_finite()), r.degraded),
        None => (false, None),
    };
    let closed = service.submit(JobSpec::new(T_FAULT, Arc::clone(problem))).is_ok();
    service.shutdown();
    BreakerTrace { opened, shed_observed, probe_completed, probe_degraded, closed }
}

/// Count of records with the given tenant whose outcome is NOT `expect`.
fn off_script(records: &[JobRecord], tenant: u64, expect: &str) -> usize {
    records.iter().filter(|r| r.tenant == tenant && r.outcome != expect).count()
}

pub fn run(out_dir: &Path, quick: bool, check: bool) -> std::io::Result<()> {
    let w = workload(quick);
    println!(
        "chaos-report: {} ranks / {} groups, grid {:?}, N_v={} N_c={}",
        RANKS, GROUPS, w.grid, w.n_v, w.n_c
    );
    let problem = Arc::new(synthetic_problem(w.grid, w.box_len, w.n_v, w.n_c));

    // Per-seed fault-free oracles at the group size: what every clean (and
    // healed) value must reproduce bit for bit.
    let oracles: HashMap<u64, Vec<f64>> = (0..w.clean_seeds as u64)
        .map(|seed| {
            let solver = clean_solver(seed);
            let p = Arc::clone(&problem);
            (seed, spmd(RANKS / GROUPS, move |c| solver.solve_distributed(c, &p).0)[0].clone())
        })
        .collect();

    let counters_before = obskit::serve_counters();

    // ---- 1. fault-free control ------------------------------------------
    let control = run_soak(plan_jobs(&w, &problem, false));
    let control_lat = clean_latencies(&control.records);
    let control_p99 = quantile(&control_lat, 0.99);
    let control_contaminated = contaminations(&control.records, &oracles, &w);
    println!(
        "control: {} clean jobs, p50 {:.3} ms, p99 {:.3} ms, p999 {:.3} ms, {} off-oracle",
        control_lat.len(),
        quantile(&control_lat, 0.50) * 1e3,
        control_p99 * 1e3,
        quantile(&control_lat, 0.999) * 1e3,
        control_contaminated
    );

    // ---- 2 + 4. chaos soak, twice with identical seeds -------------------
    let soak1 = run_soak(plan_jobs(&w, &problem, true));
    let soak2 = run_soak(plan_jobs(&w, &problem, true));
    let digest1 = digest(&soak1.records);
    let digest2 = digest(&soak2.records);
    let counters = obskit::serve_counters();

    let chaos_lat = clean_latencies(&soak1.records);
    let chaos_p99 = quantile(&chaos_lat, 0.99);
    let soak_contaminated = contaminations(&soak1.records, &oracles, &w)
        + contaminations(&soak2.records, &oracles, &w);
    let jobs_per_soak = soak1.records.len();
    let non_terminal: usize = [&soak1.records, &soak2.records]
        .iter()
        .map(|r| r.iter().filter(|j| matches!(j.outcome, "cancelled" | "aborted")).count())
        .sum();
    // Every tenant has a scripted terminal state; anything else is a finding.
    let surprises: usize = [&soak1.records, &soak2.records]
        .iter()
        .map(|r| {
            off_script(r, T_CLEAN, "completed")
                + off_script(r, T_FAULT, "completed")
                + off_script(r, T_DEAD, "deadline-exceeded")
                + off_script(r, T_DEGRADE, "completed")
        })
        .sum();
    let unlabeled_degrades: usize = [&soak1.records, &soak2.records]
        .iter()
        .map(|r| {
            r.iter()
                .filter(|j| j.tenant == T_DEGRADE && j.outcome == "completed")
                .filter(|j| j.degraded.is_none())
                .count()
        })
        .sum();

    let mut outcome_rows: Vec<Vec<String>> = Vec::new();
    for (tenant, label) in
        [(T_CLEAN, "clean"), (T_FAULT, "fault"), (T_DEAD, "deadline"), (T_DEGRADE, "degrade")]
    {
        let mut by_outcome: HashMap<&str, usize> = HashMap::new();
        for r in soak1.records.iter().filter(|r| r.tenant == tenant) {
            *by_outcome.entry(r.outcome).or_default() += 1;
        }
        let mut kinds: Vec<_> = by_outcome.into_iter().collect();
        kinds.sort();
        outcome_rows.push(vec![
            label.to_string(),
            kinds.iter().map(|(k, n)| format!("{n} {k}")).collect::<Vec<_>>().join(", "),
        ]);
    }
    crate::report::print_table(&["tenant", "soak outcomes"], &outcome_rows);
    println!(
        "soak: {} jobs in {:.3} s ({:.1} jobs/s); clean p50 {:.3} ms, p99 {:.3} ms \
         (control p99 {:.3} ms), p999 {:.3} ms",
        jobs_per_soak,
        soak1.wall_s,
        jobs_per_soak as f64 / soak1.wall_s,
        quantile(&chaos_lat, 0.50) * 1e3,
        chaos_p99 * 1e3,
        control_p99 * 1e3,
        quantile(&chaos_lat, 0.999) * 1e3,
    );
    println!(
        "serve counters over the campaign: {} retries, {} degraded, {} deadline misses, \
         {} breaker opens, {} unhealthy marks",
        counters.retries - counters_before.retries,
        counters.degraded - counters_before.degraded,
        counters.deadline_miss - counters_before.deadline_miss,
        counters.breaker_open - counters_before.breaker_open,
        counters.group_unhealthy - counters_before.group_unhealthy,
    );
    println!(
        "reproducibility: digest {digest1:016x} vs {digest2:016x} ({})",
        if digest1 == digest2 { "identical" } else { "DIVERGED" }
    );

    // ---- 3. breaker exercise ---------------------------------------------
    let breaker = breaker_exercise(&problem);
    println!(
        "breaker: opened={} shed={} probe={}{} closed={}",
        breaker.opened,
        breaker.shed_observed,
        breaker.probe_completed,
        breaker
            .probe_degraded
            .as_deref()
            .map(|l| format!(" (degraded: {l})"))
            .unwrap_or_default(),
        breaker.closed
    );

    // ---- BENCH_chaos.json -------------------------------------------------
    let json_text = format!(
        "{{\n  \"benchmark\": \"chaos-report\",\n  \"config\": {{\"ranks\": {RANKS}, \
         \"groups\": {GROUPS}, \"grid\": [{}, {}, {}], \"n_v\": {}, \"n_c\": {}}},\n  \
         \"control\": {{\"jobs\": {}, \"p50_s\": {}, \"p99_s\": {}, \"p999_s\": {}, \
         \"off_oracle\": {}}},\n  \
         \"soak\": {{\"jobs\": {}, \"wall_s\": {}, \"throughput_jobs_per_s\": {}, \
         \"clean_p50_s\": {}, \"clean_p99_s\": {}, \"clean_p999_s\": {}, \
         \"contaminations\": {}, \"non_terminal\": {}, \"off_script_outcomes\": {}, \
         \"unlabeled_degrades\": {}}},\n  \
         \"counters\": {{\"retries\": {}, \"degraded\": {}, \"deadline_miss\": {}, \
         \"breaker_open\": {}, \"group_unhealthy\": {}}},\n  \
         \"breaker\": {{\"opened\": {}, \"shed_observed\": {}, \"probe_completed\": {}, \
         \"probe_degraded\": {}, \"closed\": {}}},\n  \
         \"reproducibility\": {{\"digest1\": {}, \"digest2\": {}, \"identical\": {}}}\n}}\n",
        w.grid[0],
        w.grid[1],
        w.grid[2],
        w.n_v,
        w.n_c,
        control_lat.len(),
        json::number(quantile(&control_lat, 0.50)),
        json::number(control_p99),
        json::number(quantile(&control_lat, 0.999)),
        control_contaminated,
        jobs_per_soak,
        json::number(soak1.wall_s),
        json::number(jobs_per_soak as f64 / soak1.wall_s),
        json::number(quantile(&chaos_lat, 0.50)),
        json::number(chaos_p99),
        json::number(quantile(&chaos_lat, 0.999)),
        soak_contaminated,
        non_terminal,
        surprises,
        unlabeled_degrades,
        counters.retries - counters_before.retries,
        counters.degraded - counters_before.degraded,
        counters.deadline_miss - counters_before.deadline_miss,
        counters.breaker_open - counters_before.breaker_open,
        counters.group_unhealthy - counters_before.group_unhealthy,
        breaker.opened,
        breaker.shed_observed,
        breaker.probe_completed,
        breaker
            .probe_degraded
            .as_deref()
            .map(json::string)
            .unwrap_or_else(|| "null".to_string()),
        breaker.closed,
        json::string(&format!("{digest1:016x}")),
        json::string(&format!("{digest2:016x}")),
        digest1 == digest2,
    );
    std::fs::create_dir_all(out_dir)?;
    let path = out_dir.join("BENCH_chaos.json");
    let mut f = std::fs::File::create(&path)?;
    f.write_all(json_text.as_bytes())?;
    println!("wrote {}", path.display());

    if check {
        let mut failures = Vec::new();
        if control_contaminated > 0 {
            failures.push(format!(
                "{control_contaminated} fault-free control job(s) diverged from the solo \
                 oracle — the clean path is no longer bitwise-identical"
            ));
        }
        if non_terminal > 0 {
            failures.push(format!(
                "{non_terminal} soak job(s) ended cancelled/aborted instead of a served \
                 terminal state"
            ));
        }
        if surprises > 0 {
            failures.push(format!(
                "{surprises} soak job(s) reached an unscripted outcome (clean/fault/degrade \
                 must complete, zero-budget deadlines must expire)"
            ));
        }
        if unlabeled_degrades > 0 {
            failures.push(format!(
                "{unlabeled_degrades} pressured job(s) completed without a degrade label — \
                 silent degradation is forbidden"
            ));
        }
        if soak_contaminated > 0 {
            failures.push(format!(
                "{soak_contaminated} clean/healed soak job(s) diverged bitwise from the \
                 fault-free oracle — cross-tenant contamination"
            ));
        }
        let p99_cap = control_p99 * P99_RATIO_GATE + P99_SLACK.as_secs_f64();
        if chaos_p99 > p99_cap {
            failures.push(format!(
                "clean-tenant p99 under chaos {:.3} ms exceeds {P99_RATIO_GATE}x the \
                 fault-free p99 {:.3} ms (+{} ms slack)",
                chaos_p99 * 1e3,
                control_p99 * 1e3,
                P99_SLACK.as_millis()
            ));
        }
        if digest1 != digest2 {
            failures.push(format!(
                "same-seed soak digests diverged: {digest1:016x} vs {digest2:016x}"
            ));
        }
        if !(breaker.opened && breaker.shed_observed && breaker.probe_completed && breaker.closed)
        {
            failures.push(format!(
                "breaker walk incomplete: opened={} shed={} probe={} closed={}",
                breaker.opened, breaker.shed_observed, breaker.probe_completed, breaker.closed
            ));
        }
        if failures.is_empty() {
            println!("chaos-report --check: all gates passed");
        } else {
            for f in &failures {
                eprintln!("chaos-report --check FAILED: {f}");
            }
            std::process::exit(1);
        }
    }
    Ok(())
}
