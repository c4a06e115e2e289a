//! The five workloads: set-up, one round of work, and the correctness
//! oracle of each. Everything goes through the crates' public API.
//!
//! A *round* is the smallest piece of work a run repeats: one unit for the
//! solve workloads (one SCF+Casida, one solve, one five-version sweep), one
//! block of `jobmix::ROUND_JOBS` jobs for `served_stream`. A traced round
//! runs with `obskit` recording and returns its ledger.

use crate::jobmix::{self, Job};
use crate::ledger::{unit_ledger, UnitLedger, UNIT_SPAN};
use lrtddft::{
    silicon_like_problem, synthetic_problem, CasidaProblem, IsdfRank, Solver, StageTimings, Version,
};
use obskit::Stage;
use pwdft::{scf, silicon_supercell, Grid, ScfOptions, Structure};
use served::{JobSpec, ServeConfig, Service};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Si8ScfCasida,
    Si64R1,
    Si64R2,
    Table4Ladder,
    ServedStream,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::Si8ScfCasida,
        Kind::Si64R1,
        Kind::Si64R2,
        Kind::Table4Ladder,
        Kind::ServedStream,
    ];

    /// The name in `spec::WORKLOADS`, which lists them in this order.
    pub fn name(self) -> &'static str {
        crate::spec::WORKLOADS[self as usize].name
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Relative tolerances of the lowest energies against the dense
/// `Version::Naive` reference, so that a change cannot buy time with
/// accuracy. The parent commit's largest errors are 6.65e-7 (Si64), 4.65e-5
/// (Si8) and 6.19e-5 (served shapes), whatever the seed (README, "Accuracy
/// oracle").
pub const SI_LIKE_REL_TOL: f64 = 1e-6;
pub const SI8_REL_TOL: f64 = 1e-4;
pub const SERVED_REL_TOL: f64 = 2e-4;
/// The distributed Si64 solve against the serial solve of the same inputs,
/// and served results against a solo `solve_distributed` of the same job.
pub const SAME_INPUTS_REL_TOL: f64 = 1e-10;

/// States checked per solve (5 on Si8, where `N_cv` is 64).
const N_STATES: usize = 8;
const SI8_STATES: usize = 5;
const LADDER_RANK: usize = 256;
const SERVE_CLIENTS: usize = 4;
/// Distinct served keys solved again, solo, after the measurement.
const SERVED_SOLO_CHECKS: usize = 24;

/// Naive energies of the two `silicon_like` problems (`--regen-golden`).
const GOLDEN_SI64: &str = include_str!("../golden/silicon_like_2_20_16.json");
const GOLDEN_LADDER: &str = include_str!("../golden/silicon_like_2_16_4.json");

pub fn si64_problem() -> CasidaProblem {
    silicon_like_problem(2, 20, 16)
}

pub fn ladder_problem() -> CasidaProblem {
    silicon_like_problem(2, 16, 4)
}

/// Si8-like shapes the served jobs draw from (26–105 ms solo on 2 ranks).
fn job_pool() -> Vec<Arc<CasidaProblem>> {
    vec![
        Arc::new(silicon_like_problem(1, 12, 4)),
        Arc::new(silicon_like_problem(1, 12, 6)),
        Arc::new(silicon_like_problem(1, 16, 8)),
        Arc::new(synthetic_problem([12; 3], 8.0, 4, 4)),
    ]
}

fn parse_golden(text: &str) -> Vec<f64> {
    let v = obskit::chrome::parse_json(text).expect("golden file is valid JSON");
    v.get("naive_energies")
        .and_then(|a| a.as_array())
        .expect("golden file has naive_energies")
        .iter()
        .map(|x| x.as_f64().expect("energy is a number"))
        .collect()
}

/// Largest relative deviation of the first `reference.len().min(n)` values.
fn rel_err(values: &[f64], reference: &[f64], n: usize) -> f64 {
    if values.len() < n.min(reference.len()) {
        return f64::INFINITY;
    }
    values
        .iter()
        .zip(reference)
        .take(n)
        .map(|(v, r)| ((v - r) / r).abs())
        .fold(
            0.0,
            |a, b| if b.is_nan() { f64::INFINITY } else { a.max(b) },
        )
}

fn naive_energies(problem: &CasidaProblem, n_states: usize) -> Vec<f64> {
    Solver::builder()
        .version(Version::Naive)
        .n_states(n_states)
        .build()
        .solve(problem)
        .expect("dense reference solve")
        .energies
}

/// What one round did, beyond its unit times.
#[derive(Clone, Debug, Default)]
pub struct Facts {
    pub recovery_rungs: u64,
    pub scf_iterations: f64,
    pub scf_residual: f64,
    /// Wall seconds of each version in a ladder sweep.
    pub version_s: [f64; 5],
    /// Computed flops of the round's Θ builds (`theta_flops`).
    pub theta_flops: f64,
    pub served: ServedFacts,
    /// Largest relative error against the dense reference seen in the round.
    pub max_rel_err: f64,
}

/// Job facts of a served round (sums; the report divides).
#[derive(Clone, Debug, Default)]
pub struct ServedFacts {
    pub jobs: u64,
    pub cache_hits: u64,
    pub executed: u64,
    pub batch_size_sum: u64,
    pub comm_calls: u64,
    pub retries: u64,
    pub degraded: u64,
    pub refused: u64,
    /// Executed solo jobs: their count, latency, the stage timings the
    /// service reported, and the solo distributed solve time of their shape.
    pub solo_jobs: u64,
    pub solo_latency_s: f64,
    pub solo_timings_s: f64,
    pub solo_direct_s: f64,
}

pub struct Round {
    pub traced: bool,
    pub wall_s: f64,
    /// Seconds the hypervisor withheld a runnable vCPU during the round.
    pub steal_s: f64,
    /// Unit times (one per solve or sweep, one per job).
    pub samples: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub facts: Facts,
    pub ledger: Option<UnitLedger>,
    pub counters: Option<obskit::CounterSnapshot>,
}

impl Round {
    /// A finished round; `Prepared::round` adds the trace-derived parts.
    fn new(wall_s: f64, samples: Vec<f64>, attempted: u64, failed: u64, facts: Facts) -> Round {
        Round {
            traced: false,
            wall_s,
            steal_s: 0.0,
            samples,
            attempted,
            failed,
            facts,
            ledger: None,
            counters: None,
        }
    }
}

/// A workload after set-up, ready to run rounds.
pub struct Prepared {
    kind: Kind,
    seed: u64,
    inner: Inner,
}

enum Inner {
    Si8 {
        structure: Structure,
        grid: Grid,
        last_problem: Option<CasidaProblem>,
    },
    Si64 {
        problem: CasidaProblem,
        golden: Vec<f64>,
        ranks: usize,
        first: Option<Vec<f64>>,
    },
    Ladder {
        problem: CasidaProblem,
        golden: Vec<f64>,
    },
    Served(Box<Served>),
}

struct Served {
    service: Service,
    pool: Vec<Arc<CasidaProblem>>,
    /// Naive energies per pool shape.
    reference: Vec<Vec<f64>>,
    /// Solo `spmd(2, solve_distributed)` seconds per pool shape.
    direct_s: Vec<f64>,
    /// Values the service returned in round 0, by job.
    round0: BTreeMap<Job, Vec<f64>>,
}

/// Flops of one Θ build at `problem`'s shape and rank policy `rank`:
/// `2 N_r N_μ² + N_μ³/3 + 2 N_r N_μ (N_v + N_c)`.
pub fn theta_flops(problem: &CasidaProblem, rank: IsdfRank) -> f64 {
    let n_mu = rank.resolve(problem.n_r(), problem.n_v(), problem.n_c()) as f64;
    let (r, b) = (problem.n_r() as f64, (problem.n_v() + problem.n_c()) as f64);
    2.0 * r * n_mu * n_mu + n_mu.powi(3) / 3.0 + 2.0 * r * n_mu * b
}

fn si8_scf_options(max_iter: usize) -> ScfOptions {
    // The SCF seed stays at its default: the band solver's work swings by
    // +-30 % with the initial guess, which would drown the run-to-run
    // comparison. `--seed` drives the Casida K-Means seed instead.
    ScfOptions {
        n_conduction: 4,
        max_iter,
        density_tol: 1e-5,
        ..Default::default()
    }
}

fn implicit_solver(seed: u64) -> Solver {
    Solver::builder().n_states(N_STATES).seed(seed).build()
}

fn job_solver(job: &Job) -> Solver {
    Solver::builder()
        .n_states(job.n_states)
        .seed(job.kmeans_seed)
        .build()
}

fn solve_distributed_2(solver: &Solver, problem: &CasidaProblem) -> Vec<(Vec<f64>, StageTimings)> {
    parcomm::spmd(2, |c| solver.solve_distributed(c, problem))
}

impl Prepared {
    /// Build inputs and references, start what needs starting, and run one
    /// small warm-up through the same entry points (fills the FFT plan
    /// cache, resolves kernel dispatch, sizes the pack scratch).
    pub fn new(kind: Kind, seed: u64) -> Prepared {
        let inner = match kind {
            Kind::Si8ScfCasida => {
                let structure = silicon_supercell(1);
                let grid = Grid::for_cutoff(structure.cell, 5.0);
                let gs = scf(&grid, &structure, si8_scf_options(1));
                let problem = CasidaProblem::from_ground_state(&grid, &gs);
                Solver::builder()
                    .n_states(SI8_STATES)
                    .seed(seed)
                    .build()
                    .solve(&problem)
                    .ok();
                Inner::Si8 {
                    structure,
                    grid,
                    last_problem: Some(problem),
                }
            }
            Kind::Si64R1 | Kind::Si64R2 => {
                let problem = si64_problem();
                let golden = parse_golden(GOLDEN_SI64);
                let ranks = if kind == Kind::Si64R1 { 1 } else { 2 };
                let warm = Solver::builder()
                    .n_states(N_STATES)
                    .rank(IsdfRank::Fixed(64))
                    .build();
                if ranks == 1 {
                    warm.solve(&problem).ok();
                } else {
                    solve_distributed_2(&warm, &problem);
                }
                Inner::Si64 {
                    problem,
                    golden,
                    ranks,
                    first: None,
                }
            }
            Kind::Table4Ladder => {
                let problem = ladder_problem();
                let golden = parse_golden(GOLDEN_LADDER);
                ladder_solver(Version::ImplicitKmeansIsdfLobpcg, seed)
                    .solve(&problem)
                    .ok();
                Inner::Ladder { problem, golden }
            }
            Kind::ServedStream => {
                let pool = job_pool();
                let reference = pool.iter().map(|p| naive_energies(p, 5)).collect();
                let service = Service::start(ServeConfig {
                    ranks: 2,
                    groups: 1,
                    ..ServeConfig::default()
                });
                // Warm-up jobs: every shape twice, outside any cache key the
                // stream uses.
                let handles: Vec<_> = (0..2 * pool.len())
                    .filter_map(|i| {
                        let solver = Solver::builder()
                            .n_states(3)
                            .seed(u64::MAX - i as u64)
                            .build();
                        let spec = JobSpec::new(0, Arc::clone(&pool[i % pool.len()]));
                        service.submit(spec.with_solver(solver)).ok()
                    })
                    .collect();
                for h in handles {
                    h.wait();
                }
                let direct_s = pool
                    .iter()
                    .map(|p| {
                        let solver = Solver::builder().n_states(3).seed(seed).build();
                        let t = Instant::now();
                        solve_distributed_2(&solver, p);
                        t.elapsed().as_secs_f64()
                    })
                    .collect();
                Inner::Served(Box::new(Served {
                    service,
                    pool,
                    reference,
                    direct_s,
                    round0: BTreeMap::new(),
                }))
            }
        };
        Prepared { kind, seed, inner }
    }

    /// The problem the layer probes take their shapes from.
    pub fn probe_problem(&self) -> &CasidaProblem {
        match &self.inner {
            Inner::Si8 { last_problem, .. } => {
                last_problem.as_ref().expect("set-up leaves a problem")
            }
            Inner::Si64 { problem, .. } | Inner::Ladder { problem, .. } => problem,
            // The largest served shape.
            Inner::Served(s) => s.pool[2].as_ref(),
        }
    }

    /// ISDF rank the workload's solves resolve to.
    pub fn n_mu(&self) -> usize {
        let p = self.probe_problem();
        match self.kind {
            Kind::Table4Ladder => IsdfRank::Fixed(LADDER_RANK),
            _ => IsdfRank::default(),
        }
        .resolve(p.n_r(), p.n_v(), p.n_c())
    }

    /// Run round `index`; with `traced`, record it and return its ledger.
    /// Recording stops where the round's timed part ends (`end_timed`).
    pub fn round(&mut self, index: u64, traced: bool) -> Round {
        if traced {
            obskit::take_trace(); // drop whatever set-up or an untraced round left
            obskit::enable();
        }
        let steal0 = steal_seconds();
        let root = obskit::span(Stage::Other, UNIT_SPAN);
        let mut round = match &mut self.inner {
            Inner::Si8 {
                structure,
                grid,
                last_problem,
            } => si8_round(structure, grid, self.seed, last_problem),
            Inner::Si64 {
                problem,
                golden,
                ranks,
                first,
            } => si64_round(problem, golden, *ranks, self.seed, first),
            Inner::Ladder { problem, golden } => ladder_round(problem, golden, self.seed),
            Inner::Served(s) => served_round(s, self.seed, index),
        };
        drop(root);
        round.steal_s = steal_seconds() - steal0;
        if traced {
            let trace = obskit::take_trace();
            round.ledger = Some(unit_ledger(
                &trace,
                round.wall_s,
                round.samples.len() as f64,
            ));
            round.counters = Some(trace.counters);
        }
        round.traced = traced;
        round
    }

    /// Checks too costly to repeat per unit. Served results against solo
    /// distributed solves of the same jobs: batching, caching and scheduling
    /// must not change a value. With `traced_pass`, also the distributed Si64
    /// result against the serial solve of the same inputs — one more 6 s
    /// solve, which the untraced pass spends on measuring instead. Returns
    /// the units that missed.
    pub fn verify_same_inputs(&self, traced_pass: bool) -> u64 {
        match &self.inner {
            Inner::Si64 {
                problem,
                ranks: 2,
                first: Some(distributed),
                ..
            } if traced_pass => {
                let serial = implicit_solver(self.seed)
                    .solve(problem)
                    .expect("serial solve");
                u64::from(rel_err(distributed, &serial.energies, N_STATES) > SAME_INPUTS_REL_TOL)
            }
            Inner::Served(s) => s
                .round0
                .iter()
                .take(SERVED_SOLO_CHECKS)
                .filter(|(job, values)| {
                    let solo = solve_distributed_2(&job_solver(job), &s.pool[job.shape]);
                    rel_err(values, &solo[0].0, job.n_states) > SAME_INPUTS_REL_TOL
                })
                .count() as u64,
            _ => 0,
        }
    }
}

/// Steal time of the guest so far, summed over its CPUs: the eighth value of
/// the `cpu` line of `/proc/stat`, in `USER_HZ` = 100 ticks per second. 0
/// where the file or the field is missing.
fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Close the timed part of a round. The oracle that follows is not part of
/// the unit, so it must not be recorded either.
fn end_timed(t0: Instant) -> f64 {
    let wall_s = t0.elapsed().as_secs_f64();
    obskit::disable();
    wall_s
}

fn si8_round(
    structure: &Structure,
    grid: &Grid,
    seed: u64,
    last_problem: &mut Option<CasidaProblem>,
) -> Round {
    let t0 = Instant::now();
    let gs = {
        let _s = obskit::span(Stage::Other, "bench.scf");
        scf(grid, structure, si8_scf_options(10))
    };
    let problem = {
        let _s = obskit::span(Stage::Other, "bench.from_ground_state");
        CasidaProblem::from_ground_state(grid, &gs)
    };
    let solution = {
        let _s = obskit::span(Stage::Other, "bench.solve");
        Solver::builder()
            .n_states(SI8_STATES)
            .seed(seed)
            .build()
            .solve(&problem)
    };
    let wall_s = end_timed(t0);

    let reference = naive_energies(&problem, SI8_STATES);
    let mut facts = Facts {
        scf_iterations: gs.iterations as f64,
        scf_residual: gs.residual,
        theta_flops: theta_flops(&problem, IsdfRank::default()),
        ..Default::default()
    };
    let ok = match &solution {
        Ok(s) => {
            facts.recovery_rungs = s.recovery.len() as u64;
            facts.max_rel_err = rel_err(&s.energies, &reference, SI8_STATES);
            s.recovery.is_empty() && facts.max_rel_err <= SI8_REL_TOL
        }
        Err(_) => false,
    };
    *last_problem = Some(problem);
    Round::new(wall_s, vec![wall_s], 1, u64::from(!ok), facts)
}

fn si64_round(
    problem: &CasidaProblem,
    golden: &[f64],
    ranks: usize,
    seed: u64,
    first: &mut Option<Vec<f64>>,
) -> Round {
    let solver = implicit_solver(seed);
    let mut facts = Facts {
        theta_flops: theta_flops(problem, IsdfRank::default()),
        ..Default::default()
    };
    let t0 = Instant::now();
    let (energies, clean) = if ranks == 1 {
        let _s = obskit::span(Stage::Other, "bench.solve");
        match solver.solve(problem) {
            Ok(s) => {
                facts.recovery_rungs = s.recovery.len() as u64;
                (s.energies, s.recovery.is_empty())
            }
            Err(_) => (Vec::new(), false),
        }
    } else {
        let _s = obskit::span(Stage::Other, "bench.solve_distributed");
        let per_rank = solve_distributed_2(&solver, problem);
        // Replicated results must agree bit for bit.
        let agree = per_rank.windows(2).all(|w| {
            w[0].0.len() == w[1].0.len()
                && w[0]
                    .0
                    .iter()
                    .zip(&w[1].0)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        });
        (
            per_rank.into_iter().next().map(|r| r.0).unwrap_or_default(),
            agree,
        )
    };
    let wall_s = end_timed(t0);
    facts.max_rel_err = rel_err(&energies, golden, N_STATES);
    let ok = clean && facts.max_rel_err <= SI_LIKE_REL_TOL;
    first.get_or_insert(energies);
    Round::new(wall_s, vec![wall_s], 1, u64::from(!ok), facts)
}

fn ladder_solver(version: Version, seed: u64) -> Solver {
    Solver::builder()
        .version(version)
        .n_states(N_STATES)
        .rank(IsdfRank::Fixed(LADDER_RANK))
        .seed(seed)
        .build()
}

fn ladder_round(problem: &CasidaProblem, golden: &[f64], seed: u64) -> Round {
    let isdf_versions = Version::all().iter().filter(|v| v.uses_isdf()).count() as f64;
    let mut facts = Facts {
        theta_flops: isdf_versions * theta_flops(problem, IsdfRank::Fixed(LADDER_RANK)),
        ..Default::default()
    };
    let mut failed = 0;
    let t0 = Instant::now();
    for (i, version) in Version::all().into_iter().enumerate() {
        let t = Instant::now();
        let solution = {
            let _s = obskit::span(Stage::Other, "bench.solve");
            ladder_solver(version, seed).solve(problem)
        };
        facts.version_s[i] = t.elapsed().as_secs_f64();
        let ok = match solution {
            Ok(s) => {
                facts.recovery_rungs += s.recovery.len() as u64;
                let err = rel_err(&s.energies, golden, N_STATES);
                facts.max_rel_err = facts.max_rel_err.max(err);
                s.recovery.is_empty() && err <= SI_LIKE_REL_TOL
            }
            Err(_) => false,
        };
        failed += u64::from(!ok);
    }
    let wall_s = end_timed(t0);
    Round::new(
        wall_s,
        vec![wall_s],
        Version::all().len() as u64,
        failed,
        facts,
    )
}

/// One job as a client saw it.
struct JobRecord {
    job: Job,
    latency_s: f64,
    result: Option<served::JobResult>,
    refused: bool,
}

/// `SERVE_CLIENTS` closed-loop clients (one tenant each) draw the round's
/// jobs in order; each submits, waits for its reply, then takes the next.
fn served_round(s: &mut Served, seed: u64, index: u64) -> Round {
    let jobs = jobmix::round_jobs(seed, index);
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let mut records: Vec<JobRecord> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..SERVE_CLIENTS)
            .map(|client| {
                let (jobs, next, s) = (&jobs, &next, &*s);
                scope.spawn(move || {
                    obskit::set_thread_label(&format!("bench client {client}"));
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&job) = jobs.get(i) else { break };
                        let spec = JobSpec::new(client as u64, Arc::clone(&s.pool[job.shape]))
                            .with_solver(job_solver(&job));
                        let t = Instant::now();
                        let _span = obskit::span(Stage::Other, "bench.job");
                        let (result, refused) = match s.service.submit(spec) {
                            Ok(handle) => (handle.wait(), false),
                            Err(_) => (None, true),
                        };
                        mine.push(JobRecord {
                            job,
                            latency_s: t.elapsed().as_secs_f64(),
                            result,
                            refused,
                        });
                    }
                    obskit::flush_thread();
                    mine
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect()
    });
    let wall_s = end_timed(t0);

    let mut facts = Facts::default();
    let pool_flops: Vec<f64> = s
        .pool
        .iter()
        .map(|p| theta_flops(p, IsdfRank::default()))
        .collect();
    let f = &mut facts.served;
    let mut failed = 0;
    records.sort_by_key(|r| r.job); // fixed order for the round-0 map
    for r in &records {
        f.jobs += 1;
        f.refused += u64::from(r.refused);
        let Some(res) = &r.result else {
            failed += 1;
            continue;
        };
        let err = rel_err(&res.values, &s.reference[r.job.shape], r.job.n_states);
        facts.max_rel_err = facts.max_rel_err.max(err);
        let recovered = res.attempts > 1 || res.degraded.is_some() || res.deadline_missed;
        failed += u64::from(recovered || err > SERVED_REL_TOL);
        f.retries += u64::from(res.attempts.saturating_sub(1));
        f.degraded += u64::from(res.degraded.is_some());
        if res.cache_hit {
            f.cache_hits += 1;
        } else {
            f.executed += 1;
            f.batch_size_sum += res.batch_size as u64;
            f.comm_calls += res.comm_calls;
            // A batch builds Θ once for all its jobs.
            facts.theta_flops += pool_flops[r.job.shape] / res.batch_size.max(1) as f64;
            if res.batch_size == 1 {
                f.solo_jobs += 1;
                f.solo_latency_s += r.latency_s;
                f.solo_timings_s += res.timings.total();
                f.solo_direct_s += s.direct_s[r.job.shape];
            }
        }
        if index == 0 {
            s.round0.entry(r.job).or_insert_with(|| res.values.clone());
        }
    }
    let samples = records.iter().map(|r| r.latency_s).collect();
    Round::new(wall_s, samples, records.len() as u64, failed, facts)
}

/// Compute and print the golden files' contents (`--regen-golden`).
pub fn golden_json(problem: &CasidaProblem, label: &str) -> String {
    let energies = naive_energies(problem, N_STATES);
    let list: Vec<String> = energies.iter().map(|e| format!("{e:?}")).collect();
    format!(
        "{{\n  \"problem\": \"{label}\",\n  \"n_r\": {},\n  \"n_cv\": {},\n  \"version\": \"Naive\",\n  \"naive_energies\": [{}]\n}}\n",
        problem.n_r(),
        problem.n_cv(),
        list.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_has_a_spec_row_and_names_round_trip() {
        assert_eq!(Kind::ALL.len(), crate::spec::WORKLOADS.len());
        for (i, kind) in Kind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i);
            assert_eq!(Kind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(Kind::Table4Ladder.name(), "table4_ladder");
        assert_eq!(Kind::from_name("nope"), None);
    }

    #[test]
    fn golden_files_hold_eight_ascending_energies() {
        for text in [GOLDEN_SI64, GOLDEN_LADDER] {
            let e = parse_golden(text);
            assert_eq!(e.len(), N_STATES);
            assert!(e.windows(2).all(|w| w[0] <= w[1]) && e[0] > 0.0);
        }
    }

    #[test]
    fn rel_err_flags_short_and_non_finite_results() {
        let reference = [1.0, 2.0, 4.0];
        assert!((rel_err(&[1.0, 2.0, 4.4], &reference, 3) - 0.1).abs() < 1e-12);
        assert_eq!(rel_err(&[1.0, 2.0], &reference, 3), f64::INFINITY);
        assert_eq!(rel_err(&[1.0, f64::NAN, 4.0], &reference, 3), f64::INFINITY);
        assert_eq!(rel_err(&[1.0, 2.0, 9.0], &reference, 2), 0.0);
    }

    #[test]
    fn theta_flops_follow_the_stated_formula() {
        let p = synthetic_problem([8; 3], 6.0, 2, 2);
        let (r, m, b) = (512.0, 3.0, 4.0);
        let expect = 2.0 * r * m * m + m * m * m / 3.0 + 2.0 * r * m * b;
        assert_eq!(theta_flops(&p, IsdfRank::Fixed(3)), expect);
    }

    #[test]
    fn job_pool_has_one_problem_per_mix_shape() {
        assert_eq!(job_pool().len(), jobmix::POOL);
    }
}
