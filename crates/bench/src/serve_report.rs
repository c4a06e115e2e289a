//! `repro serve-report` — throughput, latency, and tenant-isolation gates
//! for the `served` multi-tenant scheduler, written to `BENCH_serve.json`.
//!
//! Four measurements, all on a 4-rank / 2-group service (the smallest
//! topology where two solver groups genuinely run side by side):
//!
//! 1. **Mixed-tenant workload** — ≥ 32 jobs from four tenants over three
//!    problem structures with varied seeds and state counts, submitted from
//!    one client thread per job. Reports throughput (jobs/s) and the
//!    client-observed p50/p99 latency, plus how much batching and caching
//!    the scheduler found in the mix.
//! 2. **Batched vs. unbatched same-shape throughput** — the same stream of
//!    same-shape jobs pushed through two identically configured services,
//!    one with `max_batch = 1` (every job pays its own Hamiltonian build)
//!    and one with batching on (the build is shared per batch). The result
//!    cache is disabled (zero TTL) on both sides so the comparison isolates
//!    batching. `--check` gates batched ≥ 1.3× unbatched throughput.
//! 3. **Cache-hit latency** — a cold solve vs. repeat submissions of the
//!    identical spec, which complete at admission from the result cache.
//!    `--check` gates hits ≥ 10× faster than the cold solve.
//! 4. **Fault-isolation campaign** — for each fault kind (NaN poison on the
//!    distributed build, +Inf poison, and a comm-delay "rank stall"), an
//!    attacker tenant carrying the fault plan is co-scheduled with clean
//!    victim jobs of the *same structure*. Every victim's eigenvalues must
//!    be bitwise identical to a fault-free solo `Solver::solve_distributed`
//!    run at the same group size, and every injected fault must actually
//!    fire inside the attacker's window. `--check` gates on zero
//!    cross-tenant contaminations and zero unfired plans.

use crate::report::{json, quantile};
use faultkit::{FaultKind, FaultPlan};
use lrtddft::{synthetic_problem, CasidaProblem, Solver};
use parcomm::spmd;
use served::{JobSpec, ServeConfig, Service};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// World size of every service in this report.
const RANKS: usize = 4;
/// Solver groups the world splits into (group size = 2).
const GROUPS: usize = 2;
/// `--check` gate: batched same-shape throughput over unbatched.
const BATCH_SPEEDUP_GATE: f64 = 1.3;
/// `--check` gate: cold-solve latency over cache-hit latency.
const CACHE_SPEEDUP_GATE: f64 = 10.0;

struct Workload {
    grid: [usize; 3],
    box_len: f64,
    n_v: usize,
    n_c: usize,
    /// Mixed-workload job count (acceptance floor: 32).
    mixed_jobs: usize,
    /// Same-shape stream length for the batching comparison.
    stream_jobs: usize,
}

fn workload(quick: bool) -> Workload {
    if quick {
        Workload { grid: [8, 8, 8], box_len: 6.0, n_v: 2, n_c: 2, mixed_jobs: 32, stream_jobs: 16 }
    } else {
        Workload {
            grid: [10, 10, 10],
            box_len: 8.0,
            n_v: 3,
            n_c: 3,
            mixed_jobs: 48,
            stream_jobs: 24,
        }
    }
}

fn config() -> ServeConfig {
    ServeConfig { ranks: RANKS, groups: GROUPS, ..Default::default() }
}

// ---- 1. mixed-tenant workload ----------------------------------------------

struct MixedResult {
    jobs: usize,
    wall_s: f64,
    throughput: f64,
    p50_s: f64,
    p99_s: f64,
    cache_hits: usize,
    /// Mean batch size over the jobs that ran on a solver group.
    mean_batch: f64,
}

/// Four tenants, three structures, varied seeds and state counts: enough
/// diversity that the scheduler sees batchable twins, cacheable repeats,
/// and singletons in one stream. One client thread per job measures the
/// submit→result latency the tenant actually observes.
fn mixed_workload(w: &Workload) -> MixedResult {
    let structures: Vec<Arc<CasidaProblem>> = (0..3)
        .map(|i| Arc::new(synthetic_problem(w.grid, w.box_len, w.n_v, w.n_c + i)))
        .collect();
    let service = Service::start(config());
    let n = w.mixed_jobs;
    let t0 = Instant::now();
    let mut outcomes: Vec<(f64, served::JobResult)> = Vec::with_capacity(n);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let problem = Arc::clone(&structures[i % structures.len()]);
                let service = &service;
                s.spawn(move || {
                    let solver = Solver::builder()
                        .seed(0x5eed + (i / 8) as u64)
                        .n_states(2 + i % 2)
                        .build();
                    let spec = JobSpec::new(1 + (i % 4) as u64, problem).with_solver(solver);
                    let start = Instant::now();
                    let handle = service.submit(spec).expect("mixed workload fits the quotas");
                    let result = handle.wait().expect("job completed");
                    (start.elapsed().as_secs_f64(), result)
                })
            })
            .collect();
        for h in handles {
            outcomes.push(h.join().expect("client thread"));
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    service.shutdown();

    let mut lat: Vec<f64> = outcomes.iter().map(|(l, _)| *l).collect();
    lat.sort_by(f64::total_cmp);
    let cache_hits = outcomes.iter().filter(|(_, r)| r.cache_hit).count();
    let ran: Vec<usize> =
        outcomes.iter().filter(|(_, r)| !r.cache_hit).map(|(_, r)| r.batch_size).collect();
    MixedResult {
        jobs: n,
        wall_s,
        throughput: n as f64 / wall_s,
        p50_s: quantile(&lat, 0.50),
        p99_s: quantile(&lat, 0.99),
        cache_hits,
        mean_batch: ran.iter().sum::<usize>() as f64 / ran.len().max(1) as f64,
    }
}

// ---- 2. batched vs. unbatched same-shape throughput -------------------------

/// Push `n` identical-shape jobs through a service with the given batch cap
/// and return (wall seconds, mean batch size). Zero cache TTL keeps every
/// job on a solver group, so the only variable is how many jobs share one
/// Hamiltonian build. A warm-up job runs first so pool boot (thread spawn,
/// communicator split) is not billed to either side.
fn same_shape_wall(problem: &Arc<CasidaProblem>, n: usize, max_batch: usize) -> (f64, f64) {
    let service = Service::start(ServeConfig {
        max_batch,
        cache_ttl: Duration::ZERO,
        ..config()
    });
    let spec = |tenant: u64| JobSpec::new(tenant, Arc::clone(problem));
    service.submit(spec(0)).expect("warm-up").wait().expect("warm-up completes");

    let t0 = Instant::now();
    let handles: Vec<_> =
        (0..n).map(|i| service.submit(spec(1 + i as u64)).expect("admitted")).collect();
    let results: Vec<_> = handles.iter().map(|h| h.wait().expect("completed")).collect();
    let wall = t0.elapsed().as_secs_f64();
    service.shutdown();
    let mean_batch =
        results.iter().map(|r| r.batch_size).sum::<usize>() as f64 / results.len() as f64;
    (wall, mean_batch)
}

// ---- 3. cache-hit latency ----------------------------------------------------

struct CacheResult {
    cold_s: f64,
    warm_s: f64,
    speedup: f64,
}

fn cache_latency() -> CacheResult {
    // A hit costs the same whatever the problem size, so measure against a
    // realistically sized cold solve — the quick workload's sub-millisecond
    // problems would understate what the cache buys.
    let problem = Arc::new(synthetic_problem([12, 12, 12], 8.0, 4, 4));
    let service = Service::start(config());
    let spec = || JobSpec::new(7, Arc::clone(&problem));
    // Boot warm-up on a different seed so the cold measurement below still
    // misses the cache.
    let boot = JobSpec::new(7, Arc::clone(&problem))
        .with_solver(Solver::builder().seed(0xb007).build());
    service.submit(boot).expect("warm-up").wait().expect("warm-up completes");

    let t0 = Instant::now();
    let cold = service.submit(spec()).expect("cold").wait().expect("cold completes");
    let cold_s = t0.elapsed().as_secs_f64();
    assert!(!cold.cache_hit, "first submission must miss the cache");

    // Median of five repeats — sub-microsecond timings are noisy.
    let mut warm: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let hit = service.submit(spec()).expect("warm").wait().expect("warm completes");
            assert!(hit.cache_hit, "repeat submission must hit the cache");
            t0.elapsed().as_secs_f64()
        })
        .collect();
    warm.sort_by(f64::total_cmp);
    let warm_s = warm[warm.len() / 2];
    service.shutdown();
    CacheResult { cold_s, warm_s, speedup: cold_s / warm_s.max(1e-9) }
}

// ---- 4. fault-isolation campaign ---------------------------------------------

struct FaultCase {
    name: &'static str,
    plan: FaultPlan,
}

fn fault_cases() -> Vec<FaultCase> {
    vec![
        FaultCase {
            name: "nan-poison build",
            plan: FaultPlan::new(0xbad).with("ham.v_tilde", 0, FaultKind::NanPoison),
        },
        FaultCase {
            name: "inf-poison build",
            plan: FaultPlan::new(0xbad).with("ham.v_tilde", 0, FaultKind::InfPoison),
        },
        FaultCase {
            // A "rank stall": the attacker's first collective of each
            // request flavour shows its contribution late on every rank.
            name: "comm-delay stall",
            plan: FaultPlan::new(0xbad)
                .with("comm.ireduce", 0, FaultKind::CommDelay { micros: 2000 })
                .with("comm.iallreduce", 0, FaultKind::CommDelay { micros: 2000 }),
        },
    ]
}

struct FaultTrial {
    name: &'static str,
    fault_fired: bool,
    victims_bitwise: bool,
    attacker_events: Vec<String>,
}

/// One attacker (fault plan armed) co-scheduled with three same-structure
/// victims on a fresh service. The victims' eigenvalues are compared
/// bitwise against a fault-free solo run at the same group size — the
/// strongest isolation statement the simulated runtime can make.
fn fault_trial(case: FaultCase, problem: &Arc<CasidaProblem>, oracle: &[f64]) -> FaultTrial {
    let service = Service::start(config());
    let victim = || JobSpec::new(1, Arc::clone(problem));
    let attacker = JobSpec::new(666, Arc::clone(problem)).with_fault_plan(case.plan);

    // Interleave so the attacker genuinely shares the service (and possibly
    // a group's back-to-back schedule) with victim work.
    let v1 = service.submit(victim()).expect("victim 1");
    let a = service.submit(attacker).expect("attacker");
    let v2 = service.submit(victim()).expect("victim 2");
    let v3 = service.submit(victim()).expect("victim 3");

    let ra = a.wait().expect("attacker completes");
    let victims = [v1.wait(), v2.wait(), v3.wait()];
    service.shutdown();

    let victims_bitwise = victims.iter().all(|r| {
        let r = r.as_ref().expect("victim completes");
        r.values.len() == oracle.len()
            && r.values.iter().zip(oracle).all(|(a, b)| a.to_bits() == b.to_bits())
    });
    FaultTrial {
        name: case.name,
        fault_fired: !ra.fault_events.is_empty(),
        victims_bitwise,
        attacker_events: ra.fault_events,
    }
}

pub fn run(out_dir: &Path, quick: bool, check: bool) -> std::io::Result<()> {
    let w = workload(quick);
    println!(
        "serve-report: {} ranks / {} groups, grid {:?}, N_v={} N_c={}",
        RANKS, GROUPS, w.grid, w.n_v, w.n_c
    );

    // ---- mixed-tenant workload -------------------------------------------
    let mixed = mixed_workload(&w);
    crate::report::print_table(
        &["jobs", "wall (s)", "jobs/s", "p50 (ms)", "p99 (ms)", "cache hits", "mean batch"],
        &[vec![
            mixed.jobs.to_string(),
            format!("{:.3}", mixed.wall_s),
            format!("{:.1}", mixed.throughput),
            format!("{:.3}", mixed.p50_s * 1e3),
            format!("{:.3}", mixed.p99_s * 1e3),
            mixed.cache_hits.to_string(),
            format!("{:.2}", mixed.mean_batch),
        ]],
    );

    // ---- batched vs. unbatched ---------------------------------------------
    let stream_problem = Arc::new(synthetic_problem(w.grid, w.box_len, w.n_v, w.n_c));
    let (unbatched_s, unbatched_mean) = same_shape_wall(&stream_problem, w.stream_jobs, 1);
    let (batched_s, batched_mean) = same_shape_wall(&stream_problem, w.stream_jobs, 8);
    let batch_speedup = unbatched_s / batched_s;
    crate::report::print_table(
        &["schedule", "jobs", "wall (s)", "jobs/s", "mean batch"],
        &[
            vec![
                "unbatched (max_batch=1)".into(),
                w.stream_jobs.to_string(),
                format!("{unbatched_s:.3}"),
                format!("{:.1}", w.stream_jobs as f64 / unbatched_s),
                format!("{unbatched_mean:.2}"),
            ],
            vec![
                "batched (max_batch=8)".into(),
                w.stream_jobs.to_string(),
                format!("{batched_s:.3}"),
                format!("{:.1}", w.stream_jobs as f64 / batched_s),
                format!("{batched_mean:.2}"),
            ],
        ],
    );
    println!("same-shape batching speedup: {batch_speedup:.2}x (gate ≥ {BATCH_SPEEDUP_GATE}x)");

    // ---- cache-hit latency --------------------------------------------------
    let cache = cache_latency();
    println!(
        "cache: cold {:.3} ms, hit {:.6} ms, speedup {:.0}x (gate ≥ {CACHE_SPEEDUP_GATE}x)",
        cache.cold_s * 1e3,
        cache.warm_s * 1e3,
        cache.speedup
    );

    // ---- fault-isolation campaign -------------------------------------------
    // Fault-free oracle at the group size: what every victim must reproduce
    // bit for bit, whatever the attacker injects next to them.
    let victim_solver = JobSpec::new(1, Arc::clone(&stream_problem)).solver;
    let oracle =
        spmd(RANKS / GROUPS, |c| victim_solver.solve_distributed(c, &stream_problem).0)[0].clone();
    let trials: Vec<FaultTrial> =
        fault_cases().into_iter().map(|case| fault_trial(case, &stream_problem, &oracle)).collect();
    let rows: Vec<Vec<String>> = trials
        .iter()
        .map(|t| {
            vec![
                t.name.to_string(),
                if t.fault_fired { "yes" } else { "NO" }.to_string(),
                if t.victims_bitwise { "bitwise" } else { "CONTAMINATED" }.to_string(),
                t.attacker_events.len().to_string(),
            ]
        })
        .collect();
    crate::report::print_table(&["fault", "fired", "victims (3 each)", "events"], &rows);
    let contaminations = trials.iter().filter(|t| !t.victims_bitwise).count();
    let unfired = trials.iter().filter(|t| !t.fault_fired).count();
    println!(
        "fault campaign: {} trials, {contaminations} cross-tenant contaminations, \
         {unfired} unfired plans",
        trials.len()
    );

    // ---- BENCH_serve.json ----------------------------------------------------
    let trial_entries: Vec<String> = trials
        .iter()
        .map(|t| {
            format!(
                "    {{\"fault\": {}, \"fired\": {}, \"victims_bitwise\": {}, \"events\": {}}}",
                json::string(t.name),
                t.fault_fired,
                t.victims_bitwise,
                json::string_array(&t.attacker_events)
            )
        })
        .collect();
    let json_text = format!(
        "{{\n  \"benchmark\": \"serve-report\",\n  \"config\": {{\"ranks\": {RANKS}, \
         \"groups\": {GROUPS}, \"grid\": [{}, {}, {}], \"n_v\": {}, \"n_c\": {}}},\n  \
         \"mixed_workload\": {{\"jobs\": {}, \"wall_s\": {}, \"throughput_jobs_per_s\": {}, \
         \"p50_s\": {}, \"p99_s\": {}, \"cache_hits\": {}, \"mean_batch_size\": {}}},\n  \
         \"batching\": {{\"jobs\": {}, \"unbatched_wall_s\": {}, \"batched_wall_s\": {}, \
         \"unbatched_mean_batch\": {}, \"batched_mean_batch\": {}, \"speedup\": {}}},\n  \
         \"cache\": {{\"cold_s\": {}, \"hit_s\": {}, \"speedup\": {}}},\n  \
         \"fault_isolation\": {{\"contaminations\": {}, \"unfired\": {}, \"trials\": [\n{}\n  ]}}\n}}\n",
        w.grid[0],
        w.grid[1],
        w.grid[2],
        w.n_v,
        w.n_c,
        mixed.jobs,
        json::number(mixed.wall_s),
        json::number(mixed.throughput),
        json::number(mixed.p50_s),
        json::number(mixed.p99_s),
        mixed.cache_hits,
        json::number(mixed.mean_batch),
        w.stream_jobs,
        json::number(unbatched_s),
        json::number(batched_s),
        json::number(unbatched_mean),
        json::number(batched_mean),
        json::number(batch_speedup),
        json::number(cache.cold_s),
        json::number(cache.warm_s),
        json::number(cache.speedup),
        contaminations,
        unfired,
        trial_entries.join(",\n")
    );
    std::fs::create_dir_all(out_dir)?;
    let path = out_dir.join("BENCH_serve.json");
    let mut f = std::fs::File::create(&path)?;
    f.write_all(json_text.as_bytes())?;
    println!("wrote {}", path.display());

    if check {
        let mut failures = Vec::new();
        if batch_speedup < BATCH_SPEEDUP_GATE {
            failures.push(format!(
                "same-shape batching speedup {batch_speedup:.2}x below gate \
                 {BATCH_SPEEDUP_GATE}x ({unbatched_s:.3}s unbatched vs {batched_s:.3}s batched)"
            ));
        }
        if cache.speedup < CACHE_SPEEDUP_GATE {
            failures.push(format!(
                "cache-hit speedup {:.1}x below gate {CACHE_SPEEDUP_GATE}x \
                 (cold {:.6}s vs hit {:.6}s)",
                cache.speedup, cache.cold_s, cache.warm_s
            ));
        }
        if contaminations > 0 {
            failures.push(format!(
                "{contaminations} fault trial(s) contaminated a co-scheduled tenant \
                 (victim eigenvalues diverged from the fault-free solo run)"
            ));
        }
        if unfired > 0 {
            failures.push(format!(
                "{unfired} fault plan(s) never fired — the campaign proved nothing"
            ));
        }
        if failures.is_empty() {
            println!("serve-report --check: all gates passed");
        } else {
            for f in &failures {
                eprintln!("serve-report --check FAILED: {f}");
            }
            std::process::exit(1);
        }
    }
    Ok(())
}
