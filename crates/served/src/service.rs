//! The serving runtime: split communicator groups, group-leader batch
//! dispatch, per-job tenant scoping, and the public [`Service`] front door.
//!
//! Topology: `Service::start` launches one supervisor thread that runs the
//! whole rank pool as an SPMD program. Every rank computes its group color
//! (`rank / group_size`) and calls [`parcomm::Comm::split`] exactly once, so
//! the world communicator partitions into `groups` disjoint solver groups
//! that never synchronize with each other again. Each group's rank 0 is its
//! *leader*: leaders compete for batches from the shared admission queue and
//! publish them to their group through a generation-counted slot; the
//! followers wait on the slot, then the whole group executes the batch in
//! lockstep (the solve's collectives are the synchronization).
//!
//! Resilience: per-job deadlines are enforced at claim time by the
//! scheduler; a failed build is healed by the one clean rebuild of
//! [`lrtddft::Solver::hamiltonian`] — the same build ladder the serial and
//! distributed solves run — and a build that fails past it fails every job
//! of its batch with the typed error; deadline-pressured jobs are downgraded
//! the one rung of the degradation ladder ([`lrtddft::degrade`]:
//! `direct-eig`) — always labeled, never silently. A wedged group needs no
//! handling of its own: every leader pulls from the one shared queue, so its
//! share drains to the other groups.
//!
//! SPMD symmetry: the leader takes the scheduling decisions (deadline
//! expiry, degradation) **before** publishing a batch, and the build ladder
//! decides on replicated data, so every rank of the group climbs it together.
//! The published [`RunJob`] carries the effective per-job options so every
//! rank of the group executes the identical collective sequence.
//!
//! Tenant isolation invariants (tested here and in `tests/serving.rs`):
//!
//! 1. a job's fault plan is installed via [`faultkit::install_scoped`] only
//!    for the duration of its own batch, on exactly the ranks of the group
//!    executing it — a NaN poison or slow-peer comm delay one tenant injects
//!    can never fire inside another tenant's solve;
//! 2. faulted jobs are never co-batched and never touch the result cache
//!    (nor do degraded results);
//! 3. fault-free full-cost results are bitwise identical to a solo
//!    [`lrtddft::Solver::solve_distributed`] run at the same group size,
//!    whatever batching, rebuilds, or scheduling happened around them.

use crate::cache::ResultCache;
use crate::job::{cache_key, AdmissionError, JobCore, JobHandle, JobOutcome, JobResult, JobSpec};
use crate::scheduler::SchedulerState;
use lrtddft::Solver;
use parcomm::{spmd, Comm};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Service topology and policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Total thread-ranks in the world communicator.
    pub ranks: usize,
    /// Disjoint solver groups the world splits into; must divide `ranks`.
    pub groups: usize,
    /// Per-tenant admission quota (max queued jobs).
    pub max_queued_per_tenant: usize,
    /// Global queue capacity.
    pub queue_capacity: usize,
    /// Max same-shape jobs sharing one Hamiltonian build.
    pub max_batch: usize,
    /// Result-cache entry lifetime.
    pub cache_ttl: Duration,
    /// Result-cache entry cap (LRU eviction past this).
    pub cache_capacity: usize,
    /// Deadline pressure window: a job claimed with less than this much
    /// budget remaining is downgraded (degradation ladder) instead of run
    /// at full cost.
    pub pressure_window: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            ranks: 4,
            groups: 2,
            max_queued_per_tenant: 16,
            queue_capacity: 256,
            max_batch: 8,
            cache_ttl: Duration::from_secs(300),
            cache_capacity: 256,
            pressure_window: Duration::from_millis(50),
        }
    }
}

/// One job as the leader published it: the core plus the *effective*
/// solver every rank must use (degraded for pressured claims, its
/// ladder label in `solver.degraded`). It rides in the slot so followers
/// never re-derive — and thus never diverge from — the leader's decision.
#[derive(Clone)]
struct RunJob {
    core: Arc<JobCore>,
    solver: Solver,
}

/// What a group leader publishes to its followers.
#[derive(Clone)]
enum SlotCmd {
    Run(Vec<RunJob>),
    Quit,
}

/// One per group: the leader bumps `generation` and stores the command;
/// followers wait for the bump. The leader can be at most one batch ahead —
/// executing a batch requires collectives, which block until the followers
/// have read the slot and joined — so commands are never lost.
struct GroupSlot {
    slot: Mutex<(u64, Option<SlotCmd>)>,
    cv: Condvar,
}

impl GroupSlot {
    fn new() -> Self {
        GroupSlot { slot: Mutex::new((0, None)), cv: Condvar::new() }
    }

    fn publish(&self, cmd: SlotCmd) -> u64 {
        let mut g = self.slot.lock().unwrap_or_else(|p| p.into_inner());
        g.0 += 1;
        g.1 = Some(cmd);
        let gen = g.0;
        drop(g);
        self.cv.notify_all();
        gen
    }

    fn wait_past(&self, seen: u64) -> (u64, SlotCmd) {
        let mut g = self.slot.lock().unwrap_or_else(|p| p.into_inner());
        while g.0 == seen {
            g = self.cv.wait(g).unwrap_or_else(|p| p.into_inner());
        }
        (g.0, g.1.clone().expect("published slot always carries a command"))
    }
}

/// State shared by every rank of the pool.
struct Shared {
    sched: Arc<SchedulerState>,
    cache: Arc<ResultCache>,
}

/// Multi-tenant solve service. Construct with [`Service::start`], submit
/// work with [`Service::submit`], stop with [`Service::shutdown`] (or just
/// drop it — queued jobs still drain).
pub struct Service {
    sched: Arc<SchedulerState>,
    cache: Arc<ResultCache>,
    supervisor: Option<std::thread::JoinHandle<()>>,
}

impl Service {
    /// Boot the rank pool and start serving. Panics if `groups` does not
    /// evenly divide `ranks`.
    pub fn start(config: ServeConfig) -> Service {
        assert!(config.ranks > 0 && config.groups > 0, "need at least one rank and one group");
        assert_eq!(
            config.ranks % config.groups,
            0,
            "groups ({}) must divide ranks ({})",
            config.groups,
            config.ranks
        );
        let sched = Arc::new(SchedulerState::new(
            config.max_queued_per_tenant,
            config.queue_capacity,
            config.max_batch,
            config.pressure_window,
        ));
        let cache = Arc::new(ResultCache::new(config.cache_ttl, config.cache_capacity));
        let supervisor = {
            let shared = Shared { sched: Arc::clone(&sched), cache: Arc::clone(&cache) };
            std::thread::spawn(move || {
                let slots: Vec<GroupSlot> =
                    (0..config.groups).map(|_| GroupSlot::new()).collect();
                let group_size = config.ranks / config.groups;
                spmd(config.ranks, |world| {
                    worker(world, group_size, &slots, &shared);
                });
            })
        };
        Service { sched, cache, supervisor: Some(supervisor) }
    }

    /// Admit a job. Fault-free jobs whose results are already cached
    /// complete immediately (`cache_hit`, `batch_size == 0`); everything
    /// else is enqueued subject to the tenant quota and queue capacity.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, AdmissionError> {
        let core = JobCore::new(spec);
        let handle = JobHandle { core: Arc::clone(&core) };
        if core.spec.fault.is_none() {
            if let Some(values) = self.cache.get(&cache_key(&core.spec)) {
                core.finish(JobOutcome::Completed(JobResult {
                    values,
                    timings: Default::default(),
                    cache_hit: true,
                    batch_size: 0,
                    comm_calls: 0,
                    fault_events: Vec::new(),
                    attempts: 0,
                    degraded: None,
                    deadline_missed: false,
                }));
                return Ok(handle);
            }
        }
        self.sched.submit(Arc::clone(&core))?;
        Ok(handle)
    }

    /// Stop admitting, drain the queue, and join the rank pool.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.sched.shutdown();
        if let Some(h) = self.supervisor.take() {
            h.join().expect("serving rank pool panicked");
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Per-rank body of the SPMD serving pool.
fn worker(world: &Comm, group_size: usize, slots: &[GroupSlot], shared: &Shared) {
    let color = world.rank() / group_size;
    // Collective over the world communicator — every rank splits exactly
    // once, and the groups never synchronize with each other afterwards.
    let group = world.split(color, world.rank());
    obskit::set_thread_label(&format!("serve g{color} r{}", group.rank()));
    let slot = &slots[color];
    let leader = group.rank() == 0;
    let mut seen = 0u64;
    loop {
        let cmd = if leader {
            let cmd = match shared.sched.next_batch() {
                Some(batch) => SlotCmd::Run(prepare(batch)),
                None => SlotCmd::Quit,
            };
            seen = slot.publish(cmd.clone());
            cmd
        } else {
            let (gen, cmd) = slot.wait_past(seen);
            seen = gen;
            cmd
        };
        match cmd {
            SlotCmd::Run(batch) => execute_batch(&group, &batch, shared),
            SlotCmd::Quit => break,
        }
    }
}

/// Leader-side batch preparation: freeze each job's effective solver.
/// Pressured jobs (always claimed solo) take the one rung of
/// [`lrtddft::degrade`] — it moves `version`, so the build and the finisher
/// are what the label says; a job already at the ladder floor runs at full
/// cost. Everything else runs its spec solver untouched — the clean path must
/// stay bitwise identical.
fn prepare(batch: Vec<Arc<JobCore>>) -> Vec<RunJob> {
    batch
        .into_iter()
        .map(|core| {
            let spec = core.spec.solver;
            let cheaper =
                core.pressured.load(Ordering::Relaxed).then(|| lrtddft::degrade(&spec)).flatten();
            RunJob { core, solver: cheaper.unwrap_or(spec) }
        })
        .collect()
}

/// Run one batch on every rank of a group: the two halves of
/// [`Solver::solve_distributed`] — a single shared [`Solver::hamiltonian`]
/// build, then one [`Solver::eigensolve`] per job. Results are bitwise
/// identical to per-job solo runs because the build is deterministic in the
/// batch key and the eigensolve path is untouched (pinned by
/// `shared_build_eigensolve_bitwise_matches_solo_solve` in `lrtddft`). The
/// leader owns completion and the cache; followers only join the
/// collectives.
fn execute_batch(group: &Comm, batch: &[RunJob], shared: &Shared) {
    let lead = &batch[0];
    let leader = group.rank() == 0;
    // Solo faulted job (the scheduler never co-batches fault plans): arm the
    // tenant's plan on this rank for exactly this batch. For clean batches
    // this *clears* any ambient plan — belt and braces for isolation.
    let _fault_window = faultkit::install_scoped(lead.core.spec.fault.clone());

    group.take_stats(); // discard idle-window stats; build gets a fresh window
    let clock = obskit::StageClock::now();
    // The build ladder's one clean rebuild is the only build retry: a
    // failure past it is decided on replicated data, so every rank skips the
    // eigensolves together and the batch fails with the typed error.
    let mut recovery = Vec::new();
    let ham = match lead.solver.hamiltonian(group, &lead.core.spec.problem, &mut recovery) {
        Ok(ham) => ham,
        Err(e) => {
            if leader {
                for job in batch {
                    job.core.finish(JobOutcome::Failed { error: e.to_string() });
                }
            }
            return;
        }
    };
    // The ladder logs its rebuild as the one `isdf.build:` line.
    let builds = 1 + recovery.iter().filter(|r| r.starts_with("isdf.build:")).count() as u32;
    let build_timings = lrtddft::StageTimings::since(clock);
    let build_stats = group.take_stats();

    for job in batch {
        let clock = obskit::StageClock::now();
        let values = job.solver.eigensolve(group, &ham, &mut recovery).values;
        // The shared build plus this job's own eigensolve.
        let mut timings = build_timings;
        timings.merge(&lrtddft::StageTimings::since(clock));
        let eig_stats = group.take_stats();
        if !leader {
            continue;
        }
        let spec = &job.core.spec;
        // Only clean, full-cost results may populate the cache: the key
        // does not encode fault plans or the degradation ladder.
        if spec.fault.is_none() && job.solver.degraded.is_none() {
            shared.cache.put(cache_key(spec), values.clone());
        }
        let fault_events = spec
            .fault
            .as_ref()
            .map(|h| h.events().iter().map(|e| e.render()).collect())
            .unwrap_or_default();
        job.core.finish(JobOutcome::Completed(JobResult {
            values,
            timings,
            cache_hit: false,
            batch_size: batch.len(),
            comm_calls: build_stats.collective_calls + eig_stats.collective_calls,
            fault_events,
            attempts: builds,
            degraded: job.solver.degraded.map(str::to_owned),
            deadline_missed: job.core.deadline().is_some_and(|d| Instant::now() > d),
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultkit::{FaultKind, FaultPlan};
    use lrtddft::{synthetic_problem, CasidaProblem, Solver};

    fn small_config() -> ServeConfig {
        ServeConfig { ranks: 2, groups: 1, ..Default::default() }
    }

    fn solo_oracle(problem: &Arc<CasidaProblem>, solver: &Solver, ranks: usize) -> Vec<f64> {
        let problem = Arc::clone(problem);
        let solver = *solver;
        spmd(ranks, move |c| solver.solve_distributed(c, &problem).0)[0].clone()
    }

    #[test]
    fn served_results_match_solo_distributed_solve_bitwise() {
        let problem = Arc::new(synthetic_problem([6, 6, 6], 6.0, 2, 2));
        let solver = Solver::builder().n_states(2).seed(11).build();
        let solo = solo_oracle(&problem, &solver, 2);

        let service = Service::start(small_config());
        let h = service
            .submit(JobSpec::new(7, Arc::clone(&problem)).with_solver(solver))
            .unwrap();
        let res = h.wait().expect("job completed");
        assert_eq!(res.values, solo, "served values must be bitwise solo-identical");
        assert!(!res.cache_hit);
        assert_eq!(res.batch_size, 1);
        assert_eq!(res.attempts, 1);
        assert_eq!(res.degraded, None);
        assert!(!res.deadline_missed);
        assert!(res.comm_calls > 0, "eigensolve window should record collectives");
        service.shutdown();
    }

    #[test]
    fn repeat_submission_is_served_from_cache() {
        let problem = Arc::new(synthetic_problem([6, 6, 6], 6.0, 2, 2));
        let service = Service::start(small_config());
        let first = service.submit(JobSpec::new(1, Arc::clone(&problem))).unwrap();
        let cold = first.wait().expect("first run completes");
        assert!(!cold.cache_hit);

        let second = service.submit(JobSpec::new(2, Arc::clone(&problem))).unwrap();
        let warm = second.wait().expect("cache hit carries a result");
        assert!(warm.cache_hit);
        assert_eq!(warm.values, cold.values);
        assert_eq!((warm.batch_size, warm.attempts), (0, 0), "a hit runs no build");
        service.shutdown();
    }

    #[test]
    fn a_naive_job_after_an_isdf_job_is_solved_not_served_from_its_entry() {
        // Same problem, rank, seed and state count; only `version` differs.
        // At rank 3 the ISDF energies are 2 % off the dense ones, so a key
        // that forgot the version would hand back visibly wrong numbers.
        let problem = Arc::new(synthetic_problem([8, 8, 8], 6.0, 2, 2));
        let isdf = Solver::builder().n_states(2).rank(lrtddft::IsdfRank::Fixed(3)).build();
        let naive = isdf.version(lrtddft::Version::Naive);
        let service = Service::start(small_config());
        let submit = |solver| {
            let spec = JobSpec::new(1, Arc::clone(&problem)).with_solver(solver);
            service.submit(spec).unwrap().wait().expect("job completes")
        };
        let first = submit(isdf);
        let second = submit(naive);
        assert!(!second.cache_hit, "a Naive job must not hit an ISDF job's entry");
        assert_eq!(second.values, solo_oracle(&problem, &naive, 2));
        assert!((second.values[0] - first.values[0]).abs() > 1e-3);
        assert!(submit(naive).cache_hit, "its own repeat is a hit");
        service.shutdown();
    }

    #[test]
    fn quota_violations_surface_at_submit() {
        let config = ServeConfig {
            ranks: 2,
            groups: 1,
            max_queued_per_tenant: 1,
            ..Default::default()
        };
        let service = Service::start(config);
        // Distinct seeds defeat both the cache and same-key batching, and
        // enough copies guarantee one is still queued when we overflow.
        let problem = Arc::new(synthetic_problem([6, 6, 6], 6.0, 2, 2));
        let mut handles = Vec::new();
        let mut refused = 0;
        for i in 0..12u64 {
            let spec = JobSpec::new(1, Arc::clone(&problem))
                .with_solver(Solver::builder().seed(1000 + i).build());
            match service.submit(spec) {
                Ok(h) => handles.push(h),
                Err(AdmissionError::TenantQueueFull { tenant, limit }) => {
                    assert_eq!((tenant, limit), (1, 1));
                    refused += 1;
                }
                Err(e) => panic!("unexpected admission error: {e}"),
            }
        }
        assert!(refused > 0, "quota of 1 must refuse at least one of 12 rapid submits");
        for h in handles {
            assert!(h.wait().is_some());
        }
        service.shutdown();
    }

    #[test]
    fn shutdown_drains_admitted_jobs() {
        let problem = Arc::new(synthetic_problem([6, 6, 6], 6.0, 2, 2));
        let service = Service::start(small_config());
        let handles: Vec<_> = (0..3u64)
            .map(|i| {
                let spec = JobSpec::new(i, Arc::clone(&problem))
                    .with_solver(Solver::builder().seed(i).build());
                service.submit(spec).unwrap()
            })
            .collect();
        service.shutdown();
        for h in handles {
            assert!(matches!(h.outcome(), JobOutcome::Completed(_)));
        }
    }

    #[test]
    fn two_groups_serve_disjoint_jobs() {
        let problem = Arc::new(synthetic_problem([6, 6, 6], 6.0, 2, 2));
        let service = Service::start(ServeConfig { ranks: 4, groups: 2, ..Default::default() });
        let solver_a = Solver::builder().seed(1).build();
        let solver_b = Solver::builder().seed(2).build();
        let a = service.submit(JobSpec::new(1, Arc::clone(&problem)).with_solver(solver_a));
        let b = service.submit(JobSpec::new(2, Arc::clone(&problem)).with_solver(solver_b));
        let ra = a.unwrap().wait().expect("job a");
        let rb = b.unwrap().wait().expect("job b");
        // Group size is 2 either way, so solo runs at 2 ranks are the oracle.
        assert_eq!(ra.values, solo_oracle(&problem, &solver_a, 2));
        assert_eq!(rb.values, solo_oracle(&problem, &solver_b, 2));
        service.shutdown();
    }

    #[test]
    fn poisoned_job_is_rebuilt_and_heals_to_bitwise_clean_values() {
        let problem = Arc::new(synthetic_problem([6, 6, 6], 6.0, 2, 2));
        let solver = Solver::builder().n_states(2).seed(5).build();
        let solo = solo_oracle(&problem, &solver, 2);

        let service = Service::start(small_config());
        let spec = JobSpec::new(3, Arc::clone(&problem))
            .with_solver(solver)
            .with_fault_plan(FaultPlan::new(17).with("ham.v_tilde", 0, FaultKind::NanPoison));
        let res = service.submit(spec).unwrap().wait().expect("rebuilt then solved");
        assert_eq!(res.attempts, 2, "poisoned first build, clean rebuild");
        assert_eq!(res.values, solo, "healed result is bitwise solo-identical");
        assert!(!res.fault_events.is_empty(), "the injected fault is on the record");
        assert!(res.values.iter().all(|v| v.is_finite()));
        service.shutdown();
    }

    #[test]
    fn exhausted_retries_fail_terminally() {
        let problem = Arc::new(synthetic_problem([6, 6, 6], 6.0, 2, 2));
        let service = Service::start(small_config());
        // The build and its one clean rebuild are both poisoned.
        let plan = FaultPlan::new(23)
            .with("ham.v_tilde", 0, FaultKind::NanPoison)
            .with("ham.v_tilde", 1, FaultKind::NanPoison);
        let poisoned = JobSpec::new(8, Arc::clone(&problem)).with_fault_plan(plan);
        match service.submit(poisoned).unwrap().outcome() {
            JobOutcome::Failed { error } => {
                // `SolveError::LadderExhausted`, rendered.
                assert!(error.contains("recovery ladder exhausted"), "typed error: {error}");
                assert!(error.contains("non-finite"), "both attempts named: {error}");
            }
            other => panic!("expected terminal failure, got {other:?}"),
        }

        // The failure is the job's, not the tenant's: its next clean job is
        // admitted and solves.
        let next = service.submit(JobSpec::new(8, Arc::clone(&problem))).unwrap();
        let res = next.wait().expect("clean job solves");
        assert!(res.values.iter().all(|v| v.is_finite()));
        assert_eq!(res.attempts, 1);
        service.shutdown();
    }

    #[test]
    fn deadline_pressure_degrades_with_a_label_never_silently() {
        let problem = Arc::new(synthetic_problem([6, 6, 6], 6.0, 2, 2));
        let config = ServeConfig {
            ranks: 2,
            groups: 1,
            // Every deadline under 60s counts as pressure, so the job below
            // is deterministically pressured but never expired.
            pressure_window: Duration::from_secs(60),
            ..Default::default()
        };
        let service = Service::start(config);
        let spec = JobSpec::new(4, Arc::clone(&problem))
            .with_solver(Solver::builder().n_states(2).build())
            .with_deadline(Duration::from_secs(30));
        let res = service.submit(spec).unwrap().wait().expect("degraded job completes");
        assert_eq!(res.degraded.as_deref(), Some("direct-eig"), "downgrade must be labeled");
        assert!(res.values.iter().all(|v| v.is_finite()));
        assert_eq!(res.batch_size, 1, "pressured jobs run solo");

        // Degraded results never populate the cache: a repeat clean submit
        // at the same key must be a miss (fresh full-cost solve).
        let clean = JobSpec::new(5, Arc::clone(&problem))
            .with_solver(Solver::builder().n_states(2).build());
        let clean_res = service.submit(clean).unwrap().wait().expect("clean job");
        assert!(!clean_res.cache_hit, "degraded result must not have seeded the cache");
        assert_eq!(clean_res.degraded, None);
        service.shutdown();
    }

    #[test]
    fn expired_deadline_yields_typed_outcome_through_the_service() {
        let problem = Arc::new(synthetic_problem([6, 6, 6], 6.0, 2, 2));
        let service = Service::start(small_config());
        let h = service
            .submit(
                JobSpec::new(6, Arc::clone(&problem))
                    .with_solver(Solver::builder().seed(777).build())
                    .with_deadline(Duration::ZERO),
            )
            .unwrap();
        match h.outcome() {
            JobOutcome::DeadlineExceeded { .. } => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        service.shutdown();
    }

    #[test]
    fn survivors_keep_serving_while_one_group_is_stalled() {
        let problem = Arc::new(synthetic_problem([6, 6, 6], 6.0, 2, 2));
        let service = Service::start(ServeConfig { ranks: 4, groups: 2, ..Default::default() });
        // One job slows its group inside the solve (a 100 ms comm delay);
        // clean jobs from other tenants keep flowing through the surviving
        // group via the shared queue.
        let slow = JobSpec::new(1, Arc::clone(&problem)).with_fault_plan(
            FaultPlan::new(31).with("comm.allreduce", 0, FaultKind::CommDelay { micros: 100_000 }),
        );
        let slow_h = service.submit(slow).unwrap();
        let clean: Vec<_> = (0..4u64)
            .map(|i| {
                service
                    .submit(
                        JobSpec::new(10 + i, Arc::clone(&problem))
                            .with_solver(Solver::builder().seed(i).build()),
                    )
                    .unwrap()
            })
            .collect();
        for h in clean {
            let res = h.wait().expect("survivor group drains the queue");
            assert!(res.values.iter().all(|v| v.is_finite()));
        }
        let slow_res = slow_h.wait().expect("stalled job still finishes");
        assert!(slow_res.values.iter().all(|v| v.is_finite()));
        service.shutdown();
    }
}
