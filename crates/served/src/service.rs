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
//! scheduler; recoverable failures are re-queued as fresh solo jobs under a
//! seeded exponential backoff until the attempt budget runs out; terminal
//! failures feed per-tenant circuit breakers that shed load at admission;
//! and deadline-pressured jobs and breaker probes are downgraded the one rung
//! of the degradation ladder ([`lrtddft::degrade`]: `direct-eig`) — always
//! labeled, never silently. A wedged group needs no handling of its own:
//! every leader pulls from the one shared queue, so its share drains to the
//! other groups.
//!
//! SPMD symmetry: all resilience *decisions* (deadline expiry, degradation,
//! retry, breaker transitions) are taken by the leader **before** publishing
//! a batch or after the batch's collectives complete — never divergently in
//! the middle of a solve. The published [`RunJob`] carries the effective
//! per-job options so every rank of the group executes the identical
//! collective sequence.
//!
//! Tenant isolation invariants (tested here and in `tests/serving.rs`):
//!
//! 1. a job's fault plan is installed via [`faultkit::install_scoped`] only
//!    for the duration of its own batch, on exactly the ranks of the group
//!    executing it — a NaN poison or rank stall one tenant injects can never
//!    fire inside another tenant's solve;
//! 2. faulted jobs are never co-batched and never touch the result cache
//!    (nor do degraded results or breaker probes);
//! 3. fault-free full-cost results are bitwise identical to a solo
//!    [`lrtddft::Solver::solve_distributed`] run at the same group size,
//!    whatever batching, retries, or scheduling happened around them.

use crate::cache::{CacheStats, ResultCache};
use crate::job::{cache_key, AdmissionError, JobCore, JobHandle, JobResult, JobSpec};
use crate::resilience::{retry_delay, Admit, Breakers, ResilienceConfig};
use crate::scheduler::SchedulerState;
use lrtddft::{NumericalError, SolveError, Solver};
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
    /// Retry/breaker/deadline policy.
    pub resilience: ResilienceConfig,
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
            resilience: ResilienceConfig::default(),
        }
    }
}

/// One job as the leader published it: the core plus the *effective*
/// solver every rank must use (degraded for pressured/probe claims, its
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
    breakers: Arc<Breakers>,
    resilience: ResilienceConfig,
}

/// Multi-tenant solve service. Construct with [`Service::start`], submit
/// work with [`Service::submit`], stop with [`Service::shutdown`] (or just
/// drop it — queued jobs still drain).
pub struct Service {
    config: ServeConfig,
    sched: Arc<SchedulerState>,
    cache: Arc<ResultCache>,
    breakers: Arc<Breakers>,
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
            config.resilience.pressure_window,
        ));
        let cache = Arc::new(ResultCache::new(config.cache_ttl, config.cache_capacity));
        let breakers = Arc::new(Breakers::new(&config.resilience));
        let supervisor = {
            let shared = Shared {
                sched: Arc::clone(&sched),
                cache: Arc::clone(&cache),
                breakers: Arc::clone(&breakers),
                resilience: config.resilience,
            };
            std::thread::spawn(move || {
                let slots: Vec<GroupSlot> =
                    (0..config.groups).map(|_| GroupSlot::new()).collect();
                let group_size = config.ranks / config.groups;
                spmd(config.ranks, |world| {
                    worker(world, group_size, &slots, &shared);
                });
            })
        };
        Service { config, sched, cache, breakers, supervisor: Some(supervisor) }
    }

    /// Admit a job. The tenant's circuit breaker is consulted first (an
    /// open breaker sheds the job with [`AdmissionError::CircuitOpen`]; a
    /// half-open one admits it as the probe). Fault-free jobs whose results
    /// are already cached complete immediately (`cache_hit`,
    /// `batch_size == 0`); everything else is enqueued subject to the
    /// tenant quota and queue capacity.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, AdmissionError> {
        let core = JobCore::new(spec);
        let handle = JobHandle { core: Arc::clone(&core), queue: Arc::clone(&self.sched) };
        let tenant = core.spec.tenant;
        match self.breakers.admit(tenant) {
            Ok(Admit::Normal) => {
                if core.spec.fault.is_none() {
                    if let Some(values) = self.cache.get(&cache_key(&core.spec)) {
                        core.complete(JobResult {
                            values,
                            timings: Default::default(),
                            cache_hit: true,
                            batch_size: 0,
                            comm_calls: 0,
                            fault_events: Vec::new(),
                            attempts: 0,
                            degraded: None,
                            deadline_missed: false,
                        });
                        return Ok(handle);
                    }
                }
            }
            // Probes bypass the cache (a probe must exercise a real solve)
            // and run solo.
            Ok(Admit::Probe) => core.probe.store(true, Ordering::Relaxed),
            Err(failures) => return Err(AdmissionError::CircuitOpen { tenant, failures }),
        }
        if let Err(e) = self.sched.submit(Arc::clone(&core)) {
            if core.probe.load(Ordering::Relaxed) {
                // The probe never made it into the queue; rewind the breaker
                // so the next admission attempt becomes the probe instead of
                // shedding forever.
                self.breakers.abort_probe(tenant);
            }
            return Err(e);
        }
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

    /// Result-cache hit/miss/entry/eviction counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Jobs currently queued (all tenants).
    pub fn queued_len(&self) -> usize {
        self.sched.queued_len()
    }

    /// Jobs currently queued for one tenant (counts against its quota).
    pub fn queued_for(&self, tenant: crate::job::TenantId) -> usize {
        self.sched.queued_for(tenant)
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Ranks per solver group.
    pub fn group_size(&self) -> usize {
        self.config.ranks / self.config.groups
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
/// Pressured and probe jobs (always claimed solo) take the one rung of
/// [`lrtddft::degrade`] — it moves `version`, so the build and the finisher
/// are what the label says; a job already at the ladder floor runs at full
/// cost. Everything else runs its spec solver untouched — the clean path must
/// stay bitwise identical.
fn prepare(batch: Vec<Arc<JobCore>>) -> Vec<RunJob> {
    batch
        .into_iter()
        .map(|core| {
            let spec = core.spec.solver;
            let cheaper = (core.pressured.load(Ordering::Relaxed)
                || core.probe.load(Ordering::Relaxed))
            .then(|| lrtddft::degrade(&spec))
            .flatten();
            RunJob { core, solver: cheaper.unwrap_or(spec) }
        })
        .collect()
}

/// Run one batch on every rank of a group: the two halves of
/// [`Solver::solve_distributed`] — a single shared [`Solver::hamiltonian`]
/// build, then one [`Solver::eigensolve`] per job. Results are bitwise
/// identical to per-job solo runs because the build is deterministic in the
/// batch key and the eigensolve path is untouched (pinned by
/// `shared_build_eigensolve_bitwise_matches_solo_solve` in `lrtddft`).
fn execute_batch(group: &Comm, batch: &[RunJob], shared: &Shared) {
    let lead = &batch[0];
    // Solo faulted job (the scheduler never co-batches fault plans): arm the
    // tenant's plan on this rank for exactly this batch. For clean batches
    // this *clears* any ambient plan — belt and braces for isolation.
    let _fault_window = faultkit::install_scoped(lead.core.spec.fault.clone());
    obskit::set_tenant(Some(lead.core.spec.tenant));

    group.take_stats(); // discard idle-window stats; build gets a fresh window
    let clock = obskit::StageClock::now();
    // The build half, without the solver's rebuild ladder: this service's
    // retry/breaker policy owns failures. A build error is decided on
    // replicated data, so all ranks agree to skip the eigensolve (dense
    // fallbacks on NaN do not terminate) and fail the job.
    let built = lead.solver.hamiltonian(group, &lead.core.spec.problem, &mut Vec::new());
    let build_timings = lrtddft::StageTimings::since(clock);
    let build_stats = group.take_stats();

    for job in batch {
        let spec = &job.core.spec;
        obskit::set_tenant(Some(spec.tenant));
        let clock = obskit::StageClock::now();
        let values = match &built {
            Ok(ham) => job.solver.eigensolve(group, ham),
            Err(_) => vec![f64::NAN; job.solver.n_states.min(spec.problem.n_cv())],
        };
        // The shared build plus this job's own eigensolve.
        let mut timings = build_timings;
        timings.merge(&lrtddft::StageTimings::since(clock));
        let eig_stats = group.take_stats();
        if group.rank() == 0 {
            let comm_calls = build_stats.collective_calls + eig_stats.collective_calls;
            finish_job(job, values, timings, batch.len(), comm_calls, shared);
        }
        // Followers only participate in the collectives; the leader owns
        // completion, retry, breaker, and cache decisions.
    }
    obskit::set_tenant(None);
}

/// Leader-only terminal/retry decision for one executed job. A non-finite
/// result with attempt budget left re-queues the job as a fresh solo entry
/// under seeded exponential backoff; without budget it fails terminally and
/// feeds the tenant's breaker. A finite result completes the job — with its
/// retry count, degrade label, and deadline verdict on the record.
fn finish_job(
    job: &RunJob,
    values: Vec<f64>,
    timings: lrtddft::StageTimings,
    batch_size: usize,
    comm_calls: u64,
    shared: &Shared,
) {
    let core = &job.core;
    let spec = &core.spec;
    let tenant = spec.tenant;
    let attempts = core.attempts();
    if values.iter().all(|v| v.is_finite()) {
        shared.breakers.record_success(tenant);
        let deadline_missed = core.deadline().is_some_and(|d| Instant::now() > d);
        // Only clean, full-cost results may populate the cache: the key
        // does not encode fault plans or the degradation ladder, and probes
        // must keep exercising real solves.
        if spec.fault.is_none()
            && job.solver.degraded.is_none()
            && !core.probe.load(Ordering::Relaxed)
        {
            shared.cache.put(cache_key(spec), values.clone());
        }
        let fault_events = spec
            .fault
            .as_ref()
            .map(|h| h.events().iter().map(|e| e.render()).collect())
            .unwrap_or_default();
        core.complete(JobResult {
            values,
            timings,
            cache_hit: false,
            batch_size,
            comm_calls,
            fault_events,
            attempts,
            degraded: job.solver.degraded.map(str::to_owned),
            deadline_missed,
        });
    } else if attempts < shared.resilience.retry_max_attempts.max(1) {
        shared
            .sched
            .requeue(Arc::clone(core), retry_delay(&shared.resilience, tenant, attempts));
    } else {
        let err: SolveError = NumericalError::NonFinite {
            site: format!("serve.solve attempt {attempts}"),
            index: 0,
        }
        .into();
        shared.breakers.record_failure(tenant);
        core.fail(err.to_string(), false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobOutcome, JobStatus};
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
        assert_eq!(second.status(), JobStatus::Completed, "hit completes at submit");
        let warm = second.wait().expect("cache hit carries a result");
        assert!(warm.cache_hit);
        assert_eq!(warm.values, cold.values);
        assert_eq!(warm.batch_size, 0);
        let stats = service.cache_stats();
        assert!(stats.hits >= 1 && stats.entries >= 1);
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
            assert_eq!(h.status(), JobStatus::Completed);
        }
    }

    #[test]
    fn two_groups_serve_disjoint_jobs() {
        let problem = Arc::new(synthetic_problem([6, 6, 6], 6.0, 2, 2));
        let service = Service::start(ServeConfig { ranks: 4, groups: 2, ..Default::default() });
        assert_eq!(service.group_size(), 2);
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
    fn poisoned_job_is_retried_and_heals_to_bitwise_clean_values() {
        let problem = Arc::new(synthetic_problem([6, 6, 6], 6.0, 2, 2));
        let solver = Solver::builder().n_states(2).seed(5).build();
        let solo = solo_oracle(&problem, &solver, 2);

        let service = Service::start(small_config());
        let spec = JobSpec::new(3, Arc::clone(&problem))
            .with_solver(solver)
            .with_fault_plan(FaultPlan::new(17).with("ham.v_tilde", 0, FaultKind::NanPoison));
        let res = service.submit(spec).unwrap().wait().expect("retried then solved");
        assert_eq!(res.attempts, 2, "poisoned first attempt, clean second");
        assert_eq!(res.values, solo, "healed result is bitwise solo-identical");
        assert!(!res.fault_events.is_empty(), "the injected fault is on the record");
        assert!(res.values.iter().all(|v| v.is_finite()));
        service.shutdown();
    }

    #[test]
    fn exhausted_retries_fail_terminally_and_trip_the_breaker() {
        let problem = Arc::new(synthetic_problem([6, 6, 6], 6.0, 2, 2));
        let config = ServeConfig {
            ranks: 2,
            groups: 1,
            resilience: ResilienceConfig {
                retry_max_attempts: 1, // first failure is terminal
                breaker_threshold: 1,  // one terminal failure opens
                breaker_cooldown: Duration::from_millis(40),
                ..Default::default()
            },
            ..Default::default()
        };
        let service = Service::start(config);
        let poisoned = JobSpec::new(8, Arc::clone(&problem))
            .with_fault_plan(FaultPlan::new(23).with("ham.v_tilde", 0, FaultKind::NanPoison));
        let h = service.submit(poisoned).unwrap();
        match h.outcome() {
            JobOutcome::Failed { error, attempts } => {
                assert_eq!(attempts, 1);
                assert!(error.contains("non-finite"), "typed error rendering: {error}");
            }
            other => panic!("expected terminal failure, got {other:?}"),
        }
        assert_eq!(h.status(), JobStatus::Failed);

        // Breaker is now open: clean submissions from tenant 8 are shed.
        match service.submit(JobSpec::new(8, Arc::clone(&problem))) {
            Err(AdmissionError::CircuitOpen { tenant, failures }) => {
                assert_eq!((tenant, failures), (8, 1));
            }
            Err(other) => panic!("expected CircuitOpen, got {other:?}"),
            Ok(_) => panic!("expected CircuitOpen, job was admitted"),
        }
        // Other tenants are unaffected.
        assert!(service.submit(JobSpec::new(9, Arc::clone(&problem))).is_ok());

        // After the cooldown one clean probe runs (degraded, solo, uncached)
        // and closes the breaker.
        std::thread::sleep(Duration::from_millis(50));
        let probe = service.submit(JobSpec::new(8, Arc::clone(&problem))).unwrap();
        let res = probe.wait().expect("probe solves");
        assert!(!res.cache_hit, "probes bypass the cache");
        assert!(res.values.iter().all(|v| v.is_finite()));
        let after = service.submit(JobSpec::new(8, Arc::clone(&problem))).unwrap();
        assert!(after.wait().is_some(), "breaker closed after the probe");
        service.shutdown();
    }

    #[test]
    fn deadline_pressure_degrades_with_a_label_never_silently() {
        let problem = Arc::new(synthetic_problem([6, 6, 6], 6.0, 2, 2));
        let config = ServeConfig {
            ranks: 2,
            groups: 1,
            resilience: ResilienceConfig {
                // Every deadline under 60s counts as pressure, so the job
                // below is deterministically pressured but never expired.
                pressure_window: Duration::from_secs(60),
                ..Default::default()
            },
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
        // One job stalls its group inside the solve (100 ms comm delays);
        // clean jobs from other tenants keep flowing through the surviving
        // group via the shared queue.
        let slow = JobSpec::new(1, Arc::clone(&problem)).with_fault_plan(
            FaultPlan::new(31).with("comm.iallreduce", 0, FaultKind::CommDelay { micros: 100_000 }),
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
