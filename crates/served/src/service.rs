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
//! Failures: a batch's build is [`lrtddft::Solver::hamiltonian`], run once
//! as on the serial and distributed doors, and a failed build fails every
//! job of its batch with its typed error. A wedged group needs no handling
//! of its own: every leader pulls from the one shared queue, so its share
//! drains to the other groups.
//!
//! SPMD symmetry: the leader publishes the claimed jobs unchanged, every
//! rank of the group runs each job's own `spec.solver`, and a build fails
//! on replicated data, so every rank executes the identical collective
//! sequence and every rank of a failed build skips the eigensolves.
//!
//! Tenant isolation invariants (tested here and in `tests/serving.rs`):
//!
//! 1. a job's fault plan is installed via [`faultkit::install_scoped`] only
//!    for the duration of its own batch, on exactly the ranks of the group
//!    executing it — a NaN poison or slow-peer comm delay one tenant injects
//!    can never fire inside another tenant's solve;
//! 2. faulted jobs are never co-batched and never touch the result cache;
//! 3. fault-free results are bitwise identical to a solo
//!    [`lrtddft::Solver::solve_distributed`] run at the same group size,
//!    whatever batching or scheduling happened around them.

use crate::cache::ResultCache;
use crate::job::{cache_key, AdmissionError, JobCore, JobHandle, JobOutcome, JobResult, JobSpec};
use crate::scheduler::SchedulerState;
use parcomm::{spmd, Comm};
use std::sync::{Arc, Condvar, Mutex};

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
    /// Result-cache entry cap (LRU eviction past this).
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            ranks: 4,
            groups: 2,
            max_queued_per_tenant: 16,
            queue_capacity: 256,
            max_batch: 8,
            cache_capacity: 256,
        }
    }
}

/// What a group leader publishes to its followers.
#[derive(Clone)]
enum SlotCmd {
    Run(Vec<Arc<JobCore>>),
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
        ));
        let cache = Arc::new(ResultCache::new(config.cache_capacity));
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
                    recovery: Vec::new(),
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
                Some(batch) => SlotCmd::Run(batch),
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

/// Run one batch on every rank of a group: the two halves of
/// [`lrtddft::Solver::solve_distributed`] with each job's `spec.solver` — a
/// single shared [`lrtddft::Solver::hamiltonian`] build, then one
/// [`lrtddft::Solver::eigensolve`] per job. Results are bitwise
/// identical to per-job solo runs because the build is deterministic in the
/// batch key and the eigensolve path is untouched (pinned by
/// `shared_build_eigensolve_bitwise_matches_solo_solve` in `lrtddft`). The
/// leader owns completion and the cache; followers only join the
/// collectives.
fn execute_batch(group: &Comm, batch: &[Arc<JobCore>], shared: &Shared) {
    let lead = &batch[0].spec;
    let leader = group.rank() == 0;
    // Solo faulted job (the scheduler never co-batches fault plans): arm the
    // tenant's plan on this rank for exactly this batch. For clean batches
    // this *clears* any ambient plan — belt and braces for isolation.
    let _fault_window = faultkit::install_scoped(lead.fault.clone());

    group.take_stats(); // discard idle-window stats; build gets a fresh window
    let clock = obskit::StageClock::now();
    // A failed build is decided on replicated data, so every rank skips the
    // eigensolves together and the batch fails with the typed error.
    let ham = match lead.solver.hamiltonian(group, &lead.problem) {
        Ok(ham) => ham,
        Err(e) => {
            if leader {
                for job in batch {
                    job.finish(JobOutcome::Failed { error: e.to_string() });
                }
            }
            return;
        }
    };
    let build_timings = lrtddft::StageTimings::since(clock);
    let build_stats = group.take_stats();

    for job in batch {
        let clock = obskit::StageClock::now();
        let spec = &job.spec;
        let mut recovery = Vec::new();
        let values = spec.solver.eigensolve(group, &ham, &mut recovery).values;
        // The shared build plus this job's own eigensolve.
        let mut timings = build_timings;
        timings.merge(&lrtddft::StageTimings::since(clock));
        let eig_stats = group.take_stats();
        if !leader {
            continue;
        }
        // Only clean results may populate the cache: the key does not
        // encode fault plans.
        if spec.fault.is_none() {
            shared.cache.put(cache_key(spec), values.clone());
        }
        let fault_events = spec
            .fault
            .as_ref()
            .map(|h| h.events().iter().map(|e| e.render()).collect())
            .unwrap_or_default();
        job.finish(JobOutcome::Completed(JobResult {
            values,
            timings,
            cache_hit: false,
            batch_size: batch.len(),
            comm_calls: build_stats.collective_calls + eig_stats.collective_calls,
            fault_events,
            attempts: 1,
            recovery,
            degraded: None,
            deadline_missed: false,
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
        assert!(res.recovery.is_empty());
        assert_eq!(res.degraded, None);
        assert!(!res.deadline_missed);
        assert!(res.comm_calls > 0, "eigensolve window should record collectives");
        service.shutdown();
    }

    #[test]
    fn each_job_of_a_batch_carries_its_own_recovery_log() {
        // Two jobs with one batch key: the first cannot converge, so its
        // eigensolve falls to the dense floor; its mate must not see that.
        let problem = Arc::new(synthetic_problem([6, 6, 6], 6.0, 2, 2));
        let clean = Solver::builder().n_states(2).seed(4).build();
        let stuck = Solver { lobpcg: mathkit::LobpcgOptions { max_iter: 1, tol: 0.0 }, ..clean };
        let batch: Vec<_> = [stuck, clean]
            .into_iter()
            .map(|s| JobCore::new(JobSpec::new(1, Arc::clone(&problem)).with_solver(s)))
            .collect();
        assert_eq!(batch[0].key, batch[1].key, "one shared build");
        let shared = Shared {
            sched: Arc::new(SchedulerState::new(4, 4, 4)),
            cache: Arc::new(ResultCache::new(4)),
        };
        spmd(2, |group| execute_batch(group, &batch, &shared));

        let result = |i: usize| {
            JobHandle { core: Arc::clone(&batch[i]) }.wait().expect("job completed")
        };
        let (floored, mate) = (result(0), result(1));
        assert_eq!(floored.recovery.len(), 1, "{:?}", floored.recovery);
        assert!(floored.recovery[0].ends_with("; dense floor"), "{:?}", floored.recovery);
        assert!(mate.recovery.is_empty(), "the floor line leaked: {:?}", mate.recovery);
        assert_eq!(floored.values, solo_oracle(&problem, &stuck, 2));
        assert_eq!(mate.values, solo_oracle(&problem, &clean, 2));
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
        assert_eq!(warm.degraded, None);
        assert!(!warm.deadline_missed);
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
    fn poisoned_job_fails_with_its_typed_error() {
        let problem = Arc::new(synthetic_problem([6, 6, 6], 6.0, 2, 2));
        let service = Service::start(small_config());
        let plan = FaultPlan::new(23).with("ham.v_tilde", 0, FaultKind::NanPoison);
        let poisoned = JobSpec::new(8, Arc::clone(&problem)).with_fault_plan(plan);
        match service.submit(poisoned).unwrap().outcome() {
            JobOutcome::Failed { error } => {
                assert!(error.contains("non-finite value in `ham.v_tilde`"), "{error}");
            }
            other => panic!("expected a typed failure, got {other:?}"),
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
