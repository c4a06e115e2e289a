//! The serving runtime: the rank pool, each rank's two communicators, and
//! the public [`Service`] front door.
//!
//! Topology: `Service::start` runs the rank pool as an SPMD program on one
//! supervisor thread and returns once every rank waits for work. Every rank
//! calls [`parcomm::Comm::split`] twice: by its group color
//! (`rank / group_size`), into `groups` solver groups that never
//! synchronize with each other again, and by its own rank, a one-rank
//! communicator that keeps the world size (so a rank alone runs as many
//! kernel threads as in its group). Each rank runs what
//! `SchedulerState::next_work` hands it on the communicator it names; a
//! wide batch runs in lockstep on the whole group.
//!
//! Failures: a batch's build is [`lrtddft::Solver::hamiltonian`], run once
//! on replicated data, so every rank of a wide batch runs the same
//! collectives and skips the eigensolves together when it fails, and the
//! failed build fails every job of its batch with its typed error.
//!
//! Tenant isolation (tested here and in `tests/serving.rs`): a completed
//! job's values are bitwise those of a solo
//! [`lrtddft::Solver::solve_distributed`] at the width it ran on,
//! [`JobResult::ranks`], whatever ran around them. A tenant's bad input (a
//! NaN or +Inf in its orbitals, say) is another structure, so it shares
//! neither a batch nor a cache entry with a clean job, and its own build
//! fails it with the typed error of [`lrtddft::CasidaProblem::check_inputs`].

use crate::cache::ResultCache;
use crate::job::{cache_key, AdmissionError, JobCore, JobHandle, JobOutcome, JobResult, JobSpec};
use crate::scheduler::{SchedulerState, Work};
use parcomm::{spmd, Comm};
use std::sync::Arc;

/// Service topology and policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Total thread-ranks in the world communicator.
    pub ranks: usize,
    /// Disjoint solver groups the world splits into; must divide `ranks`.
    /// A batch runs on `ranks / groups` ranks at most.
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

/// Multi-tenant solve service. Construct with [`Service::start`], submit
/// work with [`Service::submit`], stop with [`Service::shutdown`] (or just
/// drop it — queued jobs still drain).
pub struct Service {
    sched: Arc<SchedulerState>,
    cache: Arc<ResultCache>,
    supervisor: Option<std::thread::JoinHandle<()>>,
}

impl Service {
    /// Boot the rank pool and return once every rank waits for work, so a
    /// first job on the idle pool runs on a whole group. Panics if `groups`
    /// does not evenly divide `ranks`.
    pub fn start(config: ServeConfig) -> Service {
        assert!(config.ranks > 0 && config.groups > 0, "need at least one rank and one group");
        assert_eq!(
            config.ranks % config.groups,
            0,
            "groups ({}) must divide ranks ({})",
            config.groups,
            config.ranks
        );
        let sched = Arc::new(SchedulerState::new(&config));
        let cache = Arc::new(ResultCache::new(config.cache_capacity));
        let supervisor = {
            let (sched, cache) = (Arc::clone(&sched), Arc::clone(&cache));
            let group_size = config.ranks / config.groups;
            std::thread::spawn(move || {
                spmd(config.ranks, |world| worker(world, group_size, &sched, &cache));
            })
        };
        sched.wait_ready();
        Service { sched, cache, supervisor: Some(supervisor) }
    }

    /// Admit a job. Jobs whose results are already cached complete
    /// immediately (`cache_hit`, `batch_size == 0`); everything else is
    /// enqueued subject to the tenant quota and queue capacity.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, AdmissionError> {
        let core = JobCore::new(spec);
        let handle = JobHandle { core: Arc::clone(&core) };
        if let Some(values) = self.cache.get(&cache_key(core.key, &core.spec.solver)) {
            core.finish(JobOutcome::Completed(JobResult {
                values,
                timings: Default::default(),
                cache_hit: true,
                batch_size: 0,
                ranks: 0,
                comm_calls: 0,
                attempts: 0,
                recovery: Vec::new(),
                degraded: None,
                deadline_missed: false,
            }));
            return Ok(handle);
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
fn worker(world: &Comm, group_size: usize, sched: &SchedulerState, cache: &ResultCache) {
    let color = world.rank() / group_size;
    // Collectives over the world communicator, each made once by every rank;
    // the groups never synchronize with each other afterwards.
    let group = world.split(color, world.rank());
    let alone = world.split(world.rank(), 0);
    obskit::set_thread_label(&format!("serve g{color} r{}", group.rank()));
    let leader = group.rank() == 0;
    let mut seen = 0;
    loop {
        match sched.next_work(color, leader, &mut seen) {
            Work::Wide(batch) => execute_batch(&group, &batch, cache),
            Work::Alone(batch) => execute_batch(&alone, &batch, cache),
            Work::Quit => break,
        }
    }
}

/// Run one batch on every rank of `group` (a solver group or one rank): the
/// two halves of [`lrtddft::Solver::solve_distributed`] with each job's
/// `spec.solver` — a single shared [`lrtddft::Solver::hamiltonian`] build,
/// then one [`lrtddft::Solver::eigensolve`] per job. Results are bitwise
/// identical to per-job solo runs because the build is deterministic in the
/// batch key and the eigensolve path is untouched (pinned by
/// `shared_build_eigensolve_bitwise_matches_solo_solve` in `lrtddft`). Its
/// rank 0 owns completion and the cache; the others only join the
/// collectives.
fn execute_batch(group: &Comm, batch: &[Arc<JobCore>], cache: &ResultCache) {
    let lead = &batch[0].spec;
    let leader = group.rank() == 0;
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
    release_freed_memory();
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
        cache.put(cache_key(job.key, &spec.solver), values.clone());
        job.finish(JobOutcome::Completed(JobResult {
            values,
            timings,
            cache_hit: false,
            batch_size: batch.len(),
            ranks: group.size(),
            comm_calls: build_stats.collective_calls + eig_stats.collective_calls,
            attempts: 1,
            recovery,
            degraded: None,
            deadline_missed: false,
        }));
    }
    release_freed_memory();
}

/// Hand the pages a rank freed back to the system. glibc returns an arena's
/// free top only once it exceeds twice its dynamic mmap threshold (8 MiB
/// after the first 4 MiB buffer is freed), and a build whose GEMM packs are
/// bounded never frees that much at once, so an idle rank would keep up to
/// that much resident. Called after a batch's build and after its
/// eigensolves, where a rank's working set has just shrunk.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_freed_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::ffi::c_int;
    }
    // SAFETY: `malloc_trim` reads no caller memory; it only releases free
    // pages of glibc's own arenas.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_freed_memory() {}

#[cfg(test)]
mod tests {
    use super::*;
    use lrtddft::{synthetic_problem, CasidaProblem, Solver};

    fn small_config() -> ServeConfig {
        ServeConfig { ranks: 2, groups: 1, ..Default::default() }
    }

    /// The values of a solo `solve_distributed` on `ranks` ranks, as bits.
    fn solo_oracle(problem: &Arc<CasidaProblem>, solver: &Solver, ranks: usize) -> Vec<u64> {
        let problem = Arc::clone(problem);
        let solver = *solver;
        bits(&spmd(ranks, move |c| solver.solve_distributed(c, &problem).0)[0])
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn served_results_match_solo_distributed_solve_bitwise() {
        let problem = Arc::new(synthetic_problem([6, 6, 6], 6.0, 2, 2));
        let solver = Solver::builder().n_states(2).seed(11).build();

        let service = Service::start(small_config());
        let h = service
            .submit(JobSpec::new(7, Arc::clone(&problem)).with_solver(solver))
            .unwrap();
        let res = h.wait().expect("job completed");
        assert_eq!(
            bits(&res.values),
            solo_oracle(&problem, &solver, res.ranks),
            "served values must be bitwise those of a solo run at the width it ran on"
        );
        assert!(!res.cache_hit);
        assert_eq!(res.batch_size, 1);
        assert_eq!(res.attempts, 1);
        assert!(res.recovery.is_empty());
        assert_eq!(res.degraded, None);
        assert!(!res.deadline_missed);
        service.shutdown();
    }

    #[test]
    fn a_first_job_on_a_fresh_pool_runs_on_the_whole_group() {
        // `Service::start` returns once both ranks wait for work, so the
        // leader sees its follower idle and the job goes wide.
        let problem = Arc::new(synthetic_problem([6, 6, 6], 6.0, 2, 2));
        let solver = Solver::builder().n_states(2).seed(12).build();
        let service = Service::start(small_config());
        let spec = JobSpec::new(7, Arc::clone(&problem)).with_solver(solver);
        let res = service.submit(spec).unwrap().wait().expect("job completed");
        service.shutdown();
        assert_eq!(res.ranks, 2);
        assert_eq!(bits(&res.values), solo_oracle(&problem, &solver, 2));
        assert!(res.comm_calls > 0, "a wide job's window records its collectives");
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
        let cache = ResultCache::new(4);
        spmd(2, |group| execute_batch(group, &batch, &cache));

        let result = |i: usize| {
            JobHandle { core: Arc::clone(&batch[i]) }.wait().expect("job completed")
        };
        let (floored, mate) = (result(0), result(1));
        assert_eq!(floored.recovery.len(), 1, "{:?}", floored.recovery);
        assert!(floored.recovery[0].ends_with("; dense floor"), "{:?}", floored.recovery);
        assert!(mate.recovery.is_empty(), "the floor line leaked: {:?}", mate.recovery);
        assert_eq!(bits(&floored.values), solo_oracle(&problem, &stuck, 2));
        assert_eq!(bits(&mate.values), solo_oracle(&problem, &clean, 2));
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
        assert_eq!(bits(&warm.values), bits(&cold.values));
        assert_eq!((warm.batch_size, warm.ranks, warm.attempts), (0, 0, 0), "a hit runs no build");
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
        assert_eq!(bits(&second.values), solo_oracle(&problem, &naive, second.ranks));
        assert!((second.values[0] - first.values[0]).abs() > 1e-3);
        assert!(submit(naive).cache_hit, "its own repeat is a hit");
        service.shutdown();
    }

    #[test]
    fn a_problem_in_another_cell_is_solved_not_served_from_its_entry() {
        // The same orbitals, energies and kernel samples on a wider cell:
        // the volume element and the Coulomb kernel change, so do the
        // energies, and a key that forgot the cell would hand back the
        // narrow cell's numbers.
        let narrow = Arc::new(synthetic_problem([6, 6, 6], 6.0, 2, 2));
        let mut wide = synthetic_problem([6, 6, 6], 6.0, 2, 2);
        wide.grid = pwdft::Grid::new(pwdft::Cell::cubic(9.0), [6, 6, 6]);
        let wide = Arc::new(wide);
        let solver = Solver::builder().n_states(2).build();
        let service = Service::start(small_config());
        let submit = |problem: &Arc<CasidaProblem>| {
            let spec = JobSpec::new(1, Arc::clone(problem)).with_solver(solver);
            service.submit(spec).unwrap().wait().expect("job completes")
        };
        let first = submit(&narrow);
        let second = submit(&wide);
        assert!(!second.cache_hit, "the wide cell must not hit the narrow cell's entry");
        assert_eq!(bits(&second.values), solo_oracle(&wide, &solver, second.ranks));
        assert!((second.values[0] - first.values[0]).abs() > 1e-3);
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
        // Each job ran on its whole group or on one rank of it.
        assert_eq!(bits(&ra.values), solo_oracle(&problem, &solver_a, ra.ranks));
        assert_eq!(bits(&rb.values), solo_oracle(&problem, &solver_b, rb.ranks));
        service.shutdown();
    }

    #[test]
    fn poisoned_job_fails_with_its_typed_error() {
        let problem = Arc::new(synthetic_problem([6, 6, 6], 6.0, 2, 2));
        let mut poisoned = synthetic_problem([6, 6, 6], 6.0, 2, 2);
        poisoned.psi_v.as_mut_slice()[5] = f64::NAN;
        let service = Service::start(small_config());
        let poisoned = JobSpec::new(8, Arc::new(poisoned));
        match service.submit(poisoned).unwrap().outcome() {
            JobOutcome::Failed { error } => {
                let want = "non-finite value in `problem.psi_v` at element 5";
                assert!(error.contains(want), "{error}");
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
        // One larger job (the dense build on 1728 grid points) holds its
        // group; small jobs from other tenants keep flowing through the
        // other group via the shared queue.
        let large = Arc::new(synthetic_problem([12, 12, 12], 8.0, 4, 4));
        let slow = JobSpec::new(1, large)
            .with_solver(Solver::builder().version(lrtddft::Version::Naive).build());
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
