//! Jobs, handles, and the hashing that drives batching and result caching.

use lrtddft::{CasidaProblem, Solver, StageTimings, Version};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tenant identifier. Tenants are accounting + isolation domains: quotas,
/// trace tags, and fault scopes are all keyed by this.
pub type TenantId = u64;

/// One unit of work: solve `problem` with `solver` on behalf of `tenant`.
/// Construct via [`JobSpec::new`] and the with-methods.
#[derive(Clone)]
pub struct JobSpec {
    pub tenant: TenantId,
    pub problem: Arc<CasidaProblem>,
    pub solver: Solver,
    /// Optional fault plan, armed only around this job's execution window
    /// on every rank of the executing group — never visible to co-scheduled
    /// tenants. Jobs carrying a plan are never batched with others and
    /// bypass the result cache entirely.
    pub fault: Option<faultkit::Handle>,
    /// Optional deadline, measured from submission. An expired job is
    /// completed as [`JobOutcome::DeadlineExceeded`] at claim time instead
    /// of occupying a solver group; a job finishing after its deadline is
    /// still delivered, marked [`JobResult::deadline_missed`]. A job whose
    /// remaining budget at claim time is below the configured pressure
    /// window may be downgraded to a cheaper configuration (labeled in
    /// [`JobResult::degraded`] — never silently).
    pub deadline: Option<Duration>,
}

impl JobSpec {
    pub fn new(tenant: TenantId, problem: Arc<CasidaProblem>) -> Self {
        JobSpec {
            tenant,
            problem,
            solver: Solver::builder().build(),
            fault: None,
            deadline: None,
        }
    }

    /// Use this [`Solver`]: its `version` picks the build and the finisher
    /// exactly as on [`Solver::solve_distributed`].
    pub fn with_solver(mut self, solver: Solver) -> Self {
        self.solver = solver;
        self
    }

    /// Arm `plan` for this job only (see [`JobSpec::fault`]).
    pub fn with_fault_plan(mut self, plan: faultkit::FaultPlan) -> Self {
        self.fault = Some(faultkit::Handle::armed(plan));
        self
    }

    /// Give this job `budget` from submission to delivery (see
    /// [`JobSpec::deadline`]).
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }
}

/// Why `submit` refused a job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmissionError {
    /// The tenant already has `max_queued_per_tenant` jobs waiting.
    TenantQueueFull { tenant: TenantId, limit: usize },
    /// The global queue is at capacity.
    QueueFull { limit: usize },
    /// The service is shutting down.
    ShuttingDown,
    /// The tenant's circuit breaker is open: `failures` consecutive jobs
    /// failed terminally, so the tenant's load is shed at admission until
    /// the cooldown elapses and a half-open probe succeeds.
    CircuitOpen { tenant: TenantId, failures: u32 },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::TenantQueueFull { tenant, limit } => {
                write!(f, "tenant {tenant} already has {limit} queued jobs")
            }
            AdmissionError::QueueFull { limit } => write!(f, "queue full ({limit} jobs)"),
            AdmissionError::ShuttingDown => write!(f, "service is shutting down"),
            AdmissionError::CircuitOpen { tenant, failures } => write!(
                f,
                "tenant {tenant} circuit breaker open after {failures} consecutive failure(s)"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Where a job is in its lifecycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the admission queue (first attempt or a retry backoff).
    Queued,
    /// Claimed by a solver group and executing.
    Running,
    /// Finished; results available via [`JobHandle::wait`].
    Completed,
    /// Failed terminally: the retry budget is exhausted or the deadline
    /// expired. Details via [`JobHandle::outcome`].
    Failed,
    /// Cancelled before a group claimed it.
    Cancelled,
    /// The service shut down before the job ran.
    Aborted,
}

/// What a completed job hands back.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Replicated eigenvalues (lowest `n_states`).
    pub values: Vec<f64>,
    /// Stage timings from the executing group's leader rank.
    pub timings: StageTimings,
    /// Served from the result cache without touching a solver group.
    pub cache_hit: bool,
    /// Number of same-structure jobs that shared this job's Hamiltonian
    /// build (1 = solo).
    pub batch_size: usize,
    /// Collective calls this job's eigensolve issued on the group
    /// communicator (leader rank's stats window; 0 for cache hits).
    pub comm_calls: u64,
    /// Faults that fired during this job (accumulated across retry
    /// attempts; empty unless the job carried a fault plan).
    pub fault_events: Vec<String>,
    /// Execution attempts this result took (1 = solved first try; >1 means
    /// the retry policy re-queued and healed a recoverable failure).
    pub attempts: u32,
    /// `Some(label)` when the scheduler downgraded this job to a cheaper
    /// configuration (deadline pressure or a breaker half-open probe); the
    /// same label appears in `Solution::recovery` on the direct path. A
    /// degraded result is never served from or inserted into the cache.
    pub degraded: Option<String>,
    /// The job finished after its deadline (delivered anyway).
    pub deadline_missed: bool,
}

/// Terminal state of a job, from [`JobHandle::outcome`]. Richer than
/// [`JobHandle::wait`] (which only yields results): failures carry their
/// typed error rendering and attempt count, deadline expiries how long the
/// job waited.
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// Solved (possibly degraded or after retries — see the fields of
    /// [`JobResult`]).
    Completed(JobResult),
    /// The retry budget is exhausted; `error` is the last
    /// [`faultkit::SolveError`] rendering.
    Failed { error: String, attempts: u32 },
    /// The deadline expired before a solver group could run the job.
    DeadlineExceeded { waited: Duration },
    /// Cancelled via [`JobHandle::cancel`] while queued.
    Cancelled,
    /// The service shut down before the job ran.
    Aborted,
}

pub(crate) struct JobFailure {
    pub error: String,
    pub deadline_exceeded: bool,
    pub waited: Duration,
}

pub(crate) struct JobInner {
    pub status: JobStatus,
    pub result: Option<JobResult>,
    pub failure: Option<JobFailure>,
    /// Times a solver group claimed this job (bumped by `set_running`).
    pub attempts: u32,
}

/// Shared core of a job: spec + status + completion signalling.
pub(crate) struct JobCore {
    pub spec: JobSpec,
    pub inner: Mutex<JobInner>,
    pub cv: Condvar,
    /// Key the scheduler batches and caches by (see [`batch_key`]).
    pub key: BatchKey,
    /// When the job entered the service (deadlines count from here).
    pub submitted: Instant,
    /// Run alone: set for re-queued retries (a fresh job must never rejoin
    /// its old batch) and for breaker half-open probes.
    pub solo: AtomicBool,
    /// Claimed with its deadline budget under the pressure window — the
    /// executing group downgrades it (degradation ladder) to land in time.
    pub pressured: AtomicBool,
    /// Half-open circuit-breaker probe: bypasses the result cache so the
    /// probe exercises a real solve, and runs solo.
    pub probe: AtomicBool,
}

impl JobCore {
    pub fn new(spec: JobSpec) -> Arc<Self> {
        let key = batch_key(&spec);
        Arc::new(JobCore {
            spec,
            inner: Mutex::new(JobInner {
                status: JobStatus::Queued,
                result: None,
                failure: None,
                attempts: 0,
            }),
            cv: Condvar::new(),
            key,
            submitted: Instant::now(),
            solo: AtomicBool::new(false),
            pressured: AtomicBool::new(false),
            probe: AtomicBool::new(false),
        })
    }

    /// Absolute deadline, if the spec carries a budget.
    pub fn deadline(&self) -> Option<Instant> {
        self.spec.deadline.map(|d| self.submitted + d)
    }

    /// May this job share a batch? Fault plans, retries, probes, and
    /// pressured (to-be-degraded) jobs all run alone.
    pub fn batchable(&self) -> bool {
        self.spec.fault.is_none()
            && !self.solo.load(Ordering::Relaxed)
            && !self.pressured.load(Ordering::Relaxed)
            && !self.probe.load(Ordering::Relaxed)
    }

    pub fn complete(&self, result: JobResult) {
        let mut g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        g.status = JobStatus::Completed;
        g.result = Some(result);
        self.cv.notify_all();
    }

    /// Terminal failure: retry budget exhausted (`deadline_exceeded` false)
    /// or expired in the queue (`deadline_exceeded` true).
    pub fn fail(&self, error: String, deadline_exceeded: bool) {
        let mut g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        g.status = JobStatus::Failed;
        g.failure = Some(JobFailure {
            error,
            deadline_exceeded,
            waited: self.submitted.elapsed(),
        });
        self.cv.notify_all();
    }

    /// Mark claimed-and-executing; returns the attempt number (1-based).
    pub fn set_running(&self) -> u32 {
        let mut g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        g.status = JobStatus::Running;
        g.attempts += 1;
        let attempts = g.attempts;
        self.cv.notify_all();
        attempts
    }

    pub fn attempts(&self) -> u32 {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).attempts
    }

    pub fn set_status(&self, status: JobStatus) {
        let mut g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        g.status = status;
        self.cv.notify_all();
    }
}

/// Typed handle to a submitted job: poll status, cancel while queued, or
/// block for the result. Cloneable; all clones observe the same job.
#[derive(Clone)]
pub struct JobHandle {
    pub(crate) core: Arc<JobCore>,
    pub(crate) queue: Arc<crate::scheduler::SchedulerState>,
}

impl JobHandle {
    /// Current lifecycle state.
    pub fn status(&self) -> JobStatus {
        self.core.inner.lock().unwrap_or_else(|p| p.into_inner()).status.clone()
    }

    /// The tenant this job belongs to.
    pub fn tenant(&self) -> TenantId {
        self.core.spec.tenant
    }

    /// Cancel the job if it is still queued. Returns `true` on success;
    /// `false` if a group already claimed it (running jobs execute
    /// collectives in lockstep across ranks and cannot be interrupted).
    pub fn cancel(&self) -> bool {
        self.queue.cancel(&self.core)
    }

    /// Block until the job reaches a terminal state. Returns the result for
    /// completed jobs, `None` for failed/cancelled/aborted ones (use
    /// [`JobHandle::outcome`] for the typed terminal state).
    pub fn wait(&self) -> Option<JobResult> {
        let mut g = self.core.inner.lock().unwrap_or_else(|p| p.into_inner());
        while matches!(g.status, JobStatus::Queued | JobStatus::Running) {
            g = self.core.cv.wait(g).unwrap_or_else(|p| p.into_inner());
        }
        g.result.clone()
    }

    /// Block until the job reaches a terminal state and return it, typed.
    pub fn outcome(&self) -> JobOutcome {
        let mut g = self.core.inner.lock().unwrap_or_else(|p| p.into_inner());
        while matches!(g.status, JobStatus::Queued | JobStatus::Running) {
            g = self.core.cv.wait(g).unwrap_or_else(|p| p.into_inner());
        }
        match g.status {
            JobStatus::Completed => {
                JobOutcome::Completed(g.result.clone().expect("completed jobs carry a result"))
            }
            JobStatus::Failed => {
                let f = g.failure.as_ref().expect("failed jobs carry a failure record");
                if f.deadline_exceeded {
                    JobOutcome::DeadlineExceeded { waited: f.waited }
                } else {
                    JobOutcome::Failed { error: f.error.clone(), attempts: g.attempts }
                }
            }
            JobStatus::Cancelled => JobOutcome::Cancelled,
            JobStatus::Aborted => JobOutcome::Aborted,
            JobStatus::Queued | JobStatus::Running => unreachable!("loop exits on terminal"),
        }
    }

    /// Like [`JobHandle::wait`] with a deadline. `None` means still pending.
    pub fn wait_timeout(&self, dur: Duration) -> Option<JobResult> {
        let deadline = std::time::Instant::now() + dur;
        let mut g = self.core.inner.lock().unwrap_or_else(|p| p.into_inner());
        while matches!(g.status, JobStatus::Queued | JobStatus::Running) {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return None;
            }
            let (guard, _) = self.core.cv.wait_timeout(g, left).unwrap_or_else(|p| p.into_inner());
            g = guard;
        }
        g.result.clone()
    }
}

/// FNV-1a over the problem's defining bytes: dimensions, orbital data,
/// energies, kernel samples, grid shape, and spin channel. Two problems
/// with equal hashes are treated as the same structure by batching and the
/// result cache.
pub fn structure_hash(p: &CasidaProblem) -> u64 {
    let mut h = Fnv::new();
    h.usize(p.n_r());
    h.usize(p.n_v());
    h.usize(p.n_c());
    for d in p.grid.n {
        h.usize(d);
    }
    h.u64(p.kernel_kind as u64);
    h.f64s(p.psi_v.as_slice());
    h.f64s(p.psi_c.as_slice());
    h.f64s(&p.eps_v);
    h.f64s(&p.eps_c);
    h.f64s(&p.fxc);
    h.finish()
}

/// Everything the Hamiltonian build depends on. Jobs with equal keys (and
/// no fault plan) can share one distributed build; results stay bitwise
/// identical because the per-job eigensolve is unchanged (property-tested in
/// `lrtddft::solver`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BatchKey {
    pub structure: u64,
    /// The Table 4 row whose build the job's version runs
    /// ([`Solver::build_row`]): dense, QRCP-ISDF or K-Means-ISDF.
    pub build: Version,
    /// ISDF rank resolved at this problem's dimensions (0 for the dense
    /// build).
    pub n_mu: usize,
    pub seed: u64,
}

pub(crate) fn batch_key(spec: &JobSpec) -> BatchKey {
    let s = &spec.solver;
    BatchKey {
        structure: structure_hash(&spec.problem),
        build: s.build_row(),
        n_mu: s.n_mu(&spec.problem),
        seed: s.seed,
    }
}

/// Cache key: the batch key plus everything the eigensolve depends on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    pub batch: BatchKey,
    pub version: Version,
    pub n_states: usize,
    pub lobpcg_max_iter: usize,
    /// `tol` bits — f64 keyed exactly.
    pub lobpcg_tol_bits: u64,
}

pub(crate) fn cache_key(spec: &JobSpec) -> CacheKey {
    let s = &spec.solver;
    CacheKey {
        batch: batch_key(spec),
        version: s.version,
        n_states: s.n_states,
        lobpcg_max_iter: s.lobpcg.max_iter,
        lobpcg_tol_bits: s.lobpcg.tol.to_bits(),
    }
}

/// Minimal FNV-1a accumulator (same constants as faultkit's site hash).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn f64s(&mut self, vs: &[f64]) {
        for v in vs {
            self.u64(v.to_bits());
        }
    }
    fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrtddft::synthetic_problem;

    #[test]
    fn structure_hash_distinguishes_problems() {
        let a = synthetic_problem([8, 8, 8], 6.0, 2, 2);
        let b = synthetic_problem([8, 8, 8], 6.0, 2, 3);
        let mut c = synthetic_problem([8, 8, 8], 6.0, 2, 2);
        assert_eq!(structure_hash(&a), structure_hash(&c));
        assert_ne!(structure_hash(&a), structure_hash(&b));
        c.eps_c[0] += 1e-9; // any bit flip changes the structure
        assert_ne!(structure_hash(&a), structure_hash(&c));
    }

    #[test]
    fn batch_key_ignores_eigensolve_only_knobs() {
        let p = Arc::new(synthetic_problem([8, 8, 8], 6.0, 2, 2));
        let base = JobSpec::new(1, p.clone());
        let more_states = JobSpec::new(2, p.clone())
            .with_solver(Solver::builder().n_states(5).build());
        assert_eq!(batch_key(&base), batch_key(&more_states));
        let other_seed =
            JobSpec::new(3, p.clone()).with_solver(Solver::builder().seed(99).build());
        assert_ne!(batch_key(&base), batch_key(&other_seed));
        // Rows 3–5 share the K-Means build; rows 1 and 2 build something else.
        let row = |v| {
            batch_key(&JobSpec::new(4, p.clone()).with_solver(Solver::builder().version(v)))
        };
        assert_eq!(row(Version::KmeansIsdf), batch_key(&base));
        assert_eq!(row(Version::KmeansIsdfLobpcg), batch_key(&base));
        assert_ne!(row(Version::QrcpIsdf), batch_key(&base));
        assert_ne!(row(Version::Naive), batch_key(&base));
    }

    #[test]
    fn cache_key_separates_eigensolve_knobs() {
        let p = Arc::new(synthetic_problem([8, 8, 8], 6.0, 2, 2));
        let a = JobSpec::new(1, p.clone());
        let b = JobSpec::new(1, p.clone())
            .with_solver(Solver::builder().n_states(5).build());
        assert_ne!(cache_key(&a), cache_key(&b));
        let c = JobSpec::new(2, p.clone()); // tenant does NOT key the cache
        assert_eq!(cache_key(&a), cache_key(&c));
        // Same build, other finisher: batch mates, never each other's hit.
        let d = JobSpec::new(1, p).with_solver(Solver::builder().version(Version::KmeansIsdf));
        assert_eq!(batch_key(&a), batch_key(&d));
        assert_ne!(cache_key(&a), cache_key(&d));
    }
}
