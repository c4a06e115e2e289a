//! Jobs, handles, and the hashing that drives batching and result caching.

use lrtddft::{CasidaProblem, Solver, StageTimings, Version};
use std::sync::{Arc, Condvar, Mutex};

/// Tenant identifier: admission quotas are keyed by this.
pub type TenantId = u64;

/// One unit of work: solve `problem` with `solver` on behalf of `tenant`.
/// Construct via [`JobSpec::new`] and the with-methods.
#[derive(Clone)]
pub struct JobSpec {
    pub tenant: TenantId,
    pub problem: Arc<CasidaProblem>,
    pub solver: Solver,
}

impl JobSpec {
    pub fn new(tenant: TenantId, problem: Arc<CasidaProblem>) -> Self {
        JobSpec { tenant, problem, solver: Solver::builder().build() }
    }

    /// Use this [`Solver`]: its `version` picks the build and the finisher
    /// exactly as on [`Solver::solve_distributed`].
    pub fn with_solver(mut self, solver: Solver) -> Self {
        self.solver = solver;
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
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::TenantQueueFull { tenant, limit } => {
                write!(f, "tenant {tenant} already has {limit} queued jobs")
            }
            AdmissionError::QueueFull { limit } => write!(f, "queue full ({limit} jobs)"),
            AdmissionError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for AdmissionError {}

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
    /// Always 1 for a solved job and 0 for a cache hit: a batch runs its
    /// build once. Kept only because the frozen ruler under `benchmark/`
    /// reads it.
    pub attempts: u32,
    /// Recovery rungs this job's own eigensolve took, as in
    /// [`lrtddft::Solution::recovery`] (its dense floor). Empty for a clean
    /// solve and for a cache hit.
    pub recovery: Vec<String>,
    /// Always `None`: a job runs the solver it was given. Kept only because
    /// the frozen ruler under `benchmark/` reads it.
    pub degraded: Option<String>,
    /// Always `false`: a job carries no deadline. Kept only because the
    /// frozen ruler under `benchmark/` reads it.
    pub deadline_missed: bool,
}

/// Terminal state of a job, from [`JobHandle::outcome`]. Richer than
/// [`JobHandle::wait`] (which only yields results): a failure carries its
/// typed error rendering.
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// Solved.
    Completed(JobResult),
    /// The batch's build failed (defective input, a non-finite factor or a
    /// fit the rank cannot make); `error` is the [`faultkit::SolveError`]
    /// rendering.
    Failed { error: String },
}

/// Shared core of a job: spec + terminal outcome + completion signalling.
pub(crate) struct JobCore {
    pub spec: JobSpec,
    /// `None` until the job reaches its terminal state.
    outcome: Mutex<Option<JobOutcome>>,
    cv: Condvar,
    /// Key the scheduler batches and caches by (see [`batch_key`]).
    pub key: BatchKey,
}

impl JobCore {
    pub fn new(spec: JobSpec) -> Arc<Self> {
        let key = batch_key(&spec);
        Arc::new(JobCore {
            spec,
            outcome: Mutex::new(None),
            cv: Condvar::new(),
            key,
        })
    }

    /// Record the terminal outcome and wake every waiter.
    pub fn finish(&self, outcome: JobOutcome) {
        *self.outcome.lock().unwrap_or_else(|p| p.into_inner()) = Some(outcome);
        self.cv.notify_all();
    }
}

/// Typed handle to a submitted job: block for its result or its terminal
/// outcome. Cloneable; all clones observe the same job.
#[derive(Clone)]
pub struct JobHandle {
    pub(crate) core: Arc<JobCore>,
}

impl JobHandle {
    /// Block until the job reaches a terminal state. Returns the result for
    /// a completed job, `None` for a failed one (use [`JobHandle::outcome`]
    /// for its typed error).
    pub fn wait(&self) -> Option<JobResult> {
        match self.outcome() {
            JobOutcome::Completed(result) => Some(result),
            _ => None,
        }
    }

    /// Block until the job reaches a terminal state and return it, typed.
    pub fn outcome(&self) -> JobOutcome {
        let core = &self.core;
        let mut g = core.outcome.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(outcome) = g.as_ref() {
                return outcome.clone();
            }
            g = core.cv.wait(g).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// FNV-1a over the problem's defining bytes: dimensions, orbital data,
/// energies, kernel samples, grid shape, cell lengths (they set the volume
/// element and the Coulomb kernel), and spin channel. Two problems with
/// equal hashes are treated as the same structure by batching and the
/// result cache.
pub fn structure_hash(p: &CasidaProblem) -> u64 {
    let mut h = Fnv::new();
    h.usize(p.n_r());
    h.usize(p.n_v());
    h.usize(p.n_c());
    for d in p.grid.n {
        h.usize(d);
    }
    h.f64s(&p.grid.cell.lengths);
    h.u64(p.kernel_kind as u64);
    h.f64s(p.psi_v.as_slice());
    h.f64s(p.psi_c.as_slice());
    h.f64s(&p.eps_v);
    h.f64s(&p.eps_c);
    h.f64s(&p.fxc);
    h.finish()
}

/// Everything the Hamiltonian build depends on. Jobs with equal keys share
/// one distributed build; results stay bitwise
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

/// Minimal 64-bit FNV-1a accumulator.
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
