//! Jobs, handles, and the hashing that drives batching and result caching.
//!
//! A job reads its problem once, at submission: [`JobCore::new`] computes
//! its [`BatchKey`] (the [`structure_hash`] plus the build's knobs), and the
//! cache key of the lookup at admission and of the leader's insert after the
//! eigensolve is that stored key plus the eigensolve's knobs. Nothing
//! between a batch's build and its eigensolves is O(problem), so no
//! follower waits in a collective while its leader hashes.

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
    /// Key the scheduler batches by and the cache key extends (see
    /// [`batch_key`]): the job's one pass over its problem.
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

/// Hash of the problem's defining data: dimensions, grid shape, cell lengths
/// (they set the volume element and the Coulomb kernel), spin channel,
/// orbital data, energies and kernel samples. Two problems with equal hashes
/// are treated as the same structure by batching and the result cache.
///
/// It reads every 8-byte word once, on four independent lanes, each step a
/// [`fold_mix`]: xor the word in, multiply 64×64→128 by the lane's odd
/// constant, xor the halves. A flipped input bit moves the high half of the
/// product, and the fold spreads that over every output bit; a 64-bit
/// multiply alone, as in FNV, carries bit 63 of a word only to bit 63. The
/// lanes fold into the running hash in order, so the hash depends on where
/// each word sits. A job computes it once, in its [`BatchKey`].
pub fn structure_hash(p: &CasidaProblem) -> u64 {
    let [n0, n1, n2] = p.grid.n;
    let shape = [p.n_r(), p.n_v(), p.n_c(), n0, n1, n2, p.kernel_kind as usize];
    let mut h = fold_words(LANE_KEYS[0], &shape, |v| v as u64);
    h = fold_words(h, &p.grid.cell.lengths, f64::to_bits);
    for data in [p.psi_v.as_slice(), p.psi_c.as_slice(), &p.eps_v, &p.eps_c, &p.fxc] {
        h = fold_words(h, data, f64::to_bits);
    }
    h
}

/// Odd multipliers of the four hash lanes (the first also seeds the hash and
/// folds the lanes together): the fractional bits of √2 (last bit set), √3,
/// √5 and √7, as in SHA-512's initial values.
const LANE_KEYS: [u64; 4] =
    [0x6a09_e667_f3bc_c909, 0xbb67_ae85_84ca_a73b, 0x3c6e_f372_fe94_f82b, 0xa54f_f53a_5f1d_36f1];

/// One hash step: the 128-bit product of `x` and the odd `key`, its two
/// halves xored together.
#[inline]
fn fold_mix(x: u64, key: u64) -> u64 {
    let p = u128::from(x) * u128::from(key);
    (p as u64) ^ ((p >> 64) as u64)
}

/// Fold `words` into `h`: word `i` enters lane `i % 4`, each lane seeded
/// from `h`, and the lanes fold into `h` in lane order.
fn fold_words<T: Copy>(h: u64, words: &[T], bits: impl Fn(T) -> u64) -> u64 {
    let mut lanes = LANE_KEYS.map(|key| h ^ key);
    let mut step = |j: usize, w: T| lanes[j] = fold_mix(lanes[j] ^ bits(w), LANE_KEYS[j]);
    let mut quads = words.chunks_exact(4);
    for quad in &mut quads {
        for (j, &w) in quad.iter().enumerate() {
            step(j, w);
        }
    }
    for (j, &w) in quads.remainder().iter().enumerate() {
        step(j, w);
    }
    lanes.iter().fold(h, |h, &lane| fold_mix(h ^ lane, LANE_KEYS[0]))
}

/// Everything the Hamiltonian build depends on, and the seed. Jobs with
/// equal keys share one distributed build; results stay bitwise
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
    /// The job's [`Solver::seed`]. The build does not read it (only the
    /// eigensolve's LOBPCG guess does), but jobs that differ in it are not
    /// batched together.
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

/// The cache key of a job whose batch key is `batch` (its [`JobCore::key`]):
/// no second pass over the problem.
pub(crate) fn cache_key(batch: BatchKey, s: &Solver) -> CacheKey {
    CacheKey {
        batch,
        version: s.version,
        n_states: s.n_states,
        lobpcg_max_iter: s.lobpcg.max_iter,
        lobpcg_tol_bits: s.lobpcg.tol.to_bits(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrtddft::{synthetic_problem, CasidaProblem};

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

    /// The cache key of a spec that has no stored batch key yet.
    fn fresh_cache_key(spec: &JobSpec) -> CacheKey {
        cache_key(batch_key(spec), &spec.solver)
    }

    #[test]
    fn structure_hash_sees_both_end_bits_of_every_word_it_hashes() {
        let mut p = synthetic_problem([8, 8, 8], 6.0, 2, 3);
        let h0 = structure_hash(&p);
        type Words = fn(&mut CasidaProblem) -> &mut [f64];
        let arrays: [(&str, Words); 6] = [
            ("psi_v", |p| p.psi_v.as_mut_slice()),
            ("psi_c", |p| p.psi_c.as_mut_slice()),
            ("eps_v", |p| &mut p.eps_v),
            ("eps_c", |p| &mut p.eps_c),
            ("fxc", |p| &mut p.fxc),
            ("cell.lengths", |p| &mut p.grid.cell.lengths),
        ];
        let flip = |w: &mut f64, bit: u32| *w = f64::from_bits(w.to_bits() ^ (1 << bit));
        for (name, words) in arrays {
            let n = words(&mut p).len();
            for i in [0, n / 2, n - 1] {
                for bit in [0, 63] {
                    flip(&mut words(&mut p)[i], bit);
                    assert_ne!(structure_hash(&p), h0, "{name}[{i}] bit {bit}");
                    flip(&mut words(&mut p)[i], bit);
                }
            }
        }
        assert_eq!(structure_hash(&p), h0, "every flip was undone");
        // A word's place counts: neighbours (two lanes) and words four apart
        // (one lane) swapped.
        for (i, j) in [(0, 1), (3, 4), (0, 4)] {
            let psi_v = p.psi_v.as_mut_slice();
            assert_ne!(psi_v[i].to_bits(), psi_v[j].to_bits());
            psi_v.swap(i, j);
            assert_ne!(structure_hash(&p), h0, "psi_v[{i}] <-> psi_v[{j}]");
            p.psi_v.as_mut_slice().swap(i, j);
        }
    }

    #[test]
    fn a_jobs_stored_batch_key_builds_the_cache_key_of_a_fresh_spec() {
        let solver = Solver::builder().n_states(4).seed(7).build();
        let spec = |tenant| {
            JobSpec::new(tenant, Arc::new(synthetic_problem([8, 8, 8], 6.0, 2, 2)))
                .with_solver(solver)
        };
        let core = JobCore::new(spec(1));
        assert_eq!(cache_key(core.key, &core.spec.solver), fresh_cache_key(&spec(2)));
    }

    #[test]
    fn cache_key_separates_eigensolve_knobs() {
        let p = Arc::new(synthetic_problem([8, 8, 8], 6.0, 2, 2));
        let a = JobSpec::new(1, p.clone());
        let b = JobSpec::new(1, p.clone())
            .with_solver(Solver::builder().n_states(5).build());
        assert_ne!(fresh_cache_key(&a), fresh_cache_key(&b));
        let c = JobSpec::new(2, p.clone()); // tenant does NOT key the cache
        assert_eq!(fresh_cache_key(&a), fresh_cache_key(&c));
        // Same build, other finisher: batch mates, never each other's hit.
        let d = JobSpec::new(1, p).with_solver(Solver::builder().version(Version::KmeansIsdf));
        assert_eq!(batch_key(&a), batch_key(&d));
        assert_ne!(fresh_cache_key(&a), fresh_cache_key(&d));
    }
}
