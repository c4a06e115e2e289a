//! The `Solver` facade — one front door for every way to run a solve:
//! build one with [`Solver::builder`], then call [`Solver::solve`] for a
//! serial solve or [`Solver::solve_distributed`] inside an SPMD region.
//!
//! ```
//! use lrtddft::{Solver, Version};
//! let solver = Solver::builder()
//!     .version(Version::KmeansIsdf)
//!     .n_states(2)
//!     .build();
//! let problem = lrtddft::synthetic_problem([8, 8, 8], 6.0, 2, 2);
//! let solution = solver.solve(&problem).unwrap();
//! assert_eq!(solution.energies.len(), 2);
//! ```
//!
//! The same `Solver` value is what the serving scheduler (`served` crate)
//! executes per job, so a job submitted to the service and a direct call
//! here run the identical code path.

use crate::options::{Eig, SolveOptions};
use crate::problem::CasidaProblem;
use crate::rank::IsdfRank;
use crate::timers::StageTimings;
use crate::versions::{Solution, Version};
use faultkit::SolveError;
use mathkit::lobpcg::LobpcgOptions;
use parcomm::Comm;

/// A fully-configured solve: algorithm [`Version`] plus every
/// [`SolveOptions`] knob. Cheap to copy; construct via [`Solver::builder`].
#[derive(Clone, Copy, Debug)]
pub struct Solver {
    version: Version,
    opts: SolveOptions,
}

impl Default for Solver {
    /// The paper's headline path ([`Version::ImplicitKmeansIsdfLobpcg`])
    /// with default options.
    fn default() -> Self {
        Solver { version: Version::ImplicitKmeansIsdfLobpcg, opts: SolveOptions::default() }
    }
}

impl Solver {
    /// Start configuring a solver. Defaults: the paper's implicit
    /// K-Means-ISDF-LOBPCG path with [`SolveOptions::default`] knobs.
    pub fn builder() -> SolverBuilder {
        SolverBuilder { solver: Solver::default() }
    }

    /// The algorithm version this solver runs.
    pub fn version(&self) -> Version {
        self.version
    }

    /// The option set this solver runs with.
    pub fn options(&self) -> &SolveOptions {
        &self.opts
    }

    /// Serial solve through the recovery ladder. The ISDF versions run the
    /// one build ([`crate::build_isdf_hamiltonian`]) on a solo communicator
    /// on this thread: no rank thread, no `mpi:*` span, no comm statistics.
    pub fn solve(&self, problem: &CasidaProblem) -> Result<Solution, SolveError> {
        self.opts.run(problem, self.version)
    }

    /// Distributed solve on an SPMD communicator: the same ISDF build as
    /// [`Solver::solve`] — same K-Means points, same typed failures behind
    /// the same one-rebuild ladder — on `comm`'s ranks, then the configured
    /// eigensolver. Returns replicated eigenvalues plus this rank's stage
    /// timings; a build the ladder cannot heal panics with the typed error.
    /// The `version` is ignored here — the distributed path is always the
    /// implicit K-Means-ISDF pipeline; `options().eigensolver` picks the
    /// finisher.
    pub fn solve_distributed(
        &self,
        comm: &Comm,
        problem: &CasidaProblem,
    ) -> (Vec<f64>, StageTimings) {
        crate::parallel::distributed_solve_with(comm, problem, &self.opts)
    }
}

/// Builder for [`Solver`]: the algorithm version plus every
/// [`SolveOptions`] knob, as consuming methods.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolverBuilder {
    solver: Solver,
}

impl SolverBuilder {
    /// Algorithm version (paper Table 4 row). Default: the implicit
    /// K-Means-ISDF-LOBPCG path.
    pub fn version(mut self, v: Version) -> Self {
        self.solver.version = v;
        self
    }

    /// Replace the whole option set at once (escape hatch for callers that
    /// already hold a [`SolveOptions`]).
    pub fn options(mut self, opts: SolveOptions) -> Self {
        self.solver.opts = opts;
        self
    }

    /// Number of excitations to return.
    pub fn n_states(mut self, k: usize) -> Self {
        self.solver.opts = self.solver.opts.n_states(k);
        self
    }

    /// ISDF rank policy.
    pub fn rank(mut self, rank: IsdfRank) -> Self {
        self.solver.opts = self.solver.opts.rank(rank);
        self
    }

    /// LOBPCG iteration/tolerance settings.
    pub fn lobpcg(mut self, opts: LobpcgOptions) -> Self {
        self.solver.opts = self.solver.opts.lobpcg(opts);
        self
    }

    /// RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.solver.opts = self.solver.opts.seed(seed);
        self
    }

    /// Toggle the pipelined GEMM+`Reduce` overlap schedule.
    pub fn pipelined(mut self, on: bool) -> Self {
        self.solver.opts = self.solver.opts.pipelined(on);
        self
    }

    /// Final eigensolver for the distributed solve.
    pub fn eigensolver(mut self, eig: Eig) -> Self {
        self.solver.opts = self.solver.opts.eigensolver(eig);
        self
    }

    /// Mark the configuration as a deliberate downgrade (see
    /// [`SolveOptions::degraded`]); the label is recorded in
    /// `Solution::recovery` and surfaced in served job outcomes.
    pub fn degraded(mut self, label: &'static str) -> Self {
        self.solver.opts = self.solver.opts.degraded(label);
        self
    }

    /// Finish configuration.
    pub fn build(self) -> Solver {
        self.solver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::synthetic_problem;

    #[test]
    fn builder_defaults_to_paper_headline_path() {
        let s = Solver::builder().build();
        assert_eq!(s.version(), Version::ImplicitKmeansIsdfLobpcg);
        assert_eq!(s.options().n_states, 3);
    }

    #[test]
    fn facade_matches_raw_options_run_bitwise() {
        let p = synthetic_problem([8, 8, 8], 6.0, 2, 2);
        let solver = Solver::builder()
            .version(Version::KmeansIsdf)
            .n_states(2)
            .rank(IsdfRank::Fixed(p.n_cv()))
            .seed(11)
            .build();
        let via_facade = solver.solve(&p).unwrap();
        let via_opts = solver.options().run(&p, Version::KmeansIsdf).unwrap();
        for (a, b) in via_facade.energies.iter().zip(&via_opts.energies) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn distributed_facade_matches_distributed_solve_with() {
        let p = synthetic_problem([8, 8, 8], 6.0, 2, 2);
        let solver =
            Solver::builder().n_states(2).rank(IsdfRank::Fixed(p.n_cv())).seed(5).build();
        let facade = parcomm::spmd(2, |c| solver.solve_distributed(c, &p).0);
        let raw =
            parcomm::spmd(2, |c| crate::parallel::distributed_solve_with(c, &p, solver.options()).0);
        for (f, r) in facade.iter().zip(&raw) {
            for (x, y) in f.iter().zip(r) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn options_escape_hatch_replaces_everything() {
        let opts = SolveOptions::new().n_states(9).seed(1);
        let s = Solver::builder().options(opts).n_states(4).build();
        assert_eq!(s.options().n_states, 4, "later builder calls refine the injected set");
        assert_eq!(s.options().seed, 1);
    }
}
