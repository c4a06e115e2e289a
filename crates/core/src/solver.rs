//! `Solver` — the one configuration type and the one front door: set the
//! fields (or chain the setters), then call [`Solver::solve`] for a serial
//! solve or [`Solver::solve_distributed`] inside an SPMD region.
//!
//! ```
//! use lrtddft::{Solver, Version};
//! let solver = Solver::builder().version(Version::KmeansIsdf).n_states(2).build();
//! let problem = lrtddft::synthetic_problem([8, 8, 8], 6.0, 2, 2);
//! let solution = solver.solve(&problem).unwrap();
//! assert_eq!(solution.energies.len(), 2);
//! ```
//!
//! [`Solver::version`] alone decides which algorithms run, on every door:
//! one private mapping (`Solver::plan`) turns the Table 4 row into a point
//! selector, the form the eigensolver sees `H` in, and a finisher. The
//! serial solve, the distributed solve and the serving scheduler (`served`)
//! all run the same build half ([`Solver::hamiltonian`]) and read the same
//! mapping in their finish half, so a job submitted to the service and a
//! direct call here compute the same thing.
//!
//! The scalar-kernel and unfused-reduction *reference* paths are not solver
//! fields: they are process-wide switches (`MATHKIT_KERNEL`,
//! `PARCOMM_NO_FUSE`, `mathkit::force_kernel`,
//! `parcomm::set_fusion_enabled`) that a solve reads and never writes.

use crate::metrics::ComplexityEstimate;
use crate::parallel::distributed_dense_hamiltonian;
use crate::parallel_eig::{distributed_casida_lobpcg, DistributedEigResult};
use crate::problem::CasidaProblem;
use crate::rank::IsdfRank;
use crate::recover::{build_ladder, eig_ladder};
use crate::timers::StageTimings;
use crate::versions::{
    build_isdf_hamiltonian, Hamiltonian, PointSelector, Solution, Version,
};
use faultkit::SolveError;
use mathkit::lobpcg::LobpcgOptions;
use mathkit::lowest;
use obskit::Stage;
use parcomm::Comm;

/// A fully-configured solve. Plain data, cheap to copy: write the fields or
/// chain the consuming setters of the same names.
#[derive(Clone, Copy, Debug)]
pub struct Solver {
    /// Paper Table 4 row — the only thing that decides which point selector,
    /// Hamiltonian form and eigensolver run.
    pub version: Version,
    /// Number of excitations to return (`k`).
    pub n_states: usize,
    /// ISDF rank policy.
    pub rank: IsdfRank,
    /// LOBPCG settings (rows 4–5).
    pub lobpcg: LobpcgOptions,
    /// RNG seed (K-Means init, LOBPCG guess dressing).
    pub seed: u64,
    /// Degradation marker. `Some(label)` means this configuration is a
    /// deliberate downgrade to a cheaper one — the one rung of
    /// [`crate::degrade`] (`direct-eig`), applied by the serving scheduler
    /// under deadline pressure or for a circuit-breaker probe; the label is
    /// the first entry of `Solution::recovery` so a degraded answer is never
    /// silent. `None` (the default) leaves the clean path untouched.
    pub degraded: Option<&'static str>,
}

impl Default for Solver {
    /// The paper's headline path.
    fn default() -> Self {
        Solver {
            version: Version::ImplicitKmeansIsdfLobpcg,
            n_states: 3,
            rank: IsdfRank::default(),
            lobpcg: LobpcgOptions { max_iter: 400, tol: 1e-8 },
            seed: 0xcafe,
            degraded: None,
        }
    }
}

/// What one Table 4 row runs.
pub(crate) struct Plan {
    /// ISDF interpolation points; `None` builds the dense `H` (row 1).
    pub selector: Option<PointSelector>,
    /// The eigensolver sees `H` as a dense matrix (rows 1–4), not as its
    /// ISDF factors (row 5).
    pub explicit: bool,
    /// Iterative LOBPCG for the lowest `k` (rows 4–5), not a dense SYEV.
    pub lobpcg: bool,
}

impl Solver {
    /// The defaults; same as [`Solver::default`].
    pub fn builder() -> Solver {
        Solver::default()
    }

    /// The solver itself (closes a `Solver::builder()…` chain).
    pub fn build(self) -> Solver {
        self
    }

    /// Algorithm version (paper Table 4 row).
    pub fn version(mut self, v: Version) -> Self {
        self.version = v;
        self
    }

    /// Number of excitations to return.
    pub fn n_states(mut self, k: usize) -> Self {
        self.n_states = k;
        self
    }

    /// ISDF rank policy.
    pub fn rank(mut self, rank: IsdfRank) -> Self {
        self.rank = rank;
        self
    }

    /// LOBPCG iteration/tolerance settings.
    pub fn lobpcg(mut self, opts: LobpcgOptions) -> Self {
        self.lobpcg = opts;
        self
    }

    /// RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Mark the configuration as a deliberate downgrade (see
    /// [`Solver::degraded`]).
    pub fn degraded(mut self, label: &'static str) -> Self {
        self.degraded = Some(label);
        self
    }

    /// The K-Means point selector of this solver: default clustering knobs,
    /// seeded by [`Solver::seed`].
    pub fn kmeans_selector(&self) -> PointSelector {
        PointSelector::Kmeans(isdf::KmeansOptions { seed: self.seed, ..Default::default() })
    }

    /// The one place `version` is turned into algorithms (paper Table 4).
    pub(crate) fn plan(&self) -> Plan {
        let kmeans = Some(self.kmeans_selector());
        let (selector, explicit, lobpcg) = match self.version {
            Version::Naive => (None, true, false),
            Version::QrcpIsdf => (Some(PointSelector::Qrcp), true, false),
            Version::KmeansIsdf => (kmeans, true, false),
            Version::KmeansIsdfLobpcg => (kmeans, true, true),
            Version::ImplicitKmeansIsdfLobpcg => (kmeans, false, true),
        };
        Plan { selector, explicit, lobpcg }
    }

    /// The Table 4 row whose Hamiltonian build this solver runs: rows 3–5
    /// share the K-Means ISDF build, rows 1 and 2 have their own. Two solvers
    /// equal in this, [`Solver::n_mu`] and `seed` build the same Hamiltonian
    /// — what the serving scheduler batches on.
    pub fn build_row(&self) -> Version {
        match self.plan().selector {
            None => Version::Naive,
            Some(PointSelector::Qrcp) => Version::QrcpIsdf,
            Some(PointSelector::Kmeans(_)) => Version::KmeansIsdf,
        }
    }

    /// ISDF rank this solver builds at on `problem`; 0 for the dense build.
    pub fn n_mu(&self, problem: &CasidaProblem) -> usize {
        match self.plan().selector {
            None => 0,
            Some(_) => self.rank.resolve(problem.n_r(), problem.n_v(), problem.n_c()),
        }
    }

    /// A fresh recovery log. A degraded configuration must never produce a
    /// silently-degraded answer: its marker is the first entry, before
    /// anything runs.
    fn recovery_log(&self) -> Vec<String> {
        self.degraded.iter().map(|label| format!("degraded: {label}")).collect()
    }

    /// Build half of every door, SPMD-collective on `comm` (a serial solve
    /// passes [`Comm::solo`]): the replicated Hamiltonian `version` asks for
    /// — the dense `H` of Algorithm 1 (row 1) or the ISDF factors from
    /// [`build_isdf_hamiltonian`] with this row's point selector (rows 2–5).
    /// One attempt, no rebuild ladder; rungs the build takes internally are
    /// appended to `recovery`.
    pub fn hamiltonian(
        &self,
        comm: &Comm,
        problem: &CasidaProblem,
        recovery: &mut Vec<String>,
    ) -> Result<Hamiltonian, SolveError> {
        let Some(selector) = self.plan().selector else {
            let (h, _) = distributed_dense_hamiltonian(comm, problem)?;
            return Ok(Hamiltonian::Dense(h));
        };
        let n_mu = self.n_mu(problem);
        build_isdf_hamiltonian(comm, problem, selector, n_mu, recovery).map(Hamiltonian::Isdf)
    }

    /// Finish half of the distributed doors: the lowest `n_states`
    /// eigenvalues of a replicated `ham`, replicated. Rows 1–3 run the same
    /// dense eigensolve of the lowest `k` ([`mathkit::lowest`]) on every
    /// rank; rows 4–5 the distributed matrix-free LOBPCG, falling back to
    /// the dense solve if it breaks down or does not converge — every guard
    /// there tests replicated quantities, so all ranks fall back together.
    /// Split from the build so the serving scheduler can share one build
    /// across a batch and keep each job's result bitwise identical to a solo
    /// [`Solver::solve_distributed`].
    pub fn eigensolve(&self, comm: &Comm, ham: &Hamiltonian) -> Vec<f64> {
        let k = self.n_states.min(ham.n_cv());
        let dense = |name| {
            let _sp = obskit::span(Stage::Diag, name);
            lowest(&ham.dense(), k).values
        };
        match ham {
            Hamiltonian::Isdf(factors) if self.plan().lobpcg => {
                distributed_casida_lobpcg(comm, factors, k, self.lobpcg, self.seed)
                    .and_then(DistributedEigResult::into_converged)
                    .map_or_else(|_| dense("diag.syev.fallback"), |res| res.values)
            }
            _ => dense("diag.syev.replicated"),
        }
    }

    /// Serial solve through the recovery ladders: the build half on a solo
    /// communicator on this thread (no rank thread, no `mpi:*` span, no comm
    /// statistics) behind the one-rebuild ladder, then the finisher `version`
    /// names — the dense eigensolve of the lowest `k` ([`mathkit::lowest`],
    /// rows 1–3) or LOBPCG behind the eigensolver ladder on the materialized
    /// (row 4) or matrix-free (row 5) `H`. Failures are typed; rungs taken
    /// are listed in [`Solution::recovery`], and a clean run takes none.
    pub fn solve(&self, problem: &CasidaProblem) -> Result<Solution, SolveError> {
        let clock = obskit::StageClock::now();
        let mut recovery = self.recovery_log();
        let k = self.n_states.min(problem.n_cv());
        let (n_r, n_v, n_c) = (problem.n_r(), problem.n_v(), problem.n_c());
        let n_mu = self.n_mu(problem);
        let complexity = ComplexityEstimate::for_version(self.version, n_r, n_mu, n_v, n_c, k);

        let plan = self.plan();
        let mut ham = build_ladder(self, &Comm::solo(), problem, &mut recovery)?;
        let (energies, coefficients, lobpcg_iterations) = {
            let name = if plan.lobpcg { "diag.lobpcg" } else { "diag.syev" };
            let _sp = obskit::span(Stage::Diag, name);
            // Rows 1–4 hand the eigensolver a matrix; row 5 never forms it
            // unless the ladder bottoms out at the dense floor.
            if plan.explicit {
                ham.materialize();
            }
            if plan.lobpcg {
                let (diag_d, opts, seed) = (problem.diag_d(), self.lobpcg, self.seed);
                let floor = || ham.dense().into_owned();
                let res =
                    eig_ladder(|x| ham.apply(x), floor, &diag_d, k, opts, seed, &mut recovery);
                (res.values, res.vectors, Some(res.iterations))
            } else {
                let eig = lowest(&ham.dense(), k);
                (eig.values, eig.vectors, None)
            }
        };
        Ok(Solution {
            energies,
            coefficients,
            timings: StageTimings::since(clock),
            n_mu,
            lobpcg_iterations,
            complexity,
            recovery,
        })
    }

    /// Distributed solve on an SPMD communicator: the same build as
    /// [`Solver::solve`] — same `version`, same points, same typed failures
    /// behind the same one-rebuild ladder — on `comm`'s ranks, then
    /// [`Solver::eigensolve`]. Rows 4 and 5 share the distributed
    /// matrix-free LOBPCG (there is no distributed explicit-`H` iteration),
    /// so they return the same numbers here. Returns replicated eigenvalues
    /// plus this rank's stage timings; a build the ladder cannot heal panics
    /// with the typed error and the recovery log.
    pub fn solve_distributed(
        &self,
        comm: &Comm,
        problem: &CasidaProblem,
    ) -> (Vec<f64>, StageTimings) {
        let clock = obskit::StageClock::now();
        let mut recovery = self.recovery_log();
        let ham = build_ladder(self, comm, problem, &mut recovery)
            .unwrap_or_else(|e| panic!("distributed build: {e} (recovery log: {recovery:?})"));
        (self.eigensolve(comm, &ham), StageTimings::since(clock))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{silicon_like_problem, synthetic_problem};
    use faultkit::NumericalError;
    use mathkit::syev;
    use parcomm::spmd;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn non_finite_inputs_are_typed_errors_on_every_row() {
        type Field = fn(&mut CasidaProblem) -> &mut [f64];
        let fields: [(&str, Field); 5] = [
            ("problem.psi_v", |p| p.psi_v.as_mut_slice()),
            ("problem.psi_c", |p| p.psi_c.as_mut_slice()),
            ("problem.eps_v", |p| &mut p.eps_v),
            ("problem.eps_c", |p| &mut p.eps_c),
            ("problem.fxc", |p| &mut p.fxc),
        ];
        for (site, field) in fields {
            let mut p = silicon_like_problem(1, 12, 4);
            field(&mut p)[3] = f64::NAN;
            for v in Version::all() {
                match Solver::default().version(v).solve(&p) {
                    Err(SolveError::Numerical(NumericalError::NonFinite { site: got, index })) => {
                        assert_eq!((got.as_str(), index), (site, 3), "{v:?}");
                    }
                    Err(other) => panic!("{v:?} with NaN in {site}: {other}"),
                    Ok(_) => panic!("{v:?} solved with NaN in {site}"),
                }
            }
        }
    }

    #[test]
    fn dense_rows_return_the_syev_values_to_the_bit() {
        let p = silicon_like_problem(1, 12, 4);
        for v in [Version::Naive, Version::QrcpIsdf, Version::KmeansIsdf] {
            let solver = Solver::default().version(v).n_states(8);
            let ham = solver.hamiltonian(&Comm::solo(), &p, &mut vec![]).expect("clean build");
            let full = syev(&ham.dense());
            let solution = solver.solve(&p).expect("clean solve");
            assert_eq!(bits(&solution.energies), bits(&full.values[..8]), "{v:?}");
            for j in 0..8 {
                let (x, y) = (solution.coefficients.col(j), full.vectors.col(j));
                let dot: f64 = x.iter().zip(y).map(|(a, b)| a * b).sum();
                assert!((dot.abs() - 1.0).abs() < 1e-12, "{v:?} state {j}: overlap {dot}");
            }
        }
    }

    #[test]
    fn defaults_are_the_headline_path_and_setters_chain() {
        let fresh = Solver::builder().build();
        assert_eq!(fresh.version, Version::ImplicitKmeansIsdfLobpcg);
        assert_eq!((fresh.n_states, fresh.seed, fresh.lobpcg.max_iter), (3, 0xcafe, 400));
        assert!(fresh.degraded.is_none());

        let s = Solver::builder()
            .version(Version::QrcpIsdf)
            .n_states(7)
            .rank(IsdfRank::Fixed(12))
            .lobpcg(LobpcgOptions { max_iter: 10, tol: 1e-3 })
            .seed(42)
            .degraded("direct-eig");
        assert_eq!((s.version, s.n_states, s.seed), (Version::QrcpIsdf, 7, 42));
        assert!(matches!(s.rank, IsdfRank::Fixed(12)));
        assert_eq!(s.lobpcg.max_iter, 10);
        assert_eq!(s.degraded, Some("direct-eig"));
    }

    #[test]
    fn every_version_agrees_between_the_serial_and_the_distributed_door() {
        let p = synthetic_problem([8, 8, 8], 6.0, 2, 2);
        let full = Solver::builder().n_states(2).rank(IsdfRank::Fixed(p.n_cv()));
        for v in Version::all() {
            let solver = full.version(v);
            let serial = solver.solve(&p).unwrap().energies;
            let tol = if solver.plan().lobpcg { 1e-8 } else { 1e-10 };
            for values in spmd(2, |c| solver.solve_distributed(c, &p).0) {
                for (d, s) in values.iter().zip(&serial) {
                    assert!((d - s).abs() <= tol * s.abs(), "{v:?}: 2 ranks {d} vs serial {s}");
                }
            }
        }
        // At reduced rank the dense row must not come back as ISDF numbers.
        let reduced = full.rank(IsdfRank::Fixed(3));
        let lowest = |v| {
            let solver = reduced.version(v);
            let serial = solver.solve(&p).unwrap().energies[0];
            (serial, spmd(2, |c| solver.solve_distributed(c, &p).0[0])[0])
        };
        let (naive, isdf) = (lowest(Version::Naive), lowest(Version::KmeansIsdf));
        assert!((naive.0 - isdf.0).abs() > 1e-3, "serial: {} vs {}", naive.0, isdf.0);
        assert!((naive.1 - isdf.1).abs() > 1e-3, "2 ranks: {} vs {}", naive.1, isdf.1);
    }

    #[test]
    fn full_distributed_solve_matches_serial_implicit() {
        let p = synthetic_problem([8, 8, 8], 6.0, 3, 2);
        let k = 3;
        let base = Solver::builder().n_states(k).rank(IsdfRank::Fixed(p.n_cv()));
        let serial = base.solve(&p).unwrap();
        let solver = base.seed(9);
        for ranks in [1usize, 3] {
            for vals in spmd(ranks, |c| solver.solve_distributed(c, &p).0) {
                for (i, v) in vals.iter().enumerate().take(k) {
                    let rel =
                        (v - serial.energies[i]).abs() / serial.energies[i].abs().max(1e-12);
                    assert!(rel < 1e-10, "ranks={ranks} state {i}: {v} vs {}", serial.energies[i]);
                }
            }
        }
    }

    #[test]
    fn distributed_syev_matches_lobpcg_spectrum() {
        let p = synthetic_problem([8, 8, 8], 6.0, 3, 2);
        let base = Solver::builder().n_states(3).rank(IsdfRank::Fixed(p.n_cv()));
        let dense = spmd(2, |c| base.version(Version::KmeansIsdf).solve_distributed(c, &p).0);
        let iter = spmd(2, |c| base.solve_distributed(c, &p).0);
        for (d, l) in dense.iter().zip(&iter) {
            for (x, y) in d.iter().zip(l) {
                let rel = (x - y).abs() / x.abs().max(1e-12);
                assert!(rel < 1e-6, "syev {x} vs lobpcg {y}");
            }
        }
    }

    #[test]
    fn lobpcg_fallback_to_dense_on_nonconvergence() {
        // One iteration at an impossible tolerance cannot converge, so the
        // LOBPCG rows must fall back to the replicated dense solve — which is
        // exactly what row 3 runs, hence bitwise equality.
        let p = synthetic_problem([8, 8, 8], 6.0, 3, 2);
        let base = Solver::builder().n_states(3).rank(IsdfRank::Fixed(p.n_cv()));
        let starved = base.lobpcg(LobpcgOptions { max_iter: 1, tol: 1e-14 });
        let fell_back = spmd(2, |c| starved.solve_distributed(c, &p).0);
        let dense = spmd(2, |c| base.version(Version::KmeansIsdf).solve_distributed(c, &p).0);
        for (f, d) in fell_back.iter().zip(&dense) {
            for (x, y) in f.iter().zip(d) {
                assert_eq!(x.to_bits(), y.to_bits(), "fallback {x:e} vs syev {y:e}");
            }
        }
    }

    #[test]
    fn shared_build_eigensolve_bitwise_matches_solo_solve() {
        // The serving scheduler's batching contract: one Hamiltonian build
        // shared by several jobs of one build row, each finishing with its
        // own `eigensolve`, must be bitwise identical to each job running the
        // whole `solve_distributed` alone.
        let p = synthetic_problem([8, 8, 8], 6.0, 2, 2);
        let job_a = Solver::builder().rank(IsdfRank::Fixed(p.n_cv())).n_states(2).seed(9);
        let job_b = job_a.n_states(3).version(Version::KmeansIsdf);
        assert_eq!(job_a.build_row(), job_b.build_row());
        let solo_a = spmd(2, |c| job_a.solve_distributed(c, &p).0);
        let solo_b = spmd(2, |c| job_b.solve_distributed(c, &p).0);
        let batched = spmd(2, |c| {
            let ham = job_a.hamiltonian(c, &p, &mut vec![]).expect("clean build");
            (job_a.eigensolve(c, &ham), job_b.eigensolve(c, &ham))
        });
        for (rank, (a, b)) in batched.iter().enumerate() {
            for (x, y) in a.iter().zip(&solo_a[rank]) {
                assert_eq!(x.to_bits(), y.to_bits(), "job A diverged under batching");
            }
            for (x, y) in b.iter().zip(&solo_b[rank]) {
                assert_eq!(x.to_bits(), y.to_bits(), "job B diverged under batching");
            }
        }
    }
}
