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
//! A failed build fails once: [`Solver::hamiltonian`] runs the build one
//! time and returns its typed error. Every input to it is fixed — the
//! K-Means seed, the reduction order, and kernels whose bits do not depend
//! on the thread count — so a second run would repeat the first one's
//! arithmetic. The one recovery rung is the
//! finish half's: the LOBPCG finisher falls to the dense `lowest(·, k)` floor
//! on breakdown or non-convergence ([`Solver::eigensolve`]), and logs it as
//! the one line of [`Solution::recovery`]; a clean run's log is empty.
//!
//! The kernel thread count is not a solver field: both halves run their kernels on the
//! calling thread's share of its cores among the ranks of its world
//! (`kernel_pool`), so a one-rank solve uses every core and the ranks of
//! a two-rank world on two cores run one kernel thread each. The bits do
//! not depend on the count.

use crate::metrics::ComplexityEstimate;
use crate::parallel::distributed_dense_hamiltonian;
use crate::parallel_eig::{distributed_casida_lobpcg, CasidaOp, Eigenpairs};
use crate::problem::CasidaProblem;
use crate::rank::IsdfRank;
use crate::timers::StageTimings;
use crate::versions::{
    build_isdf_hamiltonian, Hamiltonian, PointSelector, Solution, Version,
};
use faultkit::SolveError;
use mathkit::lobpcg::LobpcgOptions;
use mathkit::{lowest, Mat};
use obskit::Stage;
use parcomm::{block_ranges, Comm};
use std::borrow::Cow;

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

    /// Build half of every door, SPMD-collective on `comm` (a serial solve
    /// passes [`Comm::solo`]): the replicated Hamiltonian `version` asks for
    /// — the dense `H` of Algorithm 1 (row 1) or the ISDF factors from
    /// [`build_isdf_hamiltonian`] with this row's point selector (rows 2–5).
    ///
    /// The build runs once, and a failure is returned as its typed error:
    /// `NonFinite` for defective input or a non-finite factor, `FitResidual`,
    /// `GramNotSpd` or `RankDeficient` for a fit that the rank `N_μ` cannot
    /// make. Each is decided on replicated data, so every rank of a group
    /// returns the same error.
    pub fn hamiltonian(
        &self,
        comm: &Comm,
        problem: &CasidaProblem,
    ) -> Result<Hamiltonian, SolveError> {
        kernel_pool(comm).install(|| {
            let Some(selector) = self.plan().selector else {
                let (h, _) = distributed_dense_hamiltonian(comm, problem)?;
                return Ok(Hamiltonian::Dense(h));
            };
            let n_mu = self.n_mu(problem);
            build_isdf_hamiltonian(comm, problem, selector, n_mu).map(Hamiltonian::Isdf)
        })
    }

    /// Finish half of every door: the lowest `n_states` eigenpairs of a
    /// replicated `ham`, with this rank's row block of the vectors (all rows
    /// on one rank). Rows 1–3 run the dense eigensolve of the lowest `k`
    /// ([`mathkit::lowest`]) on every rank. Rows 4–5 run the one Casida
    /// LOBPCG ([`distributed_casida_lobpcg`]): row 5 on the ISDF factors
    /// over `comm`'s ranks, row 4 on the materialized `H`, replicated (one
    /// rank's run on every rank, as rows 1–3). If it breaks down or does not
    /// converge, the dense `lowest(·, k)` answers and one `…; dense floor`
    /// line lands in `recovery`; every guard there tests replicated
    /// quantities, so all ranks fall back together. Split from the build so
    /// the serving scheduler can share one build across a batch and keep each
    /// job's result bitwise identical to a solo [`Solver::solve_distributed`].
    pub fn eigensolve(
        &self,
        comm: &Comm,
        ham: &Hamiltonian,
        recovery: &mut Vec<String>,
    ) -> Eigenpairs {
        let k = self.n_states.min(ham.n_cv());
        let rows = block_ranges(ham.n_cv(), comm.size())[comm.rank()].clone();
        // A replicated solve's vectors, cut to this rank's rows.
        let mine = |v: Mat| if comm.size() == 1 { v } else { v.row_block(rows.start, rows.end) };
        let dense = |h: &Mat, name| {
            let _sp = obskit::span(Stage::Diag, name);
            let eig = lowest(h, k);
            Eigenpairs {
                values: eig.values,
                local_vectors: mine(eig.vectors),
                iterations: 0,
                residual: 0.0,
                converged: true,
            }
        };
        kernel_pool(comm).install(|| {
            let plan = self.plan();
            let factors = match ham {
                Hamiltonian::Isdf(factors) if plan.lobpcg => factors,
                _ => return dense(&ham.dense(), "diag.syev"),
            };
            let sp = obskit::span(Stage::Diag, "diag.lobpcg");
            let h = plan.explicit.then(|| factors.to_dense());
            let solo = Comm::solo();
            let (on, op) = match &h {
                Some(h) => (&solo, CasidaOp::Dense { h, diag_d: &factors.diag_d }),
                None => (comm, CasidaOp::Factors(factors)),
            };
            match distributed_casida_lobpcg(on, op, k, self.lobpcg, self.seed) {
                Ok(res) if res.converged => {
                    let local_vectors = if h.is_some() {
                        mine(res.local_vectors)
                    } else {
                        res.local_vectors
                    };
                    return Eigenpairs { local_vectors, ..res };
                }
                Ok(res) => recovery.push(format!(
                    "lobpcg: no convergence in {} iterations (residual {:.3e}); dense floor",
                    res.iterations, res.residual
                )),
                Err(e) => recovery.push(format!("lobpcg: {e}; dense floor")),
            }
            drop(sp);
            let h = h.map_or_else(|| ham.dense(), Cow::Owned);
            dense(&h, "diag.syev.fallback")
        })
    }

    /// Serial solve: the build half [`Solver::hamiltonian`] and the finish
    /// half [`Solver::eigensolve`] on [`Comm::solo`], on this thread (no rank
    /// thread, no `mpi:*` span, no comm statistics) — the one-rank case of
    /// [`Solver::solve_distributed`], to the bit. A failed build is its typed
    /// error; the eigensolver's dense floor, if taken, is the one line of
    /// [`Solution::recovery`].
    pub fn solve(&self, problem: &CasidaProblem) -> Result<Solution, SolveError> {
        let clock = obskit::StageClock::now();
        let solo = Comm::solo();
        let ham = self.hamiltonian(&solo, problem)?;
        let mut recovery = Vec::new();
        let eig = self.eigensolve(&solo, &ham, &mut recovery);
        let (n_r, n_v, n_c) = (problem.n_r(), problem.n_v(), problem.n_c());
        let n_mu = self.n_mu(problem);
        let k = eig.values.len();
        Ok(Solution {
            energies: eig.values,
            coefficients: eig.local_vectors,
            timings: StageTimings::since(clock),
            n_mu,
            lobpcg_iterations: self.plan().lobpcg.then_some(eig.iterations),
            complexity: ComplexityEstimate::for_version(self.version, n_r, n_mu, n_v, n_c, k),
            recovery,
        })
    }

    /// Distributed solve on an SPMD communicator: [`Solver::solve`]'s two
    /// halves — same `version`, same points, same typed failures — on
    /// `comm`'s ranks. Returns replicated eigenvalues plus this rank's stage
    /// timings; a failed build panics with its typed error.
    pub fn solve_distributed(
        &self,
        comm: &Comm,
        problem: &CasidaProblem,
    ) -> (Vec<f64>, StageTimings) {
        let clock = obskit::StageClock::now();
        let ham = self
            .hamiltonian(comm, problem)
            .unwrap_or_else(|e| panic!("distributed build: {e}"));
        let values = self.eigensolve(comm, &ham, &mut Vec::new()).values;
        (values, StageTimings::since(clock))
    }
}

/// The kernel threads of a rank of `comm`'s world: this thread's count
/// ([`rayon::current_num_threads`], every core unless a caller installed
/// fewer) shared evenly among the world's ranks.
fn kernel_pool(comm: &Comm) -> rayon::ThreadPool {
    let cores = rayon::current_num_threads();
    rayon::ThreadPool::new(parcomm::threads_per_rank(cores, comm.world_size()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{silicon_like_problem, synthetic_problem};
    use faultkit::{arm, FaultKind, FaultPlan, NumericalError};
    use mathkit::syev;
    use parcomm::spmd;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn opts(p: &CasidaProblem) -> Solver {
        Solver::builder().rank(IsdfRank::Fixed(p.n_cv()))
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
            let ham = solver.hamiltonian(&Comm::solo(), &p).expect("clean build");
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

        let s = Solver::builder()
            .version(Version::QrcpIsdf)
            .n_states(7)
            .rank(IsdfRank::Fixed(12))
            .lobpcg(LobpcgOptions { max_iter: 10, tol: 1e-3 })
            .seed(42);
        assert_eq!((s.version, s.n_states, s.seed), (Version::QrcpIsdf, 7, 42));
        assert!(matches!(s.rank, IsdfRank::Fixed(12)));
        assert_eq!(s.lobpcg.max_iter, 10);
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
        // LOBPCG rows fall back to the dense floor on every rank count: one
        // `…; dense floor` line, and row 3's energies on as many ranks, bit
        // for bit.
        let p = synthetic_problem([8, 8, 8], 6.0, 3, 2);
        let base = Solver::builder().n_states(3).rank(IsdfRank::Fixed(p.n_cv()));
        let starved = base.lobpcg(LobpcgOptions { max_iter: 1, tol: 1e-14 });
        for ranks in [1usize, 2] {
            let row3 = base.version(Version::KmeansIsdf);
            let dense = bits(&spmd(ranks, |c| row3.solve_distributed(c, &p).0)[0]);
            for v in [Version::KmeansIsdfLobpcg, Version::ImplicitKmeansIsdfLobpcg] {
                let solver = starved.version(v);
                for (values, log) in spmd(ranks, |c| {
                    let ham = solver.hamiltonian(c, &p).expect("clean build");
                    let mut log = vec![];
                    (solver.eigensolve(c, &ham, &mut log).values, log)
                }) {
                    assert_eq!(log.len(), 1, "{v:?} on {ranks} ranks: {log:?}");
                    assert!(log[0].ends_with("; dense floor"), "{v:?} on {ranks} ranks: {log:?}");
                    assert_eq!(bits(&values), dense, "{v:?} on {ranks} ranks");
                }
            }
        }
    }

    #[test]
    fn solve_is_the_one_rank_distributed_solve_to_the_bit() {
        let p = synthetic_problem([8, 8, 8], 6.0, 3, 2);
        let base = Solver::builder().n_states(3).rank(IsdfRank::Fixed(p.n_cv()));
        for v in Version::all() {
            let solver = base.version(v);
            let serial = solver.solve(&p).unwrap();
            assert!(serial.recovery.is_empty(), "{v:?}: {:?}", serial.recovery);
            let one_rank = spmd(1, |c| solver.solve_distributed(c, &p).0).remove(0);
            assert_eq!(bits(&serial.energies), bits(&one_rank), "{v:?}");
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
            let ham = job_a.hamiltonian(c, &p).expect("clean build");
            let eigensolve = |job: Solver| job.eigensolve(c, &ham, &mut vec![]).values;
            (eigensolve(job_a), eigensolve(job_b))
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

    #[test]
    fn clean_run_has_empty_recovery_log() {
        let p = synthetic_problem([8, 8, 8], 6.0, 2, 2);
        for v in Version::all() {
            let s = opts(&p).version(v).solve(&p).expect("clean run");
            assert!(s.recovery.is_empty(), "{v:?}: {:?}", s.recovery);
        }
    }

    #[test]
    fn poisoned_v_tilde_fails_the_build_once() {
        let p = synthetic_problem([8, 8, 8], 6.0, 2, 2);
        let campaign = arm(FaultPlan::new(3).with("ham.v_tilde", 0, FaultKind::NanPoison));
        match opts(&p).version(Version::KmeansIsdf).solve(&p) {
            Err(SolveError::Numerical(NumericalError::NonFinite { site, .. })) => {
                assert_eq!(site, "ham.v_tilde");
            }
            Err(other) => panic!("expected NonFinite at ham.v_tilde, got {other}"),
            Ok(_) => panic!("a poisoned Ṽ solved"),
        }
        assert_eq!(campaign.fired(), 1);
    }

    #[test]
    fn lobpcg_breakdown_heals_through_ladder() {
        let p = synthetic_problem([8, 8, 8], 6.0, 2, 2);
        let o = opts(&p);
        let baseline = o.version(Version::ImplicitKmeansIsdfLobpcg).solve(&p).expect("baseline");
        // Poison the LOBPCG search direction on the first iteration: LOBPCG
        // breaks down and the dense floor (`H` formed from the factors)
        // finishes.
        let campaign = arm(FaultPlan::new(11).with("lobpcg.w", 0, FaultKind::NanPoison));
        let healed = o.version(Version::ImplicitKmeansIsdfLobpcg).solve(&p).expect("ladder heals");
        assert_eq!(campaign.fired(), 1);
        assert!(!healed.recovery.is_empty());
        for (a, b) in baseline.energies.iter().zip(&healed.energies) {
            assert!(
                (a - b).abs() < 1e-8,
                "recovered {b} vs fault-free {a}; log {:?}",
                healed.recovery
            );
        }
    }

    #[test]
    fn fit_residual_guard_rejects_meaningless_basis() {
        // 16 points for N_cv = 256 pair functions: no interpolation basis of
        // that size fits, so the sampled-residual guard refuses the build
        // after one Θ solve (`repro ablation` (b) at its lowest rank). Other
        // tests may record while tracing is on, so only this thread's lane
        // is counted.
        let p = silicon_like_problem(1, 16, 8);
        let solver = Solver::default().rank(IsdfRank::Fixed(16));
        obskit::set_thread_label("fit-residual-guard");
        obskit::enable();
        let result = solver.solve(&p);
        obskit::disable();
        let trace = obskit::take_trace();
        match result {
            Err(SolveError::Numerical(NumericalError::FitResidual { residual, tolerance })) => {
                assert!(residual > 1.0, "residual {residual} under tolerance {tolerance}");
            }
            Err(other) => panic!("expected FitResidual, got {other}"),
            Ok(s) => panic!("a 16-point basis passed the guard: {:?}", s.energies),
        }
        let theta_solves = trace
            .ranks
            .iter()
            .filter(|lane| lane.label == "fit-residual-guard")
            .flat_map(|lane| &lane.events)
            .filter(|e| e.kind == obskit::EventKind::Begin && e.name == "theta.solve")
            .count();
        assert_eq!(theta_solves, 1, "the build runs once");
    }
}
