//! Self-healing solver ladders: the `Result`-returning solve entry point.
//!
//! `SolveOptions::run` (reached through [`crate::Solver::solve`]) executes
//! the solve pipeline, reports failures as typed [`SolveError`]s, and heals
//! transient ones along two ladders:
//!
//! * **build ladder** — the ISDF Hamiltonian assembly
//!   ([`build_isdf_hamiltonian`]) already recovers point starvation and
//!   fit-residual breaches internally; a typed failure that still escapes
//!   (poisoned factors, non-SPD Gram) gets one clean rebuild — injected
//!   faults are one-shot, so the retry runs pristine — before
//!   [`SolveError::LadderExhausted`].
//! * **eigensolver ladder** — LOBPCG breakdown → resume from the last-good
//!   checkpointed iterate → clean restart (same seed) → block Davidson →
//!   dense SYEV floor. The dense floor always succeeds, so versions 4–5
//!   degrade gracefully to version 3 cost instead of panicking.
//!
//! Every rung taken is recorded in [`Solution::recovery`] so campaigns (and
//! users) can see *how* a solve healed, not just that it did.
//!
//! The fault-free path is bitwise-identical to the pre-ladder solver: rung 1
//! performs exactly the operations the old code performed, and later rungs
//! only engage after a failure.

use crate::lobpcg_driver::{casida_preconditioner, initial_guess, solve_casida_lobpcg};
use crate::metrics::ComplexityEstimate;
use crate::naive::solve_naive;
use crate::options::{Eig, SolveOptions};
use crate::rank::IsdfRank;
use crate::problem::CasidaProblem;
use crate::timers::StageTimings;
use crate::versions::{
    build_isdf_hamiltonian, IsdfHamiltonian, PointSelector, Solution, Version,
};
use faultkit::SolveError;
use mathkit::davidson::{davidson, DavidsonOptions};
use mathkit::gemm::{gemm, Transpose};
use mathkit::lobpcg::{lobpcg, LobpcgOptions, LobpcgResult, LOBPCG_CHECKPOINT};
use mathkit::{syev, Mat};

impl SolveOptions {
    /// Solve `problem` with the requested `version`, healing transient
    /// failures through the recovery ladders and reporting unrecoverable
    /// ones as typed errors.
    ///
    /// On a clean run this is bitwise-identical to the pre-ladder solver;
    /// rungs taken are listed in [`Solution::recovery`]. External callers
    /// reach this through the [`crate::Solver`] facade.
    pub(crate) fn run(
        &self,
        problem: &CasidaProblem,
        version: Version,
    ) -> Result<Solution, SolveError> {
        let clock = obskit::StageClock::now();
        let mut recovery = Vec::new();
        // A degraded option set must never produce a silently-degraded
        // answer: the marker lands in the recovery log before anything runs.
        if let Some(label) = self.degraded {
            recovery.push(format!("degraded: {label}"));
        }
        let k = self.n_states.min(problem.n_cv());
        let n_mu = self.rank.resolve(problem.n_r(), problem.n_v(), problem.n_c());
        let complexity = ComplexityEstimate::for_version(
            version,
            problem.n_r(),
            n_mu,
            problem.n_v(),
            problem.n_c(),
            k,
        );

        match version {
            Version::Naive => {
                let (energies, coefficients) = solve_naive(problem, k);
                Ok(Solution {
                    energies,
                    coefficients,
                    timings: StageTimings::since(clock),
                    n_mu: 0,
                    lobpcg_iterations: None,
                    complexity,
                    recovery,
                })
            }
            Version::QrcpIsdf | Version::KmeansIsdf => {
                let selector = if version == Version::QrcpIsdf {
                    PointSelector::Qrcp
                } else {
                    PointSelector::Kmeans(isdf::KmeansOptions {
                        seed: self.seed,
                        ..Default::default()
                    })
                };
                let ham = build_ladder(problem, selector, n_mu, &mut recovery)?;
                let sp = obskit::span(obskit::Stage::Diag, "diag.syev");
                let h = ham.to_dense();
                let eig = syev(&h);
                drop(sp);
                let cols: Vec<usize> = (0..k).collect();
                Ok(Solution {
                    energies: eig.values[..k].to_vec(),
                    coefficients: eig.vectors.select_cols(&cols),
                    timings: StageTimings::since(clock),
                    n_mu,
                    lobpcg_iterations: None,
                    complexity,
                    recovery,
                })
            }
            Version::KmeansIsdfLobpcg | Version::ImplicitKmeansIsdfLobpcg => {
                let selector = PointSelector::Kmeans(isdf::KmeansOptions {
                    seed: self.seed,
                    ..Default::default()
                });
                let ham = build_ladder(problem, selector, n_mu, &mut recovery)?;
                let sp = obskit::span(obskit::Stage::Diag, "diag.lobpcg");
                let res = if version == Version::KmeansIsdfLobpcg {
                    // Explicit H, iterative eigensolve (Table 4 row 4).
                    let h = ham.to_dense();
                    let apply = |x: &Mat| {
                        let mut y = Mat::zeros(h.nrows(), x.ncols());
                        gemm(1.0, &h, Transpose::No, x, Transpose::No, 0.0, &mut y);
                        y
                    };
                    eig_ladder(
                        apply,
                        || h.clone(),
                        &ham.diag_d,
                        k,
                        self.lobpcg,
                        self.seed,
                        &mut recovery,
                    )
                } else {
                    // Matrix-free (Table 4 row 5): H never materialized
                    // unless the ladder bottoms out at the dense floor.
                    let apply = |x: &Mat| ham.apply(x);
                    eig_ladder(
                        apply,
                        || ham.to_dense(),
                        &ham.diag_d,
                        k,
                        self.lobpcg,
                        self.seed,
                        &mut recovery,
                    )
                };
                drop(sp);
                Ok(Solution {
                    energies: res.values,
                    coefficients: res.vectors,
                    timings: StageTimings::since(clock),
                    n_mu,
                    lobpcg_iterations: Some(res.iterations),
                    complexity,
                    recovery,
                })
            }
        }
    }
}

/// One rung down the graceful-degradation ladder: the next-cheaper
/// configuration for `opts` at `problem`'s dimensions, or `None` when every
/// rung has been taken. This is what the serving scheduler walks under
/// deadline pressure or for a circuit-breaker half-open probe; a direct
/// caller can walk it too. Rungs, in order:
///
/// 1. `rank-floor` — a resolved ISDF rank above `min(N_r, N_v·N_c)` is
///    dropped to that bound ([`IsdfRank::resolve`] clamps to the same
///    bound, so no option set reaches this rung today);
/// 2. `direct-eig` — LOBPCG → the direct dense finisher ([`Eig::Syev`]):
///    skips iterative work entirely and lands where the eig ladder
///    (Davidson → dense SYEV) would bottom out, without burning the
///    iterations first.
///
/// Every rung changes the resolved rank or the eigensolver, so both the
/// serial and the distributed solve see it, and stamps
/// [`SolveOptions::degraded`], so the downgrade is recorded in
/// `Solution::recovery` and job outcomes — never silent. There is no
/// precision rung: the solver has one f64 eigensolve path, as the paper's
/// five versions do.
pub fn degrade(opts: &SolveOptions, problem: &CasidaProblem) -> Option<SolveOptions> {
    let floor = (problem.n_v() * problem.n_c()).min(problem.n_r()).max(1);
    if opts.rank.resolve(problem.n_r(), problem.n_v(), problem.n_c()) > floor {
        return Some(opts.rank(IsdfRank::Fixed(floor)).degraded("rank-floor"));
    }
    if opts.eigensolver == Eig::Lobpcg {
        return Some(opts.eigensolver(Eig::Syev).degraded("direct-eig"));
    }
    None
}

/// ISDF-build ladder: one typed failure earns one clean rebuild (injected
/// faults are one-shot, so the retry is pristine); a second failure is
/// [`SolveError::LadderExhausted`].
fn build_ladder(
    problem: &CasidaProblem,
    selector: PointSelector,
    n_mu: usize,
    recovery: &mut Vec<String>,
) -> Result<IsdfHamiltonian, SolveError> {
    let first = match build_isdf_hamiltonian(problem, selector, n_mu, recovery) {
        Ok(ham) => return Ok(ham),
        Err(e) => e,
    };
    // Let registered observers (e.g. the flight-recorder dump in `repro`)
    // capture the failure context before the rebuild overwrites it.
    faultkit::notify_solve_error(&first);
    recovery.push(format!("isdf.build: {first}; clean rebuild"));
    match build_isdf_hamiltonian(problem, selector, n_mu, recovery) {
        Ok(ham) => Ok(ham),
        Err(second) => {
            let err = SolveError::LadderExhausted {
                stage: "isdf.build",
                attempts: vec![first.to_string(), second.to_string()],
            };
            faultkit::notify_solve_error(&err);
            Err(err)
        }
    }
}

/// Eigensolver ladder for the LOBPCG versions:
///
/// 1. LOBPCG with the paper's guess/preconditioner (the historical path),
/// 2. on breakdown: resume from the last-good checkpointed iterate,
/// 3. on failure: clean restart from the seeded guess (faults are one-shot),
/// 4. on honest non-convergence or repeated breakdown: block Davidson,
/// 5. floor: dense SYEV of the materialized `H` — always succeeds.
///
/// Returns the first converged result; rungs taken are appended to
/// `recovery`. Infallible by construction (the floor cannot fail).
fn eig_ladder<FA, FD>(
    apply: FA,
    dense: FD,
    diag_d: &[f64],
    k: usize,
    opts: LobpcgOptions,
    seed: u64,
    recovery: &mut Vec<String>,
) -> LobpcgResult
where
    FA: Fn(&Mat) -> Mat,
    FD: FnOnce() -> Mat,
{
    // Stale checkpoints from an earlier solve on this thread must not leak
    // into this ladder's resume rung.
    faultkit::checkpoint_clear();

    // Rung 1: the historical path. A clean run returns here, bit-for-bit.
    match solve_casida_lobpcg(&apply, diag_d, k, opts, seed) {
        Ok(res) if res.converged => return res,
        Ok(res) => {
            recovery.push(format!(
                "lobpcg: no convergence in {} iterations (residual {:.3e}), escalating to davidson",
                res.iterations, res.residual
            ));
        }
        Err(e) => {
            faultkit::notify_solve_error(&e);
            recovery.push(format!("lobpcg: {e}"));

            // Rung 2: resume from the last-good iterate deposited before the
            // breakdown. The faulting occurrence was consumed, so the resumed
            // run sees clean arithmetic.
            let resumed = faultkit::checkpoint_take(LOBPCG_CHECKPOINT)
                .filter(|cp| cp.rows == diag_d.len() && cp.cols == k)
                .and_then(|cp| {
                    let label = format!(
                        "lobpcg: resumed from checkpoint at iteration {}",
                        cp.iteration
                    );
                    let x0 = Mat::from_vec(cp.rows, cp.cols, cp.data);
                    let pre = casida_preconditioner(diag_d, 1e-3);
                    match lobpcg(&apply, pre, &x0, opts) {
                        Ok(res) if res.converged => Some((label, res)),
                        _ => None,
                    }
                });
            if let Some((label, res)) = resumed {
                recovery.push(label);
                return res;
            }

            // Rung 3: clean restart from the seeded guess.
            recovery.push("lobpcg: checkpoint resume unavailable or failed, clean restart".into());
            match solve_casida_lobpcg(&apply, diag_d, k, opts, seed) {
                Ok(res) if res.converged => {
                    recovery.push("lobpcg: clean restart converged".into());
                    return res;
                }
                Ok(res) => recovery.push(format!(
                    "lobpcg: clean restart unconverged (residual {:.3e}), escalating to davidson",
                    res.residual
                )),
                Err(e2) => recovery.push(format!("lobpcg: clean restart failed ({e2}), escalating to davidson")),
            }
        }
    }

    // Rung 4: block Davidson — a different subspace method (paper §1 names
    // both as viable), often converging where LOBPCG soft-locks.
    let x0 = initial_guess(diag_d, k, seed);
    let pre = casida_preconditioner(diag_d, 1e-3);
    let dav = davidson(&apply, pre, &x0, DavidsonOptions { base: opts, max_space: 0 });
    if dav.converged {
        recovery.push(format!("davidson: converged in {} iterations", dav.iterations));
        return dav;
    }
    recovery.push(format!(
        "davidson: unconverged (residual {:.3e}), dense fallback",
        dav.residual
    ));

    // Rung 5: dense floor. Version-3 cost, but exact and unconditional.
    let eig = syev(&dense());
    let cols: Vec<usize> = (0..k).collect();
    recovery.push("dense: syev floor".into());
    LobpcgResult {
        values: eig.values[..k].to_vec(),
        vectors: eig.vectors.select_cols(&cols),
        iterations: 0,
        residual: 0.0,
        converged: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::synthetic_problem;
    use crate::rank::IsdfRank;
    use faultkit::{arm, FaultKind, FaultPlan, NumericalError};

    fn opts(p: &CasidaProblem) -> SolveOptions {
        SolveOptions::new().rank(IsdfRank::Fixed(p.n_cv()))
    }

    #[test]
    fn clean_run_has_empty_recovery_log() {
        let p = synthetic_problem([8, 8, 8], 6.0, 2, 2);
        for v in Version::all() {
            let s = opts(&p).run(&p, v).expect("clean run");
            assert!(s.recovery.is_empty(), "{v:?}: {:?}", s.recovery);
        }
    }

    #[test]
    fn degraded_marker_lands_in_recovery_before_anything_runs() {
        let p = synthetic_problem([8, 8, 8], 6.0, 2, 2);
        let s = opts(&p)
            .degraded("rank-floor")
            .run(&p, Version::KmeansIsdf)
            .expect("degraded run solves");
        assert_eq!(s.recovery.first().map(String::as_str), Some("degraded: rank-floor"));
    }

    #[test]
    fn every_degrade_rung_changes_rank_or_eigensolver() {
        use crate::problem::silicon_like_problem;
        let si = silicon_like_problem(1, 12, 4);
        let syn = synthetic_problem([8, 8, 8], 6.0, 2, 2);
        let starts = [
            (&si, SolveOptions::new()),
            // Already at the rank floor: the first rung is the eigensolver.
            (&syn, opts(&syn)),
            (&si, SolveOptions::new().eigensolver(Eig::Syev)),
        ];
        for (p, start) in starts {
            let resolved = |o: &SolveOptions| o.rank.resolve(p.n_r(), p.n_v(), p.n_c());
            let mut cur = start;
            let mut labels = Vec::new();
            while let Some(next) = degrade(&cur, p) {
                assert!(
                    resolved(&next) != resolved(&cur) || next.eigensolver != cur.eigensolver,
                    "rung {:?} changes nothing a solve can see",
                    next.degraded
                );
                labels.push(next.degraded.expect("every rung is labelled"));
                cur = next;
                assert!(labels.len() <= 2, "ladder longer than two rungs: {labels:?}");
            }
            if start.eigensolver == Eig::Lobpcg {
                assert_eq!(labels.last().copied(), Some("direct-eig"), "{labels:?}");
                assert_eq!(cur.eigensolver, Eig::Syev);
            }
        }
        assert_eq!(degrade(&opts(&syn), &syn).and_then(|o| o.degraded), Some("direct-eig"));
    }

    #[test]
    fn poisoned_v_tilde_heals_via_clean_rebuild() {
        let p = synthetic_problem([8, 8, 8], 6.0, 2, 2);
        let o = opts(&p);
        let baseline = o.run(&p, Version::KmeansIsdf).expect("baseline");
        let campaign = arm(FaultPlan::new(3).with("ham.v_tilde", 0, FaultKind::NanPoison));
        let healed = o.run(&p, Version::KmeansIsdf).expect("ladder heals poison");
        assert_eq!(campaign.fired(), 1);
        assert!(
            healed.recovery.iter().any(|r| r.contains("clean rebuild")),
            "recovery log: {:?}",
            healed.recovery
        );
        for (a, b) in baseline.energies.iter().zip(&healed.energies) {
            assert_eq!(a.to_bits(), b.to_bits(), "recovered energies must match fault-free run");
        }
    }

    #[test]
    fn lobpcg_breakdown_heals_through_ladder() {
        let p = synthetic_problem([8, 8, 8], 6.0, 2, 2);
        let o = opts(&p);
        let baseline = o.run(&p, Version::ImplicitKmeansIsdfLobpcg).expect("baseline");
        // Poison the LOBPCG search direction on the first iteration: rung 1
        // breaks down, the ladder resumes from the checkpoint or restarts
        // clean (the fault is one-shot, so the retry runs unpoisoned).
        let campaign = arm(FaultPlan::new(11).with("lobpcg.w", 0, FaultKind::NanPoison));
        let healed = o.run(&p, Version::ImplicitKmeansIsdfLobpcg).expect("ladder heals");
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
    fn rank_starvation_recovers_at_full_rank() {
        let p = synthetic_problem([8, 8, 8], 6.0, 2, 2);
        let o = opts(&p);
        let baseline = o.run(&p, Version::KmeansIsdf).expect("baseline");
        let campaign = arm(FaultPlan::new(5).with("isdf.points", 0, FaultKind::RankStarvation));
        let healed = o.run(&p, Version::KmeansIsdf).expect("re-selection heals");
        assert_eq!(campaign.fired(), 1);
        assert!(
            healed.recovery.iter().any(|r| r.contains("starved")),
            "recovery log: {:?}",
            healed.recovery
        );
        for (a, b) in baseline.energies.iter().zip(&healed.energies) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn unrecoverable_double_fault_surfaces_ladder_exhausted() {
        let p = synthetic_problem([8, 8, 8], 6.0, 2, 2);
        let o = opts(&p);
        // Two poisonings of the same site: the clean rebuild eats the second
        // occurrence too, so the build ladder runs out of rungs.
        let _campaign = arm(
            FaultPlan::new(9)
                .with("ham.c", 0, FaultKind::NanPoison)
                .with("ham.c", 1, FaultKind::NanPoison),
        );
        let err = match o.run(&p, Version::KmeansIsdf) {
            Err(e) => e,
            Ok(_) => panic!("double fault must exhaust the build ladder"),
        };
        match err {
            SolveError::LadderExhausted { stage, attempts } => {
                assert_eq!(stage, "isdf.build");
                assert_eq!(attempts.len(), 2);
            }
            other => panic!("expected LadderExhausted, got {other:?}"),
        }
    }

    #[test]
    fn fit_residual_guard_rejects_meaningless_basis() {
        // Direct check of the FitResidual error type through the ladder: a
        // poisoned fit that somehow survives as garbage must not pass the
        // sampled-residual guard. Exercised here via the error Display.
        let e = SolveError::from(NumericalError::FitResidual { residual: 2.0, tolerance: 1.0 });
        assert!(e.to_string().contains("fit residual"));
    }
}
