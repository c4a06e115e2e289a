//! Determinism and outcome of the fault-injection subsystem: identical
//! `FaultPlan` seeds must produce identical fault-event sequences AND
//! bitwise-identical outcomes, for arbitrary seeds and any of the named
//! injection sites. A poisoned build factor (`ham.*`) fails the build once,
//! with `NonFinite` naming the site; a poisoned LOBPCG direction
//! (`lobpcg.w`) is healed by the dense floor and agrees with a fault-free
//! run to 1e-8.

use faultkit::{arm, FaultKind, FaultPlan, NumericalError, SolveError};
use lrtddft::problem::{synthetic_problem, CasidaProblem};
use lrtddft::{IsdfRank, Solver, Version};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Campaign problem, built once (proptest re-enters the closure per case).
fn problem() -> &'static CasidaProblem {
    static P: OnceLock<CasidaProblem> = OnceLock::new();
    P.get_or_init(|| synthetic_problem([8, 8, 8], 6.0, 2, 2))
}

fn opts(p: &CasidaProblem) -> Solver {
    Solver::builder().rank(IsdfRank::Fixed(p.n_cv())).n_states(3).seed(7)
}

/// The serial injection sites, each with the fault kind that makes sense
/// there and the pipeline version that reaches the site.
const SITES: [(&str, FaultKind, Version); 3] = [
    ("ham.c", FaultKind::NanPoison, Version::KmeansIsdf),
    ("ham.v_tilde", FaultKind::InfPoison, Version::KmeansIsdf),
    ("lobpcg.w", FaultKind::NanPoison, Version::ImplicitKmeansIsdfLobpcg),
];

/// Fault-free eigenvalues per version, computed once.
fn baseline(version: Version) -> Vec<f64> {
    static IMPLICIT: OnceLock<Vec<f64>> = OnceLock::new();
    static KMEANS: OnceLock<Vec<f64>> = OnceLock::new();
    let solve = move || {
        let p = problem();
        opts(p)
            .version(version)
            .solve(p)
            .expect("fault-free baseline")
            .energies
    };
    match version {
        Version::ImplicitKmeansIsdfLobpcg => IMPLICIT.get_or_init(solve).clone(),
        _ => KMEANS.get_or_init(solve).clone(),
    }
}

/// What an armed serial solve ends in: its energies and recovery log, or
/// its typed error.
type Outcome = Result<(Vec<f64>, Vec<String>), SolveError>;

/// One armed run: the outcome and the rendered fault events.
fn armed_run(plan: &FaultPlan, version: Version) -> (Outcome, Vec<String>) {
    let p = problem();
    let campaign = arm(plan.clone());
    let outcome = opts(p).version(version).solve(p).map(|s| (s.energies, s.recovery));
    let events = campaign.events().iter().map(|e| e.render()).collect();
    (outcome, events)
}

/// The outcome a fault at `site` must end in: a fired `ham.*` poison fails
/// the one build with `NonFinite` naming the site; a fired `lobpcg.w` poison
/// is healed by the dense floor, with its log line; and every solve that
/// returns (healed, or its spec never fired) has the fault-free `clean`
/// energies to 1e-8.
fn check_outcome(
    site: &str,
    fired: bool,
    outcome: &Outcome,
    clean: &[f64],
) -> Result<(), String> {
    let build_fault = fired && site.starts_with("ham.");
    match outcome {
        Err(SolveError::Numerical(NumericalError::NonFinite { site: got, .. }))
            if build_fault && got == site =>
        {
            Ok(())
        }
        Err(e) => Err(format!("{site}: unexpected failure: {e}")),
        Ok(_) if build_fault => Err(format!("{site}: a poisoned build solved")),
        Ok((_, recovery)) if fired && recovery.is_empty() => {
            Err(format!("{site}: healed without a log line"))
        }
        Ok((energies, _)) if energies.len() != clean.len() => {
            Err(format!("{site}: {} energies, fault-free {}", energies.len(), clean.len()))
        }
        Ok((energies, _)) if energies.iter().zip(clean).all(|(h, c)| (h - c).abs() < 1e-8) => {
            Ok(())
        }
        Ok((energies, _)) => Err(format!("{site}: {energies:?} vs fault-free {clean:?}")),
    }
}

/// The distributed door runs the same build: a poisoned `Ṽ` fires once per
/// rank, and every rank's `hamiltonian` returns the same `NonFinite` (the
/// factors are replicated, so the guard trips alike everywhere).
#[test]
fn poisoned_v_tilde_fails_alike_on_every_rank_of_a_distributed_solve() {
    let p = problem();
    let solver = opts(p);
    let campaign = arm(FaultPlan::new(3).with("ham.v_tilde", 0, FaultKind::NanPoison));
    let errors = parcomm::spmd(2, |c| solver.hamiltonian(c, p).map(|_| ()));
    assert_eq!(campaign.fired(), 2, "one poison per rank");
    match &errors[0] {
        Err(SolveError::Numerical(NumericalError::NonFinite { site, .. })) => {
            assert_eq!(site, "ham.v_tilde");
        }
        other => panic!("expected NonFinite at ham.v_tilde, got {other:?}"),
    }
    assert_eq!(errors[1], errors[0], "the ranks disagree");
}

/// Every serial site, plus the LOBPCG and `Ṽ` faults on the versions that
/// reach them by another road: the planned fault fires exactly once, a
/// build fault fails typed and a LOBPCG fault heals to the fault-free
/// energies ([`check_outcome`]).
#[test]
fn every_serial_fault_fires_once_and_fails_typed_or_heals() {
    let extra = [
        ("lobpcg.w", FaultKind::NanPoison, Version::KmeansIsdfLobpcg),
        ("ham.v_tilde", FaultKind::NanPoison, Version::ImplicitKmeansIsdfLobpcg),
    ];
    let p = problem();
    for (site, kind, version) in SITES.into_iter().chain(extra) {
        let clean = opts(p).version(version).solve(p).expect("fault-free solve").energies;
        let (outcome, events) = armed_run(&FaultPlan::new(42).with(site, 0, kind), version);
        assert_eq!(events.len(), 1, "{site} on {version:?} did not fire once");
        check_outcome(site, true, &outcome, &clean)
            .unwrap_or_else(|e| panic!("{version:?}: {e}"));
    }
}

/// A peer 1.2 s late to the build — longer than any wait that gives up
/// would allow — only delays it: rank 1 sleeps before `Solver::hamiltonian`,
/// so rank 0 waits for it at the build's first collective, and through
/// `hamiltonian` + `eigensolve` on 2 ranks the energies are the prompt
/// run's bit for bit and no recovery rung is taken.
#[test]
fn late_peer_delays_a_distributed_solve_without_a_recovery_rung() {
    let p = problem();
    let solver = opts(p).version(Version::ImplicitKmeansIsdfLobpcg);
    let run = |late: bool| {
        parcomm::spmd(2, |c| {
            if late && c.rank() == 1 {
                std::thread::sleep(std::time::Duration::from_millis(1200));
            }
            let ham = solver.hamiltonian(c, p).expect("build");
            let mut recovery = Vec::new();
            let values = solver.eigensolve(c, &ham, &mut recovery).values;
            (values, recovery)
        })
    };
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let clean = run(false);
    let t0 = std::time::Instant::now();
    let delayed = run(true);
    let waited = t0.elapsed();
    for ((values, recovery), (clean_values, _)) in delayed.iter().zip(&clean) {
        assert!(recovery.is_empty(), "a late peer took a recovery rung: {recovery:?}");
        assert_eq!(bits(values), bits(clean_values));
    }
    assert!(waited.as_secs_f64() >= 1.2, "the late peer was not waited out: {waited:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same seed ⇒ same fault sequence ⇒ same outcome, to the bit; and the
    /// outcome is the one [`check_outcome`] demands of the site.
    #[test]
    fn same_seed_campaigns_are_bit_reproducible(
        seed in 0u64..u64::MAX,
        site_ix in 0usize..SITES.len(),
        occurrence in 0u64..2,
    ) {
        let (site, kind, version) = SITES[site_ix];
        let plan = FaultPlan::new(seed).with(site, occurrence, kind);

        let (o1, ev1) = armed_run(&plan, version);
        let (o2, ev2) = armed_run(&plan, version);

        prop_assert_eq!(&ev1, &ev2, "fault-event sequences diverged");
        let bits = |o: &Outcome| {
            o.clone().map(|(e, r)| (e.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), r))
        };
        prop_assert_eq!(bits(&o1), bits(&o2), "outcome not bitwise stable");
        let checked = check_outcome(site, !ev1.is_empty(), &o1, &baseline(version));
        prop_assert!(checked.is_ok(), "{} (events {:?})", checked.unwrap_err(), ev1);
    }

    /// Different seeds may pick different poison elements, but the event
    /// *sites* are plan-driven, hence identical across seeds.
    #[test]
    fn event_sites_are_plan_driven(seed_a in 0u64..u64::MAX, seed_b in 0u64..u64::MAX) {
        let (site, kind, version) = SITES[0];
        let pa = FaultPlan::new(seed_a).with(site, 0, kind);
        let pb = FaultPlan::new(seed_b).with(site, 0, kind);
        let (_, ev_a) = armed_run(&pa, version);
        let (_, ev_b) = armed_run(&pb, version);
        prop_assert_eq!(ev_a.len(), 1);
        prop_assert_eq!(ev_b.len(), 1);
        prop_assert!(ev_a[0].contains("ham.c") && ev_b[0].contains("ham.c"));
    }
}
