//! Determinism and recovery properties of the fault-injection subsystem:
//! identical `FaultPlan` seeds must produce identical fault-event sequences
//! AND bitwise-identical recovered outputs, for arbitrary seeds and any of
//! the named injection sites; the recovered eigenvalues must always agree
//! with a fault-free run to 1e-8 (the ladder acceptance tolerance).

use faultkit::{arm, FaultKind, FaultPlan};
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
const SITES: [(&str, FaultKind, Version); 5] = [
    ("ham.c", FaultKind::NanPoison, Version::KmeansIsdf),
    ("ham.v_tilde", FaultKind::InfPoison, Version::KmeansIsdf),
    ("lobpcg.w", FaultKind::NanPoison, Version::ImplicitKmeansIsdfLobpcg),
    ("isdf.points", FaultKind::RankStarvation, Version::KmeansIsdf),
    ("kmeans.init", FaultKind::DegenerateSeeding, Version::KmeansIsdf),
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

/// One armed run: recovered energies, recovery log, rendered fault events.
fn armed_run(
    plan: &FaultPlan,
    version: Version,
) -> (Vec<f64>, Vec<String>, Vec<String>) {
    let p = problem();
    let campaign = arm(plan.clone());
    let sol = opts(p)
        .version(version)
        .solve(p)
        .expect("single injected fault must heal");
    let events = campaign.events().iter().map(|e| e.render()).collect();
    (sol.energies, sol.recovery, events)
}

/// The distributed solve runs the same build behind the same ladder: a
/// poisoned `Ṽ` is a typed error on every rank (the factors are replicated),
/// both rebuild, and the healed energies are the clean ones, bit for bit.
#[test]
fn poisoned_v_tilde_heals_on_every_rank_of_a_distributed_solve() {
    let p = problem();
    let solver = opts(p);
    let clean = parcomm::spmd(2, |c| solver.solve_distributed(c, p).0);
    let campaign = arm(FaultPlan::new(3).with("ham.v_tilde", 0, FaultKind::NanPoison));
    let healed = parcomm::spmd(2, |c| solver.solve_distributed(c, p).0);
    assert_eq!(campaign.fired(), 2, "one poison per rank");
    for (h, c) in healed.iter().zip(&clean) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(h), bits(c));
    }
}

/// Every serial site, plus the LOBPCG and `Ṽ` faults on the versions that
/// reach them by another road: the planned fault fires exactly once, the
/// ladder logs what it did, and the healed energies are the fault-free ones
/// to 1e-8.
#[test]
fn every_serial_fault_fires_once_and_heals() {
    let extra = [
        ("lobpcg.w", FaultKind::NanPoison, Version::KmeansIsdfLobpcg),
        ("ham.v_tilde", FaultKind::NanPoison, Version::ImplicitKmeansIsdfLobpcg),
    ];
    let p = problem();
    for (site, kind, version) in SITES.into_iter().chain(extra) {
        let clean = opts(p).version(version).solve(p).expect("fault-free solve").energies;
        let plan = FaultPlan::new(42).with(site, 0, kind);
        let campaign = arm(plan);
        let healed = opts(p).version(version).solve(p);
        assert_eq!(campaign.fired(), 1, "{site} on {version:?} did not fire once");
        drop(campaign);
        let healed = healed.unwrap_or_else(|e| panic!("{site} on {version:?} did not heal: {e}"));
        assert!(!healed.recovery.is_empty(), "{site} on {version:?} healed without a log line");
        assert_eq!(healed.energies.len(), clean.len());
        for (h, c) in healed.energies.iter().zip(&clean) {
            assert!((h - c).abs() < 1e-8, "{site} on {version:?}: {h} vs fault-free {c}");
        }
    }
}

/// A dropped allreduce (re-issued by `Comm::settle`), a delayed one and a
/// stall longer than one wait deadline fire on both ranks of a distributed
/// solve, and the solve comes back with the fault-free energies bit for bit. The fault
/// events repeat exactly when the campaign does.
#[test]
fn comm_faults_fire_on_every_rank_and_heal_bitwise() {
    let p = problem();
    let solver = opts(p).version(Version::ImplicitKmeansIsdfLobpcg);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let clean = bits(&parcomm::spmd(2, |c| solver.solve_distributed(c, p).0)[0]);
    let cases = [
        ("comm.iallreduce", 1, FaultKind::CommDrop),
        ("comm.iallreduce", 0, FaultKind::CommDelay { micros: 2_000 }),
        ("comm.iallreduce", 0, FaultKind::CommStall { micros: 80_000 }),
    ];
    for (site, occurrence, kind) in cases {
        let run = || {
            let campaign = arm(FaultPlan::new(42).with(site, occurrence, kind));
            let values = parcomm::spmd(2, |c| solver.solve_distributed(c, p).0);
            let events: Vec<String> = campaign.events().iter().map(|e| e.render()).collect();
            (values, events)
        };
        let (values, events) = run();
        assert_eq!(events.len(), 2, "{kind:?} at {site} fires once per rank: {events:?}");
        for v in &values {
            assert_eq!(bits(v), clean, "{kind:?} at {site} changed the energies");
        }
        assert_eq!(run().1, events, "{kind:?} at {site}: the campaign did not repeat");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same seed ⇒ same fault sequence ⇒ same bits out; and the healed
    /// result stays within the acceptance tolerance of the fault-free run.
    #[test]
    fn same_seed_campaigns_are_bit_reproducible(
        seed in 0u64..u64::MAX,
        site_ix in 0usize..SITES.len(),
        occurrence in 0u64..2,
    ) {
        let (site, kind, version) = SITES[site_ix];
        let plan = FaultPlan::new(seed).with(site, occurrence, kind);

        let (e1, r1, ev1) = armed_run(&plan, version);
        let (e2, r2, ev2) = armed_run(&plan, version);

        prop_assert_eq!(&ev1, &ev2, "fault-event sequences diverged");
        prop_assert_eq!(&r1, &r2, "recovery logs diverged");
        prop_assert_eq!(e1.len(), e2.len());
        for (a, b) in e1.iter().zip(&e2) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "recovered output not bitwise stable");
        }

        let base = baseline(version);
        prop_assert_eq!(e1.len(), base.len());
        for (a, b) in base.iter().zip(&e1) {
            prop_assert!(
                (a - b).abs() < 1e-8,
                "healed eigenvalue {} vs fault-free {} (events {:?})", b, a, ev1
            );
        }
    }

    /// Different seeds may pick different poison elements, but the event
    /// *sites* are plan-driven, hence identical across seeds.
    #[test]
    fn event_sites_are_plan_driven(seed_a in 0u64..u64::MAX, seed_b in 0u64..u64::MAX) {
        let (site, kind, version) = SITES[0];
        let pa = FaultPlan::new(seed_a).with(site, 0, kind);
        let pb = FaultPlan::new(seed_b).with(site, 0, kind);
        let (_, _, ev_a) = armed_run(&pa, version);
        let (_, _, ev_b) = armed_run(&pb, version);
        prop_assert_eq!(ev_a.len(), 1);
        prop_assert_eq!(ev_b.len(), 1);
        prop_assert!(ev_a[0].contains("ham.c") && ev_b[0].contains("ham.c"));
    }
}
