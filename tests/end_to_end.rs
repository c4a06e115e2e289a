//! Cross-crate integration: SCF ground state → Casida problem → all five
//! solver versions, on a real (small) first-principles system.

use lrtddft::{CasidaProblem, IsdfRank, Solver, Version};

/// All solves go through the `Solver` facade.
fn run(p: &CasidaProblem, v: Version, o: &Solver) -> lrtddft::Solution {
    o.version(v).solve(p).unwrap()
}

use pwdft::{scf, silicon_supercell, water_in_box, Grid, ScfOptions};

fn si8_problem() -> CasidaProblem {
    let s = silicon_supercell(1);
    let grid = Grid::new(s.cell, [12, 12, 12]);
    let gs = scf(
        &grid,
        &s,
        ScfOptions {
            n_conduction: 3,
            max_iter: 12,
            band_max_iter: 25,
            density_tol: 1e-4,
            ..Default::default()
        },
    );
    CasidaProblem::from_ground_state(&grid, &gs)
}

#[test]
fn si8_five_versions_agree_at_full_rank() {
    let p = si8_problem();
    let opts = Solver::builder().n_states(3).rank(IsdfRank::Fixed(p.n_cv()));
    let reference = run(&p, Version::Naive, &opts);
    assert!(reference.energies[0] > 0.0, "excitations must be positive for a gapped system");
    for v in [
        Version::QrcpIsdf,
        Version::KmeansIsdf,
        Version::KmeansIsdfLobpcg,
        Version::ImplicitKmeansIsdfLobpcg,
    ] {
        let s = run(&p, v, &opts);
        for i in 0..3 {
            let rel =
                (s.energies[i] - reference.energies[i]).abs() / reference.energies[i].abs();
            assert!(
                rel < 1e-4,
                "{} state {i}: {} vs {} (rel {rel})",
                v.label(),
                s.energies[i],
                reference.energies[i]
            );
        }
    }
}

#[test]
fn si8_reduced_rank_error_is_small_paper_table5_shape() {
    let p = si8_problem();
    let reference = run(&p, Version::Naive, &Solver::builder().n_states(3));
    let reduced = run(
        &p,
        Version::ImplicitKmeansIsdfLobpcg,
        &Solver::builder().n_states(3).rank(IsdfRank::Fixed((p.n_cv() * 7 / 8).max(8))),
    );
    // Paper Table 5 reports sub-percent errors on production systems. On
    // this scaled-down Si8 fixture the reduced-rank error depends on which
    // orbital realization the (deterministic, seeded) SCF converges to:
    // sweeping the SCF seed measures 0.005%-5% per state (see
    // examples/rank_error_probe.rs). Bound each state by that envelope and
    // the mean by a tighter margin — a broken ISDF fit fails both by an
    // order of magnitude.
    let rels: Vec<f64> = (0..3)
        .map(|i| (reduced.energies[i] - reference.energies[i]).abs() / reference.energies[i])
        .collect();
    for (i, rel) in rels.iter().enumerate() {
        assert!(*rel < 0.06, "state {i}: relative error {rel}");
    }
    let mean = rels.iter().sum::<f64>() / rels.len() as f64;
    assert!(mean < 0.03, "mean relative error {mean} ({rels:?})");
}

#[test]
fn water_end_to_end_runs() {
    let s = water_in_box(12.0);
    let grid = Grid::new(s.cell, [16, 16, 16]);
    let gs = scf(
        &grid,
        &s,
        ScfOptions {
            n_conduction: 2,
            max_iter: 10,
            band_max_iter: 25,
            ..Default::default()
        },
    );
    let p = CasidaProblem::from_ground_state(&grid, &gs);
    assert_eq!(p.n_v(), 4);
    let sol = run(&p, Version::ImplicitKmeansIsdfLobpcg, &Solver::builder().n_states(2));
    assert_eq!(sol.energies.len(), 2);
    assert!(sol.energies[0] > 0.0);
    assert!(sol.energies[0] <= sol.energies[1]);
    assert!(sol.lobpcg_iterations.is_some());
}

#[test]
fn excitations_exceed_none_of_bare_gap_bounds() {
    // TDA with our (attractive) f_xc + (repulsive) Hartree kernel keeps the
    // lowest excitation within a physically sensible window around the bare
    // Kohn-Sham gap.
    let p = si8_problem();
    let bare_min = p
        .diag_d()
        .into_iter()
        .fold(f64::INFINITY, f64::min);
    let sol = run(&p, Version::Naive, &Solver::builder().n_states(1));
    let e0 = sol.energies[0];
    assert!(e0 > 0.2 * bare_min, "excitation collapsed: {e0} vs bare {bare_min}");
    assert!(e0 < 5.0 * bare_min.max(1e-3), "excitation blew up: {e0} vs bare {bare_min}");
}
