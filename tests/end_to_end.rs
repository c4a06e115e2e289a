//! Cross-crate integration: SCF ground state → Casida problem → all five
//! solver versions, on a real (small) first-principles system.

use lrtddft::{silicon_like_problem, synthetic_problem, CasidaProblem, IsdfRank, Solver, Version};
use parcomm::{spmd, Comm};

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

/// The Si8 ground state of the benchmark's `si8_scf_casida` workload.
fn si8_benchmark_problem() -> CasidaProblem {
    let s = silicon_supercell(1);
    let grid = Grid::for_cutoff(s.cell, 5.0);
    let gs = scf(
        &grid,
        &s,
        ScfOptions { n_conduction: 4, max_iter: 10, density_tol: 1e-5, ..Default::default() },
    );
    CasidaProblem::from_ground_state(&grid, &gs)
}

/// The Casida LOBPCG's convergence matrix: synthetic, silicon-like and real
/// Si8 orbitals, at the state counts the benchmark and the tests ask for.
/// Rows 4 and 5 of one solo build go through `Solver::eigensolve` on 1, 2
/// and 3 ranks; every case must converge (no dense floor), match the dense
/// `lowest(·, k)` to 1e-8 and agree across rank counts. On the Si8 factors
/// (`|Ṽ|` ≈ 1e9 against `|H|` ≈ 3) splitting `C·X` into two partial sums
/// alone moves `H·X` by ~1e-9 relative, so there rank counts can only agree
/// to the dense bound; elsewhere they agree to 1e-10.
#[test]
fn lobpcg_convergence_matrix() {
    let cases: [(&str, CasidaProblem, &[usize], f64); 7] = [
        ("synthetic([12;3])", synthetic_problem([12; 3], 8.0, 4, 4), &[3, 5], 1e-10),
        ("silicon_like(1,12,6)", silicon_like_problem(1, 12, 6), &[5], 1e-10),
        ("synthetic([8;3])", synthetic_problem([8; 3], 6.0, 2, 2), &[3], 1e-10),
        ("si8_problem", si8_problem(), &[3, 5], 1e-8),
        ("benchmark Si8", si8_benchmark_problem(), &[5], 1e-8),
        ("silicon_like(1,12,4)", silicon_like_problem(1, 12, 4), &[3, 5], 1e-10),
        ("silicon_like(1,16,8)", silicon_like_problem(1, 16, 8), &[3, 5], 1e-10),
    ];
    let rel = |a: f64, b: f64| (a - b).abs() / b.abs();
    for (name, p, ks, rank_tol) in &cases {
        for &k in *ks {
            for v in [Version::KmeansIsdfLobpcg, Version::ImplicitKmeansIsdfLobpcg] {
                let solver = Solver::builder().version(v).n_states(k);
                let ham = solver.hamiltonian(&Comm::solo(), p, &mut vec![]).expect("clean build");
                let dense = mathkit::lowest(&ham.dense(), k).values;
                let mut one_rank: Option<Vec<f64>> = None;
                for ranks in 1..=3 {
                    let case = format!("{name} k={k} {v:?} on {ranks} ranks");
                    let (values, iterations, log) = spmd(ranks, |c| {
                        let mut log = vec![];
                        let eig = solver.eigensolve(c, &ham, &mut log);
                        (eig.values, eig.iterations, log)
                    })
                    .remove(0);
                    assert!(log.is_empty() && iterations > 0, "{case}: {log:?}");
                    for (x, d) in values.iter().zip(&dense) {
                        assert!(rel(*x, *d) < 1e-8, "{case}: {x} vs dense {d}");
                    }
                    let first = one_rank.get_or_insert_with(|| values.clone());
                    for (x, y) in values.iter().zip(first.iter()) {
                        assert!(rel(*x, *y) < *rank_tol, "{case}: {x} vs one rank {y}");
                    }
                }
            }
        }
    }
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
