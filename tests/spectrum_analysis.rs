//! Integration tests for the post-processing layer (spectra + analysis)
//! against the full solver stack.

use lrtddft::{
    absorption_spectrum, analyze_states, oscillator_strengths, problem::silicon_like_problem,
    transition_dipoles, CasidaProblem, Solver, Version,
};

/// All solves go through the `Solver` facade.
fn run(p: &CasidaProblem, v: Version, o: &Solver) -> lrtddft::Solution {
    o.version(v).solve(p).unwrap()
}


#[test]
fn spectra_consistent_between_naive_and_implicit() {
    let p = silicon_like_problem(1, 12, 4);
    let opts = Solver::builder().n_states(4).rank(lrtddft::IsdfRank::Fixed(p.n_cv()));
    let a = run(&p, Version::Naive, &opts);
    let b = run(&p, Version::ImplicitKmeansIsdfLobpcg, &opts);
    let fa = oscillator_strengths(&p, &a.energies, &a.coefficients).unwrap();
    let fb = oscillator_strengths(&p, &b.energies, &b.coefficients).unwrap();
    for i in 0..4 {
        // Eigenvectors may differ by sign/degenerate rotation; strengths of
        // non-degenerate states must agree.
        let gap_ok = i == 0 || (a.energies[i] - a.energies[i - 1]).abs() > 1e-6;
        if gap_ok {
            assert!(
                (fa[i] - fb[i]).abs() < 1e-4 * fa[i].abs().max(1e-6),
                "state {i}: f {} vs {}",
                fa[i],
                fb[i]
            );
        }
    }
}

#[test]
fn absorption_spectrum_peaks_at_bright_states() {
    let p = silicon_like_problem(1, 12, 4);
    let sol = run(&p, Version::Naive, &Solver::builder().n_states(6));
    let f = oscillator_strengths(&p, &sol.energies, &sol.coefficients).unwrap();
    let (brightest, _) = f
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap();
    let emin = sol.energies[0] - 0.1;
    let emax = sol.energies.last().unwrap() + 0.1;
    let spec = absorption_spectrum(&sol.energies, &f, 0.005, emin, emax, 2000).unwrap();
    let (peak_e, _) = spec
        .iter()
        .cloned()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap();
    assert!(
        (peak_e - sol.energies[brightest]).abs() < 0.01,
        "spectrum peak {peak_e} vs brightest state {}",
        sol.energies[brightest]
    );
}

#[test]
fn transition_dipoles_match_brute_force() {
    let p = silicon_like_problem(1, 8, 2);
    let mu = transition_dipoles(&p);
    let dv = p.grid.dv();
    // brute-force a couple of entries
    for &(iv, ic) in &[(0usize, 0usize), (3, 1), (7, 0)] {
        let mut expect = [0.0f64; 3];
        for r in 0..p.n_r() {
            let c = p.grid.coords(r);
            let prod = p.psi_v[(r, iv)] * p.psi_c[(r, ic)] * dv;
            for a in 0..3 {
                expect[a] += prod * c[a];
            }
        }
        let row = p.pair_index(iv, ic);
        for a in 0..3 {
            assert!((mu[(row, a)] - expect[a]).abs() < 1e-10);
        }
    }
}

#[test]
fn analysis_identifies_band_edge_transition() {
    // The lowest bare transition is (highest valence → lowest conduction);
    // with a modest kernel the lowest excited state keeps that character.
    let p = silicon_like_problem(1, 12, 4);
    let sol = run(&p, Version::Naive, &Solver::builder().n_states(1));
    let states = analyze_states(&p, &sol.energies, &sol.coefficients, 5);
    let lead = &states[0].leading[0];
    // dominant pair involves the top valence band
    assert!(
        lead.i_v >= p.n_v() - 4,
        "dominant valence index {} too deep (N_v = {})",
        lead.i_v,
        p.n_v()
    );
    assert!(lead.weight > 0.2, "no dominant pair: {}", lead.weight);
}
