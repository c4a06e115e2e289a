//! End-to-end first-principles run: SCF ground state of bulk silicon, then
//! LR-TDDFT excitations, naive vs the paper's implicit K-Means-ISDF-LOBPCG.
//!
//! ```sh
//! cargo run --release --example silicon_excitations
//! ```
//!
//! This is the paper's Table 5 / Table 6 workflow at Si₈ scale: everything
//! from pseudopotentials to the Casida solve happens in this workspace.

use lrtddft::{
    analyze_states, describe_state, oscillator_strengths, CasidaProblem, IsdfRank, Solver,
    Version,
};
use pwdft::{scf, silicon_supercell, total_energy, Grid, ScfOptions};

fn main() {
    // 1. Ground state: Si8 conventional cell, LDA, HGH-style local pseudo.
    let structure = silicon_supercell(1);
    let grid = Grid::for_cutoff(structure.cell, 5.0);
    println!(
        "Si8: {} atoms, {} electrons, grid {}x{}x{} = {} points",
        structure.atoms.len(),
        structure.n_electrons(),
        grid.n[0],
        grid.n[1],
        grid.n[2],
        grid.len()
    );
    let t0 = std::time::Instant::now();
    let gs = scf(
        &grid,
        &structure,
        ScfOptions { n_conduction: 6, max_iter: 30, density_tol: 1e-5, ..Default::default() },
    );
    println!(
        "SCF: {} iterations, residual {:.2e}, HOMO-LUMO gap {:.4} Ha ({:.1}s)",
        gs.iterations,
        gs.residual,
        gs.gap(),
        t0.elapsed().as_secs_f64()
    );

    // 2. Excited states: naive dense reference vs implicit ISDF-LOBPCG.
    let problem = CasidaProblem::from_ground_state(&grid, &gs);
    println!(
        "Casida: N_v = {}, N_c = {}, N_cv = {}",
        problem.n_v(),
        problem.n_c(),
        problem.n_cv()
    );

    let t0 = std::time::Instant::now();
    let naive = Solver::builder()
        .version(Version::Naive)
        .n_states(5)
        .build()
        .solve(&problem)
        .expect("naive solve failed");
    let t_naive = t0.elapsed().as_secs_f64();

    let t0 = std::time::Instant::now();
    let fast = Solver::builder()
        .version(Version::ImplicitKmeansIsdfLobpcg)
        .n_states(5)
        .rank(IsdfRank::Fixed((problem.n_cv() * 3 / 4).max(8)))
        .build()
        .solve(&problem)
        .expect("ISDF solve failed");
    let t_fast = t0.elapsed().as_secs_f64();

    println!("\n  state |   naive (Ha) | ISDF-LOBPCG (Ha) | rel. error");
    println!("  ------+--------------+------------------+-----------");
    for i in 0..5.min(naive.energies.len()) {
        let rel = (naive.energies[i] - fast.energies[i]) / naive.energies[i];
        println!(
            "    {i}   | {:>12.6} | {:>16.6} | {:>+9.4}%",
            naive.energies[i],
            fast.energies[i],
            100.0 * rel
        );
    }
    println!(
        "\nnaive {:.2}s vs ISDF-LOBPCG {:.2}s  ->  speedup {:.2}x at N_mu = {}",
        t_naive,
        t_fast,
        t_naive / t_fast.max(1e-12),
        fast.n_mu
    );

    // 3. Post-processing: total energy, state character, oscillator strengths.
    let e = total_energy(&grid, &structure, &gs);
    println!(
        "\nGround-state total energy: {:.4} Ha (band {:.4}, E_H {:.4}, E_xc {:.4}, Ewald {:.4})",
        e.total(),
        e.band,
        e.hartree,
        e.exc,
        e.ewald
    );
    let f = oscillator_strengths(&problem, &fast.energies, &fast.coefficients)
        .expect("solver output matches the problem shape");
    let states = analyze_states(&problem, &fast.energies, &fast.coefficients, 3);
    println!("\nExcited-state characters (orbital pairs, weights, oscillator strengths):");
    for (s, fi) in states.iter().zip(&f) {
        println!("  {}   f = {:.4}", describe_state(s), fi);
    }
}
