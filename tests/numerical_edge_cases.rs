//! Edge-case and invariant tests across the substrate crates: degenerate
//! shapes, extreme parameters, and physical sanity properties that the
//! module-level unit tests don't reach.

use fftkit::{Complex, Fft3};
use lrtddft::{CasidaProblem, IsdfRank, Solver, Version};

/// All solves go through the `Solver` facade.
fn run(p: &CasidaProblem, v: Version, o: &Solver) -> lrtddft::Solution {
    o.version(v).solve(p).unwrap()
}

use mathkit::Mat;
use parcomm::CostModel;
use pwdft::{erfc, gaussian_dos, Cell, Grid, Species};

#[test]
fn fft3_degenerate_grids() {
    // 1×1×1: transform is the identity.
    let plan = Fft3::new(1, 1, 1);
    let mut x = vec![Complex::new(3.5, -1.25)];
    plan.forward(&mut x);
    assert_eq!(x[0], Complex::new(3.5, -1.25));
    plan.inverse(&mut x);
    assert_eq!(x[0], Complex::new(3.5, -1.25));

    // Effectively 1-D grids embedded in 3-D.
    for dims in [(8usize, 1usize, 1usize), (1, 8, 1), (1, 1, 8)] {
        let plan = Fft3::new(dims.0, dims.1, dims.2);
        let x: Vec<Complex> = (0..8).map(|i| Complex::from_re(i as f64 - 3.0)).collect();
        let mut y = x.clone();
        plan.forward(&mut y);
        plan.inverse(&mut y);
        for (a, b) in x.iter().zip(&y) {
            assert!((*a - *b).abs() < 1e-12, "{dims:?}");
        }
    }
}

#[test]
fn grid_for_cutoff_anisotropic() {
    let cell = Cell::new(5.0, 10.0, 20.0);
    let g = Grid::for_cutoff(cell, 8.0);
    // longer axes need at least as many points
    assert!(g.n[0] <= g.n[1] && g.n[1] <= g.n[2], "{:?}", g.n);
    for c in 0..3 {
        assert!(g.n[c].is_power_of_two());
        let raw = ((2.0f64 * 8.0).sqrt() * cell.lengths[c] / std::f64::consts::PI).ceil() as usize;
        assert!(g.n[c] >= raw.max(4));
    }
}

#[test]
fn species_parameters_physical() {
    for sp in [Species::H, Species::C, Species::O, Species::Si] {
        assert!(sp.z_ion() >= 1.0 && sp.z_ion() <= 6.0);
        assert!(sp.r_loc() > 0.1 && sp.r_loc() < 1.0);
        assert!(!sp.symbol().is_empty());
    }
    // oxygen binds tighter than silicon
    assert!(Species::O.r_loc() < Species::Si.r_loc());
}

#[test]
fn erfc_strictly_decreasing_and_bounded() {
    let mut prev = 2.0 + 1e-9;
    for i in -40..=40 {
        let x = i as f64 * 0.1;
        let v = erfc(x);
        assert!((0.0..=2.0).contains(&v), "erfc({x}) = {v}");
        assert!(v < prev + 1e-6, "not decreasing at {x}");
        prev = v;
    }
}

#[test]
fn dos_narrow_sigma_resolves_close_levels() {
    let levels = [0.50, 0.52];
    let wide = gaussian_dos(&levels, None, 0.05, 0.4, 0.62, 400);
    let narrow = gaussian_dos(&levels, None, 0.002, 0.4, 0.62, 400);
    let count_peaks = |d: &[(f64, f64)]| {
        d.windows(3)
            .filter(|w| w[1].1 > w[0].1 && w[1].1 > w[2].1 && w[1].1 > 1.0)
            .count()
    };
    assert_eq!(count_peaks(&narrow), 2, "narrow broadening must resolve both levels");
    assert!(count_peaks(&wide) <= 1, "wide broadening must merge them");
}

#[test]
fn cost_model_zero_bytes_still_charges_latency() {
    let m = CostModel::default();
    assert!(m.allreduce(64, 0) > 0.0);
    assert!(m.alltoallv(64, 0) > 0.0);
    assert_eq!(m.allreduce(1, 0), 0.0);
}

#[test]
fn solver_with_single_state_and_minimal_rank() {
    let p = lrtddft::problem::synthetic_problem([4, 4, 4], 5.0, 2, 2);
    // k = 1, N_mu = 1: extreme truncation must still run and stay finite,
    // bounded below by something positive for this gapped problem.
    let s = run(
        &p,
        Version::ImplicitKmeansIsdfLobpcg,
        &Solver::builder().n_states(1).rank(IsdfRank::Fixed(1)),
    );
    assert_eq!(s.energies.len(), 1);
    assert!(s.energies[0].is_finite());
    assert!(s.energies[0] > 0.0);
    assert_eq!(s.n_mu, 1);
}

#[test]
fn mat_empty_blocks_and_identity_ops() {
    let m = Mat::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
    let empty = m.col_block(2, 2);
    assert_eq!(empty.shape(), (4, 0));
    assert_eq!(empty.norm_fro(), 0.0);
    let full = m.row_block(0, 4);
    assert_eq!(full, m);
    let none = m.select_rows(&[]);
    assert_eq!(none.shape(), (0, 4));
}

#[test]
fn rank_factor_extremes() {
    // Huge factor clamps to the pair-count bound; tiny factor floors at 1.
    assert_eq!(IsdfRank::Factor(1e9).resolve(10_000, 4, 4), 16);
    assert_eq!(IsdfRank::Factor(1e-9).resolve(10_000, 4, 4), 1);
}

#[test]
fn version_solutions_share_problem_dimensions() {
    let p = lrtddft::problem::synthetic_problem([4, 4, 4], 5.0, 2, 2);
    for v in Version::all() {
        let s = run(&p, v, &Solver::builder().n_states(2));
        assert_eq!(s.coefficients.nrows(), p.n_cv(), "{:?}", v);
        assert_eq!(s.coefficients.ncols(), 2);
        assert_eq!(s.complexity.version_label, v.label());
    }
}
