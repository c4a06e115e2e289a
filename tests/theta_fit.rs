//! Independent oracles for the Galerkin fit `Θ = ZCᵀ(CCᵀ + floor·I)⁻¹`:
//! the defining equation itself, the floor ladder under a rank-deficient
//! Gram matrix, and the row-slab property the distributed build relies on.
//! None of them compares the fit against an earlier implementation of it.

use isdf::interp::{fit, gram_pair};
use isdf::{kmeans_points, pair_weights, KmeansOptions};
use lrtddft::problem::silicon_like_problem;
use lrtddft::CasidaProblem;
use mathkit::{cholesky, matmul, Mat};
use parcomm::layout::block_ranges;

fn kmeans(p: &CasidaProblem, n_mu: usize) -> Vec<usize> {
    let coords: Vec<[f64; 3]> = (0..p.n_r()).map(|i| p.grid.coords(i)).collect();
    let w = pair_weights(&p.psi_v, &p.psi_c);
    kmeans_points(&coords, &w, n_mu, KmeansOptions::default()).points
}

/// First-rung Tikhonov floor of `fit`: `1e-12` of the mean diagonal.
fn base_floor(cc_t: &Mat) -> f64 {
    let n = cc_t.nrows();
    1e-12 * (0..n).map(|i| cc_t[(i, i)]).sum::<f64>() / n as f64
}

/// `‖Θ·(CCᵀ + floor·I) − ZCᵀ‖_F / (‖Θ‖_F·‖CCᵀ‖_F)`.
fn backward_error(theta: &Mat, zc_t: &Mat, cc_t: &Mat, floor: f64) -> f64 {
    let mut reg = cc_t.clone();
    for i in 0..reg.nrows() {
        reg[(i, i)] += floor;
    }
    let mut resid = matmul(theta, &reg);
    resid.axpy(-1.0, zc_t);
    resid.norm_fro() / (theta.norm_fro() * cc_t.norm_fro())
}

#[test]
fn fit_satisfies_the_regularised_normal_equations() {
    // 48 points stay inside one leaf of the triangular engine; 150 exceed
    // the 64 orbital pairs (CCᵀ is then singular up to its floor) and cross
    // into the recursive GEMM updates. Backward stability covers both.
    let p = silicon_like_problem(1, 12, 4);
    for n_mu in [48, 150] {
        let points = kmeans(&p, n_mu);
        let (psi_hat, phi_hat) = (p.psi_v.select_rows(&points), p.psi_c.select_rows(&points));
        let pair = gram_pair(&p.psi_v, &p.psi_c, &psi_hat, &phi_hat);
        let (zc_t, cc_t) = (pair.zc_t.clone(), pair.cc_t.clone());
        let theta = fit(pair).unwrap();
        assert_eq!(theta.shape(), (p.n_r(), points.len()));
        let err = backward_error(&theta, &zc_t, &cc_t, base_floor(&cc_t));
        assert!(err <= 1e-10, "n_mu={n_mu}: backward error {err:.3e}");
    }
}

#[test]
fn duplicate_points_climb_the_floor_ladder_and_stay_finite() {
    // Every point twice makes CCᵀ singular. On its own the first-rung floor
    // survives that (measured up to 1600 points on this problem), so the
    // roundoff a less careful Gram assembly would add is planted: a shift
    // that pushes the null directions to −1e-10 of the mean diagonal.
    let p = silicon_like_problem(1, 12, 4);
    let mut points = kmeans(&p, 24);
    points.extend(points.clone());
    let (psi_hat, phi_hat) = (p.psi_v.select_rows(&points), p.psi_c.select_rows(&points));
    let mut pair = gram_pair(&p.psi_v, &p.psi_c, &psi_hat, &phi_hat);
    let shift = 100.0 * base_floor(&pair.cc_t);
    for i in 0..points.len() {
        pair.cc_t[(i, i)] -= shift;
    }
    let (zc_t, cc_t) = (pair.zc_t.clone(), pair.cc_t.clone());
    let base = base_floor(&cc_t);
    let mut first_rung = cc_t.clone();
    for i in 0..points.len() {
        first_rung[(i, i)] += base;
    }
    assert!(cholesky(&first_rung).is_err(), "scenario must defeat the first rung");

    let theta = fit(pair).expect("an escalated floor makes the system SPD");
    assert!(theta.as_slice().iter().all(|v| v.is_finite()));
    // The answer solves the system of one of the escalated rungs.
    let err = [1e3, 1e6]
        .map(|k| backward_error(&theta, &zc_t, &cc_t, base * k))
        .into_iter()
        .fold(f64::INFINITY, f64::min);
    assert!(err <= 1e-10, "backward error at the escalated floors {err:.3e}");
}

#[test]
fn rank_slabs_of_the_fit_are_the_serial_rows() {
    // Every row of ZCᵀ is one right-hand side against the same CCᵀ, so the
    // fit of a row slab is that slab of the serial fit. Same points on both
    // sides: the distributed K-Means may pick others.
    let p = silicon_like_problem(1, 12, 4);
    let points = kmeans(&p, 48);
    let (psi_hat, phi_hat) = (p.psi_v.select_rows(&points), p.psi_c.select_rows(&points));
    let serial = fit(gram_pair(&p.psi_v, &p.psi_c, &psi_hat, &phi_hat)).unwrap();
    for ranks in [2usize, 3] {
        for rows in block_ranges(p.n_r(), ranks) {
            let psi_loc = p.psi_v.row_block(rows.start, rows.end);
            let phi_loc = p.psi_c.row_block(rows.start, rows.end);
            let slab = fit(gram_pair(&psi_loc, &phi_loc, &psi_hat, &phi_hat)).unwrap();
            let want = serial.row_block(rows.start, rows.end);
            let diff = slab.max_abs_diff(&want);
            assert!(diff <= 1e-12 * want.norm_max(), "ranks={ranks} rows={rows:?}: {diff:.3e}");
        }
    }
}
