//! `kmeans_points` on `silicon_like_problem(1, 12, 4)` returns, to the bit,
//! what it returned when the nearest-centroid search was the scalar
//! first-minimum loop (kept as the `#[cfg(test)]` oracle in
//! `isdf::kmeans`): the points, the sweep count and the objective below
//! were recorded with that loop. The run uses the search in every Lloyd
//! sweep.

use isdf::{kmeans_points, pair_weights, KmeansOptions};
use lrtddft::silicon_like_problem;

#[test]
fn kmeans_points_returns_the_first_minimum_loops_points_sweeps_and_objective() {
    let p = silicon_like_problem(1, 12, 4);
    let coords: Vec<[f64; 3]> = (0..p.n_r()).map(|i| p.grid.coords(i)).collect();
    let w = pair_weights(&p.psi_v, &p.psi_c);
    let (n_mu, points, iterations, objective): (usize, &[usize], usize, u64) = (
        64,
        &[
            154, 157, 210, 247, 276, 287, 314, 328, 338, 352, 381, 392, 406, 417, 446, 458, 460,
            471, 473, 484, 536, 539, 549, 560, 594, 616, 627, 638, 680, 682, 692, 706, 737, 781,
            792, 793, 838, 846, 849, 859, 868, 870, 871, 882, 912, 937, 938, 946, 948, 959, 990,
            1000, 1003, 1025, 1026, 1080, 1148, 1184, 1213, 1222, 1236, 1250, 1420, 1662,
        ],
        13,
        0x3fb2_47e0_aa99_b9de,
    );
    let out = kmeans_points(&coords, &w, n_mu, KmeansOptions::default());
    assert_eq!(out.active_points, 1613);
    assert_eq!(out.points, points);
    assert_eq!(out.iterations, iterations);
    assert_eq!(out.objective.to_bits(), objective, "{}", out.objective);
}
