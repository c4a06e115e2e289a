//! `kmeans_points` on `silicon_like_problem(1, 12, 4)` returns, to the bit,
//! what it returned when the nearest-centroid search was the scalar
//! first-minimum loop (kept as the `#[cfg(test)]` oracle in
//! `isdf::kmeans`): the points, the sweep count and the objective below
//! were recorded with that loop. The weight-guided run uses the search in
//! every Lloyd sweep, the k-means++ run in its seeding as well.

use isdf::{kmeans_points, pair_weights, KmeansInit, KmeansOptions};
use lrtddft::silicon_like_problem;

#[test]
fn kmeans_points_returns_the_first_minimum_loops_points_sweeps_and_objective() {
    let p = silicon_like_problem(1, 12, 4);
    let coords: Vec<[f64; 3]> = (0..p.n_r()).map(|i| p.grid.coords(i)).collect();
    let w = pair_weights(&p.psi_v, &p.psi_c);
    let cases: [(KmeansInit, usize, &[usize], usize, u64); 2] = [
        (
            KmeansInit::WeightGuided,
            64,
            &[
                154, 157, 210, 247, 276, 287, 314, 328, 338, 352, 381, 392, 406, 417, 446, 458, 460,
                471, 473, 484, 536, 539, 549, 560, 594, 616, 627, 638, 680, 682, 692, 706, 737, 781,
                792, 793, 838, 846, 849, 859, 868, 870, 871, 882, 912, 937, 938, 946, 948, 959, 990,
                1000, 1003, 1025, 1026, 1080, 1148, 1184, 1213, 1222, 1236, 1250, 1420, 1662,
            ],
            13,
            0x3fb2_47e0_aa99_b9de,
        ),
        (
            KmeansInit::PlusPlus,
            32,
            &[
                209, 276, 287, 327, 391, 406, 458, 460, 537, 560, 562, 616, 626, 694, 737, 793, 846,
                883, 912, 937, 946, 948, 989, 1000, 1003, 1025, 1081, 1092, 1185, 1250, 1277, 1636,
            ],
            10,
            0x3fc1_2f02_7b2f_2d99,
        ),
    ];
    for (init, n_mu, points, iterations, objective) in cases {
        let out = kmeans_points(&coords, &w, n_mu, KmeansOptions { init, ..Default::default() });
        assert_eq!(out.active_points, 1613, "{init:?}");
        assert_eq!(out.points, points, "{init:?}");
        assert_eq!(out.iterations, iterations, "{init:?}");
        assert_eq!(out.objective.to_bits(), objective, "{init:?}: {}", out.objective);
    }
}
