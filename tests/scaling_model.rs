//! Integration of the calibrated scaling machinery: real distributed runs
//! feed the α–β extrapolation (the Fig. 7/8 methodology), and the redistri-
//! bution layer holds under randomized shapes.

use bench::scaling::{isdf_construct_stages, CommPattern, ScalingStudy, Stage};
use lrtddft::problem::silicon_like_problem;
use lrtddft::{build_isdf_hamiltonian, Solver, StageTimings};
use parcomm::{block_ranges, spmd, Comm, CostModel};
use proptest::prelude::*;

#[test]
fn calibrated_isdf_study_has_paper_shape() {
    // Measure real serial works, then check the extrapolated curve:
    // monotone efficiency decay, compute share shrinking with ranks.
    let p = silicon_like_problem(1, 12, 4);
    let n_mu = 40.min(p.n_cv());
    let clock = obskit::StageClock::now();
    let selector = Solver::builder().kmeans_selector();
    build_isdf_hamiltonian(&Comm::solo(), &p, selector, n_mu).expect("clean build");
    let t = StageTimings::since(clock);
    let stages = isdf_construct_stages(&t, p.n_r(), p.n_v(), p.n_c(), n_mu);
    let study = ScalingStudy::new(stages, CostModel::default());
    let rows = study.strong_scaling(&[128, 256, 512, 1024, 2048]);
    assert!((rows[0].parallel_efficiency - 1.0).abs() < 1e-12);
    for w in rows.windows(2) {
        assert!(w[1].parallel_efficiency <= w[0].parallel_efficiency + 1e-9);
        assert!(w[1].compute_seconds <= w[0].compute_seconds + 1e-12);
        assert!(w[1].comm_seconds >= w[0].comm_seconds - 1e-12);
    }
}

#[test]
fn larger_work_scales_further() {
    // The paper's observation: bigger systems keep efficiency longer. Scale
    // all works 100× and compare efficiency at 2048 ranks.
    let mk = |scale: f64| {
        ScalingStudy::new(
            vec![Stage::new(
                "gemm",
                0.01 * scale,
                vec![CommPattern::Allreduce { bytes: 1 << 20, times: 1 }],
            )],
            CostModel::default(),
        )
    };
    let small = mk(1.0).strong_scaling(&[128, 2048]);
    let large = mk(100.0).strong_scaling(&[128, 2048]);
    assert!(
        large[1].parallel_efficiency > small[1].parallel_efficiency,
        "large {} should beat small {}",
        large[1].parallel_efficiency,
        small[1].parallel_efficiency
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn redistribution_roundtrip_random_shapes(
        n_rows in 1usize..40,
        n_cols in 1usize..12,
        ranks in 1usize..6,
    ) {
        use parcomm::redist::{col_to_row_blocks, row_to_col_blocks};
        let results = spmd(ranks, |c| {
            let rr = block_ranges(n_rows, ranks)[c.rank()].clone();
            let mut piece = vec![0.0; rr.len() * n_cols];
            for j in 0..n_cols {
                for (il, i) in rr.clone().enumerate() {
                    piece[j * rr.len() + il] = (i * 131 + j * 17) as f64;
                }
            }
            let col = row_to_col_blocks(c, &piece, n_rows, n_cols);
            let back = col_to_row_blocks(c, &col, n_rows, n_cols);
            back == piece
        });
        prop_assert!(results.into_iter().all(|ok| ok));
    }

    #[test]
    fn cost_model_monotone_in_bytes_and_ranks(
        bytes_a in 1usize..1_000_000,
        extra in 1usize..1_000_000,
        p in 2usize..4096,
    ) {
        let m = CostModel::default();
        prop_assert!(m.allreduce(p, bytes_a + extra) >= m.allreduce(p, bytes_a));
        prop_assert!(m.bcast(p, bytes_a + extra) >= m.bcast(p, bytes_a));
        // latency term grows with p for fixed bytes
        prop_assert!(m.alltoallv(2 * p, bytes_a) >= m.alltoallv(p, bytes_a) - 1e-12);
    }
}
