//! The deferred-reduction scheduler fuses a distributed solve's small
//! collectives without changing a bit of its answer. The fusion switch is
//! process-wide, and flipping it while another test's ranks are
//! mid-collective hangs them, so this file holds one test and is its own
//! process.

use lrtddft::{silicon_like_problem, IsdfRank, Solver};
use parcomm::spmd;

/// Replicated eigenvalues and the α-dominated (≤ 32 KiB) collective calls
/// of all ranks, for one 4-rank ISDF solve with fusion on or off.
fn solve(fused: bool) -> (Vec<f64>, u64) {
    parcomm::set_fusion_enabled(fused);
    let problem = silicon_like_problem(1, 10, 3);
    let n_mu = IsdfRank::default().resolve(problem.n_r(), problem.n_v(), problem.n_c());
    let solver = Solver::builder().rank(IsdfRank::Fixed(n_mu)).n_states(4).seed(0xcafe);
    let per_rank = spmd(4, |c| (solver.solve_distributed(c, &problem).0, c.stats().alpha_calls));
    let values = per_rank[0].0.clone();
    assert!(per_rank.iter().all(|(v, _)| v == &values), "eigenvalues are replicated");
    (values, per_rank.iter().map(|(_, a)| a).sum())
}

#[test]
fn fused_solve_is_bitwise_unfused_with_at_most_60_percent_of_the_alpha_calls() {
    let was = parcomm::fusion_enabled();
    let (unfused, unfused_alpha) = solve(false);
    let (fused, fused_alpha) = solve(true);
    parcomm::set_fusion_enabled(was);

    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&fused), bits(&unfused), "fusion changed the eigenvalues");
    assert!(
        fused_alpha as f64 <= 0.6 * unfused_alpha as f64,
        "fused solve issues {fused_alpha} α-dominated calls against {unfused_alpha} unfused"
    );
}
