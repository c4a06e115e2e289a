//! The exact `allreduce` schedule of a distributed K-Means ISDF build: one
//! packed reduce per Lloyd sweep (coordinate sums | cluster weights |
//! objective), one for the sampled rows (ψ̂ | φ̂) and one for `Ṽ` with its
//! fit-residual riders. Splitting any packed reduction into per-field
//! collectives changes the count.

use isdf::{kmeans_points, pair_weights, KmeansOptions};
use lrtddft::{silicon_like_problem, IsdfRank, Solver};
use parcomm::spmd;

#[test]
fn kmeans_isdf_build_issues_one_allreduce_per_sweep_plus_two() {
    let problem = silicon_like_problem(1, 10, 3);
    let n_mu = IsdfRank::default().resolve(problem.n_r(), problem.n_v(), problem.n_c());
    let solver = Solver::builder().rank(IsdfRank::Fixed(n_mu)).seed(0xcafe).build();

    // The serial Lloyd loop on the same weights and grid: the distributed
    // one takes the same decisions on replicated sums, hence the same sweeps.
    let coords: Vec<[f64; 3]> = (0..problem.n_r()).map(|i| problem.grid.coords(i)).collect();
    let w = pair_weights(&problem.psi_v, &problem.psi_c);
    let opts = KmeansOptions { seed: 0xcafe, ..Default::default() };
    let serial = kmeans_points(&coords, &w, n_mu, opts);

    let calls = spmd(4, |c| {
        solver.hamiltonian(c, &problem).expect("K-Means ISDF build");
        c.stats().allreduce.calls
    });
    let want = serial.iterations as u64 + 2;
    assert!(serial.iterations > 1, "the pin needs more than one sweep");
    assert_eq!(calls, vec![want; 4], "{} sweeps + the sampled rows + Ṽ", serial.iterations);
}
