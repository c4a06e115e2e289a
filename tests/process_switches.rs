//! A solve reads the process-wide reference-path switch (the SIMD kernel)
//! and never writes it. This file holds one test so that it is its own
//! process: nothing else races on the switch.

use lrtddft::{synthetic_problem, IsdfRank, Solver};
use mathkit::{active_kernel, force_kernel, Kernel};
use parcomm::spmd;

/// Puts the switch back when the test ends, pass or fail.
struct Restore;

impl Drop for Restore {
    fn drop(&mut self) {
        force_kernel(None);
    }
}

#[test]
fn solve_leaves_kernel_switch_alone() {
    // The CI scalar job pins the switch through the environment; the
    // property is only observable when this test is the one setting it.
    if std::env::var_os("MATHKIT_KERNEL").is_some() {
        return;
    }
    let _restore = Restore;
    force_kernel(Some(Kernel::Scalar));

    let p = synthetic_problem([8, 8, 8], 6.0, 2, 2);
    let solver = Solver::builder().n_states(2).rank(IsdfRank::Fixed(p.n_cv())).build();
    solver.solve(&p).expect("serial solve");
    spmd(2, |c| solver.solve_distributed(c, &p));

    assert_eq!(active_kernel(), Kernel::Scalar, "a solve re-selected the SIMD kernel");
}
