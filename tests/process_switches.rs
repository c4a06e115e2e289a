//! A solve reads the process-wide reference-path switches (SIMD kernel,
//! reduction fusion) and never writes them. This file holds one test so that
//! it is its own process: nothing else races on the switches.

use lrtddft::{synthetic_problem, IsdfRank, Solver};
use mathkit::{active_kernel, force_kernel, Kernel};
use parcomm::{fusion_enabled, set_fusion_enabled, spmd};

/// Puts both switches back when the test ends, pass or fail.
struct Restore {
    fusion: bool,
}

impl Drop for Restore {
    fn drop(&mut self) {
        force_kernel(None);
        set_fusion_enabled(self.fusion);
    }
}

#[test]
fn solve_leaves_kernel_and_fusion_switches_alone() {
    // The CI fallback jobs pin the switches through the environment; the
    // property is only observable when this test is the one setting them.
    if std::env::var_os("MATHKIT_KERNEL").is_some() || std::env::var_os("PARCOMM_NO_FUSE").is_some()
    {
        return;
    }
    let _restore = Restore { fusion: fusion_enabled() };
    force_kernel(Some(Kernel::Scalar));
    set_fusion_enabled(false);

    let p = synthetic_problem([8, 8, 8], 6.0, 2, 2);
    let solver = Solver::builder().n_states(2).rank(IsdfRank::Fixed(p.n_cv())).build();
    solver.solve(&p).expect("serial solve");
    spmd(2, |c| solver.solve_distributed(c, &p));

    assert_eq!(active_kernel(), Kernel::Scalar, "a solve re-selected the SIMD kernel");
    assert!(!fusion_enabled(), "a solve switched reduction fusion back on");
}
