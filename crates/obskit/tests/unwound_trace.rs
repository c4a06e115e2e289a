//! A rank thread that panics mid-workload leaves a ragged event stream —
//! its open span closes as aborted during the unwind — and the trace taken
//! afterwards must still validate with a positive wall clock.

use obskit::Stage;
use proptest::prelude::*;
use proptest::TestCaseError;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn mid_solve_panic_leaves_valid_trace(
        ranks in 2usize..4,
        panic_rank in 0usize..2,
        panic_at in 0usize..4,
    ) {
        let rounds = 4usize;
        obskit::disable();
        let _ = obskit::take_trace();
        obskit::enable();
        let handles: Vec<_> = (0..ranks)
            .map(|r| {
                std::thread::spawn(move || {
                    obskit::set_rank(r);
                    for i in 0..rounds {
                        let work = obskit::span(Stage::Theta, "theta.assemble");
                        std::thread::sleep(Duration::from_micros(150 + 40 * r as u64));
                        if r == panic_rank && i == panic_at {
                            panic!("injected mid-solve panic");
                        }
                        drop(work);
                        let coll = obskit::span(Stage::Mpi, "mpi:allreduce");
                        std::thread::sleep(Duration::from_micros(120));
                        drop(coll);
                    }
                })
            })
            .collect();
        let mut panics = 0;
        for h in handles {
            panics += usize::from(h.join().is_err());
        }
        obskit::disable();
        prop_assert_eq!(panics, 1, "exactly the chosen rank must panic");

        let trace = obskit::take_trace();
        trace
            .validate()
            .map_err(|e| TestCaseError::fail(format!("unwound trace invalid: {e}")))?;
        prop_assert!(trace.wall_seconds() > 0.0);
    }
}
