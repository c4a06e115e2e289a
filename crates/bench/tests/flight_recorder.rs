//! End-to-end properties of the flight recorder + fault-recovery path:
//!
//! * a fault injected mid-solve trips the recovery ladder, the ladder fires
//!   the `faultkit` solve-error hook, and the hook's flight-ring dump is a
//!   well-formed Chrome trace (validated by the in-tree parser);
//! * a rank thread that panics mid-workload leaves aborted spans in the
//!   ring and a ragged trace stream that still validates.
//!
//! Both properties drive process-global state (obskit's recorder and ring,
//! faultkit's hook), so every case runs under one test-local mutex.

use lrtddft::{silicon_like_problem, IsdfRank, Solver, Version};
use obskit::Stage;
use proptest::prelude::*;
use proptest::TestCaseError;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

static GLOBAL_STATE: Mutex<()> = Mutex::new(());

/// Reset every piece of obskit/faultkit global state a case can leak.
fn fresh() -> std::sync::MutexGuard<'static, ()> {
    let g = GLOBAL_STATE.lock().unwrap_or_else(|p| p.into_inner());
    obskit::disable();
    let _ = obskit::take_trace();
    obskit::flight::set_enabled(true);
    obskit::flight::clear();
    faultkit::clear_solve_error_hook();
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// NaN-poison LOBPCG's workspace at a seeded plan: the solve must
    /// recover, the error hook must fire, and the flight dump it writes
    /// must parse and validate as a Chrome trace.
    #[test]
    fn faulted_solve_dumps_valid_flight_trace(seed in 0u64..1_000_000) {
        let _g = fresh();
        let problem = silicon_like_problem(1, 8, 2);
        let dump = std::env::temp_dir().join(format!("flight_prop_{seed}.json"));
        let _ = std::fs::remove_file(&dump);

        let fires = Arc::new(AtomicUsize::new(0));
        let hook_fires = Arc::clone(&fires);
        let hook_path = dump.clone();
        faultkit::set_solve_error_hook(move |_err| {
            hook_fires.fetch_add(1, Ordering::SeqCst);
            let _ = obskit::flight::dump_to(&hook_path);
        });
        let campaign = faultkit::arm(
            faultkit::FaultPlan::new(seed).with("lobpcg.w", 0, faultkit::FaultKind::NanPoison),
        );
        let solved = Solver::builder()
            .version(Version::ImplicitKmeansIsdfLobpcg)
            .rank(IsdfRank::Fixed(problem.n_cv()))
            .n_states(2)
            .seed(seed)
            .solve(&problem);
        faultkit::clear_solve_error_hook();
        prop_assert!(campaign.fired() > 0, "fault plan never fired");
        drop(campaign);

        let solution = solved.map_err(|e| TestCaseError::fail(format!("solve failed: {e}")))?;
        prop_assert!(!solution.recovery.is_empty(), "ladder left no recovery log");
        prop_assert!(fires.load(Ordering::SeqCst) > 0, "error hook never fired");

        let text = std::fs::read_to_string(&dump)
            .map_err(|e| TestCaseError::fail(format!("dump unreadable: {e}")))?;
        let stats = obskit::chrome::validate_chrome_trace(&text)
            .map_err(|e| TestCaseError::fail(format!("dump invalid: {e}")))?;
        prop_assert!(stats.spans > 0, "flight dump carried no spans");
        let _ = std::fs::remove_file(&dump);
    }

    /// A rank that panics partway through an SPMD-shaped workload leaves a
    /// shorter stream (and aborted spans in the flight ring); the surviving
    /// trace must still validate with a positive wall clock, and the ring
    /// must still dump a valid Chrome trace.
    #[test]
    fn mid_solve_panic_leaves_valid_trace_and_flight_dump(
        ranks in 2usize..4,
        panic_rank in 0usize..2,
        panic_at in 0usize..4,
    ) {
        let _g = fresh();
        let rounds = 4usize;
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

        let snap = obskit::flight::snapshot();
        prop_assert!(
            snap.iter().any(|e| e.kind == obskit::flight::FlightKind::AbortedSpan),
            "no aborted span reached the flight ring"
        );
        let dump = obskit::flight::dump_chrome_json();
        obskit::chrome::validate_chrome_trace(&dump)
            .map_err(|e| TestCaseError::fail(format!("flight dump invalid: {e}")))?;
    }
}
