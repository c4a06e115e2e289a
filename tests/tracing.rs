//! Integration tests for the `obskit` tracing subsystem wired through the
//! full distributed pipeline: the live stage clock a solve reports must
//! equal the rollup of the same run's trace, the Chrome export must be
//! schema-valid with one lane per rank, recording must be thread-safe, and
//! the disabled-mode overhead on the `V_Hxc` GEMM must stay within budget.
//!
//! `obskit`'s recorder is process-global, so every test takes `OBSKIT_LOCK`
//! and drains leftover state before recording.

use lrtddft::{IsdfRank, Solver};
use lrtddft::problem::silicon_like_problem;
use lrtddft::StageTimings;
use mathkit::{Mat, Transpose};
use parcomm::spmd;
use proptest::prelude::*;
use std::sync::Mutex;
use std::time::Instant;

static OBSKIT_LOCK: Mutex<()> = Mutex::new(());

/// Serialize a test against the process-global recorder and start it from a
/// clean, disabled state.
fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    let guard = OBSKIT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obskit::disable();
    let _ = obskit::take_trace();
    guard
}

/// One traced run of the full implicit ISDF-LOBPCG pipeline: the trace plus
/// each rank's reported timings and its wall clock around the solve.
fn traced_pipeline_run(ranks: usize) -> (obskit::Trace, Vec<(StageTimings, f64)>) {
    let p = silicon_like_problem(1, 10, 3);
    let n_mu = p.n_cv().min(5 * (p.n_v() + p.n_c()));
    obskit::enable();
    let solver = Solver::builder().rank(IsdfRank::Fixed(n_mu)).n_states(3).seed(0xbeef).build();
    let per_rank = spmd(ranks, |c| {
        let t0 = Instant::now();
        let timings = solver.solve_distributed(c, &p).1;
        (timings, t0.elapsed().as_secs_f64())
    });
    obskit::disable();
    (obskit::take_trace(), per_rank)
}

/// The live clock and the trace rollup run the same arithmetic over the same
/// timestamps; 1 µs per stage is generous.
fn assert_live_matches_rollup(what: &str, live: &StageTimings, rollup: &StageTimings) {
    for ((name, l), (_, r)) in live.stages().iter().zip(rollup.stages().iter()) {
        assert!(
            (l - r).abs() <= 1e-6,
            "{what} stage {name}: live clock {l:.9}s vs trace rollup {r:.9}s"
        );
    }
}

#[test]
fn live_stage_clock_matches_trace_rollup_on_pipeline() {
    let _g = exclusive();
    let (trace, per_rank) = traced_pipeline_run(4);
    trace.validate().expect("valid span nesting");
    for (rank, (live, wall)) in per_rank.iter().enumerate() {
        let what = format!("rank {rank}");
        assert_live_matches_rollup(&what, live, &StageTimings::from_trace(&trace, rank));
        assert!(live.mpi > 0.0 && live.diag > 0.0, "{what}: clock did not tick: {live:?}");
        // Self times of one thread's nested spans cannot sum past its wall
        // clock.
        assert!(
            live.total() <= *wall,
            "{what}: stage total {:.6}s exceeds wall {wall:.6}s",
            live.total()
        );
    }
}

#[test]
fn poisoned_solve_opens_each_build_span_once_and_closes_all() {
    let _g = exclusive();
    let p = lrtddft::synthetic_problem([8, 8, 8], 6.0, 2, 2);
    let solver = lrtddft::Solver::builder()
        .version(lrtddft::Version::KmeansIsdf)
        .rank(IsdfRank::Fixed(p.n_cv()))
        .build();

    // Poisoned `C` factor: the build fails its finiteness guard after the
    // K-Means, Θ, FFT and GEMM stages ran, and is not run again.
    let campaign = faultkit::arm(
        faultkit::FaultPlan::new(3).with("ham.c", 0, faultkit::FaultKind::NanPoison),
    );
    obskit::enable();
    let t0 = Instant::now();
    let clock = obskit::StageClock::now();
    let failed = solver.solve(&p);
    let live = StageTimings::since(clock);
    let wall = t0.elapsed().as_secs_f64();
    obskit::disable();
    let trace = obskit::take_trace();
    assert_eq!(campaign.fired(), 1);
    match failed {
        Err(faultkit::SolveError::Numerical(faultkit::NumericalError::NonFinite {
            site, ..
        })) => assert_eq!(site, "ham.c"),
        Err(other) => panic!("expected NonFinite at ham.c, got {other}"),
        Ok(_) => panic!("a poisoned C solved"),
    }
    trace.validate().expect("every span of the failed build closes");

    let builds = |name: &str| {
        trace
            .ranks
            .iter()
            .flat_map(|r| r.events.iter())
            .filter(|e| e.kind == obskit::EventKind::Begin && e.name == name)
            .count()
    };
    assert_eq!(builds("theta.solve"), 1, "one build, no rerun");
    assert_eq!(builds("v_tilde.contract"), 1);
    // The serial solve is the one-rank case on a solo communicator, whose
    // collectives return before they open a span.
    let events = trace.ranks.iter().flat_map(|r| r.events.iter());
    assert_eq!(events.filter(|e| e.name.starts_with("mpi:")).count(), 0);
    let rollup = StageTimings::from_trace(&trace, obskit::thread_rank());
    assert_live_matches_rollup("failed solve", &live, &rollup);
    assert!(live.theta > 0.0 && live.total() <= wall);
}

#[test]
fn chrome_export_from_pipeline_run_is_schema_valid() {
    let _g = exclusive();
    let (trace, _) = traced_pipeline_run(4);
    trace.validate().expect("valid span nesting");

    let json = obskit::chrome::chrome_trace_json(&trace);
    let stats = obskit::chrome::validate_chrome_trace(&json).expect("schema-valid export");
    assert!(stats.lanes >= 4, "expected >= 4 rank lanes, got {}", stats.lanes);
    assert!(stats.spans > 0 && stats.instants > 0);
    for cat in ["kmeans", "theta", "fft", "gemm", "mpi", "diag"] {
        assert!(stats.categories.iter().any(|c| c == cat), "missing category {cat}");
    }

    // Per-collective byte accounting reaches the span args…
    for rank in 0..4 {
        assert!(trace.sum_arg(rank, "mpi:", "bytes") > 0.0, "rank {rank} has no mpi bytes");
    }
    // …and LOBPCG convergence telemetry reaches every rank's lane, with
    // monotone iteration numbers.
    for rank in 0..4 {
        let iters = trace.instants(rank, "lobpcg.iter");
        assert!(!iters.is_empty(), "rank {rank} has no lobpcg.iter events");
        let ids: Vec<f64> = iters
            .iter()
            .map(|(_, args)| {
                args.iter().find(|(k, _)| *k == "iter").map(|(_, v)| *v).unwrap_or(-1.0)
            })
            .collect();
        for w in ids.windows(2) {
            assert!(w[0] < w[1], "rank {rank}: iteration counter not increasing: {ids:?}");
        }
    }
}

/// Collectives run on the rank threads that call them: a traced distributed
/// solve records one lane per rank and no helper-thread lane.
#[test]
fn distributed_solve_records_one_lane_per_rank() {
    let _g = exclusive();
    let (trace, _) = traced_pipeline_run(2);
    let lanes: Vec<(usize, &str)> =
        trace.ranks.iter().map(|l| (l.rank, l.label.as_str())).collect();
    assert_eq!(lanes, [(0, "rank 0"), (1, "rank 1")]);
    assert!(lanes.iter().all(|(_, label)| !label.starts_with("progress")));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Concurrent recording from many threads: every event lands in its own
    /// rank lane, nesting stays valid, and counts are exact.
    #[test]
    fn concurrent_spans_keep_per_rank_lanes_consistent(
        threads in 2usize..6,
        reps in 1usize..6,
        depth in 1usize..4,
    ) {
        let _g = exclusive();
        obskit::enable();
        let handles: Vec<_> = (0..threads)
            .map(|rank| {
                std::thread::spawn(move || {
                    obskit::set_rank(rank);
                    for r in 0..reps {
                        let top = obskit::span(obskit::Stage::Gemm, "outer");
                        for d in 0..depth {
                            let inner = obskit::span(obskit::Stage::Mpi, "inner");
                            obskit::instant(
                                obskit::Stage::Other,
                                "tick",
                                &[("rep", r as f64), ("depth", d as f64)],
                            );
                            drop(inner);
                        }
                        drop(top);
                    }
                    obskit::flush_thread();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        obskit::disable();
        let trace = obskit::take_trace();
        prop_assert!(trace.validate().is_ok());
        prop_assert_eq!(trace.ranks.len(), threads);
        for lane in &trace.ranks {
            // Per rep: (1 outer + depth inner) spans at 2 events each, plus
            // depth instants.
            let expect = reps * ((1 + depth) * 2 + depth);
            prop_assert_eq!(lane.events.len(), expect);
        }
        let json = obskit::chrome::chrome_trace_json(&trace);
        let stats = obskit::chrome::validate_chrome_trace(&json).unwrap();
        prop_assert_eq!(stats.lanes, threads);
    }
}

#[test]
fn disabled_tracing_overhead_under_budget() {
    let _g = exclusive();
    // V_Hxc-shaped contraction, big enough (~75 Mflop) that per-call span
    // bookkeeping would be visible if it cost more than an atomic load.
    let (m, n, k) = (96usize, 96usize, 4096usize);
    let a = Mat::from_fn(k, m, |i, j| (((i * 7 + j * 13) % 23) as f64) * 0.04 - 0.44);
    let b = Mat::from_fn(k, n, |i, j| (((i * 11 + j * 3) % 19) as f64) * 0.05 - 0.45);
    let mut out = Mat::zeros(m, n);

    // Interleaved min-of-N with alternating order, retried: wall-clock noise
    // on shared CI hosts can exceed the 2% budget on any single attempt; the
    // minimum over repeated alternating samples isolates the systematic cost.
    let mut run = |with_span: bool| -> f64 {
        let t0 = Instant::now();
        let sp = with_span.then(|| obskit::span(obskit::Stage::Gemm, "v_hxc.contract"));
        mathkit::gemm(2.0, &a, Transpose::Yes, &b, Transpose::No, 0.0, &mut out);
        drop(sp);
        t0.elapsed().as_secs_f64()
    };
    run(true);
    run(false);
    let mut best_ratio = f64::INFINITY;
    for _attempt in 0..3 {
        let mut t_inst = f64::INFINITY;
        let mut t_raw = f64::INFINITY;
        for i in 0..8 {
            let first_instrumented = i % 2 == 0;
            let s1 = run(first_instrumented);
            let s2 = run(!first_instrumented);
            let (ti, tr) = if first_instrumented { (s1, s2) } else { (s2, s1) };
            t_inst = t_inst.min(ti);
            t_raw = t_raw.min(tr);
        }
        best_ratio = best_ratio.min(t_inst / t_raw);
        if best_ratio <= 1.02 {
            break;
        }
    }
    assert!(
        best_ratio <= 1.02,
        "disabled-tracing overhead {:.2}% exceeds the 2% budget",
        (best_ratio - 1.0) * 100.0
    );
    assert!(obskit::take_trace().ranks.is_empty(), "disabled run recorded events");
}
