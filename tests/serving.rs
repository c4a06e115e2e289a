//! Integration tests for the `served` multi-tenant scheduler: concurrent
//! same-shape solves must share the process-wide FFT plan cache, and a
//! tenant's poisoned input must never leak into a co-scheduled tenant's
//! results.
//!
//! `obskit`'s recorder and counters are process-global, so the tests that
//! read them take `OBSKIT_LOCK` and drain leftover state first.

use lrtddft::{synthetic_problem, Solver};
use parcomm::spmd;
use served::{JobOutcome, JobSpec, ServeConfig, Service};
use std::sync::{Arc, Mutex};

static OBSKIT_LOCK: Mutex<()> = Mutex::new(());

fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    let guard = OBSKIT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obskit::disable();
    let _ = obskit::take_trace();
    guard
}

fn four_rank_config() -> ServeConfig {
    ServeConfig { ranks: 4, groups: 2, ..Default::default() }
}

/// Four tenants construct *their own* problem objects of the same shape (as
/// real clients would) and solve them concurrently on both groups. The 1-D
/// FFT plan table is process-wide, so at most one construction may build the
/// length-8 plan; every other lookup must hit the shared entry.
#[test]
fn concurrent_same_shape_solves_share_fft_plan_cache() {
    let _g = exclusive();
    obskit::enable();
    let service = Service::start(four_rank_config());
    let mut results = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4u64)
            .map(|tenant| {
                let service = &service;
                s.spawn(move || {
                    // Constructed inside the client thread: plan-cache
                    // lookups race for real across tenants.
                    let problem = Arc::new(synthetic_problem([8, 8, 8], 6.0, 2, 2));
                    let spec = JobSpec::new(tenant, problem)
                        .with_solver(Solver::builder().n_states(2).build());
                    service.submit(spec).expect("admitted").wait().expect("completed")
                })
            })
            .collect();
        for h in handles {
            results.push(h.join().expect("client thread"));
        }
    });
    service.shutdown();
    obskit::disable();
    let counters = obskit::take_trace().counters;

    // One cubic Fft3 per tenant = one plan lookup each. The cache may have
    // been warmed by an earlier test in this process, so misses are at most
    // one, and at least the other three tenants must have shared.
    assert!(
        counters.fft_plan_hits >= 3,
        "expected >= 3 plan-cache hits across 4 same-shape tenants, got {}",
        counters.fft_plan_hits
    );
    assert!(
        counters.fft_plan_misses <= 1,
        "same-shape tenants must not each build their own plan ({} misses)",
        counters.fft_plan_misses
    );
    // Identical shape + identical options ⇒ identical eigenvalues at the
    // width a job ran on; a cache hit carries a solved job's values.
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let solver = Solver::builder().n_states(2).build();
    let problem = synthetic_problem([8, 8, 8], 6.0, 2, 2);
    let solved: Vec<_> = results.iter().filter(|r| !r.cache_hit).collect();
    assert!(!solved.is_empty(), "the first of the four was solved");
    for r in &solved {
        let solo = spmd(r.ranks, |c| solver.solve_distributed(c, &problem).0).swap_remove(0);
        assert_eq!(bits(&r.values), bits(&solo), "a solve at {} ranks left its oracle", r.ranks);
    }
    for r in results.iter().filter(|r| r.cache_hit) {
        assert!(
            solved.iter().any(|s| bits(&s.values) == bits(&r.values)),
            "a cache hit carries values no solve produced"
        );
    }
}

/// Tenant A submits a problem with one NaN or +Inf orbital value; tenant B
/// submits the clean problem, co-scheduled on the same service. A's build
/// fails its input check, so A ends with the typed error naming the
/// poisoned field; B's eigenvalues must be bitwise identical to a
/// fault-free solo run at the width B ran on.
#[test]
fn poisoned_tenant_never_contaminates_coscheduled_victim() {
    let problem = Arc::new(synthetic_problem([8, 8, 8], 6.0, 2, 2));
    let solver = Solver::builder().n_states(2).build();
    let solo = |ranks| spmd(ranks, |c| solver.solve_distributed(c, &problem).0).swap_remove(0);

    for poison in [f64::NAN, f64::INFINITY] {
        let mut bad = synthetic_problem([8, 8, 8], 6.0, 2, 2);
        bad.psi_v.as_mut_slice()[17] = poison;
        let service = Service::start(four_rank_config());
        let poisoned = JobSpec::new(0xa, Arc::new(bad)).with_solver(solver);
        let clean = JobSpec::new(0xb, Arc::clone(&problem)).with_solver(solver);
        let ha = service.submit(poisoned).expect("attacker admitted");
        let hb = service.submit(clean).expect("victim admitted");
        let ra = ha.outcome();
        let rb = hb.wait().expect("victim completes");
        service.shutdown();

        match ra {
            JobOutcome::Failed { error } => assert!(
                error.contains("non-finite value in `problem.psi_v` at element 17"),
                "{poison}: the typed error names the poisoned field: {error}"
            ),
            other => panic!("{poison}: a poisoned input must fail the attacker, got {other:?}"),
        }

        let want = solo(rb.ranks);
        assert_eq!(rb.values.len(), want.len());
        assert!(
            rb.values.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()),
            "{poison}: victim diverged from the fault-free solo run at {} ranks: {:?} vs {:?}",
            rb.ranks,
            rb.values,
            want
        );
        assert_eq!(rb.batch_size, 1, "{poison}: the victim shared the attacker's build");
        assert!(!rb.cache_hit, "{poison}: the victim solved fresh on a fresh service");
    }
}
