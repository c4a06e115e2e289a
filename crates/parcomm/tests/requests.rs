//! Tests for the request API: waits in any order on any rank complete,
//! issue never blocks on a peer, uneven/empty all-to-all slabs route, and
//! the request forms agree bitwise with the blocking collectives.

use parcomm::{spmd, Comm};
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// Deterministic pseudo-random doubles so every rank regenerates the same
/// global picture without sharing state.
fn fill(seed: u64, len: usize) -> Vec<f64> {
    let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(0x2545f491);
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            // map to roughly [-1, 1) with full mantissa entropy
            (s >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        })
        .collect()
}

fn rank_data(c: &Comm, seed: u64, len: usize) -> Vec<f64> {
    fill(seed.wrapping_add(c.rank() as u64 * 1_000_003), len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Several requests issued back-to-back, then waited in *reverse* issue
    /// order: a wait needs only the peers' deposits, so this must not
    /// deadlock and every payload must match its blocking counterpart.
    #[test]
    fn out_of_order_waits_complete(ranks in 1usize..6, len in 1usize..300, seed in 0u64..u64::MAX) {
        let n_reqs = 4usize;
        let results = spmd(ranks, |c| {
            let inputs: Vec<Vec<f64>> =
                (0..n_reqs).map(|i| rank_data(c, seed.wrapping_add(i as u64), len + i)).collect();
            let expected: Vec<Vec<f64>> = inputs
                .iter()
                .map(|v| {
                    let mut b = v.clone();
                    c.allreduce_sum(&mut b);
                    b
                })
                .collect();

            let mut reqs: Vec<_> =
                inputs.into_iter().map(|v| c.iallreduce_sum(v)).collect();
            // Collect payloads last-issued-first.
            let mut got: Vec<(usize, Vec<f64>)> = Vec::new();
            while let Some(rq) = reqs.pop() {
                got.push((reqs.len(), rq.wait()));
            }
            for (i, nb) in got {
                let want = &expected[i];
                prop_assert_eq!(nb.len(), want.len());
                for (a, b) in nb.iter().zip(want.iter()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            Ok(())
        });
        for r in results {
            r?;
        }
    }

    /// `alltoallv` with uneven per-destination slab lengths, including empty
    /// slabs: rank `d` must receive exactly the slab rank `s` addressed to it,
    /// in source-rank order.
    #[test]
    fn alltoallv_uneven_and_empty_slabs(ranks in 1usize..6, seed in 0u64..u64::MAX) {
        // Global slab-length table, same on every rank: len(s, d) in 0..7
        // with a deterministic scatter of zeros (empty slabs).
        let slab_len = |s: usize, d: usize| -> usize {
            let h = seed
                .wrapping_add(s as u64 * 293)
                .wrapping_add(d as u64 * 7919)
                .wrapping_mul(0x9e3779b97f4a7c15);
            ((h >> 32) % 7) as usize // 0..7, ~1 in 7 slabs empty
        };
        let slab = |s: usize, d: usize| fill(seed ^ ((s * 64 + d) as u64), slab_len(s, d));

        let results = spmd(ranks, |c| {
            let me = c.rank();
            let send: Vec<Vec<f64>> = (0..ranks).map(|d| slab(me, d)).collect();
            let recv = c.alltoallv(send);
            prop_assert_eq!(recv.len(), ranks);
            for (s, got) in recv.iter().enumerate() {
                let want = slab(s, me);
                prop_assert_eq!(got.len(), want.len());
                for (a, b) in got.iter().zip(want.iter()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            Ok(())
        });
        for r in results {
            r?;
        }
    }

    /// Every reduction folds each element over the ranks in ascending order
    /// from `+0.0`, however its segments were shared out among the waiters,
    /// so `iallreduce_sum` and `ireduce_sum` must agree *bitwise* with the
    /// blocking allreduce for 1..=8 ranks and lengths spanning segments.
    #[test]
    fn ring_matches_blocking_bitwise(ranks in 1usize..=8, len in 1usize..5000, seed in 0u64..u64::MAX) {
        let results = spmd(ranks, |c| {
            let mine = rank_data(c, seed, len);

            let mut blocking = mine.clone();
            c.allreduce_sum(&mut blocking);
            let nb_all = c.iallreduce_sum(mine.clone()).wait();

            let root = ranks - 1;
            let nb_red = c.ireduce_sum(mine, root).wait();

            for (a, b) in nb_all.iter().zip(blocking.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            if c.rank() == root {
                prop_assert_eq!(nb_red.len(), blocking.len());
                for (a, b) in nb_red.iter().zip(blocking.iter()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            } else {
                prop_assert!(nb_red.is_empty());
            }
            Ok(())
        });
        for r in results {
            r?;
        }
    }
}

/// Mixed op kinds issued together and waited in reverse issue order, with a
/// blocking all-to-all completed while both requests are still outstanding.
#[test]
fn interleaved_op_kinds_waited_in_reverse_order() {
    let ranks = 4;
    let results = spmd(ranks, |c| {
        let me = c.rank();
        let rq_red = c.ireduce_sum(rank_data(c, 3, 33), 2);
        let rq_all = c.iallreduce_sum(rank_data(c, 9, 100));
        let a2a = c.alltoallv((0..ranks).map(|q| vec![me as f64, q as f64]).collect());
        let all = rq_all.wait();
        let red = rq_red.wait();
        (red, all, a2a)
    });
    let sum_of = |seed: u64, len: usize| {
        let mut acc = vec![0.0; len];
        for r in 0..ranks {
            let v = fill(seed.wrapping_add(r as u64 * 1_000_003), len);
            acc.iter_mut().zip(v).for_each(|(a, x)| *a += x);
        }
        acc
    };
    let (want_red, want_all) = (sum_of(3, 33), sum_of(9, 100));
    for (me, (red, all, a2a)) in results.iter().enumerate() {
        assert_eq!(red, if me == 2 { &want_red[..] } else { &[] });
        assert_eq!(all, &want_all);
        for (src, chunk) in a2a.iter().enumerate() {
            assert_eq!(chunk, &vec![src as f64, me as f64]);
        }
    }
}

/// Two outstanding allreduces waited in *opposite* orders on the two ranks:
/// a wait depends only on the peer having issued, so neither rank waits on
/// the other's wait, and both sums are the blocking ones bit for bit.
#[test]
fn opposite_wait_orders_complete_bitwise() {
    let results = spmd(2, |c| {
        let (a, b) = (rank_data(c, 21, 5000), rank_data(c, 22, 7));
        let mut want = (a.clone(), b.clone());
        c.allreduce_sum(&mut want.0);
        c.allreduce_sum(&mut want.1);
        let (rq_a, rq_b) = (c.iallreduce_sum(a), c.iallreduce_sum(b));
        let got = if c.rank() == 0 {
            let a = rq_a.wait();
            (a, rq_b.wait())
        } else {
            let b = rq_b.wait();
            (rq_a.wait(), b)
        };
        (got, want)
    });
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for ((got_a, got_b), (want_a, want_b)) in results {
        assert_eq!(bits(&got_a), bits(&want_a));
        assert_eq!(bits(&got_b), bits(&want_b));
    }
}

/// Issue deposits and returns: rank 0's issue does not wait for a peer that
/// has not issued yet, and its wait picks the sum up once the peer arrives.
#[test]
fn late_peer_does_not_block_issue() {
    let results = spmd(2, |c| {
        if c.rank() == 1 {
            std::thread::sleep(Duration::from_millis(50));
        }
        let t0 = Instant::now();
        let rq = c.iallreduce_sum(vec![c.rank() as f64 + 1.0; 4]);
        let issue = t0.elapsed();
        (issue, rq.wait())
    });
    assert!(results[0].0 < Duration::from_millis(5), "issue took {:?}", results[0].0);
    for (_, sum) in results {
        assert_eq!(sum, vec![3.0; 4]);
    }
}

// ------------------------------------------------- fault-injection recovery

mod faults {
    use super::*;
    use faultkit::{FaultKind, FaultPlan};
    use std::time::{Duration, Instant};

    /// An injected stall longer than the first 60 ms deadline: the
    /// wait-with-deadline must fire at least once, the backoff retries
    /// (60 + 120 ms by the second attempt) must then pick the payload up, and
    /// the sum must match the blocking path bitwise.
    #[test]
    fn stall_fires_deadline_then_recovers() {
        let stall_ms = 150u64;
        let campaign = faultkit::arm(
            FaultPlan::new(11).with("comm.iallreduce", 0, FaultKind::CommStall {
                micros: stall_ms * 1000,
            }),
        );
        let t0 = Instant::now();
        let results = spmd(2, |c| {
            let mine = rank_data(c, 77, 300);
            let mut expect = mine.clone();
            c.allreduce_sum(&mut expect);
            let rq = c.iallreduce_sum(mine.clone());
            let got = c
                .settle(rq, |c| c.iallreduce_sum(mine.clone()))
                .expect("stall within budget must recover");
            (expect, got)
        });
        // The wait slept through at least the first 60 ms deadline on each
        // rank.
        assert!(t0.elapsed() >= Duration::from_millis(stall_ms));
        for (expect, got) in results {
            assert_eq!(expect, got, "recovered sum must match blocking path bitwise");
        }
        let events = campaign.events();
        assert_eq!(events.len(), 2, "stall fires once per rank: {events:?}");
        assert!(events.iter().all(|e| e.site == "comm.iallreduce"));
    }

    /// A stall larger than the entire deadline/backoff budget (60 + 120 +
    /// 180 + 240 + 300 ms = 0.9 s) must surface `CommError::Stalled` (with
    /// the attempt count) instead of hanging.
    #[test]
    fn stall_beyond_budget_surfaces_stalled() {
        let _campaign = faultkit::arm(
            FaultPlan::new(12).with("comm.iallreduce", 0, FaultKind::CommStall {
                micros: 1_200_000,
            }),
        );
        let results = spmd(2, |c| {
            let rq = c.iallreduce_sum(vec![c.rank() as f64; 16]);
            rq.wait_deadline()
        });
        for r in results {
            match r {
                Err(faultkit::CommError::Stalled { op, waited, attempts }) => {
                    assert_eq!(op, "iallreduce");
                    assert_eq!(waited, Duration::from_millis(900));
                    assert_eq!(attempts, 5);
                }
                other => panic!("expected Stalled, got {other:?}"),
            }
        }
    }

    /// A dropped request is re-issued symmetrically on every rank and the
    /// retry completes with the exact blocking-path sum.
    #[test]
    fn dropped_request_reissues_and_recovers() {
        let campaign = faultkit::arm(
            FaultPlan::new(13).with("comm.iallreduce", 0, FaultKind::CommDrop),
        );
        let results = spmd(4, |c| {
            let mine = rank_data(c, 5, 120);
            let mut expect = mine.clone();
            c.allreduce_sum(&mut expect);
            let rq = c.iallreduce_sum(mine.clone());
            let got = c
                .settle(rq, |c| c.iallreduce_sum(mine.clone()))
                .expect("drop must recover by re-issue");
            (expect, got)
        });
        for (expect, got) in results {
            assert_eq!(expect, got);
        }
        let events = campaign.events();
        assert_eq!(events.len(), 4, "drop decision must fire on all 4 ranks: {events:?}");
        assert!(events.iter().all(|e| e.kind == FaultKind::CommDrop));
    }

    /// A packed reduce whose request is dropped re-issues from the caller's
    /// untouched buffer and still returns the blocking-path sum bitwise.
    #[test]
    fn dropped_packed_reduce_reissues_from_the_buffer() {
        let campaign = faultkit::arm(
            FaultPlan::new(15).with("comm.iallreduce", 0, FaultKind::CommDrop),
        );
        let results = spmd(3, |c| {
            let mut got = rank_data(c, 8, 90);
            let mut expect = got.clone();
            c.allreduce_sum(&mut expect);
            c.allreduce_packed(&mut got).expect("drop must recover by re-issue");
            (expect, got, c.stats().iallreduce.calls)
        });
        for (expect, got, calls) in results {
            assert_eq!(expect, got);
            assert_eq!(calls, 2, "the dropped issue and its one re-issue");
        }
        assert_eq!(campaign.fired(), 3, "drop decision must fire on all 3 ranks");
    }

    /// Blocking collectives hook under a separate site, so request-API fault
    /// plans leave them untouched.
    #[test]
    fn blocking_site_is_isolated_from_request_site() {
        let campaign = faultkit::arm(
            FaultPlan::new(14).with("comm.iallreduce", 0, FaultKind::CommDrop),
        );
        let results = spmd(2, |c| {
            let mut buf = vec![1.0; 8];
            c.allreduce_sum(&mut buf); // must not see the drop
            buf[0]
        });
        assert_eq!(results, vec![2.0, 2.0]);
        assert_eq!(campaign.fired(), 0);
    }
}
