//! Tests for the request API and the one wait rule: waits in any order on
//! any rank complete, issue never blocks on a peer, a wait outlasts any late
//! peer, uneven/empty all-to-all slabs route, and the request form agrees
//! bitwise with the blocking collectives.

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

    /// Several reduces (to rotating roots) issued back-to-back, then waited
    /// in *reverse* issue order: a wait needs only the peers' deposits, so
    /// this must not deadlock and every root's payload must match its
    /// blocking counterpart.
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

            let root = |i: usize| i % ranks;
            let mut reqs: Vec<_> =
                inputs.into_iter().enumerate().map(|(i, v)| c.ireduce_sum(v, root(i))).collect();
            // Collect payloads last-issued-first.
            let mut got: Vec<(usize, Vec<f64>)> = Vec::new();
            while let Some(rq) = reqs.pop() {
                got.push((reqs.len(), rq.wait()));
            }
            for (i, nb) in got {
                if root(i) != c.rank() {
                    prop_assert!(nb.is_empty());
                    continue;
                }
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
    /// so `ireduce_sum` to every root in turn must agree *bitwise* with the
    /// blocking allreduce for 1..=8 ranks and lengths spanning segments.
    #[test]
    fn ring_matches_blocking_bitwise(ranks in 1usize..=8, len in 1usize..5000, seed in 0u64..u64::MAX) {
        let results = spmd(ranks, |c| {
            let mine = rank_data(c, seed, len);

            let mut blocking = mine.clone();
            c.allreduce_sum(&mut blocking);
            let reqs: Vec<_> = (0..ranks).map(|root| c.ireduce_sum(mine.clone(), root)).collect();
            for (root, rq) in reqs.into_iter().enumerate() {
                let nb_red = rq.wait();
                if c.rank() == root {
                    prop_assert_eq!(nb_red.len(), blocking.len());
                    for (a, b) in nb_red.iter().zip(blocking.iter()) {
                        prop_assert_eq!(a.to_bits(), b.to_bits());
                    }
                } else {
                    prop_assert!(nb_red.is_empty());
                }
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
        let rq_zero = c.ireduce_sum(rank_data(c, 9, 100), 0);
        let a2a = c.alltoallv((0..ranks).map(|q| vec![me as f64, q as f64]).collect());
        let zero = rq_zero.wait();
        let red = rq_red.wait();
        (red, zero, a2a)
    });
    let sum_of = |seed: u64, len: usize| {
        let mut acc = vec![0.0; len];
        for r in 0..ranks {
            let v = fill(seed.wrapping_add(r as u64 * 1_000_003), len);
            acc.iter_mut().zip(v).for_each(|(a, x)| *a += x);
        }
        acc
    };
    let (want_red, want_zero) = (sum_of(3, 33), sum_of(9, 100));
    for (me, (red, zero, a2a)) in results.iter().enumerate() {
        assert_eq!(red, if me == 2 { &want_red[..] } else { &[] });
        assert_eq!(zero, if me == 0 { &want_zero[..] } else { &[] });
        for (src, chunk) in a2a.iter().enumerate() {
            assert_eq!(chunk, &vec![src as f64, me as f64]);
        }
    }
}

/// Two fields, each reduced to both ranks, waited in *opposite* orders on
/// the two ranks: a wait depends only on the peer having issued, so neither
/// rank waits on the other's wait, and both sums are the blocking ones bit
/// for bit.
#[test]
fn opposite_wait_orders_complete_bitwise() {
    let results = spmd(2, |c| {
        let (a, b) = (rank_data(c, 21, 5000), rank_data(c, 22, 7));
        let mut want = (a.clone(), b.clone());
        c.allreduce_sum(&mut want.0);
        c.allreduce_sum(&mut want.1);
        let me = c.rank();
        // This rank's own sums are `rq_a[me]` and `rq_b[me]`.
        let mut rq_a: Vec<_> = (0..2).map(|root| Some(c.ireduce_sum(a.clone(), root))).collect();
        let mut rq_b: Vec<_> = (0..2).map(|root| Some(c.ireduce_sum(b.clone(), root))).collect();
        let wait = |rqs: &mut Vec<Option<parcomm::Request>>| {
            let mine = rqs[me].take().expect("issued").wait();
            rqs[1 - me].take().expect("issued").wait();
            mine
        };
        let got = if me == 0 {
            let a = wait(&mut rq_a);
            (a, wait(&mut rq_b))
        } else {
            let b = wait(&mut rq_b);
            (wait(&mut rq_a), b)
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
        let rq = c.ireduce_sum(vec![c.rank() as f64 + 1.0; 4], 0);
        let issue = t0.elapsed();
        (issue, rq.wait())
    });
    assert!(results[0].0 < Duration::from_millis(5), "issue took {:?}", results[0].0);
    assert_eq!(results[0].1, vec![3.0; 4]);
    assert!(results[1].1.is_empty());
}

/// A collective completes when every rank has issued it, however late: rank
/// 1 reaches `allreduce_sum` 1.2 s after rank 0 — longer than any wait that
/// gives up would allow — and both ranks still get the same sum, bit for
/// bit.
#[test]
fn late_peer_allreduce_gives_every_rank_the_same_bits() {
    let results = spmd(2, |c| {
        if c.rank() == 1 {
            std::thread::sleep(Duration::from_millis(1200));
        }
        let mut buf = rank_data(c, 31, 40);
        c.allreduce_sum(&mut buf);
        buf.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
    });
    let mut want = vec![0.0; 40];
    for r in 0..2u64 {
        let v = fill(31u64.wrapping_add(r * 1_000_003), 40);
        want.iter_mut().zip(v).for_each(|(a, x)| *a += x);
    }
    let want: Vec<u64> = want.iter().map(|x| x.to_bits()).collect();
    assert_eq!(results, vec![want.clone(), want]);
}

// ------------------------------------------------------------- fault sites

/// Fault sites are named after their op: a delay planned for
/// `comm.allgatherv` leaves an `allreduce_sum` alone and fires on the next
/// `allgatherv`, on every rank, which then waits it out.
#[test]
fn fault_sites_are_named_after_their_op() {
    use faultkit::{FaultKind, FaultPlan};
    let campaign = faultkit::arm(
        FaultPlan::new(14).with("comm.allgatherv", 0, FaultKind::CommDelay { micros: 20_000 }),
    );
    let results = spmd(2, |c| {
        let mut buf = vec![1.0; 8];
        c.allreduce_sum(&mut buf);
        let mine = |e: &faultkit::FaultEvent| e.rank == c.rank();
        let fired_before_gather =
            faultkit::handle().expect("armed").events().iter().filter(|e| mine(e)).count();
        let t0 = Instant::now();
        let gathered = c.allgatherv(&[c.rank() as f64]);
        (buf[0], fired_before_gather, gathered, t0.elapsed())
    });
    for (sum, fired, gathered, waited) in results {
        assert_eq!(sum, 2.0);
        assert_eq!(fired, 0, "the allreduce must not see an allgatherv fault");
        assert_eq!(gathered, vec![0.0, 1.0]);
        assert!(waited >= Duration::from_millis(20), "the delay was not waited out: {waited:?}");
    }
    let events = campaign.events();
    assert_eq!(events.len(), 2, "one delay per rank: {events:?}");
    assert!(events.iter().all(|e| e.site == "comm.allgatherv"));
}
