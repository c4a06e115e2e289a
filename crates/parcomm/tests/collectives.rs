//! Tests for the one call form of the collectives: a collective completes
//! once every peer has deposited however late it comes, a non-root rank of
//! a reduce returns at its deposit, uneven/empty all-to-all slabs route, the
//! reduce-to-root agrees bitwise with the allreduce, and a `CommDelay` fires
//! at the site named after its op.

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
    /// from `+0.0`, however its segments were shared out among the ranks, so
    /// `reduce_sum` to every root in turn must agree *bitwise* with the
    /// allreduce for 1..=8 ranks and lengths spanning segments, and every
    /// non-root rank gets an empty vector.
    #[test]
    fn ring_matches_blocking_bitwise(ranks in 1usize..=8, len in 1usize..5000, seed in 0u64..u64::MAX) {
        let results = spmd(ranks, |c| {
            let mine = rank_data(c, seed, len);

            let mut blocking = mine.clone();
            c.allreduce_sum(&mut blocking);
            for root in 0..ranks {
                let reduced = c.reduce_sum(mine.clone(), root);
                if c.rank() == root {
                    prop_assert_eq!(reduced.len(), blocking.len());
                    for (a, b) in reduced.iter().zip(blocking.iter()) {
                        prop_assert_eq!(a.to_bits(), b.to_bits());
                    }
                } else {
                    prop_assert!(reduced.is_empty());
                }
            }
            Ok(())
        });
        for r in results {
            r?;
        }
    }
}

/// A non-root rank owes a reduce nothing past its deposit: rank 1 returns
/// at once while the root, rank 0, arrives 50 ms late and still folds both
/// deposits.
#[test]
fn non_root_reduce_returns_before_a_late_root() {
    let results = spmd(2, |c| {
        if c.rank() == 0 {
            std::thread::sleep(Duration::from_millis(50));
        }
        let t0 = Instant::now();
        let reduced = c.reduce_sum(vec![c.rank() as f64 + 1.0; 4], 0);
        (t0.elapsed(), reduced)
    });
    assert!(results[1].0 < Duration::from_millis(5), "rank 1 took {:?}", results[1].0);
    assert!(results[1].1.is_empty());
    assert_eq!(results[0].1, vec![3.0; 4]);
}

/// A collective completes when every rank has deposited, however late: rank
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
/// `allgatherv`, on every rank, which is that much late to it.
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
        assert!(waited >= Duration::from_millis(20), "the delay did not make it late: {waited:?}");
    }
    let events = campaign.events();
    assert_eq!(events.len(), 2, "one delay per rank: {events:?}");
    assert!(events.iter().all(|e| e.site == "comm.allgatherv"));
}
