//! Tests for the one call form of the collectives: a collective completes
//! once every peer has deposited however late it comes, a non-root rank of
//! a reduce returns at its deposit, uneven/empty all-to-all slabs route, and
//! the reduce-to-root agrees bitwise with the allreduce.

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
/// 1 reaches each collective 1.2 s after rank 0 — longer than any wait that
/// gives up would allow — and every rank still gets the bits of a prompt
/// run: the ascending-rank sum from `allreduce_sum` and on the root of
/// `reduce_sum`, the rank-ordered concatenation from `allgatherv`, and the
/// slab each source addressed to it from `alltoallv`. The four ops run side
/// by side, each in its own two-rank world.
#[test]
fn late_peer_allreduce_gives_every_rank_the_same_bits() {
    type Collective = fn(&Comm, Vec<f64>) -> Vec<f64>;
    let ops: [(&str, Collective); 4] = [
        ("allreduce_sum", |c, mut buf| {
            c.allreduce_sum(&mut buf);
            buf
        }),
        ("allgatherv", |c, buf| c.allgatherv(&buf)),
        ("alltoallv", |c, buf| {
            let half = buf.len() / 2;
            c.alltoallv(vec![buf[..half].to_vec(), buf[half..].to_vec()]).concat()
        }),
        ("reduce_sum", |c, buf| c.reduce_sum(buf, 0)),
    ];
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let run = |op: Collective, late: bool| {
        spmd(2, |c| {
            if late && c.rank() == 1 {
                std::thread::sleep(Duration::from_millis(1200));
            }
            bits(&op(c, rank_data(c, 31, 40)))
        })
    };
    std::thread::scope(|s| {
        let runs: Vec<_> = ops
            .iter()
            .map(|&(name, op)| (name, op, s.spawn(move || run(op, true))))
            .collect();
        for (name, op, handle) in runs {
            let late = handle.join().expect("late run");
            assert_eq!(late, run(op, false), "{name}: a late peer changed the bits");
        }
    });
    // The prompt allreduce is the ascending-rank sum.
    let mut want = vec![0.0; 40];
    for r in 0..2u64 {
        let v = fill(31u64.wrapping_add(r * 1_000_003), 40);
        want.iter_mut().zip(v).for_each(|(a, x)| *a += x);
    }
    assert_eq!(run(ops[0].1, false), vec![bits(&want), bits(&want)]);
}
