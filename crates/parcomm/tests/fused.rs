//! Property tests for the communication-avoiding layer: one
//! [`Comm::allreduce_sum`] over fields packed side by side must be **bitwise
//! identical** to one `allreduce_sum` per field at any rank count, and
//! sub-communicators from [`Comm::split`] must reduce independently.

use parcomm::{spmd, Comm};
use proptest::prelude::*;

/// Deterministic pseudo-random payload (same generator as tests/collectives.rs).
fn fill(seed: u64, len: usize) -> Vec<f64> {
    let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(0x2545f491);
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 2.0 - 1.0
        })
        .collect()
}

fn rank_field(c: &Comm, seed: u64, field: usize, len: usize) -> Vec<f64> {
    fill(seed.wrapping_add(c.rank() as u64 * 1_000_003).wrapping_add(field as u64 * 7919), len)
}

/// The fields of `lens`, packed side by side, and each reduced on its own
/// by its own allreduce — the reference the packed reduce must match.
fn packed_and_per_field(c: &Comm, seed: u64, lens: &[usize]) -> (Vec<f64>, Vec<f64>) {
    let mut packed = Vec::new();
    let mut per_field = Vec::new();
    for (f, &len) in lens.iter().enumerate() {
        packed.extend(rank_field(c, seed, f, len));
        let mut buf = rank_field(c, seed, f, len);
        c.allreduce_sum(&mut buf);
        per_field.extend(buf);
    }
    (packed, per_field)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// One packed reduce ≡ one allreduce per field, bitwise, at 1–8 ranks
    /// with uneven field sizes including empty fields — and it is one
    /// `allreduce` call (none on one rank).
    #[test]
    fn packed_reduce_matches_per_field_bitwise(
        ranks in 1usize..=8,
        lens in prop::collection::vec(0usize..200, 1..6),
        seed in 0u64..u64::MAX,
    ) {
        let res = spmd(ranks, |c| {
            let (mut packed, per_field) = packed_and_per_field(c, seed, &lens);
            let before = c.stats().allreduce.calls;
            c.allreduce_sum(&mut packed);
            (packed, per_field, c.stats().allreduce.calls - before)
        });
        for (packed, per_field, calls) in res {
            prop_assert_eq!(bits(&packed), bits(&per_field));
            prop_assert_eq!(calls, u64::from(ranks > 1));
        }
    }

    /// Back-to-back packed reduces, interleaved with the per-field reference
    /// ones, each match the per-field allreduces bitwise.
    #[test]
    fn consecutive_packed_reduces_match_per_field_bitwise(
        ranks in 1usize..=6,
        lens in prop::collection::vec(1usize..120, 1..5),
        seed in 0u64..u64::MAX,
    ) {
        let res = spmd(ranks, |c| {
            let mut rounds = Vec::new();
            for round in 0..3u64 {
                let (mut packed, per_field) = packed_and_per_field(c, seed ^ round, &lens);
                c.allreduce_sum(&mut packed);
                rounds.push((packed, per_field));
            }
            rounds
        });
        for rounds in res {
            for (got, want) in rounds {
                prop_assert_eq!(bits(&got), bits(&want));
            }
        }
    }
}

/// `Comm::split` carves disjoint groups with correct sub-ranks, independent
/// collectives, and independent stats.
#[test]
fn split_groups_reduce_independently() {
    let p = 6;
    let res = spmd(p, |c| {
        let color = c.rank() % 2;
        let sub = c.split(color, c.rank());
        let mut buf = vec![c.rank() as f64];
        sub.allreduce_sum(&mut buf);
        (color, sub.rank(), sub.size(), buf[0], sub.stats().collective_calls, c.stats())
    });
    for (rank, (color, sub_rank, sub_size, sum, sub_calls, parent_stats)) in
        res.into_iter().enumerate()
    {
        assert_eq!(color, rank % 2);
        assert_eq!(sub_rank, rank / 2, "keys preserve parent order");
        assert_eq!(sub_size, 3);
        // evens: 0+2+4, odds: 1+3+5
        assert_eq!(sum, if color == 0 { 6.0 } else { 9.0 });
        assert_eq!(sub_calls, 1, "sub-comm accounts its own collectives");
        // The parent saw only the split's rendezvous allgatherv.
        assert_eq!(parent_stats.allgatherv.calls, 1);
        assert_eq!(parent_stats.allreduce.calls, 0);
    }
}

#[test]
fn split_keys_reorder_group_ranks() {
    let res = spmd(4, |c| {
        // Reverse ordering: higher parent rank → lower key → lower sub-rank.
        let sub = c.split(0, 100 - c.rank());
        (sub.rank(), sub.size())
    });
    for (rank, (sub_rank, sub_size)) in res.into_iter().enumerate() {
        assert_eq!(sub_size, 4);
        assert_eq!(sub_rank, 3 - rank);
    }
}

#[test]
fn nested_splits_compose() {
    let res = spmd(8, |c| {
        let half = c.split(c.rank() / 4, c.rank());
        let quarter = half.split(half.rank() / 2, half.rank());
        let mut buf = vec![1.0];
        quarter.allreduce_sum(&mut buf);
        (quarter.size(), buf[0])
    });
    for (size, sum) in res {
        assert_eq!(size, 2);
        assert_eq!(sum, 2.0);
    }
}
