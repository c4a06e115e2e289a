//! Property tests for the communication-avoiding layer: fused batched
//! reductions must be **bitwise identical** to sequential per-field
//! allreduces at any rank count.

use parcomm::{spmd, Comm, ReduceBatch, ReducePlan};
use proptest::prelude::*;

/// Deterministic pseudo-random payload (same generator as tests/requests.rs).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Fused batch ≡ one blocking allreduce per field, bitwise, at 1–8 ranks
    /// with uneven field sizes including empty fields.
    #[test]
    fn fused_batch_matches_sequential_bitwise(
        ranks in 1usize..=8,
        lens in prop::collection::vec(0usize..200, 1..6),
        seed in 0u64..u64::MAX,
    ) {
        let lens2 = lens.clone();
        let res = spmd(ranks, move |c| {
            // Fused path.
            let mut batch = ReduceBatch::new(c);
            for (f, &len) in lens2.iter().enumerate() {
                batch.push(&rank_field(c, seed, f, len));
            }
            let fused = batch.flush().expect("flush");
            // Reference path: one blocking collective per field.
            let mut seq = Vec::new();
            for (f, &len) in lens2.iter().enumerate() {
                let mut buf = rank_field(c, seed, f, len);
                c.allreduce_sum(&mut buf);
                seq.push(buf);
            }
            let fused: Vec<Vec<f64>> = (0..fused.len()).map(|f| fused.field(f).to_vec()).collect();
            (fused, seq)
        });
        for (fused, seq) in res {
            prop_assert_eq!(fused.len(), seq.len());
            for (a, b) in fused.iter().zip(&seq) {
                prop_assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b) {
                    prop_assert_eq!(x.to_bits(), y.to_bits(), "{:e} vs {:e}", x, y);
                }
            }
        }
    }

    /// A persistent plan executed repeatedly matches per-field blocking
    /// allreduces bitwise on every execution.
    #[test]
    fn plan_matches_sequential_bitwise_across_rounds(
        ranks in 1usize..=6,
        lens in prop::collection::vec(1usize..120, 1..5),
        seed in 0u64..u64::MAX,
    ) {
        let lens2 = lens.clone();
        let res = spmd(ranks, move |c| {
            let mut plan = ReducePlan::new(&lens2);
            let mut out = Vec::new();
            for round in 0..3u64 {
                plan.clear();
                for (f, &len) in lens2.iter().enumerate() {
                    plan.field_mut(f)
                        .copy_from_slice(&rank_field(c, seed ^ round, f, len));
                }
                plan.execute(c).expect("execute");
                let mut reference = Vec::new();
                for (f, &len) in lens2.iter().enumerate() {
                    let mut buf = rank_field(c, seed ^ round, f, len);
                    c.allreduce_sum(&mut buf);
                    reference.push(buf);
                }
                let got: Vec<Vec<f64>> =
                    (0..plan.n_fields()).map(|f| plan.field(f).to_vec()).collect();
                out.push((got, reference));
            }
            out
        });
        for rounds in res {
            for (got, reference) in rounds {
                for (a, b) in got.iter().zip(&reference) {
                    for (x, y) in a.iter().zip(b) {
                        prop_assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
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
