//! The forced-unfused branch of [`ReduceBatch`] produces the same sums and
//! never bumps the fused counters. The fusion switch is process-global, and
//! flipping it while another test's ranks are mid-collective makes two ranks
//! of one `spmd` disagree on the collective schedule (a hang) — so this file
//! holds one test and is its own process.

use parcomm::{spmd, ReduceBatch};

#[test]
fn unfused_branch_matches_and_counts_nothing() {
    let was = parcomm::fusion_enabled();
    parcomm::set_fusion_enabled(false);
    let res = spmd(4, |c| {
        let mut batch = ReduceBatch::new(c);
        batch.push(&[c.rank() as f64, 2.0]);
        batch.push(&[1.0]);
        let out = batch.flush().expect("flush");
        (out.field(0).to_vec(), out.field(1).to_vec(), c.stats())
    });
    parcomm::set_fusion_enabled(was);
    for (f0, f1, stats) in res {
        assert_eq!(f0, vec![6.0, 8.0]);
        assert_eq!(f1, vec![4.0]);
        assert_eq!(stats.fused_flushes, 0, "unfused branch must not count flushes");
        assert_eq!(stats.fused_fields, 0);
        assert_eq!(stats.iallreduce.calls, 2, "one collective per field when unfused");
    }
}
