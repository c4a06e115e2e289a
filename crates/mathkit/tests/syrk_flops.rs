//! `obskit`'s flop count sees the symmetric engine, by the tiles it actually
//! computes. Its own test binary: the count is process-wide, so no other
//! kernel may run while it is read.

use mathkit::{syrk_nt, Mat};

#[test]
fn syrk_nt_adds_its_lower_tile_flops() {
    let a = Mat::from_fn(300, 40, |i, j| ((i * 7 + j * 3) % 13) as f64 * 0.1 - 0.5);
    let small = Mat::from_fn(10, 5, |i, j| (i + j) as f64);
    obskit::enable();
    let _ = syrk_nt(&a);
    let blocked = obskit::take_trace().counters.flops;
    let _ = syrk_nt(&small);
    let serial = obskit::take_trace().counters.flops;
    obskit::disable();

    // 300 rows in 128-row blocks (128, 128, 44): the six macro-tiles on or
    // below the block diagonal, not the 300² of a GEMM.
    let tiles = 3 * 128 * 128 + 2 * 44 * 128 + 44 * 44;
    assert_eq!(blocked, 2 * tiles * 40);
    // Below the packing threshold: the 55 entries on or below the diagonal.
    assert_eq!(serial, 2 * 55 * 5);
}
