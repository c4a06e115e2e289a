//! The contiguous block partition behind every distribution in paper
//! Figure 3: a rank owns a block of wavefunction columns (orbitals — the
//! FFT-friendly layout, since every orbital's grid is local) or of grid rows
//! (the GEMM/face-splitting-product-friendly layout), and the row↔column
//! redistribution of [`crate::redist`] moves between the two.

use std::ops::Range;

/// Contiguous block partition of `n` items over `p` ranks: the first
/// `n mod p` ranks get one extra item. Returns per-rank index ranges.
pub fn block_ranges(n: usize, p: usize) -> Vec<Range<usize>> {
    assert!(p > 0);
    let base = n / p;
    let extra = n % p;
    let mut out = Vec::with_capacity(p);
    let mut start = 0;
    for r in 0..p {
        let len = base + usize::from(r < extra);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_ranges_cover_everything() {
        for &(n, p) in &[(10usize, 3usize), (7, 7), (5, 8), (0, 4), (100, 1)] {
            let rs = block_ranges(n, p);
            assert_eq!(rs.len(), p);
            let mut next = 0;
            for r in &rs {
                assert_eq!(r.start, next);
                next = r.end;
            }
            assert_eq!(next, n);
            // sizes differ by at most 1
            let min = rs.iter().map(|r| r.len()).min().unwrap();
            let max = rs.iter().map(|r| r.len()).max().unwrap();
            assert!(max - min <= 1);
        }
    }
}
