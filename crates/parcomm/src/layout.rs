//! Data distributions of paper Figure 3.
//!
//! * **Column-block partition** — each rank owns a contiguous block of
//!   wavefunction columns (orbitals): the FFT-friendly layout, since every
//!   orbital's grid is local.
//! * **Row-block partition** — each rank owns a contiguous block of grid
//!   rows: the GEMM/face-splitting-product-friendly layout.
//! * **2-D block-cyclic** — the ScaLAPACK `SYEVD` layout.

use std::ops::Range;

/// Which axis of the `N_r × N_b` wavefunction matrix is distributed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// Rows (grid points) split across ranks; all columns local.
    RowBlock,
    /// Columns (orbitals) split across ranks; all rows local.
    ColBlock,
}

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

/// Owner rank of global index `i` under [`block_ranges`]`(n, p)`.
pub fn block_owner(i: usize, n: usize, p: usize) -> usize {
    let base = n / p;
    let extra = n % p;
    let cutoff = extra * (base + 1);
    if i < cutoff {
        i / (base + 1)
    } else {
        extra + (i - cutoff) / base.max(1)
    }
}

/// Owner in a 1-D block-cyclic distribution with block size `nb`.
pub fn block_cyclic_owner(i: usize, nb: usize, p: usize) -> usize {
    (i / nb) % p
}

/// 2-D block-cyclic process grid (the ScaLAPACK layout used for SYEVD).
#[derive(Clone, Copy, Debug)]
pub struct BlockCyclic2D {
    /// Process grid rows and columns (`p = prow × pcol`).
    pub prow: usize,
    pub pcol: usize,
    /// Block sizes along each axis.
    pub mb: usize,
    pub nb: usize,
}

impl BlockCyclic2D {
    /// Square-ish process grid for `p` ranks with block size `nb`.
    pub fn for_ranks(p: usize, nb: usize) -> Self {
        let mut prow = (p as f64).sqrt().floor() as usize;
        while prow > 1 && !p.is_multiple_of(prow) {
            prow -= 1;
        }
        let prow = prow.max(1);
        BlockCyclic2D { prow, pcol: p / prow, mb: nb, nb }
    }

    /// Rank owning global entry `(i, j)`.
    pub fn owner(&self, i: usize, j: usize) -> usize {
        let pr = (i / self.mb) % self.prow;
        let pc = (j / self.nb) % self.pcol;
        pr * self.pcol + pc
    }

    /// Local (row, col) coordinates of global `(i, j)` on its owner.
    pub fn local_index(&self, i: usize, j: usize) -> (usize, usize) {
        let li = (i / (self.mb * self.prow)) * self.mb + i % self.mb;
        let lj = (j / (self.nb * self.pcol)) * self.nb + j % self.nb;
        (li, lj)
    }

    /// Number of local rows rank-row `pr` holds of a global dimension `m`.
    pub fn local_rows(&self, m: usize, pr: usize) -> usize {
        count_local(m, self.mb, self.prow, pr)
    }

    /// Number of local cols rank-col `pc` holds of a global dimension `n`.
    pub fn local_cols(&self, n: usize, pc: usize) -> usize {
        count_local(n, self.nb, self.pcol, pc)
    }
}

/// NUMROC: how many of `n` items a rank at position `coord` owns in a 1-D
/// block-cyclic distribution with block `nb` over `p` ranks.
fn count_local(n: usize, nb: usize, p: usize, coord: usize) -> usize {
    let nblocks = n / nb;
    let mut cnt = (nblocks / p) * nb;
    let rem = nblocks % p;
    if coord < rem {
        cnt += nb;
    } else if coord == rem {
        cnt += n % nb;
    }
    cnt
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

    #[test]
    fn block_owner_agrees_with_ranges() {
        for &(n, p) in &[(10usize, 3usize), (23, 5), (16, 4)] {
            let rs = block_ranges(n, p);
            for i in 0..n {
                let owner = block_owner(i, n, p);
                assert!(rs[owner].contains(&i), "i={i} owner={owner} ranges={rs:?}");
            }
        }
    }

    #[test]
    fn cyclic_owner_wraps() {
        assert_eq!(block_cyclic_owner(0, 2, 3), 0);
        assert_eq!(block_cyclic_owner(1, 2, 3), 0);
        assert_eq!(block_cyclic_owner(2, 2, 3), 1);
        assert_eq!(block_cyclic_owner(5, 2, 3), 2);
        assert_eq!(block_cyclic_owner(6, 2, 3), 0);
    }

    #[test]
    fn bc2d_grid_factorization() {
        let g = BlockCyclic2D::for_ranks(12, 4);
        assert_eq!(g.prow * g.pcol, 12);
        let g = BlockCyclic2D::for_ranks(7, 4); // prime: 1x7
        assert_eq!(g.prow * g.pcol, 7);
    }

    #[test]
    fn bc2d_owner_in_range_and_balanced() {
        let g = BlockCyclic2D::for_ranks(4, 2);
        let (m, n) = (16, 16);
        let mut counts = vec![0usize; 4];
        for i in 0..m {
            for j in 0..n {
                let o = g.owner(i, j);
                assert!(o < 4);
                counts[o] += 1;
            }
        }
        // perfectly divisible case: equal shares
        assert!(counts.iter().all(|&c| c == 64), "{counts:?}");
    }

    #[test]
    fn bc2d_local_counts_sum_to_global() {
        let g = BlockCyclic2D::for_ranks(6, 3);
        let m = 25;
        let total: usize = (0..g.prow).map(|pr| g.local_rows(m, pr)).sum();
        assert_eq!(total, m);
        let n = 17;
        let total: usize = (0..g.pcol).map(|pc| g.local_cols(n, pc)).sum();
        assert_eq!(total, n);
    }

    #[test]
    fn bc2d_local_index_consistent_with_owner_counts() {
        let g = BlockCyclic2D { prow: 2, pcol: 2, mb: 2, nb: 2 };
        // Count entries per rank via owner() and check local_index stays in bounds.
        let (m, n) = (9, 7);
        for i in 0..m {
            for j in 0..n {
                let o = g.owner(i, j);
                let (li, lj) = g.local_index(i, j);
                let pr = o / g.pcol;
                let pc = o % g.pcol;
                assert!(li < g.local_rows(m, pr), "li={li} bounds");
                assert!(lj < g.local_cols(n, pc), "lj={lj} bounds");
            }
        }
    }
}
