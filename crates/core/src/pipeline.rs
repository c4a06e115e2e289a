//! The symmetric GEMM + reduction of `V_Hxc` and `Ṽ_Hxc` (Algorithm 1
//! lines 7–8), and the pipelined overlap of paper Figs. 4–5 as its
//! reproduction.
//!
//! The solve path runs one schedule, [`gram_allreduce`]: every rank computes
//! its full local contribution, then one `Allreduce` hands every rank the
//! whole matrix, which the replicated eigensolve needs anyway.
//!
//! [`gram_pipelined_reduce`] is the paper's optimization, kept as the Fig. 5
//! reproduction (`repro fig5`, `benches/pipeline.rs`) and not called by any
//! solve: the output columns are split into per-rank chunks (Fig. 4); each
//! chunk is GEMMed, then `reduce_sum`'d to its owning rank (Fig. 5). A
//! non-root rank returns from a reduce at its deposit and goes on to GEMM
//! the next chunk, so a rank holds one chunk plus its own piece: the `1/P`
//! peak-memory property. Ranks here are threads whose root completes the
//! reduction itself, so the schedule buys the paper's memory bound, not
//! hidden communication time, and it ran slower than the allreduce
//! (DESIGN §11).
//!
//! Both contractions, `V_Hxc = P_vcᵀ(f_Hxc P_vc)` and `Ṽ = Wᵀ(f_Hxc W)`, are
//! symmetric by construction (`f_Hxc` is), so every product here is
//! [`symm_tn`]: the monolithic schedule computes half of it, and a column
//! chunk takes each entry's fold from the same half — the two schedules
//! agree bit for bit.

use mathkit::gemm::symm_tn;
use mathkit::Mat;
use parcomm::layout::block_ranges;
use parcomm::Comm;

/// Result of a distributed Gram-matrix build.
pub struct GramResult {
    /// This rank's piece: the full matrix (monolithic) or its column chunk
    /// (pipelined).
    pub local: Mat,
    /// Column range owned (pipelined) or `0..n` (monolithic).
    pub col_range: std::ops::Range<usize>,
    /// Peak output words held by this rank.
    pub peak_words: usize,
}

/// Monolithic path: the local symmetric product `scale·Aᵀ_local·B_local`
/// (lower triangle computed, upper mirrored), then `Allreduce`. `A` and `B`
/// have one shape and `AᵀB` is symmetric by construction. Every rank returns
/// the complete `n × n` matrix. `riders` are a few per-rank partial sums
/// that travel at the end of the matrix's buffer — on the collective it
/// needs anyway — and come back summed over the ranks.
pub fn gram_allreduce(
    comm: &Comm,
    a_local: &Mat,
    b_local: &Mat,
    scale: f64,
    riders: &mut [f64],
) -> GramResult {
    let n = b_local.ncols();
    let mut v = symm_tn(scale, a_local, b_local, 0..n).into_vec();
    v.reserve_exact(riders.len());
    v.extend_from_slice(riders);
    comm.allreduce_sum(&mut v);
    riders.copy_from_slice(&v[n * n..]);
    v.truncate(n * n);
    GramResult {
        local: Mat::from_vec(n, n, v),
        col_range: 0..n,
        peak_words: n * n,
    }
}

/// Pipelined path: per-destination column chunks of the same symmetric
/// product, each computed and then reduced to its owner (Fig. 5). Rank `r`
/// returns only columns `block_ranges(n, P)[r]`.
pub fn gram_pipelined_reduce(comm: &Comm, a_local: &Mat, b_local: &Mat, scale: f64) -> GramResult {
    let p = comm.size();
    let n = b_local.ncols();
    let ranges = block_ranges(n, p);
    let my_range = ranges[comm.rank()].clone();
    let mut mine = Mat::zeros(n, my_range.len());
    let mut peak_words = 0usize;
    for (owner, range) in ranges.iter().enumerate() {
        // A zero-length chunk's reduce keeps the op ids aligned.
        let v_chunk = symm_tn(scale, a_local, b_local, range.clone()).into_vec();
        peak_words = peak_words.max(v_chunk.len() + mine.as_slice().len());
        let out = comm.reduce_sum(v_chunk, owner);
        if owner == comm.rank() {
            mine = Mat::from_vec(n, range.len(), out);
        }
    }
    GramResult { local: mine, col_range: my_range, peak_words }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathkit::gemm_tn;
    use parcomm::layout::block_ranges;
    use parcomm::spmd;

    /// `A` and `B = diag(k)·A`: `AᵀB = Aᵀ diag(k) A` is symmetric by
    /// construction, as the contractions these schedules serve are.
    fn global_ab(nr: usize, n: usize) -> (Mat, Mat) {
        let a = Mat::from_fn(nr, n, |i, j| ((i * 7 + j * 3) % 13) as f64 * 0.1 - 0.5);
        let b = Mat::from_fn(nr, n, |i, j| (((i * 5) % 17) as f64 * 0.1 - 0.7) * a[(i, j)]);
        (a, b)
    }

    #[test]
    fn allreduce_path_matches_serial() {
        let (nr, n, p) = (24, 7, 4);
        let (a, b) = global_ab(nr, n);
        let expect = {
            let mut e = gemm_tn(&a, &b);
            e.scale(2.0);
            e
        };
        let res = spmd(p, |c| {
            let rr = block_ranges(nr, p)[c.rank()].clone();
            let al = a.row_block(rr.start, rr.end);
            let bl = b.row_block(rr.start, rr.end);
            gram_allreduce(c, &al, &bl, 2.0, &mut []).local
        });
        for r in res {
            assert!(r.max_abs_diff(&expect) < 1e-10);
        }
    }

    #[test]
    fn pipelined_path_matches_serial_chunks() {
        let (nr, n, p) = (30, 9, 3);
        let (a, b) = global_ab(nr, n);
        let expect = gemm_tn(&a, &b);
        let res = spmd(p, |c| {
            let rr = block_ranges(nr, p)[c.rank()].clone();
            let al = a.row_block(rr.start, rr.end);
            let bl = b.row_block(rr.start, rr.end);
            gram_pipelined_reduce(c, &al, &bl, 1.0)
        });
        for (rank, r) in res.iter().enumerate() {
            let cr = block_ranges(n, p)[rank].clone();
            assert_eq!(r.col_range, cr);
            assert_eq!(r.local.shape(), (n, cr.len()));
            for (jl, j) in cr.clone().enumerate() {
                for i in 0..n {
                    assert!((r.local[(i, jl)] - expect[(i, j)]).abs() < 1e-10);
                }
            }
        }
    }

    #[test]
    fn pipelined_matches_allreduce_bitwise() {
        // Each entry is folded from the same half and reduced in the same
        // rank order on both schedules ⇒ each rank's pipelined column chunk
        // is exactly those columns of the replicated matrix. The riders
        // travel on the allreduce alone and come back summed.
        let (nr, n, p) = (32, 8, 4);
        let (a, b) = global_ab(nr, n);
        let res = spmd(p, |c| {
            let rr = block_ranges(nr, p)[c.rank()].clone();
            let al = a.row_block(rr.start, rr.end);
            let bl = b.row_block(rr.start, rr.end);
            let mut riders = [0.1 * (c.rank() + 1) as f64, 1.0];
            let mono = gram_allreduce(c, &al, &bl, 1.5, &mut riders);
            let pipe = gram_pipelined_reduce(c, &al, &bl, 1.5);
            (mono, pipe, riders)
        });
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (rank, (mono, pipe, riders)) in res.iter().enumerate() {
            assert_eq!(mono.col_range, 0..n);
            assert_eq!(pipe.col_range, block_ranges(n, p)[rank]);
            let cols = mono.local.col_block(pipe.col_range.start, pipe.col_range.end);
            assert_eq!(bits(cols.as_slice()), bits(pipe.local.as_slice()), "rank {rank}");
            assert_eq!(riders[1], p as f64);
            assert!((riders[0] - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn pipelined_uses_less_memory_per_rank() {
        let (nr, n, p) = (40, 16, 4);
        let (a, b) = global_ab(nr, n);
        let res = spmd(p, |c| {
            let rr = block_ranges(nr, p)[c.rank()].clone();
            let al = a.row_block(rr.start, rr.end);
            let bl = b.row_block(rr.start, rr.end);
            let mono = gram_allreduce(c, &al, &bl, 1.0, &mut []);
            let pipe = gram_pipelined_reduce(c, &al, &bl, 1.0);
            (mono.peak_words, pipe.peak_words)
        });
        for (mono, pipe) in res {
            assert!(pipe < mono, "pipelined {pipe} should beat monolithic {mono}");
        }
    }

    #[test]
    fn more_ranks_than_columns() {
        let (nr, n, p) = (12, 2, 5);
        let (a, b) = global_ab(nr, n);
        let expect = gemm_tn(&a, &b);
        let res = spmd(p, |c| {
            let rr = block_ranges(nr, p)[c.rank()].clone();
            let al = a.row_block(rr.start, rr.end);
            let bl = b.row_block(rr.start, rr.end);
            gram_pipelined_reduce(c, &al, &bl, 1.0)
        });
        // ranks 2..5 own nothing; ranks 0,1 own one column each
        let mut recovered = Mat::zeros(n, n);
        for (rank, r) in res.iter().enumerate() {
            let cr = block_ranges(n, p)[rank].clone();
            for (jl, j) in cr.clone().enumerate() {
                for i in 0..n {
                    recovered[(i, j)] = r.local[(i, jl)];
                }
            }
        }
        assert!(recovered.max_abs_diff(&expect) < 1e-10);
    }
}
