//! Row-block ↔ column-block redistribution of tall matrices.
//!
//! This is the `MPI_Alltoall` step of Algorithm 1 (lines 3 and 6): the
//! wavefunction matrix `Ψ` (`N_r × N_b`) moves between the row-block layout
//! (GEMM/face-splitting friendly) and the column-block layout (FFT friendly).
//!
//! The flat payloads here are column-major within each (row-range × col-range)
//! tile, so reassembly on the receiving side is deterministic.

use crate::comm::Comm;
use crate::layout::block_ranges;

/// Convert *my* row-block piece (`my_rows × n_cols` of a `n_rows × n_cols`
/// global matrix, stored column-major) into my column-block piece
/// (`n_rows × my_cols`). SPMD-collective: every rank must call this.
pub fn row_to_col_blocks(
    comm: &Comm,
    my_piece: &[f64],
    n_rows: usize,
    n_cols: usize,
) -> Vec<f64> {
    let p = comm.size();
    let row_ranges = block_ranges(n_rows, p);
    let col_ranges = block_ranges(n_cols, p);
    let my_rows = row_ranges[comm.rank()].len();
    assert_eq!(my_piece.len(), my_rows * n_cols, "row-block piece size mismatch");

    // Tile (my rows) × (q's columns) goes to rank q, column-major.
    let send: Vec<Vec<f64>> = col_ranges
        .iter()
        .map(|cr| {
            let mut chunk = Vec::with_capacity(my_rows * cr.len());
            for j in cr.clone() {
                chunk.extend_from_slice(&my_piece[j * my_rows..(j + 1) * my_rows]);
            }
            chunk
        })
        .collect();
    let recv = comm.alltoallv(send);
    let my_cols = col_ranges[comm.rank()].len();
    let mut out = vec![0.0; n_rows * my_cols];
    for (src, chunk) in recv.iter().enumerate() {
        let rr = &row_ranges[src];
        let rows_src = rr.len();
        assert_eq!(chunk.len(), rows_src * my_cols, "tile size mismatch from {src}");
        for jl in 0..my_cols {
            let src_col = &chunk[jl * rows_src..(jl + 1) * rows_src];
            out[jl * n_rows + rr.start..jl * n_rows + rr.end].copy_from_slice(src_col);
        }
    }
    out
}

/// Inverse of [`row_to_col_blocks`]: column-block piece → row-block piece.
pub fn col_to_row_blocks(
    comm: &Comm,
    my_piece: &[f64],
    n_rows: usize,
    n_cols: usize,
) -> Vec<f64> {
    let p = comm.size();
    let row_ranges = block_ranges(n_rows, p);
    let col_ranges = block_ranges(n_cols, p);
    let my_cols = col_ranges[comm.rank()].len();
    assert_eq!(my_piece.len(), n_rows * my_cols, "col-block piece size mismatch");

    // Tile (q's rows) × (my columns) goes to rank q.
    let send: Vec<Vec<f64>> = row_ranges
        .iter()
        .map(|rr| {
            let mut chunk = Vec::with_capacity(rr.len() * my_cols);
            for jl in 0..my_cols {
                chunk.extend_from_slice(&my_piece[jl * n_rows + rr.start..jl * n_rows + rr.end]);
            }
            chunk
        })
        .collect();
    let recv = comm.alltoallv(send);
    let my_rows = row_ranges[comm.rank()].len();
    let mut out = vec![0.0; my_rows * n_cols];
    for (src, chunk) in recv.iter().enumerate() {
        let cr = &col_ranges[src];
        assert_eq!(chunk.len(), my_rows * cr.len(), "tile size mismatch from {src}");
        for (jl, j) in cr.clone().enumerate() {
            out[j * my_rows..(j + 1) * my_rows]
                .copy_from_slice(&chunk[jl * my_rows..(jl + 1) * my_rows]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::spmd;
    use crate::layout::block_ranges;

    /// Global test matrix entry.
    fn entry(i: usize, j: usize) -> f64 {
        (i * 1000 + j) as f64
    }

    #[test]
    fn row_to_col_roundtrip() {
        let (n_rows, n_cols, p) = (13, 7, 4);
        let res = spmd(p, |c| {
            let rr = block_ranges(n_rows, p)[c.rank()].clone();
            // my row-block piece, column-major
            let mut piece = vec![0.0; rr.len() * n_cols];
            for j in 0..n_cols {
                for (il, i) in rr.clone().enumerate() {
                    piece[j * rr.len() + il] = entry(i, j);
                }
            }
            let col_piece = row_to_col_blocks(c, &piece, n_rows, n_cols);
            // verify column-block content
            let cr = block_ranges(n_cols, p)[c.rank()].clone();
            assert_eq!(col_piece.len(), n_rows * cr.len());
            for (jl, j) in cr.clone().enumerate() {
                for i in 0..n_rows {
                    assert_eq!(col_piece[jl * n_rows + i], entry(i, j), "({i},{j})");
                }
            }
            // and back
            let back = col_to_row_blocks(c, &col_piece, n_rows, n_cols);
            assert_eq!(back, piece);
            true
        });
        assert!(res.into_iter().all(|b| b));
    }

    #[test]
    fn works_with_more_ranks_than_columns() {
        let (n_rows, n_cols, p) = (9, 2, 5);
        spmd(p, |c| {
            let rr = block_ranges(n_rows, p)[c.rank()].clone();
            let mut piece = vec![0.0; rr.len() * n_cols];
            for j in 0..n_cols {
                for (il, i) in rr.clone().enumerate() {
                    piece[j * rr.len() + il] = entry(i, j);
                }
            }
            let col_piece = row_to_col_blocks(c, &piece, n_rows, n_cols);
            let back = col_to_row_blocks(c, &col_piece, n_rows, n_cols);
            assert_eq!(back, piece);
        });
    }

    #[test]
    fn single_rank_identity() {
        spmd(1, |c| {
            let piece: Vec<f64> = (0..12).map(|x| x as f64).collect();
            let col = row_to_col_blocks(c, &piece, 4, 3);
            assert_eq!(col, piece);
            let row = col_to_row_blocks(c, &piece, 4, 3);
            assert_eq!(row, piece);
        });
    }
}
