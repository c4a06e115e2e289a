//! Column-major dense matrix.
//!
//! Column-major mirrors the LAPACK convention used throughout the original
//! code (wavefunctions are stored as `N_r × N_b` tall matrices whose columns
//! are orbitals, and both the face-splitting product and the FFT batch walk
//! columns contiguously).

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense `f64` matrix stored column-major.
#[derive(Clone, PartialEq)]
pub struct Mat {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Zero-filled `nrows × ncols` matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Mat { nrows, ncols, data: vec![0.0; nrows * ncols] }
    }

    /// Identity matrix of order `n`.
    pub fn eye(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a column-major buffer. Panics if the length mismatches.
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), nrows * ncols, "buffer length != nrows*ncols");
        Mat { nrows, ncols, data }
    }

    /// Build from a generator evaluated at every `(row, col)` index.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for j in 0..ncols {
            for i in 0..nrows {
                data.push(f(i, j));
            }
        }
        Mat { nrows, ncols, data }
    }

    /// Build from row-major nested slices (convenient in tests).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = if nrows == 0 { 0 } else { rows[0].len() };
        for r in rows {
            assert_eq!(r.len(), ncols, "ragged rows");
        }
        Mat::from_fn(nrows, ncols, |i, j| rows[i][j])
    }

    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// `(nrows, ncols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Raw column-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Consume the matrix, handing back its column-major buffer (no copy) —
    /// the shape to use when a buffer-owning API (e.g. the nonblocking
    /// collectives) takes over the storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Mutable raw column-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow column `j` as a contiguous slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        debug_assert!(j < self.ncols);
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Mutably borrow column `j`.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        debug_assert!(j < self.ncols);
        &mut self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Run `f(j, column j)` for every column, the columns split into
    /// contiguous parts over the pool's threads. A part holds at least
    /// `PAR_ELEMS` elements, the floor below which a per-element column
    /// sweep does not pay for a thread.
    pub fn par_for_each_col(&mut self, f: impl Fn(usize, &mut [f64]) + Sync) {
        use rayon::prelude::*;
        const PAR_ELEMS: usize = 1 << 17;
        let floor = PAR_ELEMS.div_ceil(self.nrows.max(1));
        let cols = self.data.par_chunks_mut(self.nrows).enumerate();
        cols.with_min_len(floor).for_each(|(j, col)| f(j, col));
    }

    /// Copy of row `i`.
    pub fn row(&self, i: usize) -> Vec<f64> {
        (0..self.ncols).map(|j| self[(i, j)]).collect()
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.ncols, self.nrows);
        for j in 0..self.ncols {
            for i in 0..self.nrows {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Transpose a square matrix in its own storage.
    pub fn transpose_in_place(&mut self) {
        let n = self.nrows;
        assert_eq!(n, self.ncols);
        for j in 0..n {
            for i in 0..j {
                self.data.swap(i + j * n, j + i * n);
            }
        }
    }

    /// Copy of the contiguous column block `[j0, j1)`.
    pub fn col_block(&self, j0: usize, j1: usize) -> Mat {
        assert!(j0 <= j1 && j1 <= self.ncols);
        Mat::from_vec(self.nrows, j1 - j0, self.data[j0 * self.nrows..j1 * self.nrows].to_vec())
    }

    /// Copy of the row block `[i0, i1)`.
    pub fn row_block(&self, i0: usize, i1: usize) -> Mat {
        assert!(i0 <= i1 && i1 <= self.nrows);
        Mat::from_fn(i1 - i0, self.ncols, |i, j| self[(i0 + i, j)])
    }

    /// Gather the given rows into a new `rows.len() × ncols` matrix.
    pub fn select_rows(&self, rows: &[usize]) -> Mat {
        Mat::from_fn(rows.len(), self.ncols, |i, j| self[(rows[i], j)])
    }

    /// Gather the given columns into a new `nrows × cols.len()` matrix.
    pub fn select_cols(&self, cols: &[usize]) -> Mat {
        let mut out = Mat::zeros(self.nrows, cols.len());
        for (k, &c) in cols.iter().enumerate() {
            out.col_mut(k).copy_from_slice(self.col(c));
        }
        out
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Largest absolute entry.
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0, |a, &x| a.max(x.abs()))
    }

    /// `self += alpha * other` (same shape).
    pub fn axpy(&mut self, alpha: f64, other: &Mat) {
        assert_eq!(self.shape(), other.shape());
        crate::simd::axpy(alpha, &other.data, &mut self.data);
    }

    /// Scale every entry by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Elementwise (Hadamard) product.
    pub fn hadamard(&self, other: &Mat) -> Mat {
        assert_eq!(self.shape(), other.shape());
        let data = self.data.iter().zip(other.data.iter()).map(|(a, b)| a * b).collect();
        Mat::from_vec(self.nrows, self.ncols, data)
    }

    /// `self ∘= other`: the Hadamard product in `self`'s own storage.
    pub fn hadamard_assign(&mut self, other: &Mat) {
        assert_eq!(self.shape(), other.shape());
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a *= b;
        }
    }

    /// `max_ij |self - other|`.
    pub fn max_abs_diff(&self, other: &Mat) -> f64 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(other.data.iter())
            .fold(0.0f64, |acc, (a, b)| acc.max((a - b).abs()))
    }

    /// Symmetrize in place: `A <- (A + Aᵀ)/2`.
    pub fn symmetrize(&mut self) {
        assert_eq!(self.nrows, self.ncols);
        for j in 0..self.ncols {
            for i in 0..j {
                let s = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = s;
                self[(j, i)] = s;
            }
        }
    }

    /// Fill with samples from `rng`-driven uniform(-1, 1).
    pub fn fill_random(&mut self, rng: &mut impl rand::Rng) {
        for x in &mut self.data {
            *x = rng.gen_range(-1.0..1.0);
        }
    }

    /// Random matrix (test/benchmark convenience).
    pub fn random(nrows: usize, ncols: usize, rng: &mut impl rand::Rng) -> Mat {
        let mut m = Mat::zeros(nrows, ncols);
        m.fill_random(rng);
        m
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[i + j * self.nrows]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[i + j * self.nrows]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.nrows, self.ncols)?;
        let show_r = self.nrows.min(8);
        let show_c = self.ncols.min(8);
        for i in 0..show_r {
            write!(f, "  ")?;
            for j in 0..show_c {
                write!(f, "{:>12.5e} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.ncols > show_c { "..." } else { "" })?;
        }
        if self.nrows > show_r {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_index() {
        let mut m = Mat::zeros(3, 2);
        assert_eq!(m.shape(), (3, 2));
        m[(2, 1)] = 5.0;
        assert_eq!(m[(2, 1)], 5.0);
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn column_major_layout() {
        let m = Mat::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        // columns contiguous: [a00 a10 | a01 a11 | a02 a12]
        assert_eq!(m.as_slice(), &[0.0, 10.0, 1.0, 11.0, 2.0, 12.0]);
        assert_eq!(m.col(1), &[1.0, 11.0]);
    }

    #[test]
    fn from_rows_matches_indexing() {
        let m = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn transpose_involution() {
        let m = Mat::from_fn(4, 3, |i, j| (i + 7 * j) as f64);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(2, 3)], m[(3, 2)]);
    }

    #[test]
    fn select_rows_and_cols() {
        let m = Mat::from_fn(4, 4, |i, j| (10 * i + j) as f64);
        let r = m.select_rows(&[3, 1]);
        assert_eq!(r.shape(), (2, 4));
        assert_eq!(r[(0, 2)], 32.0);
        assert_eq!(r[(1, 0)], 10.0);
        let c = m.select_cols(&[2, 0]);
        assert_eq!(c[(1, 0)], 12.0);
        assert_eq!(c[(3, 1)], 30.0);
    }

    #[test]
    fn norms() {
        let m = Mat::from_rows(&[&[3.0, 0.0], &[0.0, -4.0]]);
        assert!((m.norm_fro() - 5.0).abs() < 1e-15);
        assert_eq!(m.norm_max(), 4.0);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Mat::eye(2);
        let b = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        a.axpy(2.0, &b);
        assert_eq!(a[(0, 1)], 2.0);
        a.scale(0.5);
        assert_eq!(a[(0, 0)], 0.5);
    }

    #[test]
    fn symmetrize_averages() {
        let mut m = Mat::from_rows(&[&[1.0, 2.0], &[4.0, 1.0]]);
        m.symmetrize();
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn hadamard_elementwise() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let h = a.hadamard(&b);
        let mut h2 = a.clone();
        h2.hadamard_assign(&b);
        assert_eq!(h, h2);
        assert_eq!(h[(1, 1)], 32.0);
    }

    #[test]
    fn row_and_col_blocks() {
        let m = Mat::from_fn(4, 4, |i, j| (10 * i + j) as f64);
        let cb = m.col_block(1, 3);
        assert_eq!(cb.shape(), (4, 2));
        assert_eq!(cb[(2, 0)], 21.0);
        let rb = m.row_block(2, 4);
        assert_eq!(rb.shape(), (2, 4));
        assert_eq!(rb[(0, 3)], 23.0);
    }
}
