//! Simulation cell and real-space grid.

use fftkit::poisson::signed_freq;
use fftkit::Fft3;

/// Orthorhombic periodic cell with side lengths in Bohr.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Cell {
    pub lengths: [f64; 3],
}

impl Cell {
    pub fn cubic(l: f64) -> Self {
        Cell { lengths: [l, l, l] }
    }

    pub fn new(l1: f64, l2: f64, l3: f64) -> Self {
        Cell { lengths: [l1, l2, l3] }
    }

    /// Cell volume (Bohr³).
    pub fn volume(&self) -> f64 {
        self.lengths.iter().product()
    }

    /// Reciprocal lattice vector magnitudes `2π/L_i`.
    pub fn recip(&self) -> [f64; 3] {
        [
            2.0 * std::f64::consts::PI / self.lengths[0],
            2.0 * std::f64::consts::PI / self.lengths[1],
            2.0 * std::f64::consts::PI / self.lengths[2],
        ]
    }

    /// Minimum-image displacement from `a` to `b`.
    pub fn min_image(&self, a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
        let mut d = [0.0; 3];
        for c in 0..3 {
            let l = self.lengths[c];
            let mut x = b[c] - a[c];
            x -= l * (x / l).round();
            d[c] = x;
        }
        d
    }
}

/// Real-space grid over a [`Cell`] with its FFT plan and `|G|²` table.
#[derive(Clone, Debug)]
pub struct Grid {
    pub cell: Cell,
    pub n: [usize; 3],
    plan: Fft3,
    /// `|G|²` per grid point (Fourier-bin ordering of the plan).
    g2: Vec<f64>,
}

impl Grid {
    /// Build a grid with explicit dimensions.
    pub fn new(cell: Cell, n: [usize; 3]) -> Self {
        let plan = Fft3::new(n[0], n[1], n[2]);
        let b = cell.recip();
        let mut g2 = vec![0.0; plan.len()];
        for i3 in 0..n[2] {
            let g3 = signed_freq(i3, n[2]) as f64 * b[2];
            for i2 in 0..n[1] {
                let g2v = signed_freq(i2, n[1]) as f64 * b[1];
                for i1 in 0..n[0] {
                    let g1 = signed_freq(i1, n[0]) as f64 * b[0];
                    g2[plan.idx(i1, i2, i3)] = g1 * g1 + g2v * g2v + g3 * g3;
                }
            }
        }
        Grid { cell, n, plan, g2 }
    }

    /// Grid from a kinetic-energy cutoff (Hartree) via the paper's formula
    /// `(N_r)_i = √(2E_cut)·L_i/π`, rounded up to the next power of two.
    /// `fftkit` is as fast on 2ᵃ3ᵇ5ᶜ sizes now, so the snap is no longer for
    /// speed: it stays because the Si8 benchmark workload is defined through
    /// it (16³) and the unconverged SCF there would change with the grid.
    pub fn for_cutoff(cell: Cell, ecut: f64) -> Self {
        let mut n = [0usize; 3];
        for (nc, len) in n.iter_mut().zip(cell.lengths.iter()) {
            let raw = ((2.0 * ecut).sqrt() * len / std::f64::consts::PI).ceil();
            *nc = (raw as usize).max(4).next_power_of_two();
        }
        Grid::new(cell, n)
    }

    /// Total number of real-space grid points `N_r`.
    #[inline]
    pub fn len(&self) -> usize {
        self.plan.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Volume element `ΔV = Ω / N_r`.
    #[inline]
    pub fn dv(&self) -> f64 {
        self.cell.volume() / self.len() as f64
    }

    /// Shared FFT plan.
    #[inline]
    pub fn plan(&self) -> &Fft3 {
        &self.plan
    }

    /// `|G|²` lookup table (plan ordering).
    #[inline]
    pub fn g2(&self) -> &[f64] {
        &self.g2
    }

    /// Cartesian coordinates of flat grid index `idx`.
    pub fn coords(&self, idx: usize) -> [f64; 3] {
        let n1 = self.n[0];
        let n2 = self.n[1];
        let i1 = idx % n1;
        let i2 = (idx / n1) % n2;
        let i3 = idx / (n1 * n2);
        [
            i1 as f64 * self.cell.lengths[0] / self.n[0] as f64,
            i2 as f64 * self.cell.lengths[1] / self.n[1] as f64,
            i3 as f64 * self.cell.lengths[2] / self.n[2] as f64,
        ]
    }

    /// Flat index from integer coordinates.
    #[inline]
    pub fn idx(&self, i1: usize, i2: usize, i3: usize) -> usize {
        self.plan.idx(i1, i2, i3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_and_recip() {
        let cell = Cell::new(2.0, 4.0, 5.0);
        assert_eq!(cell.volume(), 40.0);
        let b = cell.recip();
        assert!((b[0] - std::f64::consts::PI).abs() < 1e-15);
    }

    #[test]
    fn min_image_wraps() {
        let cell = Cell::cubic(10.0);
        let d = cell.min_image([1.0, 1.0, 1.0], [9.5, 1.0, 1.0]);
        assert!((d[0] + 1.5).abs() < 1e-12, "{d:?}");
        let d = cell.min_image([0.0, 0.0, 0.0], [4.9, 0.0, 0.0]);
        assert!((d[0] - 4.9).abs() < 1e-12);
    }

    #[test]
    fn cutoff_grid_follows_paper_formula() {
        // Paper: Si4096 cell at Ecut=20 Ha gives 166 points per axis before
        // FFT rounding. Reproduce the formula at our scale.
        let cell = Cell::cubic(10.0);
        let g = Grid::for_cutoff(cell, 20.0);
        let raw = ((2.0f64 * 20.0).sqrt() * 10.0 / std::f64::consts::PI).ceil() as usize;
        assert!(g.n[0] >= raw);
        assert!(g.n[0].is_power_of_two());
    }

    #[test]
    fn dv_times_n_is_volume() {
        let g = Grid::new(Cell::new(3.0, 4.0, 5.0), [4, 8, 4]);
        assert!((g.dv() * g.len() as f64 - 60.0).abs() < 1e-12);
    }

    #[test]
    fn coords_cover_cell() {
        let g = Grid::new(Cell::cubic(8.0), [4, 4, 4]);
        let first = g.coords(0);
        assert_eq!(first, [0.0, 0.0, 0.0]);
        let last = g.coords(g.len() - 1);
        for v in last {
            assert!((v - 6.0).abs() < 1e-12); // 3/4 * 8
        }
    }

    #[test]
    fn g2_zero_only_at_origin() {
        let g = Grid::new(Cell::cubic(5.0), [4, 4, 4]);
        assert_eq!(g.g2()[0], 0.0);
        assert!(g.g2()[1..].iter().all(|&v| v > 0.0));
    }

    #[test]
    fn g2_matches_manual() {
        let g = Grid::new(Cell::cubic(2.0 * std::f64::consts::PI), [4, 4, 4]);
        // b = 1 → |G|² at bin (1,0,0) is 1, at (3,0,0) ≡ -1 is 1, at (2,0,0) is 4.
        assert!((g.g2()[g.idx(1, 0, 0)] - 1.0).abs() < 1e-12);
        assert!((g.g2()[g.idx(3, 0, 0)] - 1.0).abs() < 1e-12);
        assert!((g.g2()[g.idx(2, 0, 0)] - 4.0).abs() < 1e-12);
        assert!((g.g2()[g.idx(1, 1, 1)] - 3.0).abs() < 1e-12);
    }
}
