//! # fftkit — FFT substrate (replaces FFTW)
//!
//! The LR-TDDFT pipeline Fourier-transforms the orbital-pair products
//! `P_vc(r)` to reciprocal space, applies the diagonal Hartree operator
//! `4π/|G|²`, and transforms back (paper Algorithm 1, lines 4–5). The
//! ground-state DFT substrate additionally needs forward/backward transforms
//! of densities and wavefunctions.
//!
//! Provided here:
//! * [`Complex`] — a minimal `f64` complex type (no external dependency),
//! * [`Plan1d`] — a planned 1-D transform that runs across *lanes* (an
//!   `[n][lanes]` panel of interleaved lines): radix-2 tables for
//!   power-of-two lengths, mixed-radix Stockham (4/2/3/5, generic 7/11/13)
//!   for the other grid sizes plane-wave cutoffs produce, cached Bluestein
//!   chirp and kernel spectra for the rest. [`fft`]/[`ifft`] remain as
//!   conveniences backed by a process-wide plan cache,
//! * [`Fft3`] — planned 3-D transform over a `n1 × n2 × n3` grid: three
//!   lane-batched passes over contiguous panels, batched entry points
//!   ([`Fft3::forward_many`]) parallel over grids, and a two-for-one
//!   real-field path ([`Fft3::apply_real_diagonal_batch`]) that packs pairs
//!   of real fields into one complex grid and halves the 3-D FFT count of
//!   every diagonal reciprocal-space kernel application,
//! * [`poisson`] — the periodic Poisson solver / Hartree kernel, including
//!   the fused batched [`PoissonSolver::hartree_many`].

pub mod complex;
pub mod fft1d;
pub mod fft3d;
pub mod poisson;
#[cfg(test)]
mod reference;

pub use complex::Complex;
pub use fft1d::{fft, fft_inplace, ifft, ifft_inplace, Plan1d};
pub use fft3d::{pack_real_pair, Fft3};
pub use poisson::{hartree_energy, solve_poisson, PoissonSolver};
