//! # mathkit — dense linear algebra substrate
//!
//! This crate replaces the roles played by MKL / LAPACK / ScaLAPACK in the
//! original PWDFT-based LR-TDDFT implementation:
//!
//! * [`Mat`] — a column-major dense `f64` matrix (the layout LAPACK and the
//!   paper's wavefunction arrays use),
//! * [`gemm`] — blocked, Rayon-parallel general matrix multiply,
//! * [`eigen`] — symmetric eigensolver (Householder tridiagonalization +
//!   implicit-shift QL), the stand-in for `ScaLAPACK::SYEVD`,
//! * [`qr`] — Householder QR with column pivoting (QRCP), including the
//!   randomized Gaussian-sketch variant used for ISDF point selection,
//! * [`chol`] — Cholesky factorization and triangular solves (the ISDF
//!   Galerkin fit solves its normal equations with these),
//! * [`ortho`] — Cholesky-QR orthonormalization used by LOBPCG.
//!
//! Everything is pure Rust: no BLAS/LAPACK bindings, so the complexity
//! behaviour reported in the paper's Tables 2 and 4 is reproduced by code we
//! control and can instrument.

pub mod chol;
pub mod davidson;
pub mod eigen;
pub mod gemm;
pub mod lobpcg;
pub mod mat;
pub mod ortho;
pub mod qr;
pub mod simd;

pub use chol::{cholesky, solve_lower, solve_lower_transpose, solve_spd};
pub use davidson::{davidson, DavidsonOptions};
pub use lobpcg::{lobpcg, no_precond, LobpcgOptions, LobpcgResult};
pub use eigen::{lowest, syev, Eigen};
pub use gemm::{
    gemm, gemm_tn, gemv, matmul, syrk_nt, syrk_nt_scaled, syrk_tn, syrk_tn_scaled, Transpose,
};
pub use mat::Mat;
pub use ortho::{cholesky_qr, modified_gram_schmidt};
pub use qr::{qr_householder, qrcp, qrcp_select, randomized_qrcp_select};
pub use simd::{active_kernel, Kernel};
