//! # isdf — Interpolative Separable Density Fitting
//!
//! The paper's central low-rank machinery (§4.1–4.2). The orbital-pair
//! matrix `Z = P_vc` (`N_r × N_v N_c`, column `(i,j)` is `ψ_i(r)·φ_j(r)`) is
//! numerically rank-deficient; ISDF compresses it as
//!
//! ```text
//! ψ_i(r) φ_j(r) ≈ Σ_μ ζ_μ(r) · ψ_i(r̂_μ) φ_j(r̂_μ)        (paper Eq. 5)
//! ```
//!
//! with `N_μ ≈ c·N_e` interpolation points `r̂_μ` chosen from the grid.
//!
//! Two point selectors are provided:
//! * [`qrcp_points`] — the traditional pivoted-QR selector (paper §4.1.1),
//!   including the randomized-sketch variant,
//! * [`kmeans`] — the paper's contribution: weighted K-Means clustering over
//!   grid points with the orbital-pair weight `w(r) = (Σ_i ψ_i²)(Σ_j φ_j²)`
//!   (Eq. 14), threshold pruning of negligible-weight points, and
//!   weight-guided centroid initialization (§4.2).
//!
//! [`interp`] then solves the Galerkin least-squares system
//! `Θ = ZCᵀ(CCᵀ)⁻¹` (Eq. 10) for the interpolation vectors, using the
//! separability of `Z` so that `ZCᵀ` and `CCᵀ` are Hadamard products of
//! small Gram matrices — never materializing `Z` itself.

pub mod decomposition;
pub mod interp;
pub mod kmeans;
pub mod points;

pub use decomposition::{
    face_splitting_product, residual_sample_rows, sampled_residual_sums, IsdfDecomposition,
};
pub use interp::GramPair;
pub use kmeans::{kmeans_points, kmeans_points_checked, KmeansOptions, KmeansOutcome};
pub use points::{pair_weights, qrcp_points, randomized_qrcp_points};
