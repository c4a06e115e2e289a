//! The typed error taxonomy shared by every crate in the workspace.
//!
//! Two layers, matching where failures originate:
//!
//! * [`NumericalError`] — a kernel produced something unusable: a non-finite
//!   entry, a Gram matrix that lost positive-definiteness, an ISDF fit whose
//!   residual blew past its guard, a point selector that came back with too
//!   few points.
//! * [`SolveError`] — the solver-facing roll-up: an iterative breakdown, or
//!   a numerical failure from the layer below, which a `From` impl wraps so
//!   `?` composes across crate boundaries. A failed build is returned once,
//!   as its typed error: its inputs are fixed, so running it again would
//!   repeat the same arithmetic.
//!
//! A collective has no error: like an MPI collective, it completes once
//! every rank of its communicator has issued it.

use std::fmt;

/// A kernel-level numerical failure, with enough context to tell what went
/// wrong (which buffer, which pivot, how far off the guard was).
#[derive(Clone, Debug, PartialEq)]
pub enum NumericalError {
    /// A named buffer contains NaN/Inf; `index` is the first bad element.
    NonFinite { site: String, index: usize },
    /// Cholesky on a (regularized) Gram matrix failed at `pivot` even with
    /// the Tikhonov floor escalated to `floor`.
    GramNotSpd { stage: &'static str, pivot: usize, floor: f64 },
    /// The ISDF fit residual exceeded its guard tolerance.
    FitResidual { residual: f64, tolerance: f64 },
    /// A point selector returned fewer points than the requested rank.
    RankDeficient { requested: usize, got: usize },
    /// The orbital-pair weight vector is identically zero.
    AllZeroWeights,
    /// Operand shapes disagree (dimension bookkeeping, not roundoff).
    ShapeMismatch { stage: &'static str, expected: (usize, usize), got: (usize, usize) },
}

impl fmt::Display for NumericalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericalError::NonFinite { site, index } => {
                write!(f, "non-finite value in `{site}` at element {index}")
            }
            NumericalError::GramNotSpd { stage, pivot, floor } => write!(
                f,
                "{stage}: Gram matrix not SPD at pivot {pivot} (Tikhonov floor {floor:.3e})"
            ),
            NumericalError::FitResidual { residual, tolerance } => write!(
                f,
                "ISDF fit residual {residual:.3e} exceeds guard tolerance {tolerance:.3e}"
            ),
            NumericalError::RankDeficient { requested, got } => {
                write!(f, "rank-deficient selection: requested {requested} points, got {got}")
            }
            NumericalError::AllZeroWeights => write!(f, "all-zero weights"),
            NumericalError::ShapeMismatch { stage, expected, got } => write!(
                f,
                "{stage}: shape mismatch, expected {}x{}, got {}x{}",
                expected.0, expected.1, got.0, got.1
            ),
        }
    }
}

impl std::error::Error for NumericalError {}

/// Solver-facing error: what the eigensolver / pipeline returns when a stage
/// cannot produce a usable answer.
#[derive(Clone, Debug, PartialEq)]
pub enum SolveError {
    /// The iteration broke down (lost its subspace, produced non-finite
    /// quantities) and cannot meaningfully continue.
    Breakdown { stage: &'static str, iteration: usize, reason: String },
    /// A kernel-level numerical failure bubbled up.
    Numerical(NumericalError),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Breakdown { stage, iteration, reason } => {
                write!(f, "{stage} broke down at iteration {iteration}: {reason}")
            }
            SolveError::Numerical(e) => write!(f, "numerical failure: {e}"),
        }
    }
}

impl std::error::Error for SolveError {}

impl From<NumericalError> for SolveError {
    fn from(e: NumericalError) -> Self {
        SolveError::Numerical(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let e = SolveError::Breakdown { stage: "lobpcg", iteration: 17, reason: "rank".into() };
        let s = e.to_string();
        assert!(s.contains("lobpcg") && s.contains("17"), "{s}");

        let e: SolveError =
            NumericalError::NonFinite { site: "ham.v_tilde".into(), index: 4 }.into();
        assert!(e.to_string().contains("ham.v_tilde"));

        let zero = NumericalError::AllZeroWeights;
        assert!(zero.to_string().contains("all-zero weights"));
    }
}
