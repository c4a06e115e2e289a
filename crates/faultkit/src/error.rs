//! The typed error taxonomy shared by every crate in the workspace.
//!
//! Three layers, matching where failures originate:
//!
//! * [`NumericalError`] — a kernel produced something unusable: a non-finite
//!   entry, a Gram matrix that lost positive-definiteness, an ISDF fit whose
//!   residual blew past its guard, a point selector that came back with too
//!   few points.
//! * [`CommError`] — a collective did not complete within its retry budget
//!   (stall) or the request was dropped by fault injection and must be
//!   re-issued.
//! * [`SolveError`] — the solver-facing roll-up: iterative breakdown, honest
//!   non-convergence with the final residual attached, or a recovery ladder
//!   that ran out of rungs. Carries `From` impls for the two layers below so
//!   `?` composes across crate boundaries.

use std::fmt;
use std::time::Duration;

/// A kernel-level numerical failure, with enough context to pick a ladder
/// rung (which buffer, which pivot, how far off the guard was).
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
    /// K-Means ended with this many empty clusters it could not reseed.
    EmptyClusters { clusters: usize },
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
            NumericalError::EmptyClusters { clusters } => {
                write!(f, "K-Means left {clusters} empty cluster(s) after reseeding")
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

/// A collective that did not complete cleanly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// The request did not complete within the deadline even after bounded
    /// retry/backoff.
    Stalled { op: &'static str, waited: Duration, attempts: u32 },
    /// The request was dropped (by fault injection) before submission; the
    /// caller should re-issue.
    Dropped { op: &'static str },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Stalled { op, waited, attempts } => write!(
                f,
                "collective `{op}` stalled: no completion after {attempts} attempt(s) \
                 ({:.1} ms waited)",
                waited.as_secs_f64() * 1e3
            ),
            CommError::Dropped { op } => write!(f, "collective `{op}` request dropped"),
        }
    }
}

impl std::error::Error for CommError {}

/// Solver-facing error: what the eigensolver / pipeline returns when a stage
/// cannot produce a usable answer.
#[derive(Clone, Debug, PartialEq)]
pub enum SolveError {
    /// The iteration ran out of budget; the best residual reached and the
    /// iteration count are attached so callers can decide whether to ladder.
    NotConverged { stage: &'static str, residual: f64, iterations: usize },
    /// The iteration broke down (lost its subspace, produced non-finite
    /// quantities) and cannot meaningfully continue.
    Breakdown { stage: &'static str, iteration: usize, reason: String },
    /// A kernel-level numerical failure bubbled up.
    Numerical(NumericalError),
    /// A communication failure bubbled up.
    Comm(CommError),
    /// Every rung of the recovery ladder was tried and failed; `attempts`
    /// names each rung in order.
    LadderExhausted { stage: &'static str, attempts: Vec<String> },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::NotConverged { stage, residual, iterations } => write!(
                f,
                "{stage} did not converge: residual {residual:.3e} after {iterations} iteration(s)"
            ),
            SolveError::Breakdown { stage, iteration, reason } => {
                write!(f, "{stage} broke down at iteration {iteration}: {reason}")
            }
            SolveError::Numerical(e) => write!(f, "numerical failure: {e}"),
            SolveError::Comm(e) => write!(f, "communication failure: {e}"),
            SolveError::LadderExhausted { stage, attempts } => write!(
                f,
                "{stage}: recovery ladder exhausted after [{}]",
                attempts.join(" -> ")
            ),
        }
    }
}

impl std::error::Error for SolveError {}

impl From<NumericalError> for SolveError {
    fn from(e: NumericalError) -> Self {
        SolveError::Numerical(e)
    }
}

impl From<CommError> for SolveError {
    fn from(e: CommError) -> Self {
        SolveError::Comm(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let e = SolveError::NotConverged { stage: "lobpcg", residual: 3.2e-5, iterations: 17 };
        let s = e.to_string();
        assert!(s.contains("lobpcg") && s.contains("17"), "{s}");

        let e: SolveError =
            NumericalError::NonFinite { site: "ham.v_tilde".into(), index: 4 }.into();
        assert!(e.to_string().contains("ham.v_tilde"));

        let e: SolveError = CommError::Stalled {
            op: "iallreduce",
            waited: Duration::from_millis(12),
            attempts: 3,
        }
        .into();
        assert!(e.to_string().contains("iallreduce"));

        let zero = NumericalError::AllZeroWeights;
        assert!(zero.to_string().contains("all-zero weights"));
    }

    #[test]
    fn ladder_exhausted_names_rungs() {
        let e = SolveError::LadderExhausted {
            stage: "isdf.build",
            attempts: vec!["first build".into(), "clean rebuild".into()],
        };
        let s = e.to_string();
        assert!(s.contains("first build -> clean rebuild"), "{s}");
    }
}
