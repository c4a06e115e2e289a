//! # faultkit — typed errors and deterministic fault injection
//!
//! Robustness backbone for the LR-TDDFT reproduction. The paper's iterative
//! low-rank machinery (K-Means ISDF + implicit LOBPCG) fails in ways a dense
//! SYEVD never does — LOBPCG basis breakdown, ISDF fits whose residual blows
//! up, non-finite factors. This crate supplies the two pieces every other
//! crate threads through:
//!
//! * **Error taxonomy** ([`error`]) — [`NumericalError`] and [`SolveError`]
//!   with stage/iteration/residual context, so hot failure paths return
//!   `Result` instead of panicking and a caller can tell *why* a stage
//!   failed. A collective has no error: it waits for its
//!   peers, as an MPI collective does.
//! * **Seeded fault injection** ([`plan`]) — a [`FaultPlan`] armed on a
//!   test's thread ([`arm`], carried to its rank threads by
//!   `parcomm::spmd`) poisons named buffers with NaN or +Inf at exact
//!   hook-site occurrences, one-shot per rank, with all randomness derived
//!   from the plan seed. Identical plans ⇒ identical fault sequences, so
//!   fault campaigns are reproducible and CI-able. A late rank needs no
//!   fault: a test makes it late with a `sleep`.
//!
//! Hook calls are no-ops (one thread-local read) when no plan is armed; the
//! fault-free hot path is unaffected.

pub mod error;
pub mod plan;

pub use error::{NumericalError, SolveError};
pub use plan::{
    arm, handle, inject_slice, install, set_rank, Campaign, FaultEvent, FaultKind, FaultPlan,
    FaultSpec, Handle,
};
