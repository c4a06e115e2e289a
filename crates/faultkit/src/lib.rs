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
//!   `Result` instead of panicking and recovery ladders can dispatch on
//!   *why* a stage failed. A collective has no error: it waits for its
//!   peers, as an MPI collective does.
//! * **Seeded fault injection** ([`plan`]) — a [`FaultPlan`] fires typed
//!   faults (NaN/Inf poison of named buffers, a slow peer's comm delay) at
//!   exact hook-site occurrences, one-shot per rank, with all randomness
//!   derived from the plan seed. Identical plans ⇒ identical fault
//!   sequences, so recovery campaigns are reproducible and CI-able.
//!
//! Hook calls are no-ops (one thread-local read) when no plan is armed; the
//! fault-free hot path is unaffected.

pub mod error;
pub mod plan;

pub use error::{NumericalError, SolveError};
pub use plan::{
    arm, comm_fault, handle, inject_slice, install, install_scoped, set_rank, Campaign,
    FaultEvent, FaultKind, FaultPlan, FaultSpec, Handle, InstallGuard,
};
