//! # faultkit — typed errors and deterministic fault injection
//!
//! Robustness backbone for the LR-TDDFT reproduction. The paper's iterative
//! low-rank machinery (K-Means ISDF + implicit LOBPCG) fails in ways a dense
//! SYEVD never does — LOBPCG basis breakdown, K-Means empty clusters, ISDF
//! fits whose residual blows up, collectives that stall on a late peer. This
//! crate supplies the two pieces every other crate threads through:
//!
//! * **Error taxonomy** ([`error`]) — [`NumericalError`], [`CommError`],
//!   [`SolveError`] with stage/iteration/residual context, so hot failure
//!   paths return `Result` instead of panicking and recovery ladders can
//!   dispatch on *why* a stage failed.
//! * **Seeded fault injection** ([`plan`]) — a [`FaultPlan`] fires typed
//!   faults (NaN/Inf poison of named buffers, K-Means degenerate seeding,
//!   comm delay/stall/drop) at exact hook-site
//!   occurrences, one-shot per rank, with all randomness derived from the
//!   plan seed. Identical plans ⇒ identical fault sequences, so recovery
//!   campaigns are reproducible and CI-able.
//!
//! Hook calls are no-ops (one thread-local read) when no plan is armed; the
//! fault-free hot path is unaffected.

pub mod error;
pub mod plan;

pub use error::{CommError, NumericalError, SolveError};
pub use plan::{
    arm, comm_fault, degenerate_seeding, handle, inject_slice, install, install_scoped, is_armed,
    set_rank, Campaign, CommFault, FaultEvent, FaultKind, FaultPlan, FaultSpec,
    Handle, InstallGuard,
};
