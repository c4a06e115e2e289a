//! # faultkit — typed errors
//!
//! Robustness backbone for the LR-TDDFT reproduction. The paper's iterative
//! low-rank machinery (K-Means ISDF + implicit LOBPCG) fails in ways a dense
//! SYEVD never does — LOBPCG basis breakdown, ISDF fits whose residual blows
//! up, non-finite factors. This crate supplies the error taxonomy every other
//! crate threads through ([`error`]): [`NumericalError`] and [`SolveError`]
//! with stage/iteration/residual context, so hot failure paths return
//! `Result` instead of panicking and a caller can tell *why* a stage failed.
//! A collective has no error: it waits for its peers, as an MPI collective
//! does.
//!
//! Each guard that returns these errors, and the one recovery rung (the
//! dense floor under LOBPCG), is tested on an input that trips it: an `f_xc`
//! entry at `f64::MAX`, or orbitals whose squares overflow.

pub mod error;

pub use error::{NumericalError, SolveError};
