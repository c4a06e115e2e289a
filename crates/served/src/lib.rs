//! # served — solve-as-a-service over split communicators
//!
//! A multi-tenant job scheduler for the LR-TDDFT suite. One [`Service`]
//! owns a pool of thread-ranks, partitions it into disjoint solver groups
//! with `Comm::split`, runs each batch on a whole group when the group is
//! idle and on one rank otherwise ([`JobResult::ranks`]), and runs an
//! admission-controlled queue in front of them:
//!
//! - **Admission control** — per-tenant quotas and a global queue cap,
//!   surfaced as typed [`AdmissionError`]s at submit time.
//! - **Same-shape batching** — queued jobs with the same [`BatchKey`]
//!   (structure hash, build row of the version, resolved ISDF rank, seed)
//!   share one distributed Hamiltonian build; each job keeps its own
//!   eigensolve, so results stay bitwise identical to solo runs.
//! - **Result caching** — completed solves are cached by structure hash +
//!   version + solve parameters in a bounded LRU; repeat submissions
//!   complete at admission without touching a solver group.
//! - **Tenant isolation** — a completed job's values are bitwise those of
//!   a solo distributed solve at the width it ran on, whatever ran beside
//!   it; a tenant's bad input (a non-finite orbital, say) hashes to its own
//!   structure and fails its own build with the typed input-check error.
//! - **One build per batch** — a batch's build is
//!   [`Solver::hamiltonian`](lrtddft::Solver::hamiltonian), run once; a
//!   failed build fails every job of the batch with its typed error. The
//!   service has no recovery of its own: a job always runs its own solver,
//!   and its [`JobResult::recovery`] lists the rungs its own eigensolve took.
//!
//! ```no_run
//! use served::{JobSpec, ServeConfig, Service};
//! use lrtddft::{synthetic_problem, Solver};
//! use std::sync::Arc;
//!
//! let service = Service::start(ServeConfig::default()); // 4 ranks, 2 groups
//! let problem = Arc::new(synthetic_problem([12, 12, 12], 8.0, 4, 4));
//! let job = JobSpec::new(42, problem).with_solver(Solver::builder().n_states(3).build());
//! let handle = service.submit(job).expect("admitted");
//! let result = handle.wait().expect("completed");
//! println!("lowest excitations: {:?}", result.values);
//! service.shutdown();
//! ```
//!
//! Scope: a job's [`Solver`](lrtddft::Solver) means what it means on
//! [`Solver::solve_distributed`](lrtddft::Solver::solve_distributed) — every
//! field, `version` included, is honored per job and never changed by the
//! service, because a batch runs that call's two halves
//! (`Solver::hamiltonian` once, `Solver::eigensolve` per job).

mod cache;
mod job;
mod scheduler;
mod service;

pub use job::{
    structure_hash, AdmissionError, BatchKey, CacheKey, JobHandle, JobOutcome, JobResult, JobSpec,
    TenantId,
};
pub use service::{ServeConfig, Service};
