//! # parcomm — simulated-MPI SPMD runtime
//!
//! The paper's implementation is MPI+OpenMP on up to 12,288 Cori cores. This
//! crate reproduces the *structure* of that parallelization in-process:
//!
//! * [`spmd`] launches `P` ranks as OS threads executing the same closure
//!   (SPMD), each holding a [`Comm`] handle;
//! * [`Comm`] provides the collectives Algorithm 1 uses — `Alltoallv`,
//!   `Allreduce`, `Allgatherv`, `Barrier` — plus the **request form**
//!   `ireduce_sum` of the Fig. 5 pipelined reduce. Every collective runs on
//!   the rank thread that calls it: issue deposits the rank's contribution
//!   and never blocks, and [`Request::wait`] blocks until every peer has
//!   issued, then completes the op on the waiting rank ([`requests`]) — no
//!   helper threads, no deadline, no give-up;
//! * [`Comm::allreduce_sum`] is the one allreduce: callers pack the fields a
//!   step needs side by side into one buffer (each field bitwise equal to
//!   its own call), and [`comm::Comm::split`] carves disjoint
//!   sub-communicators — the communication-avoiding layer;
//! * every collective records **bytes moved, call counts and measured
//!   seconds** ([`CommStats`]); the **α–β (latency–bandwidth) cost model**
//!   ([`CostModel`]) extrapolates rank counts far beyond the host's cores
//!   for the strong/weak-scaling reproductions;
//! * [`layout`] is the block partition behind the paper's row-block and
//!   column-block distributions (Figure 3), and [`redist`] the
//!   `MPI_Alltoall`-based row↔column redistribution of wavefunction matrices.

pub mod comm;
pub mod cost;
pub mod layout;
pub mod redist;
pub mod requests;

pub use comm::{spmd, threads_per_rank, Comm, CommStats, OpStats};
pub use cost::CostModel;
pub use layout::block_ranges;
pub use redist::{col_to_row_blocks, row_to_col_blocks};
pub use requests::Request;
