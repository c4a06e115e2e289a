//! # parcomm — simulated-MPI SPMD runtime
//!
//! The paper's implementation is MPI+OpenMP on up to 12,288 Cori cores. This
//! crate reproduces the *structure* of that parallelization in-process:
//!
//! * [`spmd`] launches `P` ranks as OS threads executing the same closure
//!   (SPMD), each holding a [`Comm`] handle;
//! * [`Comm`] provides the collectives Algorithm 1 uses — `Alltoallv`,
//!   `Allreduce`, `Allgatherv`, `Barrier` — plus the `Reduce` of the Fig. 5
//!   pipelined schedule ([`Comm::reduce_sum`]). Every collective is one
//!   blocking call on the rank thread that calls it: the rank deposits its
//!   contribution, completes the op once every peer has deposited, and
//!   releases the op's cell (`cell.rs`) — no helper threads, no deadline, no
//!   give-up. A non-root rank of a reduce returns at its deposit;
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

mod cell;
pub mod comm;
pub mod cost;
pub mod layout;
pub mod redist;

pub use comm::{spmd, threads_per_rank, Comm, CommStats, OpStats};
pub use cost::CostModel;
pub use layout::block_ranges;
pub use redist::{col_to_row_blocks, row_to_col_blocks};
