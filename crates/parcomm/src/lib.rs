//! # parcomm — simulated-MPI SPMD runtime
//!
//! The paper's implementation is MPI+OpenMP on up to 12,288 Cori cores. This
//! crate reproduces the *structure* of that parallelization in-process:
//!
//! * [`spmd`] launches `P` ranks as OS threads executing the same closure
//!   (SPMD), each holding a [`Comm`] handle;
//! * [`Comm`] provides the collectives Algorithm 1 uses — `Alltoallv`,
//!   `Allreduce`, `Allgatherv`, `Barrier` — plus the **request forms**
//!   `iallreduce_sum` (LOBPCG) and `ireduce_sum` (Fig. 5).
//!   Every collective runs on the rank thread that calls it: issue deposits
//!   the rank's contribution and never blocks, and the waiting rank completes
//!   the op itself ([`requests`]) — no helper threads;
//! * [`Comm::allreduce_packed`] reduces fields the caller packed side by
//!   side in one collective (each field bitwise equal to its own
//!   `allreduce_sum`) and [`comm::Comm::split`] carves disjoint
//!   sub-communicators — the communication-avoiding layer;
//! * every collective records **bytes moved and call counts** ([`CommStats`])
//!   and accrues modeled wall-time from an **α–β (latency–bandwidth) cost
//!   model** ([`CostModel`]), so rank counts far beyond the host's cores can
//!   be extrapolated faithfully for the strong/weak-scaling reproductions;
//! * [`layout`] is the block partition behind the paper's row-block and
//!   column-block distributions (Figure 3), and [`redist`] the
//!   `MPI_Alltoall`-based row↔column redistribution of wavefunction matrices.

pub mod comm;
pub mod cost;
pub mod layout;
pub mod redist;
pub mod requests;

pub use comm::{spmd, spmd_with_model, threads_per_rank, Comm, CommStats, OpStats};
pub use cost::CostModel;
pub use layout::block_ranges;
pub use redist::{col_to_row_blocks, row_to_col_blocks};
pub use requests::Request;
