//! # parcomm — simulated-MPI SPMD runtime
//!
//! The paper's implementation is MPI+OpenMP on up to 12,288 Cori cores. This
//! crate reproduces the *structure* of that parallelization in-process:
//!
//! * [`spmd`] launches `P` ranks as OS threads executing the same closure
//!   (SPMD), each holding a [`Comm`] handle;
//! * [`Comm`] provides the collectives Algorithm 1 uses — `Alltoallv`,
//!   `Allreduce`, `Allgatherv`, `Barrier` — plus the **request forms** the
//!   pipelined paths use (`ireduce_sum`, `iallreduce_sum`, `ialltoallv`).
//!   Every collective runs on the rank thread that calls it: issue deposits
//!   the rank's contribution and never blocks, and the waiting rank completes
//!   the op itself ([`requests`]) — no helper threads;
//! * [`batch`] fuses many pending small reductions into one collective over
//!   a packed buffer (bitwise-identical per-field results) and
//!   [`comm::Comm::split`] carves disjoint sub-communicators — the
//!   communication-avoiding layer;
//! * every collective records **bytes moved and call counts** ([`CommStats`])
//!   and accrues modeled wall-time from an **α–β (latency–bandwidth) cost
//!   model** ([`CostModel`]), so rank counts far beyond the host's cores can
//!   be extrapolated faithfully for the strong/weak-scaling reproductions;
//! * [`layout`] implements the paper's three data distributions (Figure 3):
//!   row-block, column-block, and 2-D block-cyclic, plus the
//!   `MPI_Alltoall`-based row↔column redistribution of wavefunction matrices.

pub mod batch;
pub mod comm;
pub mod cost;
pub mod layout;
pub mod redist;
pub mod requests;

pub use batch::{fusion_enabled, set_fusion_enabled, FusedFields, ReduceBatch, ReducePlan};
pub use comm::{spmd, spmd_with_model, Comm, CommStats, OpStats, ALPHA_SMALL_BYTES};
pub use cost::CostModel;
pub use layout::{block_cyclic_owner, block_ranges, BlockCyclic2D, Layout};
pub use redist::{col_to_row_blocks, row_to_col_blocks};
pub use requests::{Request, RetryPolicy};
