//! Deferred-reduction scheduler: fused and persistent collective plans.
//!
//! Iterative solvers issue many *tiny* allreduces per iteration (Gram
//! matrices, residual norms, convergence scalars) — each paying the full
//! collective latency α while moving a few hundred bytes. This module lets
//! callers **register** those pending reductions and **flush** them as one
//! fused allreduce over a packed segment buffer:
//!
//! * [`ReduceBatch`] — ad-hoc: push fields, flush once, read them back;
//! * [`ReducePlan`] — persistent: pre-registered field shapes + one reusable
//!   buffer for reductions that repeat every iteration (no per-iteration
//!   allocation, no re-packing bookkeeping).
//!
//! ## Bitwise identity
//!
//! The fused flush reduces the packed buffer with the same ascending
//! rank-order fold the unfused path uses per field. Summation is
//! element-wise, so packing fields side by side changes *which* elements ride
//! in one collective but never the fold order *within* an element — fault-free
//! f64 results are **bitwise identical** to issuing one collective per field
//! (property-tested in `tests/fused.rs`).
//!
//! ## Fusion switch
//!
//! `PARCOMM_NO_FUSE=1` (or [`set_fusion_enabled`]`(false)`) forces the
//! unfused reference path: one resilient collective per field, same results,
//! more α. CI runs the whole workspace test suite both ways.

use crate::comm::Comm;
use crate::requests::RetryPolicy;
use faultkit::CommError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static FUSION: OnceLock<AtomicBool> = OnceLock::new();

fn fusion_flag() -> &'static AtomicBool {
    FUSION.get_or_init(|| {
        let forced_off = std::env::var("PARCOMM_NO_FUSE")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false);
        AtomicBool::new(!forced_off)
    })
}

/// Whether batched reductions actually fuse (default: yes, unless the
/// process started with `PARCOMM_NO_FUSE=1`).
pub fn fusion_enabled() -> bool {
    fusion_flag().load(Ordering::Relaxed)
}

/// Toggle fusion process-wide (used by tests to compare fused and unfused
/// solves on identical code paths; each such test is its own process).
pub fn set_fusion_enabled(on: bool) {
    fusion_flag().store(on, Ordering::Relaxed);
}

/// One resilient allreduce: payload retained for drop re-issue only while a
/// fault plan is armed (drops cannot fire otherwise, so the fault-free path
/// pays no copy).
fn resilient_allreduce(comm: &Comm, data: Vec<f64>) -> Result<Vec<f64>, CommError> {
    let keep = if faultkit::is_armed() { data.clone() } else { Vec::new() };
    let rq = comm.iallreduce_sum(data);
    comm.settle(rq, &RetryPolicy::default(), |c| c.iallreduce_sum(keep.clone()))
}

/// Compute fencepost offsets from field lengths.
fn offsets_of(lens: &[usize]) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(lens.len() + 1);
    offsets.push(0usize);
    for &l in lens {
        offsets.push(offsets.last().unwrap() + l);
    }
    offsets
}

/// A deferred batch of sum-allreduces over one communicator: push any number
/// of pending fields (uneven lengths, empty fields allowed), then [`flush`]
/// them as a single fused collective.
///
/// [`flush`]: ReduceBatch::flush
pub struct ReduceBatch<'a> {
    comm: &'a Comm,
    buf: Vec<f64>,
    lens: Vec<usize>,
}

impl<'a> ReduceBatch<'a> {
    pub fn new(comm: &'a Comm) -> Self {
        ReduceBatch { comm, buf: Vec::new(), lens: Vec::new() }
    }

    /// Register a pending reduction; returns its field index for
    /// [`FusedFields::field`] after the flush.
    pub fn push(&mut self, field: &[f64]) -> usize {
        self.buf.extend_from_slice(field);
        self.lens.push(field.len());
        self.lens.len() - 1
    }

    /// Number of registered fields.
    pub fn len(&self) -> usize {
        self.lens.len()
    }

    pub fn is_empty(&self) -> bool {
        self.lens.is_empty()
    }

    /// Execute the batch: one fused allreduce when fusion is on (and there is
    /// something to fuse), else one resilient collective per field in
    /// registration order. Both paths produce bitwise-identical sums.
    pub fn flush(self) -> Result<FusedFields, CommError> {
        let ReduceBatch { comm, buf, lens } = self;
        let offsets = offsets_of(&lens);
        if comm.size() == 1 {
            return Ok(FusedFields { buf, offsets });
        }
        let buf = if fusion_enabled() && lens.len() > 1 {
            comm.note_fused(lens.len() as u64);
            resilient_allreduce(comm, buf)?
        } else {
            let mut out = Vec::with_capacity(buf.len());
            for w in offsets.windows(2) {
                out.extend_from_slice(&resilient_allreduce(comm, buf[w[0]..w[1]].to_vec())?);
            }
            out
        };
        Ok(FusedFields { buf, offsets })
    }
}

/// The reduced fields of a flushed [`ReduceBatch`], read back by index.
pub struct FusedFields {
    buf: Vec<f64>,
    offsets: Vec<usize>,
}

impl FusedFields {
    /// The reduced field registered as index `i` by `push`.
    pub fn field(&self, i: usize) -> &[f64] {
        &self.buf[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A persistent collective plan: field shapes registered once, one packed
/// buffer reused across executions. The shape of choice for the fixed
/// per-iteration reductions of LOBPCG and K-Means — write the local partial
/// sums into [`field_mut`], [`execute`], read the global sums back from
/// [`field`]. No allocation after construction on the fused path.
///
/// [`field_mut`]: ReducePlan::field_mut
/// [`execute`]: ReducePlan::execute
/// [`field`]: ReducePlan::field
pub struct ReducePlan {
    offsets: Vec<usize>,
    buf: Vec<f64>,
}

impl ReducePlan {
    /// Pre-register the per-execution field lengths.
    pub fn new(lens: &[usize]) -> Self {
        let offsets = offsets_of(lens);
        let total = *offsets.last().unwrap();
        ReducePlan { offsets, buf: vec![0.0; total] }
    }

    pub fn n_fields(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Mutable view of field `i` (write local partials here before
    /// [`ReducePlan::execute`]).
    pub fn field_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.buf[self.offsets[i]..self.offsets[i + 1]]
    }

    /// View of field `i` (global sums after [`ReducePlan::execute`]).
    pub fn field(&self, i: usize) -> &[f64] {
        &self.buf[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Reset every field to zero for the next accumulation round.
    pub fn clear(&mut self) {
        self.buf.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Reduce all fields in place: fused (one collective) when fusion is on,
    /// else one resilient collective per field. Bitwise-identical results
    /// either way.
    pub fn execute(&mut self, comm: &Comm) -> Result<(), CommError> {
        if comm.size() == 1 {
            return Ok(());
        }
        if fusion_enabled() && self.n_fields() > 1 {
            comm.note_fused(self.n_fields() as u64);
            self.buf = resilient_allreduce(comm, std::mem::take(&mut self.buf))?;
        } else {
            for i in 0..self.n_fields() {
                let (lo, hi) = (self.offsets[i], self.offsets[i + 1]);
                let out = resilient_allreduce(comm, self.buf[lo..hi].to_vec())?;
                self.buf[lo..hi].copy_from_slice(&out);
            }
        }
        Ok(())
    }

    /// [`ReducePlan::execute`] for a caller that accumulates the fields —
    /// side by side, in registration order — in a buffer of its own.
    pub fn execute_packed(&mut self, comm: &Comm, packed: &mut [f64]) -> Result<(), CommError> {
        self.buf.copy_from_slice(packed);
        self.execute(comm)?;
        packed.copy_from_slice(&self.buf);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::spmd;

    #[test]
    fn batch_reduces_every_field() {
        let p = 4;
        let res = spmd(p, |c| {
            let mut b = ReduceBatch::new(c);
            let f0 = b.push(&[c.rank() as f64, 1.0]);
            let f1 = b.push(&[]); // empty field must survive
            let f2 = b.push(&[10.0]);
            let out = b.flush().expect("flush");
            (out.field(f0).to_vec(), out.field(f1).to_vec(), out.field(f2).to_vec())
        });
        for (f0, f1, f2) in res {
            assert_eq!(f0, vec![6.0, 4.0]); // 0+1+2+3, 4·1
            assert!(f1.is_empty());
            assert_eq!(f2, vec![40.0]);
        }
    }

    #[test]
    fn plan_is_reusable_across_iterations() {
        let res = spmd(3, |c| {
            let mut plan = ReducePlan::new(&[2, 1]);
            let mut acc = Vec::new();
            for round in 0..3 {
                plan.clear();
                plan.field_mut(0).copy_from_slice(&[c.rank() as f64, round as f64]);
                plan.field_mut(1)[0] = 1.0;
                plan.execute(c).expect("execute");
                acc.push((plan.field(0).to_vec(), plan.field(1)[0]));
            }
            acc
        });
        for rounds in res {
            for (round, (f0, count)) in rounds.iter().enumerate() {
                assert_eq!(f0, &vec![3.0, 3.0 * round as f64]);
                assert_eq!(*count, 3.0);
            }
        }
    }

    #[test]
    fn single_rank_is_identity() {
        let res = spmd(1, |c| {
            let mut b = ReduceBatch::new(c);
            b.push(&[5.0, 6.0]);
            let out = b.flush().expect("flush");
            out.field(0).to_vec()
        });
        assert_eq!(res[0], vec![5.0, 6.0]);
    }

    #[test]
    fn fused_flush_accounts_one_collective() {
        if !fusion_enabled() {
            return; // PARCOMM_NO_FUSE run: counters legitimately stay zero
        }
        let res = spmd(2, |c| {
            let mut b = ReduceBatch::new(c);
            b.push(&[1.0]);
            b.push(&[2.0, 3.0]);
            b.push(&[4.0]);
            let _ = b.flush().expect("flush");
            c.stats()
        });
        for s in res {
            assert_eq!(s.iallreduce.calls, 1, "three fields fused into one collective");
            assert_eq!(s.fused_flushes, 1);
            assert_eq!(s.fused_fields, 3);
        }
    }
}
