//! The SPMD runtime: thread ranks and the collectives.
//!
//! Every collective is one blocking call on the thread that calls it: the
//! rank deposits, completes the op once every peer has deposited and
//! releases the op's cell (`cell.rs`), all inside one private method
//! that `allreduce_sum`, `allgatherv`, `alltoallv` and `reduce_sum` call.
//! So every collective ends the same way — when every peer has deposited —
//! and opens one `mpi:*` span and makes one stats charge for its whole call.

use crate::cell::{Deposit, OpCell};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{Arc, Barrier, Mutex, MutexGuard};

/// `lock()` with poison-recovery: a panicked rank already aborts the SPMD
/// scope, so recovering the data here never observes a torn slot.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Per-operation slice of [`CommStats`]: how often one collective kind ran,
/// how many bytes this rank contributed to it, and the measured wall time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpStats {
    pub calls: u64,
    pub bytes: u64,
    pub seconds: f64,
}

/// Per-rank communication statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CommStats {
    /// Bytes this rank contributed to collectives.
    pub bytes_sent: u64,
    /// Number of collective calls.
    pub collective_calls: u64,
    /// Wall-clock seconds actually spent inside collectives (measured), each
    /// call charged whole.
    pub measured_seconds: f64,
    /// Per-operation breakdowns; their `calls`/`bytes`/`seconds` sum to the
    /// aggregate fields above.
    pub allreduce: OpStats,
    pub allgatherv: OpStats,
    pub alltoallv: OpStats,
    pub barrier: OpStats,
    /// The reduce-to-root ([`Comm::reduce_sum`]).
    pub reduce: OpStats,
}

impl CommStats {
    /// The per-operation breakdown as `(label, stats)` rows, in a stable
    /// report order.
    pub fn per_op(&self) -> [(&'static str, OpStats); 5] {
        [
            ("allreduce", self.allreduce),
            ("allgatherv", self.allgatherv),
            ("alltoallv", self.alltoallv),
            ("barrier", self.barrier),
            ("reduce", self.reduce),
        ]
    }
}

/// Which collective an accounting entry and span belong to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Allreduce,
    Allgatherv,
    Alltoallv,
    Barrier,
    Reduce,
}

impl Op {
    fn span_name(self) -> &'static str {
        match self {
            Op::Allreduce => "mpi:allreduce",
            Op::Allgatherv => "mpi:allgatherv",
            Op::Alltoallv => "mpi:alltoallv",
            Op::Barrier => "mpi:barrier",
            Op::Reduce => "mpi:reduce",
        }
    }

    fn slot(self, stats: &mut CommStats) -> &mut OpStats {
        match self {
            Op::Allreduce => &mut stats.allreduce,
            Op::Allgatherv => &mut stats.allgatherv,
            Op::Alltoallv => &mut stats.alltoallv,
            Op::Barrier => &mut stats.barrier,
            Op::Reduce => &mut stats.reduce,
        }
    }
}

pub(crate) struct Shared {
    pub(crate) size: usize,
    /// Ranks of the [`spmd`] world this group was split from (its own size
    /// for a world); ranks share the host's cores by it.
    world_size: usize,
    pub(crate) barrier: Barrier,
    /// Collectives in flight, by op id. A cell leaves once every rank has
    /// released it.
    pub(crate) ops: Mutex<HashMap<u64, Arc<OpCell>>>,
    /// Sub-communicator rendezvous for [`Comm::split`], keyed by
    /// `(split sequence number, color)`. The entry is removed once every
    /// member of the group has taken its handle.
    pub(crate) splits: Mutex<HashMap<(u64, u64), SplitEntry>>,
}

impl Shared {
    fn new(size: usize, world_size: usize) -> Arc<Shared> {
        Arc::new(Shared {
            size,
            world_size,
            barrier: Barrier::new(size),
            ops: Mutex::new(HashMap::new()),
            splits: Mutex::new(HashMap::new()),
        })
    }
}

/// One color group being assembled by a [`Comm::split`] call.
pub(crate) struct SplitEntry {
    shared: Arc<Shared>,
    /// Members that have taken their handle; the last one retires the entry.
    taken: usize,
}

/// Per-rank communicator handle (not shared across threads). Everything but
/// `shared` is touched only by the rank's own thread.
pub struct Comm {
    pub(crate) rank: usize,
    pub(crate) shared: Arc<Shared>,
    stats: Cell<CommStats>,
    /// Per-rank op counter; SPMD call order pairs op `n` here with op `n`
    /// on every other rank.
    next_op: Cell<u64>,
    /// Per-rank [`Comm::split`] counter; splits pair up across ranks by call
    /// order exactly like collectives pair by op id.
    split_seq: Cell<u64>,
}

impl Comm {
    fn new(rank: usize, shared: Arc<Shared>) -> Comm {
        Comm {
            rank,
            shared,
            stats: Cell::new(CommStats::default()),
            next_op: Cell::new(0),
            split_seq: Cell::new(0),
        }
    }

    /// The size-1 communicator, built on the calling thread: no rank thread
    /// is spawned, and every collective on it is the identity — it returns
    /// before it opens an `mpi:*` span or touches [`CommStats`]. This is what
    /// makes a serial solve the one-rank case of the distributed one.
    pub fn solo() -> Comm {
        Comm::new(0, Shared::new(1, 1))
    }

    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    #[inline]
    pub fn size(&self) -> usize {
        self.shared.size
    }

    /// Size of the [`spmd`] world this communicator comes from: [`Comm::split`]
    /// keeps it, and [`Comm::solo`] is a world of one. The rank threads of a
    /// world share the host's cores ([`threads_per_rank`]).
    #[inline]
    pub fn world_size(&self) -> usize {
        self.shared.world_size
    }

    /// Statistics accumulated by this rank so far.
    pub fn stats(&self) -> CommStats {
        self.stats.get()
    }

    /// Snapshot **and** reset the statistics counters in one step — the
    /// per-job stats window of the serving scheduler: every recorded event
    /// lands in exactly one window.
    pub fn take_stats(&self) -> CommStats {
        self.stats.take()
    }

    fn charge(&self, f: impl FnOnce(&mut CommStats)) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }

    /// Charge one collective call: its bytes and the duration of `span`,
    /// which was opened at the op's entry and closes here — so span-derived
    /// stage timings are `measured_seconds`.
    fn account(&self, op: Op, bytes: usize, mut span: obskit::Span) {
        span.arg("bytes", bytes as f64);
        obskit::add_bytes_moved(bytes as u64);
        let seconds = span.close();
        self.charge(|s| {
            s.bytes_sent += bytes as u64;
            s.collective_calls += 1;
            s.measured_seconds += seconds;
            let slot = op.slot(s);
            slot.calls += 1;
            slot.bytes += bytes as u64;
            slot.seconds += seconds;
        });
    }

    /// Run one collective on this rank, charged whole to `op`: deposit
    /// `dep`, complete the op with `complete` once every peer has deposited,
    /// and release the op's cell — the last rank out retires it from the op
    /// table.
    fn collective<T>(
        &self,
        op: Op,
        bytes: usize,
        dep: Deposit,
        complete: fn(&OpCell, usize) -> T,
    ) -> T {
        let span = obskit::span(obskit::Stage::Mpi, op.span_name());
        let id = self.next_op.get();
        self.next_op.set(id + 1);
        let cell = Arc::clone(
            lock(&self.shared.ops)
                .entry(id)
                .or_insert_with(|| Arc::new(OpCell::new(self.size(), &dep))),
        );
        cell.deposit(id, self.rank, dep);
        let out = complete(&cell, self.rank);
        if cell.release() {
            lock(&self.shared.ops).remove(&id);
        }
        self.account(op, bytes, span);
        out
    }

    /// Synchronize all ranks.
    pub fn barrier(&self) {
        if self.size() == 1 {
            return;
        }
        let op = Op::Barrier;
        let sp = obskit::span(obskit::Stage::Mpi, op.span_name());
        self.shared.barrier.wait();
        self.account(op, 0, sp);
    }

    /// In-place sum-allreduce of `buf` across all ranks: every element is
    /// summed over the ranks in ascending rank order from `+0.0`. Returns
    /// once every rank has deposited, however late a peer comes.
    ///
    /// This is the one allreduce, and callers pack every field a step needs
    /// side by side into one buffer for it: summation is element-wise, so
    /// packing changes *which* elements ride in one collective but never the
    /// fold order *within* an element — each field comes back bitwise equal
    /// to its own call (`tests/fused.rs`). The paper's K-Means sweep, the
    /// sampled ISDF rows and the LOBPCG Gram/norm reduction each pay one
    /// latency this way instead of one per field.
    pub fn allreduce_sum(&self, buf: &mut [f64]) {
        let p = self.size();
        if p == 1 {
            return;
        }
        let deposit = Deposit::Reduce { root: None, buf: buf.to_vec() };
        let out = self.collective(Op::Allreduce, buf.len() * 8, deposit, OpCell::vals);
        buf.copy_from_slice(&out);
    }

    /// Sum-reduce `data` to `root`, the `MPI_Reduce` of the paper's Fig. 5.
    /// On `root` it returns the ascending-rank fold, bitwise equal to
    /// [`Comm::allreduce_sum`]; every other rank returns an empty vector at
    /// its deposit, which is all a non-root rank owes.
    pub fn reduce_sum(&self, data: Vec<f64>, root: usize) -> Vec<f64> {
        if self.size() == 1 {
            return data;
        }
        let bytes = data.len() * 8;
        let deposit = Deposit::Reduce { root: Some(root), buf: data };
        self.collective(Op::Reduce, bytes, deposit, OpCell::vals)
    }

    /// Variable all-gather: every rank contributes `mine`, receives the
    /// concatenation in rank order.
    pub fn allgatherv(&self, mine: &[f64]) -> Vec<f64> {
        let p = self.size();
        if p == 1 {
            return mine.to_vec();
        }
        let deposit = Deposit::Gather(mine.to_vec());
        self.collective(Op::Allgatherv, mine.len() * 8, deposit, OpCell::vals)
    }

    /// Variable all-to-all: `send[q]` goes to rank `q`; returns what every
    /// rank sent to *me*, indexed by source rank.
    pub fn alltoallv(&self, send: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
        let p = self.size();
        assert_eq!(send.len(), p, "alltoallv needs one chunk per destination");
        if p == 1 {
            return send;
        }
        let sent_bytes: usize = send.iter().map(|c| c.len() * 8).sum();
        self.collective(Op::Alltoallv, sent_bytes, Deposit::Alltoall(send), OpCell::chunks)
    }

    /// Split this communicator into disjoint sub-communicators: ranks with
    /// the same `color` form a group; within a group, ranks are ordered by
    /// `(key, parent rank)` — the MPI `Comm_split` convention.
    ///
    /// Collective on the parent (every rank must call it, in the same call
    /// order). The returned [`Comm`] has its own rank numbering, barrier, op
    /// table, and [`CommStats`], so a sub-group's collectives are accounted
    /// separately from the parent's and never pair with them.
    pub fn split(&self, color: usize, key: usize) -> Comm {
        let seq = self.split_seq.get();
        self.split_seq.set(seq + 1);
        // Collective exchange of (color, key): the allgatherv both publishes
        // every rank's choice and synchronizes the ranks, so all members of
        // a color reach the rendezvous below.
        let all = self.allgatherv(&[color as f64, key as f64]);
        let mut members: Vec<(usize, usize)> = (0..self.size())
            .filter(|&r| all[2 * r] as usize == color)
            .map(|r| (all[2 * r + 1] as usize, r))
            .collect();
        members.sort_unstable();
        let group_rank = members
            .iter()
            .position(|&(_, r)| r == self.rank)
            .expect("calling rank belongs to its own color group");
        let group_size = members.len();
        let shared = {
            let mut splits = lock(&self.shared.splits);
            let entry = splits.entry((seq, color as u64)).or_insert_with(|| SplitEntry {
                shared: Shared::new(group_size, self.shared.world_size),
                taken: 0,
            });
            entry.taken += 1;
            let shared = Arc::clone(&entry.shared);
            if entry.taken == group_size {
                splits.remove(&(seq, color as u64));
            }
            shared
        };
        Comm::new(group_rank, shared)
    }
}

/// Kernel threads each rank of a `world_size`-rank world may run when the
/// ranks share `cores` cores: an even share, at least one. This is gpaw's
/// `distribute_cpus` applied one level down, to the threads inside a rank,
/// so ranks and their kernel threads never oversubscribe the host.
pub fn threads_per_rank(cores: usize, world_size: usize) -> usize {
    (cores / world_size.max(1)).max(1)
}

/// Run `f` as an SPMD program on `size` thread-ranks; returns the per-rank
/// results in rank order.
pub fn spmd<T, F>(size: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&Comm) -> T + Sync,
{
    assert!(size > 0, "need at least one rank");
    let shared = Shared::new(size, size);
    let mut results: Vec<Option<T>> = (0..size).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(size);
        for rank in 0..size {
            let shared = Arc::clone(&shared);
            let f = &f;
            handles.push(scope.spawn(move || {
                // Tag this rank thread's trace stream (lane label "rank N")
                // and deliver whatever it recorded when the rank function
                // returns (or panics — the thread-local backstop flushes on
                // unwind).
                obskit::set_rank(rank);
                let comm = Comm::new(rank, shared);
                let out = f(&comm);
                obskit::flush_thread();
                out
            }));
        }
        for (rank, h) in handles.into_iter().enumerate() {
            results[rank] = Some(h.join().expect("rank panicked"));
        }
    });
    results.into_iter().map(|r| r.unwrap()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_groups_keep_the_world_size() {
        let sizes = spmd(4, |world| {
            let group = world.split(world.rank() / 2, world.rank());
            (group.size(), group.world_size(), world.world_size())
        });
        assert_eq!(sizes, [(2, 4, 4); 4]);
        assert_eq!(Comm::solo().world_size(), 1);
    }

    #[test]
    fn ranks_share_the_cores() {
        assert_eq!(threads_per_rank(2, 2), 1);
        assert_eq!(threads_per_rank(2, 1), 2);
        assert_eq!(threads_per_rank(2, 4), 1);
        assert_eq!(threads_per_rank(8, 3), 2);
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let p = 4;
        let res = spmd(p, |c| {
            let mut buf = vec![c.rank() as f64 + 1.0; 3];
            c.allreduce_sum(&mut buf);
            buf
        });
        for r in res {
            assert_eq!(r, vec![10.0, 10.0, 10.0]); // 1+2+3+4
        }
    }

    #[test]
    fn allreduce_repeated_rounds() {
        // Two back-to-back collectives must not corrupt each other.
        let res = spmd(3, |c| {
            let mut a = vec![1.0];
            c.allreduce_sum(&mut a);
            let mut b = vec![c.rank() as f64];
            c.allreduce_sum(&mut b);
            (a[0], b[0])
        });
        for (a, b) in res {
            assert_eq!(a, 3.0);
            assert_eq!(b, 3.0); // 0+1+2
        }
    }

    #[test]
    fn allgatherv_concatenates_in_rank_order() {
        let res = spmd(3, |c| {
            let mine = vec![c.rank() as f64; c.rank() + 1];
            c.allgatherv(&mine)
        });
        for r in res {
            assert_eq!(r, vec![0.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
        }
    }

    #[test]
    fn alltoallv_routes_chunks() {
        let p = 4;
        let res = spmd(p, |c| {
            // Send [my_rank, dest] to each destination.
            let send: Vec<Vec<f64>> =
                (0..p).map(|q| vec![c.rank() as f64, q as f64]).collect();
            c.alltoallv(send)
        });
        for (me, recv) in res.iter().enumerate() {
            for (src, chunk) in recv.iter().enumerate() {
                assert_eq!(chunk, &vec![src as f64, me as f64]);
            }
        }
    }

    #[test]
    fn alltoallv_ragged_sizes() {
        let p = 3;
        let res = spmd(p, |c| {
            let send: Vec<Vec<f64>> = (0..p).map(|q| vec![1.0; c.rank() * p + q]).collect();
            c.alltoallv(send)
        });
        for (me, recv) in res.iter().enumerate() {
            for (src, chunk) in recv.iter().enumerate() {
                assert_eq!(chunk.len(), src * p + me);
            }
        }
    }

    #[test]
    fn stats_account_bytes_and_calls() {
        let res = spmd(2, |c| {
            let mut buf = vec![0.0; 100];
            c.allreduce_sum(&mut buf);
            c.barrier();
            c.stats()
        });
        for s in res {
            assert_eq!(s.collective_calls, 2);
            assert_eq!(s.bytes_sent, 800);
        }
    }

    #[test]
    fn per_op_breakdown_sums_to_aggregate() {
        let res = spmd(2, |c| {
            let mut buf = vec![1.0; 16];
            c.allreduce_sum(&mut buf);
            let _ = c.allgatherv(&buf);
            let _ = c.alltoallv(vec![vec![1.0], vec![2.0]]);
            let _ = c.reduce_sum(buf.clone(), 0);
            c.barrier();
            c.stats()
        });
        for s in &res {
            assert_eq!(s.allreduce.calls, 1);
            assert_eq!(s.allgatherv.calls, 1);
            assert_eq!(s.alltoallv.calls, 1);
            assert_eq!(s.reduce.calls, 1);
            assert_eq!(s.barrier.calls, 1);
            let per: [(&str, OpStats); 5] = s.per_op();
            let calls: u64 = per.iter().map(|(_, o)| o.calls).sum();
            let bytes: u64 = per.iter().map(|(_, o)| o.bytes).sum();
            let secs: f64 = per.iter().map(|(_, o)| o.seconds).sum();
            assert_eq!(calls, s.collective_calls);
            assert_eq!(bytes, s.bytes_sent);
            assert!((secs - s.measured_seconds).abs() < 1e-12);
            assert_eq!(s.allreduce.bytes, 128);
            assert_eq!(s.barrier.bytes, 0);
        }
    }

    #[test]
    fn multi_segment_allreduce_is_the_ascending_fold_and_accounts_once() {
        // Three segments, each claimed by whichever rank gets to it first:
        // every element must still be `((+0.0 + x₀) + x₁) + x₂`, and the op
        // is charged once however the segments were shared out.
        let len = 10_000;
        let data = |rank: usize| -> Vec<f64> {
            (0..len).map(|i| ((i * 31 + rank * 17) % 101) as f64 * 1e-2 - 0.5).collect()
        };
        let res = spmd(3, |c| {
            let mut buf = data(c.rank());
            c.allreduce_sum(&mut buf);
            (buf, c.stats())
        });
        let mut want = vec![0.0; len];
        for rank in 0..3 {
            want.iter_mut().zip(data(rank)).for_each(|(w, x)| *w += x);
        }
        for (got, s) in res {
            assert!(got.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits()));
            assert_eq!(s.collective_calls, 1);
            assert_eq!(s.bytes_sent, 80_000);
        }
    }

    #[test]
    fn take_stats_snapshots_and_clears_in_one_step() {
        let res = spmd(2, |c| {
            let mut buf = vec![1.0; 8];
            c.allreduce_sum(&mut buf);
            c.barrier();
            let window = c.take_stats();
            (window, c.stats())
        });
        for (window, after) in res {
            assert_eq!(window.collective_calls, 2);
            assert_eq!(window.bytes_sent, 64);
            assert_eq!(after, CommStats::default(), "take_stats must leave a fresh window");
        }
    }

    #[test]
    fn single_rank_everything_is_identity() {
        // The solo communicator lives on the calling thread; its collectives
        // are identities that account nothing.
        let c = Comm::solo();
        let mut buf = vec![3.0];
        c.barrier();
        c.allreduce_sum(&mut buf);
        assert_eq!(c.allgatherv(&buf), vec![3.0]);
        assert_eq!(c.alltoallv(vec![vec![1.0, 2.0]]), vec![vec![1.0, 2.0]]);
        assert_eq!(c.reduce_sum(buf.clone(), 0), vec![3.0]);
        assert_eq!(buf, vec![3.0]);
        assert_eq!(c.stats(), CommStats::default());
    }

    #[test]
    fn many_ranks_stress() {
        let p = 16;
        let res = spmd(p, |c| {
            let mut acc = 0.0;
            for round in 0..5 {
                let mut buf = vec![(c.rank() + round) as f64];
                c.allreduce_sum(&mut buf);
                acc += buf[0];
            }
            acc
        });
        let expect: f64 = (0..5).map(|r| (0..16).map(|k| (k + r) as f64).sum::<f64>()).sum();
        for v in res {
            assert_eq!(v, expect);
        }
    }
}
