//! The SPMD engine: thread ranks + request-based collectives.
//!
//! Every collective — blocking or not — is executed by the nonblocking
//! progress engine in [`crate::requests`]: the blocking API below is a thin
//! *issue-then-wait* wrapper over the same chunked algorithms, so the two
//! paths are one implementation and stay bitwise-identical by construction.
//! Blocking calls account under the legacy op labels (`allreduce`, `reduce`,
//! …); nonblocking calls account under their own `i*` labels, with engine
//! segment steps tracked separately in [`SegStats`] so per-segment work is
//! never double-counted against the aggregate fields.

use crate::cost::CostModel;
use crate::requests::{CommInterval, NbShared, Worker, DEFAULT_SEGMENT_WORDS};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::time::Instant;

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

/// Payload threshold below which a collective call is **α-dominated**
/// (latency-bound): at the default [`CostModel`] and 4 ranks, the allreduce
/// latency and bandwidth terms cross at ~32 KiB — also the engine's segment
/// size, so anything under it is a single-segment (pure-latency) op.
pub const ALPHA_SMALL_BYTES: u64 = 32 * 1024;

/// Engine-side segment counters. A nonblocking collective is executed as a
/// stream of segment steps on the progress worker; those steps are counted
/// here and **only** here — `bytes`/`busy_seconds` below deliberately do
/// not feed [`CommStats::bytes_sent`] / [`CommStats::measured_seconds`],
/// which charge each collective exactly once at issue/wait on the caller's
/// thread.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SegStats {
    /// Segment steps executed by this rank's progress worker.
    pub steps: u64,
    /// Bytes touched by those steps (fold + copy traffic).
    pub bytes: u64,
    /// Seconds the progress worker was busy executing steps.
    pub busy_seconds: f64,
}

/// Per-rank communication statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CommStats {
    /// Bytes this rank contributed to collectives.
    pub bytes_sent: u64,
    /// Number of collective calls.
    pub collective_calls: u64,
    /// Wall-clock seconds actually spent inside collectives (measured):
    /// blocked time for the blocking API, issue + `wait()` time for the
    /// request API. Engine-thread busy time is in [`SegStats`] instead.
    pub measured_seconds: f64,
    /// Seconds the α–β model charges for the same collectives.
    pub modeled_seconds: f64,
    /// Per-operation breakdowns; their `calls`/`bytes`/`seconds` sum to the
    /// aggregate fields above.
    pub allreduce: OpStats,
    pub reduce: OpStats,
    pub bcast: OpStats,
    pub allgatherv: OpStats,
    pub alltoallv: OpStats,
    pub barrier: OpStats,
    /// Nonblocking (request-based) ops.
    pub ireduce: OpStats,
    pub iallreduce: OpStats,
    pub ibcast: OpStats,
    pub iallgatherv: OpStats,
    pub ialltoallv_nb: OpStats,
    /// Engine segment-step counters (not part of the aggregates above).
    pub seg: SegStats,
    /// Fused flushes executed by the deferred-reduction scheduler
    /// ([`crate::batch`]): each flush is one collective that replaced
    /// `fused_fields / fused_flushes` small ones on average.
    pub fused_flushes: u64,
    /// Total pending fields folded into those fused flushes.
    pub fused_fields: u64,
    /// Collective calls whose payload was ≤ [`ALPHA_SMALL_BYTES`] — the
    /// latency-bound population the communication-avoiding path shrinks.
    pub alpha_calls: u64,
}

impl CommStats {
    /// The per-operation breakdown as `(label, stats)` rows, in a stable
    /// report order.
    pub fn per_op(&self) -> [(&'static str, OpStats); 11] {
        [
            ("allreduce", self.allreduce),
            ("reduce", self.reduce),
            ("bcast", self.bcast),
            ("allgatherv", self.allgatherv),
            ("alltoallv", self.alltoallv),
            ("barrier", self.barrier),
            ("ireduce", self.ireduce),
            ("iallreduce", self.iallreduce),
            ("ibcast", self.ibcast),
            ("iallgatherv", self.iallgatherv),
            ("ialltoallv", self.ialltoallv_nb),
        ]
    }
}

/// Which blocking collective an accounting entry belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CollOp {
    Allreduce,
    Reduce,
    Bcast,
    Allgatherv,
    Alltoallv,
    Barrier,
}

impl CollOp {
    fn span_name(self) -> &'static str {
        match self {
            CollOp::Allreduce => "mpi:allreduce",
            CollOp::Reduce => "mpi:reduce",
            CollOp::Bcast => "mpi:bcast",
            CollOp::Allgatherv => "mpi:allgatherv",
            CollOp::Alltoallv => "mpi:alltoallv",
            CollOp::Barrier => "mpi:barrier",
        }
    }

    fn slot(self, stats: &mut CommStats) -> &mut OpStats {
        match self {
            CollOp::Allreduce => &mut stats.allreduce,
            CollOp::Reduce => &mut stats.reduce,
            CollOp::Bcast => &mut stats.bcast,
            CollOp::Allgatherv => &mut stats.allgatherv,
            CollOp::Alltoallv => &mut stats.alltoallv,
            CollOp::Barrier => &mut stats.barrier,
        }
    }
}

pub(crate) struct Shared {
    pub(crate) size: usize,
    pub(crate) barrier: Barrier,
    pub(crate) model: CostModel,
    /// Cross-rank state of the nonblocking progress engine.
    pub(crate) nb: NbShared,
    /// Sub-communicator rendezvous for [`Comm::split`], keyed by
    /// `(split sequence number, color)`. The entry is removed once every
    /// member of the group has taken its handle.
    pub(crate) splits: Mutex<HashMap<(u64, u64), SplitEntry>>,
}

impl Shared {
    fn new(size: usize, model: CostModel, segment_words: usize) -> Arc<Shared> {
        Arc::new(Shared {
            size,
            barrier: Barrier::new(size),
            model,
            nb: NbShared::new(segment_words),
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

/// Per-rank communicator handle (not shared across threads).
pub struct Comm {
    pub(crate) rank: usize,
    pub(crate) shared: Arc<Shared>,
    /// Shared with this rank's progress worker (it bumps [`SegStats`]), so
    /// a mutex rather than a `Cell`; still reset atomically as one struct.
    pub(crate) stats: Arc<Mutex<CommStats>>,
    /// Timestamped engine steps since the last
    /// [`Comm::drain_comm_intervals`].
    pub(crate) timeline: Arc<Mutex<Vec<CommInterval>>>,
    /// Per-rank issue counter; SPMD issue order pairs op `n` here with op
    /// `n` on every other rank.
    pub(crate) next_op: Cell<u64>,
    /// Per-rank [`Comm::split`] counter; splits pair up across ranks by call
    /// order exactly like collectives pair by op id.
    pub(crate) split_seq: Cell<u64>,
    /// Lazily spawned progress worker (joined on drop).
    pub(crate) worker: RefCell<Option<Worker>>,
}

impl Drop for Comm {
    fn drop(&mut self) {
        if let Some(w) = self.worker.borrow_mut().take() {
            w.shutdown();
        }
    }
}

impl Comm {
    fn new(rank: usize, shared: Arc<Shared>) -> Comm {
        Comm {
            rank,
            shared,
            stats: Arc::new(Mutex::new(CommStats::default())),
            timeline: Arc::new(Mutex::new(Vec::new())),
            next_op: Cell::new(0),
            split_seq: Cell::new(0),
            worker: RefCell::new(None),
        }
    }

    /// The size-1 communicator, built on the calling thread: no rank thread
    /// is spawned, and every collective on it is the identity — it returns
    /// before it opens an `mpi:*` span or touches [`CommStats`]. This is what
    /// makes a serial solve the one-rank case of the distributed one.
    pub fn solo() -> Comm {
        Comm::new(0, Shared::new(1, CostModel::default(), DEFAULT_SEGMENT_WORDS))
    }

    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    #[inline]
    pub fn size(&self) -> usize {
        self.shared.size
    }

    /// Statistics accumulated by this rank so far.
    pub fn stats(&self) -> CommStats {
        *lock(&self.stats)
    }

    /// Reset the statistics counters (e.g. between timed phases). One store:
    /// aggregate, per-op, per-segment, fused-flush, and latency-bound
    /// counters all clear together — `CommStats` resets as a
    /// whole struct, so no field can bleed into the next window.
    pub fn reset_stats(&self) {
        *lock(&self.stats) = CommStats::default();
    }

    /// Atomically snapshot **and** reset the statistics counters under one
    /// lock acquisition. This is the per-job stats window primitive for the
    /// serving scheduler: a `stats()` + `reset_stats()` pair leaves a gap in
    /// which another collective on a shared progress path could be counted in
    /// neither window, while `take_stats()` hands every recorded event to
    /// exactly one window.
    pub fn take_stats(&self) -> CommStats {
        std::mem::take(&mut *lock(&self.stats))
    }

    fn account(&self, op: CollOp, bytes: usize, t0: Instant, modeled: f64, span: obskit::Span) {
        let seconds = t0.elapsed().as_secs_f64();
        {
            let mut s = lock(&self.stats);
            s.bytes_sent += bytes as u64;
            s.collective_calls += 1;
            s.measured_seconds += seconds;
            s.modeled_seconds += modeled;
            if bytes as u64 <= ALPHA_SMALL_BYTES {
                s.alpha_calls += 1;
            }
            let slot = op.slot(&mut s);
            slot.calls += 1;
            slot.bytes += bytes as u64;
            slot.seconds += seconds;
        }
        obskit::add_bytes_moved(bytes as u64);
        let mut span = span;
        span.arg("bytes", bytes as f64);
        span.arg("modeled_s", modeled);
    }

    /// Credit one fused flush of `fields` pending reductions to this rank
    /// (called by the [`crate::batch`] scheduler).
    pub(crate) fn note_fused(&self, fields: u64) {
        let mut s = lock(&self.stats);
        s.fused_flushes += 1;
        s.fused_fields += fields;
    }

    /// Synchronize all ranks.
    pub fn barrier(&self) {
        if self.size() == 1 {
            return;
        }
        let op = CollOp::Barrier;
        let sp = obskit::span(obskit::Stage::Mpi, op.span_name());
        let t0 = Instant::now();
        self.shared.barrier.wait();
        let m = self.shared.model.barrier(self.size());
        self.account(op, 0, t0, m, sp);
    }

    /// In-place sum-allreduce of `buf` across all ranks. Issue-then-wait
    /// over the ring engine; the ascending rank-order fold keeps results
    /// bitwise identical to the historical staging-buffer path.
    pub fn allreduce_sum(&self, buf: &mut [f64]) {
        let p = self.size();
        if p == 1 {
            return;
        }
        let op = CollOp::Allreduce;
        let sp = obskit::span(obskit::Stage::Mpi, op.span_name());
        let t0 = Instant::now();
        let out = self
            .issue_reduce(buf.to_vec(), 0, true, false, None)
            .wait();
        buf.copy_from_slice(&out);
        let bytes = buf.len() * 8;
        let m = self.shared.model.allreduce(p, bytes);
        self.account(op, bytes, t0, m, sp);
    }

    /// Max-allreduce of a scalar.
    pub fn allreduce_max(&self, v: f64) -> f64 {
        let p = self.size();
        if p == 1 {
            return v;
        }
        let op = CollOp::Allreduce;
        let sp = obskit::span(obskit::Stage::Mpi, op.span_name());
        let t0 = Instant::now();
        let out = self.issue_allreduce_max(vec![v]).wait();
        let m = self.shared.model.allreduce(p, 8);
        self.account(op, 8, t0, m, sp);
        out[0]
    }

    /// Sum-reduce `buf` to `root`; non-root ranks' buffers are untouched.
    pub fn reduce_sum(&self, buf: &mut [f64], root: usize) {
        let p = self.size();
        if p == 1 {
            return;
        }
        let op = CollOp::Reduce;
        let sp = obskit::span(obskit::Stage::Mpi, op.span_name());
        let t0 = Instant::now();
        let out = self
            .issue_reduce(buf.to_vec(), root, false, false, None)
            .wait();
        if self.rank == root {
            buf.copy_from_slice(&out);
        }
        let bytes = buf.len() * 8;
        let m = self.shared.model.reduce(p, bytes);
        self.account(op, bytes, t0, m, sp);
    }

    /// Broadcast `buf` from `root` to all ranks.
    pub fn bcast(&self, buf: &mut [f64], root: usize) {
        let p = self.size();
        if p == 1 {
            return;
        }
        let op = CollOp::Bcast;
        let sp = obskit::span(obskit::Stage::Mpi, op.span_name());
        let t0 = Instant::now();
        let out = self.issue_bcast(buf.to_vec(), root, None).wait();
        buf.copy_from_slice(&out);
        let bytes = buf.len() * 8;
        let m = self.shared.model.bcast(p, bytes);
        self.account(op, if self.rank == root { bytes } else { 0 }, t0, m, sp);
    }

    /// Variable all-gather: every rank contributes `mine`, receives the
    /// concatenation in rank order.
    pub fn allgatherv(&self, mine: &[f64]) -> Vec<f64> {
        let p = self.size();
        if p == 1 {
            return mine.to_vec();
        }
        let op = CollOp::Allgatherv;
        let sp = obskit::span(obskit::Stage::Mpi, op.span_name());
        let t0 = Instant::now();
        let out = self.issue_gather(mine.to_vec(), None).wait();
        let total = out.len() * 8;
        let m = self.shared.model.allgatherv(p, total);
        self.account(op, mine.len() * 8, t0, m, sp);
        out
    }

    /// Variable all-to-all: `send[q]` goes to rank `q`; returns what every
    /// rank sent to *me*, indexed by source rank.
    pub fn alltoallv(&self, send: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
        let p = self.size();
        assert_eq!(send.len(), p, "alltoallv needs one chunk per destination");
        if p == 1 {
            return send;
        }
        let op = CollOp::Alltoallv;
        let sp = obskit::span(obskit::Stage::Mpi, op.span_name());
        let t0 = Instant::now();
        let sent_bytes: usize = send.iter().map(|c| c.len() * 8).sum();
        let recv = self.issue_alltoall(send, None).wait();
        let m = self.shared.model.alltoallv(p, sent_bytes);
        self.account(op, sent_bytes, t0, m, sp);
        recv
    }

    // ---- point-to-point-flavoured collectives (formerly collectives_ext)

    /// Gather variable-length contributions at `root`. Non-root ranks get an
    /// empty vector; `root` gets the concatenation in rank order.
    pub fn gatherv(&self, mine: &[f64], root: usize) -> Vec<f64> {
        let all = self.allgatherv(mine);
        if self.rank() == root {
            all
        } else {
            Vec::new()
        }
    }

    /// Scatter per-rank chunks from `root`: `chunks` is only read on `root`
    /// (other ranks pass anything, conventionally `&[]`). Returns my chunk.
    pub fn scatterv(&self, chunks: &[Vec<f64>], root: usize) -> Vec<f64> {
        let p = self.size();
        // Route through alltoallv: root supplies the payload row, everyone
        // else sends empties.
        let send: Vec<Vec<f64>> = if self.rank() == root {
            assert_eq!(chunks.len(), p, "scatterv needs one chunk per rank on root");
            chunks.to_vec()
        } else {
            vec![Vec::new(); p]
        };
        let recv = self.alltoallv(send);
        recv[root].clone()
    }

    /// Ring shift: send `mine` to `(rank+1) % size`, receive from the left
    /// neighbour. The building block of systolic matrix algorithms.
    pub fn ring_shift(&self, mine: &[f64]) -> Vec<f64> {
        let p = self.size();
        let mut send: Vec<Vec<f64>> = vec![Vec::new(); p];
        send[(self.rank() + 1) % p] = mine.to_vec();
        let recv = self.alltoallv(send);
        recv[(self.rank() + p - 1) % p].clone()
    }

    /// Sum a scalar across ranks.
    pub fn allreduce_sum_scalar(&self, v: f64) -> f64 {
        let mut buf = [v];
        self.allreduce_sum(&mut buf);
        buf[0]
    }

    /// Exclusive prefix sum of a scalar (rank 0 gets 0.0) — used to compute
    /// global offsets of variable-length local arrays.
    pub fn exscan_sum(&self, v: f64) -> f64 {
        let all = self.allgatherv(&[v]);
        all[..self.rank()].iter().sum()
    }

    /// Split this communicator into disjoint sub-communicators: ranks with
    /// the same `color` form a group; within a group, ranks are ordered by
    /// `(key, parent rank)` — the MPI `Comm_split` convention.
    ///
    /// Collective on the parent (every rank must call it, in the same call
    /// order). The returned [`Comm`] has its own rank numbering, barrier,
    /// progress engine, and [`CommStats`], so a sub-group's collectives are
    /// accounted separately from the parent's and never pair with them.
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
                shared: Shared::new(group_size, self.shared.model, self.shared.nb.segment_words),
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

/// Run `f` as an SPMD program on `size` thread-ranks with the default cost
/// model; returns the per-rank results in rank order.
pub fn spmd<T, F>(size: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&Comm) -> T + Sync,
{
    spmd_with_model(size, CostModel::default(), f)
}

/// [`spmd`] with an explicit communication cost model.
pub fn spmd_with_model<T, F>(size: usize, model: CostModel, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&Comm) -> T + Sync,
{
    assert!(size > 0, "need at least one rank");
    let shared = Shared::new(size, model, DEFAULT_SEGMENT_WORDS);
    let mut results: Vec<Option<T>> = (0..size).map(|_| None).collect();
    // An armed fault plan on the launching thread extends to every rank:
    // rank threads install the same handle, so per-rank occurrence counters
    // advance in lockstep and collective faults fire symmetrically.
    let faults = faultkit::handle();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(size);
        for rank in 0..size {
            let shared = Arc::clone(&shared);
            let f = &f;
            let faults = faults.clone();
            handles.push(scope.spawn(move || {
                // Tag this rank thread's trace stream (lane label "rank N")
                // and deliver whatever it recorded when the rank function
                // returns (or panics — the thread-local backstop flushes on
                // unwind).
                obskit::set_rank(rank);
                faultkit::install(faults);
                faultkit::set_rank(rank);
                let comm = Comm::new(rank, shared);
                let out = f(&comm);
                obskit::flush_thread();
                // `comm` drops here, joining the progress worker.
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
    fn reduce_only_root_gets_sum() {
        let res = spmd(4, |c| {
            let mut buf = vec![2.0];
            c.reduce_sum(&mut buf, 2);
            buf[0]
        });
        assert_eq!(res[2], 8.0);
        assert_eq!(res[0], 2.0);
        assert_eq!(res[3], 2.0);
    }

    #[test]
    fn bcast_distributes_roots_data() {
        let res = spmd(5, |c| {
            let mut buf = if c.rank() == 1 { vec![7.0, 8.0] } else { vec![0.0, 0.0] };
            c.bcast(&mut buf, 1);
            buf
        });
        for r in res {
            assert_eq!(r, vec![7.0, 8.0]);
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
    fn allreduce_max_scalar() {
        let res = spmd(6, |c| c.allreduce_max((c.rank() as f64 - 2.5).abs()));
        for r in res {
            assert_eq!(r, 2.5);
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
            assert!(s.modeled_seconds > 0.0);
        }
    }

    #[test]
    fn per_op_breakdown_sums_to_aggregate() {
        let res = spmd(2, |c| {
            let mut buf = vec![1.0; 16];
            c.allreduce_sum(&mut buf);
            c.bcast(&mut buf, 0);
            let _ = c.allgatherv(&buf);
            let _ = c.alltoallv(vec![vec![1.0], vec![2.0]]);
            c.reduce_sum(&mut buf, 0);
            c.barrier();
            c.stats()
        });
        for s in &res {
            assert_eq!(s.allreduce.calls, 1);
            assert_eq!(s.reduce.calls, 1);
            assert_eq!(s.bcast.calls, 1);
            assert_eq!(s.allgatherv.calls, 1);
            assert_eq!(s.alltoallv.calls, 1);
            assert_eq!(s.barrier.calls, 1);
            let per: [(&str, OpStats); 11] = s.per_op();
            let calls: u64 = per.iter().map(|(_, o)| o.calls).sum();
            let bytes: u64 = per.iter().map(|(_, o)| o.bytes).sum();
            let secs: f64 = per.iter().map(|(_, o)| o.seconds).sum();
            assert_eq!(calls, s.collective_calls);
            assert_eq!(bytes, s.bytes_sent);
            assert!((secs - s.measured_seconds).abs() < 1e-12);
            assert_eq!(s.allreduce.bytes, 128);
            assert_eq!(s.barrier.bytes, 0);
        }
        // Root contributed bcast bytes, non-root did not.
        assert_eq!(res[0].bcast.bytes, 128);
        assert_eq!(res[1].bcast.bytes, 0);
    }

    #[test]
    fn segment_steps_do_not_double_count_aggregates() {
        // The bugfix this PR guards: engine segment traffic must stay out of
        // bytes_sent / measured_seconds, which charge each op exactly once.
        let res = spmd(2, |c| {
            let mut buf = vec![1.0; 10_000]; // > one segment
            c.allreduce_sum(&mut buf);
            c.stats()
        });
        for s in res {
            assert_eq!(s.collective_calls, 1);
            assert_eq!(s.bytes_sent, 80_000);
            assert!(s.seg.steps >= 2, "chunked algorithm must take multiple steps");
            assert!(s.seg.bytes >= 80_000);
            assert!(s.seg.busy_seconds >= 0.0);
            // Aggregate bytes unchanged by segment traffic.
            let per_sum: u64 = s.per_op().iter().map(|(_, o)| o.bytes).sum();
            assert_eq!(per_sum, s.bytes_sent);
        }
    }

    #[test]
    fn reset_clears_aggregate_and_per_op_together() {
        let res = spmd(2, |c| {
            let mut buf = vec![1.0; 8];
            c.allreduce_sum(&mut buf);
            c.barrier();
            c.reset_stats();
            c.stats()
        });
        for s in res {
            assert_eq!(s, CommStats::default(), "reset must clear every field");
        }
    }

    #[test]
    fn reset_clears_call_fused_and_alpha_counters() {
        // Per-job stats windows in the serving scheduler rely on reset
        // clearing *every* counter family, including call counts,
        // fused-flush credits, and latency-bound call counts — none may
        // bleed from one tenant's window into the next.
        let res = spmd(2, |c| {
            let mut small = vec![1.0; 4]; // under ALPHA_SMALL_BYTES
            c.allreduce_sum(&mut small);
            c.note_fused(3);
            let before = c.stats();
            assert!(before.collective_calls > 0);
            assert!(before.alpha_calls >= 1);
            assert_eq!(before.fused_flushes, 1);
            assert_eq!(before.fused_fields, 3);
            c.reset_stats();
            c.stats()
        });
        for s in res {
            assert_eq!(s.collective_calls, 0);
            assert_eq!(s.alpha_calls, 0);
            assert_eq!(s.fused_flushes, 0);
            assert_eq!(s.fused_fields, 0);
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
            assert!(window.alpha_calls > 0);
            assert_eq!(after, CommStats::default(), "take_stats must leave a fresh window");
        }
    }

    #[test]
    fn reset_clears_segment_counters() {
        let res = spmd(2, |c| {
            let mut buf = vec![1.0; 9000];
            c.allreduce_sum(&mut buf);
            assert!(c.stats().seg.steps > 0);
            c.reset_stats();
            c.stats()
        });
        for s in res {
            assert_eq!(s.seg, SegStats::default());
        }
    }

    #[test]
    fn single_rank_everything_is_identity() {
        // The solo communicator lives on the calling thread; its collectives
        // — blocking and request-based — are identities that account nothing.
        let c = Comm::solo();
        let mut buf = vec![3.0];
        c.barrier();
        c.allreduce_sum(&mut buf);
        c.reduce_sum(&mut buf, 0);
        c.bcast(&mut buf, 0);
        assert_eq!(c.allreduce_max(buf[0]), 3.0);
        assert_eq!(c.allgatherv(&buf), vec![3.0]);
        assert_eq!(c.alltoallv(vec![vec![1.0, 2.0]]), vec![vec![1.0, 2.0]]);
        assert_eq!(c.iallreduce_sum(buf.clone()).wait(), vec![3.0]);
        assert_eq!(c.ireduce_sum(buf.clone(), 0).wait(), vec![3.0]);
        assert_eq!(c.ibcast(buf.clone(), 0).wait(), vec![3.0]);
        assert_eq!(c.iallgatherv(&buf).wait(), vec![3.0]);
        assert_eq!(c.ialltoallv(vec![vec![1.0, 2.0]]).wait(), vec![vec![1.0, 2.0]]);
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

    // ---- formerly collectives_ext tests

    #[test]
    fn gatherv_only_root_receives() {
        let res = spmd(4, |c| {
            let mine = vec![c.rank() as f64; c.rank() + 1];
            c.gatherv(&mine, 2)
        });
        assert!(res[0].is_empty() && res[1].is_empty() && res[3].is_empty());
        assert_eq!(res[2], vec![0.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn scatterv_routes_chunks_from_root() {
        let res = spmd(3, |c| {
            let chunks = if c.rank() == 1 {
                vec![vec![10.0], vec![20.0, 21.0], vec![30.0, 31.0, 32.0]]
            } else {
                vec![Vec::new(); 3]
            };
            c.scatterv(&chunks, 1)
        });
        assert_eq!(res[0], vec![10.0]);
        assert_eq!(res[1], vec![20.0, 21.0]);
        assert_eq!(res[2], vec![30.0, 31.0, 32.0]);
    }

    #[test]
    fn ring_shift_rotates() {
        let res = spmd(5, |c| {
            let mine = vec![c.rank() as f64];
            c.ring_shift(&mine)
        });
        for (me, r) in res.iter().enumerate() {
            let left = (me + 5 - 1) % 5;
            assert_eq!(r, &vec![left as f64]);
        }
    }

    #[test]
    fn ring_shift_composes_to_identity() {
        // P shifts bring the data home.
        let p = 4;
        let res = spmd(p, |c| {
            let mut data = vec![c.rank() as f64 * 10.0, 1.0];
            for _ in 0..p {
                data = c.ring_shift(&data);
            }
            data
        });
        for (me, r) in res.iter().enumerate() {
            assert_eq!(r, &vec![me as f64 * 10.0, 1.0]);
        }
    }

    #[test]
    fn scalar_helpers() {
        let res = spmd(4, |c| {
            let sum = c.allreduce_sum_scalar(c.rank() as f64 + 1.0);
            let offset = c.exscan_sum((c.rank() + 1) as f64);
            (sum, offset)
        });
        for (me, (sum, offset)) in res.iter().enumerate() {
            assert_eq!(*sum, 10.0);
            let expect: f64 = (1..=me).map(|r| r as f64).sum();
            assert_eq!(*offset, expect, "rank {me}");
        }
    }
}
