//! The SPMD runtime: thread ranks and the blocking collectives.
//!
//! Every collective — blocking or not — runs on the thread that calls it:
//! the blocking API below is *issue, then wait* over the request machinery
//! in [`crate::requests`], so the two paths are one implementation and stay
//! bitwise-identical by construction. Blocking calls account under their own
//! op labels (`allreduce`, `allgatherv`, …), request calls under their `i*`
//! labels.

use crate::cost::CostModel;
use crate::requests::{complete_chunks, complete_vals, Deposit, OpCell};
use std::cell::Cell;
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
/// latency and bandwidth terms cross at ~32 KiB — also the reduction's
/// segment size, so anything under it is a single-segment (pure-latency) op.
pub const ALPHA_SMALL_BYTES: u64 = 32 * 1024;

/// Per-rank communication statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CommStats {
    /// Bytes this rank contributed to collectives.
    pub bytes_sent: u64,
    /// Number of collective calls.
    pub collective_calls: u64,
    /// Wall-clock seconds actually spent inside collectives (measured):
    /// the whole call for the blocking API, issue + `wait()` time for the
    /// request API.
    pub measured_seconds: f64,
    /// Seconds the α–β model charges for the same collectives.
    pub modeled_seconds: f64,
    /// Per-operation breakdowns; their `calls`/`bytes`/`seconds` sum to the
    /// aggregate fields above.
    pub allreduce: OpStats,
    pub allgatherv: OpStats,
    pub alltoallv: OpStats,
    pub barrier: OpStats,
    /// Nonblocking (request-based) ops.
    pub ireduce: OpStats,
    pub iallreduce: OpStats,
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
    pub fn per_op(&self) -> [(&'static str, OpStats); 6] {
        [
            ("allreduce", self.allreduce),
            ("allgatherv", self.allgatherv),
            ("alltoallv", self.alltoallv),
            ("barrier", self.barrier),
            ("ireduce", self.ireduce),
            ("iallreduce", self.iallreduce),
        ]
    }
}

/// Which collective an accounting entry, span and fault site belong to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Op {
    Allreduce,
    Allgatherv,
    Alltoallv,
    Barrier,
    Ireduce,
    Iallreduce,
}

impl Op {
    pub(crate) fn span_name(self) -> &'static str {
        match self {
            Op::Allreduce => "mpi:allreduce",
            Op::Allgatherv => "mpi:allgatherv",
            Op::Alltoallv => "mpi:alltoallv",
            Op::Barrier => "mpi:barrier",
            Op::Ireduce => "mpi:ireduce",
            Op::Iallreduce => "mpi:iallreduce",
        }
    }

    fn slot(self, stats: &mut CommStats) -> &mut OpStats {
        match self {
            Op::Allreduce => &mut stats.allreduce,
            Op::Allgatherv => &mut stats.allgatherv,
            Op::Alltoallv => &mut stats.alltoallv,
            Op::Barrier => &mut stats.barrier,
            Op::Ireduce => &mut stats.ireduce,
            Op::Iallreduce => &mut stats.iallreduce,
        }
    }

    /// Whether this is a request-API op (its waits are traced and charged).
    pub(crate) fn is_request(self) -> bool {
        matches!(self, Op::Ireduce | Op::Iallreduce)
    }

    /// Fault-hook site. Blocking ops all hook under `comm.blocking`, so a
    /// `FaultPlan` can target the request API without perturbing blocking
    /// call sites (whose plain `wait` has no drop recovery).
    pub(crate) fn fault_site(self) -> &'static str {
        match self {
            Op::Ireduce => "comm.ireduce",
            Op::Iallreduce => "comm.iallreduce",
            _ => "comm.blocking",
        }
    }

    /// Label carried by [`faultkit::CommError`].
    pub(crate) fn label(self) -> &'static str {
        match self {
            Op::Ireduce => "ireduce",
            Op::Iallreduce => "iallreduce",
            _ => "blocking",
        }
    }
}

pub(crate) struct Shared {
    pub(crate) size: usize,
    pub(crate) barrier: Barrier,
    pub(crate) model: CostModel,
    /// Collectives in flight, by op id. A cell leaves once every rank has
    /// waited on or dropped its request for it.
    pub(crate) ops: Mutex<HashMap<u64, Arc<OpCell>>>,
    /// Sub-communicator rendezvous for [`Comm::split`], keyed by
    /// `(split sequence number, color)`. The entry is removed once every
    /// member of the group has taken its handle.
    pub(crate) splits: Mutex<HashMap<(u64, u64), SplitEntry>>,
}

impl Shared {
    fn new(size: usize, model: CostModel) -> Arc<Shared> {
        Arc::new(Shared {
            size,
            barrier: Barrier::new(size),
            model,
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
    /// Per-rank issue counter; SPMD issue order pairs op `n` here with op
    /// `n` on every other rank.
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
        Comm::new(0, Shared::new(1, CostModel::default()))
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
        self.stats.get()
    }

    /// Reset the statistics counters (e.g. between timed phases): aggregate,
    /// per-op, fused-flush and latency-bound counters clear together.
    pub fn reset_stats(&self) {
        self.stats.take();
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

    /// Charge `dt` seconds a request waited to its op.
    pub(crate) fn charge_wait(&self, op: Op, dt: f64) {
        self.charge(|s| {
            s.measured_seconds += dt;
            op.slot(s).seconds += dt;
        });
    }

    /// Charge one collective call: its bytes, its modeled time and the wall
    /// time since `t0`. `span` was opened at the op's entry, so span-derived
    /// stage timings match `measured_seconds`; it gets its args here and
    /// closes on drop.
    pub(crate) fn account(&self, op: Op, bytes: usize, t0: Instant, modeled: f64, span: obskit::Span) {
        let seconds = t0.elapsed().as_secs_f64();
        self.charge(|s| {
            s.bytes_sent += bytes as u64;
            s.collective_calls += 1;
            s.measured_seconds += seconds;
            s.modeled_seconds += modeled;
            if bytes as u64 <= ALPHA_SMALL_BYTES {
                s.alpha_calls += 1;
            }
            let slot = op.slot(s);
            slot.calls += 1;
            slot.bytes += bytes as u64;
            slot.seconds += seconds;
        });
        obskit::add_bytes_moved(bytes as u64);
        let mut span = span;
        span.arg("bytes", bytes as f64);
        span.arg("modeled_s", modeled);
    }

    /// Credit one fused flush of `fields` pending reductions to this rank
    /// (called by the [`crate::batch`] scheduler).
    pub(crate) fn note_fused(&self, fields: u64) {
        self.charge(|s| {
            s.fused_flushes += 1;
            s.fused_fields += fields;
        });
    }

    /// Per-rank monotone op id; SPMD issue order matches op `n` here with
    /// op `n` on every other rank.
    pub(crate) fn next_op_id(&self) -> u64 {
        let id = self.next_op.get();
        self.next_op.set(id + 1);
        id
    }

    /// Synchronize all ranks.
    pub fn barrier(&self) {
        if self.size() == 1 {
            return;
        }
        let op = Op::Barrier;
        let sp = obskit::span(obskit::Stage::Mpi, op.span_name());
        let t0 = Instant::now();
        self.shared.barrier.wait();
        let m = self.shared.model.barrier(self.size());
        self.account(op, 0, t0, m, sp);
    }

    /// In-place sum-allreduce of `buf` across all ranks: every element is
    /// summed over the ranks in ascending rank order from `+0.0`.
    pub fn allreduce_sum(&self, buf: &mut [f64]) {
        let p = self.size();
        if p == 1 {
            return;
        }
        let op = Op::Allreduce;
        let sp = obskit::span(obskit::Stage::Mpi, op.span_name());
        let t0 = Instant::now();
        let deposit = Deposit::Reduce { root: None, buf: buf.to_vec() };
        let out = self.issue(op, deposit, complete_vals).wait();
        buf.copy_from_slice(&out);
        let bytes = buf.len() * 8;
        let m = self.shared.model.allreduce(p, bytes);
        self.account(op, bytes, t0, m, sp);
    }

    /// Variable all-gather: every rank contributes `mine`, receives the
    /// concatenation in rank order.
    pub fn allgatherv(&self, mine: &[f64]) -> Vec<f64> {
        let p = self.size();
        if p == 1 {
            return mine.to_vec();
        }
        let op = Op::Allgatherv;
        let sp = obskit::span(obskit::Stage::Mpi, op.span_name());
        let t0 = Instant::now();
        let out = self.issue(op, Deposit::Gather(mine.to_vec()), complete_vals).wait();
        let m = self.shared.model.allgatherv(p, out.len() * 8);
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
        let op = Op::Alltoallv;
        let sp = obskit::span(obskit::Stage::Mpi, op.span_name());
        let t0 = Instant::now();
        let sent_bytes: usize = send.iter().map(|c| c.len() * 8).sum();
        let recv = self.issue(op, Deposit::Alltoall(send), complete_chunks).wait();
        let m = self.shared.model.alltoallv(p, sent_bytes);
        self.account(op, sent_bytes, t0, m, sp);
        recv
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
                shared: Shared::new(group_size, self.shared.model),
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
    let shared = Shared::new(size, model);
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
            assert!(s.modeled_seconds > 0.0);
        }
    }

    #[test]
    fn per_op_breakdown_sums_to_aggregate() {
        let res = spmd(2, |c| {
            let mut buf = vec![1.0; 16];
            c.allreduce_sum(&mut buf);
            let _ = c.allgatherv(&buf);
            let _ = c.alltoallv(vec![vec![1.0], vec![2.0]]);
            let _ = c.iallreduce_sum(buf.clone()).wait();
            let _ = c.ireduce_sum(buf.clone(), 0).wait();
            c.barrier();
            c.stats()
        });
        for s in &res {
            assert_eq!(s.allreduce.calls, 1);
            assert_eq!(s.allgatherv.calls, 1);
            assert_eq!(s.alltoallv.calls, 1);
            assert_eq!(s.iallreduce.calls, 1);
            assert_eq!(s.ireduce.calls, 1);
            assert_eq!(s.barrier.calls, 1);
            let per: [(&str, OpStats); 6] = s.per_op();
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
    fn single_rank_everything_is_identity() {
        // The solo communicator lives on the calling thread; its collectives
        // — blocking and request-based — are identities that account nothing.
        let c = Comm::solo();
        let mut buf = vec![3.0];
        c.barrier();
        c.allreduce_sum(&mut buf);
        assert_eq!(c.allgatherv(&buf), vec![3.0]);
        assert_eq!(c.alltoallv(vec![vec![1.0, 2.0]]), vec![vec![1.0, 2.0]]);
        assert_eq!(c.iallreduce_sum(buf.clone()).wait(), vec![3.0]);
        assert_eq!(c.ireduce_sum(buf.clone(), 0).wait(), vec![3.0]);
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
