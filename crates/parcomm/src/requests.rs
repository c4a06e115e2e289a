//! Request-based nonblocking collectives and their progress engine.
//!
//! Every `i*` collective ([`Comm::ireduce_sum`], [`Comm::iallreduce_sum`],
//! [`Comm::ibcast`], [`Comm::ialltoallv`], [`Comm::iallgatherv`]) returns a
//! [`Request`] immediately; the data movement is carried out by a per-rank
//! **progress worker thread**, so communication genuinely proceeds while the
//! issuing rank computes. `test()` polls completion without blocking,
//! `wait()` blocks and hands the payload back, [`wait_all`] drains a batch.
//!
//! ## Chunked algorithms
//!
//! Large payloads are processed as a stream of fixed-size **segments**
//! ([`Comm::segment_words`]), each an independent step through the op's
//! state machine. A reduction folds each segment in ascending rank order (a
//! systolic chain, the shared-memory image of a ring reduce-scatter), then
//! the ranks that need it read it back. The ascending fold order makes
//! results **bitwise identical** to the legacy blocking deposit-then-sum
//! path.
//!
//! Every segment step bumps the segment-aware [`SegStats`] counters, and
//! every completed request records a timestamped [`CommInterval`] — the
//! issue-to-completion window during which the collective was in flight on
//! the issuing rank — into that rank's timeline.
//! [`crate::overlap::overlap_fraction`] turns those windows plus the
//! caller's compute intervals into a measured compute/communication overlap
//! fraction (paper Fig. 5): comm that is outstanding while the application
//! computes is overlapped; comm that is outstanding while the caller sits
//! in `wait` is not.
//!
//! ## Issue order and progress model
//!
//! Collectives pair up across ranks by per-rank issue order (op `n` on rank
//! `a` matches op `n` on rank `b`), the SPMD discipline the blocking API
//! already required. Progress is engine-driven: a request completes whether
//! or not anyone calls `wait`, and waits may happen in any order without
//! deadlock. Workers are spawned lazily on the first nonblocking issue and
//! joined when the rank's [`Comm`] drops.

use crate::comm::{lock, Comm, CommStats, OpStats};
use crate::layout::segment_ranges;
use faultkit::{CommError, CommFault};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Words (f64) per segment step: 4096 words = 32 KiB, small enough that a
/// multi-chunk reduction streams, large enough that per-step bookkeeping is
/// noise.
pub const DEFAULT_SEGMENT_WORDS: usize = 4096;

/// One request-outstanding window: from the caller's issue of a nonblocking
/// collective to the completion of this rank's duty in it, in seconds since
/// the SPMD epoch ([`Comm::now_secs`] uses the same origin). Compute the
/// caller performs inside this window is genuinely overlapped with the
/// communication (the standard "availability" methodology of MPI overlap
/// benchmarks, which stays meaningful even when rank threads and engine
/// threads share cores).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CommInterval {
    pub start: f64,
    pub end: f64,
    pub bytes: u64,
}

/// `Condvar::wait` with poison recovery (same policy as [`lock`]).
fn cv_wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(|p| p.into_inner())
}

// ---------------------------------------------------------------- requests

struct Slot<T> {
    m: Mutex<Option<T>>,
    cv: Condvar,
}

impl<T> Slot<T> {
    fn new() -> Self {
        Slot { m: Mutex::new(None), cv: Condvar::new() }
    }

    fn ready(v: T) -> Self {
        Slot { m: Mutex::new(Some(v)), cv: Condvar::new() }
    }

    fn put(&self, v: T) {
        *lock(&self.m) = Some(v);
        self.cv.notify_all();
    }

    fn try_take(&self) -> Option<T> {
        lock(&self.m).take()
    }

    fn take_blocking(&self) -> T {
        let mut g = lock(&self.m);
        loop {
            match g.take() {
                Some(v) => return v,
                None => g = cv_wait(&self.cv, g),
            }
        }
    }

    /// Blocking take with a deadline; `None` when the deadline expires with
    /// the slot still empty.
    fn take_timeout(&self, d: Duration) -> Option<T> {
        let deadline = Instant::now() + d;
        let mut g = lock(&self.m);
        loop {
            if let Some(v) = g.take() {
                return Some(v);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (ng, timeout) = self
                .cv
                .wait_timeout(g, deadline - now)
                .unwrap_or_else(|p| p.into_inner());
            g = ng;
            if timeout.timed_out() {
                return g.take();
            }
        }
    }
}

/// Which nonblocking op a request accounts against.
#[derive(Clone, Copy, Debug)]
pub(crate) enum NbOp {
    Ireduce,
    Iallreduce,
    Ibcast,
    Iallgatherv,
    Ialltoallv,
}

impl NbOp {
    pub(crate) fn slot(self, s: &mut CommStats) -> &mut OpStats {
        match self {
            NbOp::Ireduce => &mut s.ireduce,
            NbOp::Iallreduce => &mut s.iallreduce,
            NbOp::Ibcast => &mut s.ibcast,
            NbOp::Iallgatherv => &mut s.iallgatherv,
            NbOp::Ialltoallv => &mut s.ialltoallv_nb,
        }
    }

    fn span_name(self) -> &'static str {
        match self {
            NbOp::Ireduce => "mpi:ireduce",
            NbOp::Iallreduce => "mpi:iallreduce",
            NbOp::Ibcast => "mpi:ibcast",
            NbOp::Iallgatherv => "mpi:iallgatherv",
            NbOp::Ialltoallv => "mpi:ialltoallv",
        }
    }

    /// Fault-hook site for this op. Blocking wrappers issue with no `NbOp`
    /// accounting and hook under `comm.blocking`, so a `FaultPlan` can
    /// target the request API without perturbing blocking call sites (whose
    /// plain `wait` has no drop recovery).
    fn fault_site(op: Option<NbOp>) -> &'static str {
        match op {
            Some(NbOp::Ireduce) => "comm.ireduce",
            Some(NbOp::Iallreduce) => "comm.iallreduce",
            Some(NbOp::Ibcast) => "comm.ibcast",
            Some(NbOp::Iallgatherv) => "comm.iallgatherv",
            Some(NbOp::Ialltoallv) => "comm.ialltoallv",
            None => "comm.blocking",
        }
    }

    fn op_label(op: Option<NbOp>) -> &'static str {
        match op {
            Some(NbOp::Ireduce) => "ireduce",
            Some(NbOp::Iallreduce) => "iallreduce",
            Some(NbOp::Ibcast) => "ibcast",
            Some(NbOp::Iallgatherv) => "iallgatherv",
            Some(NbOp::Ialltoallv) => "ialltoallv",
            None => "blocking",
        }
    }
}

/// Deadline/backoff budget for [`Request::wait_deadline`] and
/// [`Comm::settle`]: attempt `k` waits `deadline + k·backoff`, and a request
/// that never completes surfaces [`CommError::Stalled`] after
/// `max_attempts` waits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    pub deadline: Duration,
    pub max_attempts: u32,
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // Engine completions are sub-millisecond; 60 ms + linear backoff
        // tolerates CI scheduling hiccups while a genuinely stalled engine
        // (or an injected `CommStall` larger than the whole budget) is
        // surfaced within ~1 s.
        RetryPolicy {
            deadline: Duration::from_millis(60),
            max_attempts: 5,
            backoff: Duration::from_millis(60),
        }
    }
}

struct ReqAcct {
    stats: Arc<Mutex<CommStats>>,
    op: NbOp,
}

/// Handle to an in-flight nonblocking collective. The payload type depends
/// on the op: `Vec<f64>` for reductions/bcast/allgatherv, `Vec<Vec<f64>>`
/// for all-to-all.
///
/// `wait` after a successful `test` is idempotent: the payload is cached on
/// the request and handed back without blocking. Dropping a request without
/// waiting is allowed — the engine still completes the collective (every
/// rank's duties were enqueued at issue), only the payload is discarded.
pub struct Request<T = Vec<f64>> {
    slot: Arc<Slot<T>>,
    taken: Option<T>,
    acct: Option<ReqAcct>,
    /// Fault injection dropped this request before submission; the payload
    /// will never arrive and the issuing rank must re-issue
    /// ([`Comm::settle`] does).
    dropped: bool,
    op: &'static str,
}

impl<T> Request<T> {
    fn pending(slot: Arc<Slot<T>>, acct: Option<ReqAcct>, op: &'static str) -> Self {
        Request { slot, taken: None, acct, dropped: false, op }
    }

    fn ready(v: T) -> Self {
        Request {
            slot: Arc::new(Slot::ready(v)),
            taken: None,
            acct: None,
            dropped: false,
            op: "local",
        }
    }

    fn make_dropped(op: &'static str) -> Self {
        Request { slot: Arc::new(Slot::new()), taken: None, acct: None, dropped: true, op }
    }

    /// Whether fault injection dropped this request at issue. A dropped
    /// request never completes; re-issue it (symmetrically on every rank —
    /// the injection decision is) or hand it to [`Comm::settle`].
    pub fn is_dropped(&self) -> bool {
        self.dropped
    }

    /// Nonblocking completion poll. Returns `true` once the collective has
    /// finished; the payload is then pinned to this handle for `wait`.
    pub fn test(&mut self) -> bool {
        if self.taken.is_some() {
            return true;
        }
        match self.slot.try_take() {
            Some(v) => {
                self.taken = Some(v);
                true
            }
            None => false,
        }
    }

    /// Block until completion and hand back the payload. Blocked time is
    /// charged to the issuing rank's [`CommStats`] (the engine's own busy
    /// time is *not* — it lives in the segment counters).
    pub fn wait(mut self) -> T {
        if let Some(v) = self.taken.take() {
            return v;
        }
        assert!(
            !self.dropped,
            "wait() on a request dropped by fault injection (op `{}`); \
             use wait_deadline/Comm::settle on fault-injected paths",
            self.op
        );
        let span = self.acct.as_ref().map(|_| obskit::span(obskit::Stage::Mpi, "mpi:wait"));
        let t0 = Instant::now();
        let v = self.slot.take_blocking();
        self.charge_wait(t0);
        drop(span);
        v
    }

    fn charge_wait(&self, t0: Instant) {
        if let Some(a) = &self.acct {
            let dt = t0.elapsed().as_secs_f64();
            let mut s = lock(&a.stats);
            s.measured_seconds += dt;
            a.op.slot(&mut s).seconds += dt;
        }
    }

    /// Wait with a deadline/backoff budget. Attempt `k` blocks for
    /// `deadline + k·backoff`; once the budget is exhausted the request is
    /// abandoned and [`CommError::Stalled`] surfaces. A request dropped by
    /// fault injection returns [`CommError::Dropped`] immediately.
    ///
    /// Expired deadlines re-wait on the **same** request — they never
    /// re-issue, because a locally-timed re-issue would desynchronize the
    /// SPMD op-id matching across ranks. Only symmetrically-dropped requests
    /// are re-issued ([`Comm::settle`]).
    pub fn wait_deadline(mut self, policy: &RetryPolicy) -> Result<T, CommError> {
        if let Some(v) = self.taken.take() {
            return Ok(v);
        }
        if self.dropped {
            return Err(CommError::Dropped { op: self.op });
        }
        let span = self.acct.as_ref().map(|_| obskit::span(obskit::Stage::Mpi, "mpi:wait"));
        let t0 = Instant::now();
        let mut waited = Duration::ZERO;
        for attempt in 0..policy.max_attempts.max(1) {
            let d = policy.deadline + policy.backoff * attempt;
            if let Some(v) = self.slot.take_timeout(d) {
                self.charge_wait(t0);
                drop(span);
                return Ok(v);
            }
            waited += d;
        }
        self.charge_wait(t0);
        Err(CommError::Stalled { op: self.op, waited, attempts: policy.max_attempts.max(1) })
    }
}

/// Wait on a batch of requests, returning payloads in issue order.
pub fn wait_all<T>(reqs: Vec<Request<T>>) -> Vec<T> {
    reqs.into_iter().map(Request::wait).collect()
}

// ------------------------------------------------------------------ engine

type Task = Box<dyn FnOnce() + Send + 'static>;

pub(crate) struct Worker {
    tx: Sender<Task>,
    handle: JoinHandle<()>,
}

impl Worker {
    fn spawn(rank: usize) -> Worker {
        let (tx, rx) = std::sync::mpsc::channel::<Task>();
        let handle = std::thread::Builder::new()
            .name(format!("parcomm-nb-{rank}"))
            .spawn(move || {
                // FIFO drain; the channel closing (Comm drop) ends the loop.
                // The engine thread records no spans of its own (engine work
                // is observable via SegStats and the timeline), but label
                // its lane anyway: anything that *does* record here — flight
                // events, future instrumentation — must not read as
                // anonymous rank-0 activity.
                obskit::set_thread_label(&format!("progress-{rank}"));
                for task in rx {
                    task();
                }
            })
            .expect("spawn progress worker");
        Worker { tx, handle }
    }

    fn send(&self, task: Task) {
        self.tx.send(task).expect("progress worker alive");
    }

    pub(crate) fn shutdown(self) {
        drop(self.tx);
        let _ = self.handle.join();
    }
}

/// Cross-rank shared state of the nonblocking engine.
pub(crate) struct NbShared {
    pub(crate) epoch: Instant,
    pub(crate) segment_words: usize,
    ops: Mutex<HashMap<u64, OpCell>>,
}

impl NbShared {
    pub(crate) fn new(segment_words: usize) -> Self {
        NbShared {
            epoch: Instant::now(),
            segment_words: segment_words.max(1),
            ops: Mutex::new(HashMap::new()),
        }
    }

    fn retire(&self, id: u64) {
        lock(&self.ops).remove(&id);
    }
}

#[derive(Clone)]
enum OpCell {
    Reduce(Arc<ReduceCell>),
    Bcast(Arc<BcastCell>),
    Gather(Arc<GatherCell>),
    A2a(Arc<A2aCell>),
}

/// Per-task context cloned into the worker closure: everything a step needs
/// to synchronize, time itself, and account.
struct Ctx {
    nb: Arc<crate::comm::Shared>,
    id: u64,
    rank: usize,
    size: usize,
    timeline: Arc<Mutex<Vec<CommInterval>>>,
    stats: Arc<Mutex<CommStats>>,
}

impl Ctx {
    /// Account one engine segment step (fold/publish/copy) in [`SegStats`].
    fn record(&self, t0: Instant, bytes: u64) {
        let epoch = self.nb.nb.epoch;
        let start = t0.duration_since(epoch).as_secs_f64();
        let end = epoch.elapsed().as_secs_f64();
        let mut s = lock(&self.stats);
        s.seg.steps += 1;
        s.seg.bytes += bytes;
        s.seg.busy_seconds += end - start;
        drop(s);
        obskit::add_comm_segments(1);
    }

    /// Close this rank's request-outstanding window: called by the engine
    /// the moment the rank's duty in the collective completes (not when the
    /// caller gets around to `wait`ing), so the window's end is the true
    /// completion time.
    fn record_window(&self, issued_at: f64, bytes: u64) {
        let end = self.nb.nb.epoch.elapsed().as_secs_f64();
        lock(&self.timeline).push(CommInterval { start: issued_at, end, bytes });
    }

    /// Mark this rank done with the op; the last rank retires the cell.
    fn finish(&self, finished: &Mutex<usize>) {
        let done = {
            let mut f = lock(finished);
            *f += 1;
            *f == self.size
        };
        if done {
            self.nb.nb.retire(self.id);
        }
    }
}

// ------------------------------------------------------------ reduce cells

struct ReduceCell {
    len: usize,
    root: usize,
    all: bool,
    max_op: bool,
    segs: Vec<Range<usize>>,
    st: Mutex<RedState>,
    cv: Condvar,
    finished: Mutex<usize>,
}

struct RedState {
    /// The single ordered accumulation buffer.
    acc: Vec<f64>,
    /// Next rank allowed to fold each segment.
    next_rank: Vec<usize>,
    /// Segment fully reduced.
    done: Vec<bool>,
}

impl ReduceCell {
    fn new(len: usize, root: usize, all: bool, max_op: bool, seg: usize) -> Self {
        let segs = segment_ranges(len, seg);
        let init = if max_op { f64::NEG_INFINITY } else { 0.0 };
        let nseg = segs.len();
        ReduceCell {
            len,
            root,
            all,
            max_op,
            st: Mutex::new(RedState {
                acc: vec![init; len],
                next_rank: vec![0; nseg],
                done: vec![false; nseg],
            }),
            cv: Condvar::new(),
            finished: Mutex::new(0),
            segs,
        }
    }

    #[inline]
    fn fold(max_op: bool, acc: &mut [f64], x: &[f64]) {
        if max_op {
            for (a, v) in acc.iter_mut().zip(x) {
                *a = a.max(*v);
            }
        } else {
            for (a, v) in acc.iter_mut().zip(x) {
                *a += *v;
            }
        }
    }

    /// This rank's whole part of the collective, run on the progress
    /// worker. Returns the payload for this rank's request.
    fn run(&self, ctx: &Ctx, mut data: Vec<f64>) -> Vec<f64> {
        let (p, rank) = (ctx.size, ctx.rank);
        // Fold phase: ascending rank order per segment — a systolic chain
        // whose sum order matches the legacy blocking path bitwise.
        for (si, seg) in self.segs.iter().enumerate() {
            let mut g = lock(&self.st);
            while g.next_rank[si] != rank {
                g = cv_wait(&self.cv, g);
            }
            let t0 = Instant::now();
            Self::fold(self.max_op, &mut g.acc[seg.clone()], &data[seg.clone()]);
            g.next_rank[si] += 1;
            if g.next_rank[si] == p {
                g.done[si] = true;
            }
            drop(g);
            self.cv.notify_all();
            ctx.record(t0, (seg.len() * 8) as u64);
        }
        // Read-back phase.
        let out = if self.all {
            for (si, seg) in self.segs.iter().enumerate() {
                let mut g = lock(&self.st);
                while !g.done[si] {
                    g = cv_wait(&self.cv, g);
                }
                let t0 = Instant::now();
                data[seg.clone()].copy_from_slice(&g.acc[seg.clone()]);
                drop(g);
                ctx.record(t0, (seg.len() * 8) as u64);
            }
            data
        } else if rank == self.root {
            let mut g = lock(&self.st);
            while !g.done.iter().all(|d| *d) {
                g = cv_wait(&self.cv, g);
            }
            // Only the root reads the accumulator — move it out.
            std::mem::take(&mut g.acc)
        } else {
            Vec::new()
        };
        ctx.finish(&self.finished);
        out
    }
}

// ------------------------------------------------------------- bcast cell

struct BcastCell {
    root: usize,
    segs: Vec<Range<usize>>,
    st: Mutex<BcState>,
    cv: Condvar,
    finished: Mutex<usize>,
}

struct BcState {
    data: Vec<f64>,
    published: usize,
}

impl BcastCell {
    fn new(len: usize, root: usize, seg: usize) -> Self {
        BcastCell {
            root,
            segs: segment_ranges(len, seg),
            st: Mutex::new(BcState { data: vec![0.0; len], published: 0 }),
            cv: Condvar::new(),
            finished: Mutex::new(0),
        }
    }

    fn run(&self, ctx: &Ctx, mut data: Vec<f64>) -> Vec<f64> {
        if ctx.rank == self.root {
            for (si, seg) in self.segs.iter().enumerate() {
                let mut g = lock(&self.st);
                let t0 = Instant::now();
                g.data[seg.clone()].copy_from_slice(&data[seg.clone()]);
                g.published = si + 1;
                drop(g);
                self.cv.notify_all();
                ctx.record(t0, (seg.len() * 8) as u64);
            }
        } else {
            for (si, seg) in self.segs.iter().enumerate() {
                let mut g = lock(&self.st);
                while g.published <= si {
                    g = cv_wait(&self.cv, g);
                }
                let t0 = Instant::now();
                data[seg.clone()].copy_from_slice(&g.data[seg.clone()]);
                drop(g);
                ctx.record(t0, (seg.len() * 8) as u64);
            }
        }
        ctx.finish(&self.finished);
        data
    }
}

// ------------------------------------------------------------ gather cell

struct GatherCell {
    st: Mutex<GatherState>,
    cv: Condvar,
    finished: Mutex<usize>,
}

struct GatherState {
    parts: Vec<Option<Vec<f64>>>,
}

impl GatherCell {
    fn new(p: usize) -> Self {
        GatherCell {
            st: Mutex::new(GatherState { parts: (0..p).map(|_| None).collect() }),
            cv: Condvar::new(),
            finished: Mutex::new(0),
        }
    }

    fn run(&self, ctx: &Ctx, mine: Vec<f64>) -> Vec<f64> {
        {
            let mut g = lock(&self.st);
            g.parts[ctx.rank] = Some(mine);
            drop(g);
            self.cv.notify_all();
        }
        let mut out = Vec::new();
        for r in 0..ctx.size {
            let mut g = lock(&self.st);
            while g.parts[r].is_none() {
                g = cv_wait(&self.cv, g);
            }
            let t0 = Instant::now();
            let part = g.parts[r].as_ref().expect("deposited");
            out.extend_from_slice(part);
            let bytes = (part.len() * 8) as u64;
            drop(g);
            ctx.record(t0, bytes);
        }
        ctx.finish(&self.finished);
        out
    }
}

// --------------------------------------------------------- all-to-all cell

struct A2aCell {
    st: Mutex<A2aState>,
    cv: Condvar,
    finished: Mutex<usize>,
}

struct A2aState {
    /// `boxes[src][dst]`: the chunk src sent to dst, taken by dst.
    boxes: Vec<Vec<Option<Vec<f64>>>>,
}

impl A2aCell {
    fn new(p: usize) -> Self {
        A2aCell {
            st: Mutex::new(A2aState {
                boxes: (0..p).map(|_| (0..p).map(|_| None).collect()).collect(),
            }),
            cv: Condvar::new(),
            finished: Mutex::new(0),
        }
    }

    fn run(&self, ctx: &Ctx, send: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
        let sizes: Vec<u64> = send.iter().map(|c| (c.len() * 8) as u64).collect();
        {
            let t0 = Instant::now();
            let mut g = lock(&self.st);
            for (dst, chunk) in send.into_iter().enumerate() {
                g.boxes[ctx.rank][dst] = Some(chunk);
            }
            drop(g);
            self.cv.notify_all();
            ctx.record(t0, sizes.iter().sum());
        }
        let mut recv = Vec::with_capacity(ctx.size);
        for src in 0..ctx.size {
            let mut g = lock(&self.st);
            while g.boxes[src][ctx.rank].is_none() {
                g = cv_wait(&self.cv, g);
            }
            let t0 = Instant::now();
            let chunk = g.boxes[src][ctx.rank].take().expect("deposited");
            let bytes = (chunk.len() * 8) as u64;
            drop(g);
            ctx.record(t0, bytes);
            recv.push(chunk);
        }
        ctx.finish(&self.finished);
        recv
    }
}

// --------------------------------------------------- issue paths on `Comm`

impl Comm {
    /// Seconds since the SPMD epoch — the time origin of
    /// [`CommInterval`] timestamps, for callers recording compute
    /// intervals to overlap against.
    pub fn now_secs(&self) -> f64 {
        self.shared.nb.epoch.elapsed().as_secs_f64()
    }

    /// Segment size (in f64 words) of the chunked algorithms.
    pub fn segment_words(&self) -> usize {
        self.shared.nb.segment_words
    }

    /// Drain this rank's engine timeline: the outstanding window of every
    /// nonblocking collective completed since the previous drain, in
    /// completion order.
    pub fn drain_comm_intervals(&self) -> Vec<CommInterval> {
        std::mem::take(&mut *lock(&self.timeline))
    }

    fn ctx(&self, id: u64) -> Ctx {
        Ctx {
            nb: Arc::clone(&self.shared),
            id,
            rank: self.rank,
            size: self.shared.size,
            timeline: Arc::clone(&self.timeline),
            stats: Arc::clone(&self.stats),
        }
    }

    fn acct_for(&self, op: Option<NbOp>) -> Option<ReqAcct> {
        op.map(|op| ReqAcct { stats: Arc::clone(&self.stats), op })
    }

    /// Charge the issue side of a public nonblocking op: one collective
    /// call, its bytes, its modeled time, and the caller-side issue latency.
    /// `span` was opened at the op's entry (same convention as the blocking
    /// wrappers) so span-derived stage timings match `measured_seconds`; it
    /// gets its args here and closes on drop.
    fn account_issue(&self, op: NbOp, bytes: usize, t0: Instant, modeled: f64, span: obskit::Span) {
        let seconds = t0.elapsed().as_secs_f64();
        let mut s = lock(&self.stats);
        s.bytes_sent += bytes as u64;
        s.collective_calls += 1;
        s.measured_seconds += seconds;
        s.modeled_seconds += modeled;
        if bytes as u64 <= crate::comm::ALPHA_SMALL_BYTES {
            s.alpha_calls += 1;
        }
        let slot = op.slot(&mut s);
        slot.calls += 1;
        slot.bytes += bytes as u64;
        slot.seconds += seconds;
        drop(s);
        obskit::add_bytes_moved(bytes as u64);
        let mut span = span;
        span.arg("bytes", bytes as f64);
        span.arg("modeled_s", modeled);
    }

    fn reduce_cell(&self, id: u64, len: usize, root: usize, all: bool, max_op: bool) -> Arc<ReduceCell> {
        let nb = &self.shared.nb;
        let seg = nb.segment_words;
        let mut ops = lock(&nb.ops);
        let cell = ops
            .entry(id)
            .or_insert_with(|| OpCell::Reduce(Arc::new(ReduceCell::new(len, root, all, max_op, seg))));
        match cell {
            OpCell::Reduce(c) => {
                assert_eq!(c.len, len, "reduce length mismatch at op {id} (rank {})", self.rank);
                assert!(
                    c.root == root && c.all == all && c.max_op == max_op,
                    "mismatched reduce parameters at op {id} (rank {})",
                    self.rank
                );
                Arc::clone(c)
            }
            _ => panic!("collective kind mismatch at op {id}: expected reduce"),
        }
    }

    /// The `issue_*` engines assume at least two ranks: every public
    /// collective returns its identity before issuing on a solo communicator.
    pub(crate) fn issue_reduce(
        &self,
        data: Vec<f64>,
        root: usize,
        all: bool,
        max_op: bool,
        acct: Option<NbOp>,
    ) -> Request {
        let delay = match faultkit::comm_fault(NbOp::fault_site(acct)) {
            Some(CommFault::Drop) => return Request::make_dropped(NbOp::op_label(acct)),
            Some(CommFault::Delay(d)) => Some(d),
            None => None,
        };
        let id = self.next_op_id();
        let cell = self.reduce_cell(id, data.len(), root, all, max_op);
        let slot = Arc::new(Slot::new());
        let req = Request::pending(Arc::clone(&slot), self.acct_for(acct), NbOp::op_label(acct));
        let ctx = self.ctx(id);
        let issued_at = self.now_secs();
        let bytes = (data.len() * 8) as u64;
        self.submit(Box::new(move || {
            if let Some(d) = delay {
                std::thread::sleep(d);
            }
            let out = cell.run(&ctx, data);
            ctx.record_window(issued_at, bytes);
            slot.put(out);
        }));
        req
    }

    /// Nonblocking sum-reduce of `data` to `root`. On `root`, `wait()`
    /// returns the reduced buffer; on other ranks it returns an empty
    /// vector once this rank's contribution has been folded in.
    pub fn ireduce_sum(&self, data: Vec<f64>, root: usize) -> Request {
        if self.shared.size == 1 {
            return Request::ready(data);
        }
        let sp = obskit::span(obskit::Stage::Mpi, NbOp::Ireduce.span_name());
        let t0 = Instant::now();
        let bytes = data.len() * 8;
        let modeled = self
            .shared
            .model
            .segmented_reduce(self.size(), bytes, self.segment_words() * 8);
        let rq = self.issue_reduce(data, root, false, false, Some(NbOp::Ireduce));
        self.account_issue(NbOp::Ireduce, bytes, t0, modeled, sp);
        rq
    }

    /// Nonblocking in-place sum-allreduce: `wait()` returns the fully
    /// reduced buffer on every rank.
    pub fn iallreduce_sum(&self, data: Vec<f64>) -> Request {
        if self.shared.size == 1 {
            return Request::ready(data);
        }
        let sp = obskit::span(obskit::Stage::Mpi, NbOp::Iallreduce.span_name());
        let t0 = Instant::now();
        let bytes = data.len() * 8;
        let modeled = self
            .shared
            .model
            .ring_allreduce(self.size(), bytes, self.segment_words() * 8);
        let rq = self.issue_reduce(data, 0, true, false, Some(NbOp::Iallreduce));
        self.account_issue(NbOp::Iallreduce, bytes, t0, modeled, sp);
        rq
    }

    /// Internal max-allreduce used by the blocking wrapper.
    pub(crate) fn issue_allreduce_max(&self, data: Vec<f64>) -> Request {
        self.issue_reduce(data, 0, true, true, None)
    }

    /// Nonblocking broadcast from `root`; every rank passes a buffer of the
    /// broadcast length and `wait()` returns it filled with root's data.
    pub fn ibcast(&self, data: Vec<f64>, root: usize) -> Request {
        if self.shared.size == 1 {
            return Request::ready(data);
        }
        let sp = obskit::span(obskit::Stage::Mpi, NbOp::Ibcast.span_name());
        let t0 = Instant::now();
        let bytes = data.len() * 8;
        let modeled = self
            .shared
            .model
            .segmented_bcast(self.size(), bytes, self.segment_words() * 8);
        let rq = self.issue_bcast(data, root, Some(NbOp::Ibcast));
        // Match the blocking convention: only root "contributes" bytes.
        let contributed = if self.rank == root { bytes } else { 0 };
        self.account_issue(NbOp::Ibcast, contributed, t0, modeled, sp);
        rq
    }

    pub(crate) fn issue_bcast(&self, data: Vec<f64>, root: usize, acct: Option<NbOp>) -> Request {
        let delay = match faultkit::comm_fault(NbOp::fault_site(acct)) {
            Some(CommFault::Drop) => return Request::make_dropped(NbOp::op_label(acct)),
            Some(CommFault::Delay(d)) => Some(d),
            None => None,
        };
        let id = self.next_op_id();
        let nb = &self.shared.nb;
        let cell = {
            let seg = nb.segment_words;
            let mut ops = lock(&nb.ops);
            let cell = ops
                .entry(id)
                .or_insert_with(|| OpCell::Bcast(Arc::new(BcastCell::new(data.len(), root, seg))));
            match cell {
                OpCell::Bcast(c) => {
                    assert_eq!(c.root, root, "bcast root mismatch at op {id}");
                    assert_eq!(
                        lock(&c.st).data.len(),
                        data.len(),
                        "bcast length mismatch at op {id} (rank {})",
                        self.rank
                    );
                    Arc::clone(c)
                }
                _ => panic!("collective kind mismatch at op {id}: expected bcast"),
            }
        };
        let slot = Arc::new(Slot::new());
        let req = Request::pending(Arc::clone(&slot), self.acct_for(acct), NbOp::op_label(acct));
        let ctx = self.ctx(id);
        let issued_at = self.now_secs();
        let bytes = (data.len() * 8) as u64;
        self.submit(Box::new(move || {
            if let Some(d) = delay {
                std::thread::sleep(d);
            }
            let out = cell.run(&ctx, data);
            ctx.record_window(issued_at, bytes);
            slot.put(out);
        }));
        req
    }

    /// Nonblocking variable all-gather; `wait()` returns the rank-order
    /// concatenation on every rank.
    pub fn iallgatherv(&self, mine: &[f64]) -> Request {
        if self.shared.size == 1 {
            return Request::ready(mine.to_vec());
        }
        let sp = obskit::span(obskit::Stage::Mpi, NbOp::Iallgatherv.span_name());
        let t0 = Instant::now();
        let bytes = mine.len() * 8;
        // Modeled like the blocking allgatherv; total size is only known
        // collectively, so charge the per-rank contribution p-fold.
        let modeled = self.shared.model.allgatherv(self.size(), bytes * self.size());
        let rq = self.issue_gather(mine.to_vec(), Some(NbOp::Iallgatherv));
        self.account_issue(NbOp::Iallgatherv, bytes, t0, modeled, sp);
        rq
    }

    pub(crate) fn issue_gather(&self, mine: Vec<f64>, acct: Option<NbOp>) -> Request {
        let delay = match faultkit::comm_fault(NbOp::fault_site(acct)) {
            Some(CommFault::Drop) => return Request::make_dropped(NbOp::op_label(acct)),
            Some(CommFault::Delay(d)) => Some(d),
            None => None,
        };
        let id = self.next_op_id();
        let p = self.shared.size;
        let cell = {
            let mut ops = lock(&self.shared.nb.ops);
            let cell = ops.entry(id).or_insert_with(|| OpCell::Gather(Arc::new(GatherCell::new(p))));
            match cell {
                OpCell::Gather(c) => Arc::clone(c),
                _ => panic!("collective kind mismatch at op {id}: expected allgatherv"),
            }
        };
        let slot = Arc::new(Slot::new());
        let req = Request::pending(Arc::clone(&slot), self.acct_for(acct), NbOp::op_label(acct));
        let ctx = self.ctx(id);
        let issued_at = self.now_secs();
        let bytes = (mine.len() * 8) as u64;
        self.submit(Box::new(move || {
            if let Some(d) = delay {
                std::thread::sleep(d);
            }
            let out = cell.run(&ctx, mine);
            ctx.record_window(issued_at, bytes);
            slot.put(out);
        }));
        req
    }

    /// Nonblocking variable all-to-all: `send[q]` goes to rank `q`;
    /// `wait()` returns the received chunks indexed by source rank.
    pub fn ialltoallv(&self, send: Vec<Vec<f64>>) -> Request<Vec<Vec<f64>>> {
        if self.shared.size == 1 {
            return Request::ready(send);
        }
        let sp = obskit::span(obskit::Stage::Mpi, NbOp::Ialltoallv.span_name());
        let t0 = Instant::now();
        let bytes: usize = send.iter().map(|c| c.len() * 8).sum();
        let modeled = self.shared.model.alltoallv(self.size(), bytes);
        let rq = self.issue_alltoall(send, Some(NbOp::Ialltoallv));
        self.account_issue(NbOp::Ialltoallv, bytes, t0, modeled, sp);
        rq
    }

    pub(crate) fn issue_alltoall(&self, send: Vec<Vec<f64>>, acct: Option<NbOp>) -> Request<Vec<Vec<f64>>> {
        let p = self.shared.size;
        assert_eq!(send.len(), p, "alltoallv needs one chunk per destination");
        let delay = match faultkit::comm_fault(NbOp::fault_site(acct)) {
            Some(CommFault::Drop) => return Request::make_dropped(NbOp::op_label(acct)),
            Some(CommFault::Delay(d)) => Some(d),
            None => None,
        };
        let id = self.next_op_id();
        let cell = {
            let mut ops = lock(&self.shared.nb.ops);
            let cell = ops.entry(id).or_insert_with(|| OpCell::A2a(Arc::new(A2aCell::new(p))));
            match cell {
                OpCell::A2a(c) => Arc::clone(c),
                _ => panic!("collective kind mismatch at op {id}: expected alltoallv"),
            }
        };
        let slot = Arc::new(Slot::new());
        let req = Request::pending(Arc::clone(&slot), self.acct_for(acct), NbOp::op_label(acct));
        let ctx = self.ctx(id);
        let issued_at = self.now_secs();
        let bytes: u64 = send.iter().map(|c| (c.len() * 8) as u64).sum();
        self.submit(Box::new(move || {
            if let Some(d) = delay {
                std::thread::sleep(d);
            }
            let out = cell.run(&ctx, send);
            ctx.record_window(issued_at, bytes);
            slot.put(out);
        }));
        req
    }

    /// Zero-payload helper some schedules use to keep op ids aligned when a
    /// rank's chunk is empty: issues a real (empty) reduce so every rank
    /// consumes the same op-id sequence.
    pub fn ireduce_sum_empty(&self, root: usize) -> Request {
        self.ireduce_sum(Vec::new(), root)
    }

    /// Settle an already-issued request with bounded recovery: a request
    /// dropped by fault injection is re-issued via `reissue` (safe because
    /// the injection decision fired symmetrically on every rank, so every
    /// rank re-issues and op ids stay matched), and completion is awaited
    /// under `policy`'s deadline/backoff budget before
    /// [`CommError::Stalled`] surfaces.
    ///
    /// Taking the first request as an argument (rather than issuing it
    /// here) lets callers keep their issue-then-compute overlap window: the
    /// recovery path only engages after the overlapped compute is done.
    pub fn settle<T>(
        &self,
        first: Request<T>,
        policy: &RetryPolicy,
        mut reissue: impl FnMut(&Comm) -> Request<T>,
    ) -> Result<T, CommError> {
        let mut rq = first;
        let mut reissues = 0u32;
        loop {
            if rq.is_dropped() {
                let op = rq.op;
                if reissues >= policy.max_attempts.max(1) {
                    return Err(CommError::Dropped { op });
                }
                reissues += 1;
                rq = reissue(self);
                continue;
            }
            return rq.wait_deadline(policy);
        }
    }

    /// Issue-and-settle in one call: `issue` runs once up front and again on
    /// every (symmetric) drop re-issue.
    pub fn resilient<T>(
        &self,
        policy: &RetryPolicy,
        mut issue: impl FnMut(&Comm) -> Request<T>,
    ) -> Result<T, CommError> {
        let first = issue(self);
        self.settle(first, policy, issue)
    }

    /// Per-rank monotone op id; SPMD issue order matches op `n` here with
    /// op `n` on every other rank.
    pub(crate) fn next_op_id(&self) -> u64 {
        let id = self.next_op.get();
        self.next_op.set(id + 1);
        id
    }

    /// Enqueue a task on this rank's progress worker (spawned lazily).
    pub(crate) fn submit(&self, task: Task) {
        let mut w = self.worker.borrow_mut();
        let w = w.get_or_insert_with(|| Worker::spawn(self.rank));
        w.send(task);
    }
}
