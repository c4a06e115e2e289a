//! Request-based collectives, completed on the rank that waits.
//!
//! There is no progress engine: every collective runs on the thread that
//! calls it, in two halves.
//!
//! * **Issue** ([`Comm::ireduce_sum`], [`Comm::iallreduce_sum`], and inside
//!   every blocking call) deposits this rank's contribution in the op's
//!   shared cell and returns a [`Request`]. It never blocks.
//! * **Completion** happens inside [`Request::wait`] /
//!   [`Request::wait_deadline`]: the waiting rank does the remaining work
//!   itself. Reduction waiters claim unfolded 4096-word segments and sum each
//!   over every rank's deposit in ascending rank order from `+0.0` — the
//!   per-element order of the blocking sum, so results are bitwise identical
//!   however the segments were shared out, and one waiter can finish the
//!   whole op alone. A gather or all-to-all waiter copies or takes its parts.
//!
//! A wait depends only on the other ranks having *issued*, never on them
//! having waited, so waits in any order cannot deadlock — opposite orders on
//! different ranks and requests dropped without a wait included. Ops pair up
//! across ranks by per-rank issue order (op `n` on rank `a` matches op `n`
//! on rank `b`), and an op's cell leaves the communicator's table once every
//! rank has waited on or dropped its request.

use crate::comm::{lock, Comm, Op};
use faultkit::{CommError, CommFault};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Words (f64) per reduction segment, the unit one waiter claims: 32 KiB,
/// so a large reduction is shared out among its waiters and a
/// latency-bound one is a single claim.
const SEGMENT_WORDS: usize = 4096;

/// `Condvar::wait` with poison recovery (same policy as [`lock`]).
fn cv_wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(|p| p.into_inner())
}

/// The retry budget of [`Request::wait_deadline`] and [`Comm::settle`]:
/// attempt `k` waits `WAIT_DEADLINE + k·WAIT_BACKOFF`, and a request that
/// never completes surfaces [`CommError::Stalled`] after `WAIT_ATTEMPTS`
/// waits (≈ 0.9 s in all). A wait completes as soon as every rank has
/// issued, so 60 ms plus linear backoff tolerates CI scheduling hiccups
/// while a genuinely stalled peer (or an injected `CommStall` longer than
/// the whole budget) surfaces within a second.
const WAIT_DEADLINE: Duration = Duration::from_millis(60);
const WAIT_ATTEMPTS: u32 = 5;
const WAIT_BACKOFF: Duration = Duration::from_millis(60);

/// One rank's contribution to a collective, handed over at issue.
pub(crate) enum Deposit {
    /// Sum-reduce `buf` to `root`, or to every rank when `root` is `None`.
    Reduce { root: Option<usize>, buf: Vec<f64> },
    /// All-gather `mine` in rank order.
    Gather(Vec<f64>),
    /// All-to-all: chunk `q` goes to rank `q`.
    Alltoall(Vec<Vec<f64>>),
}

/// Finishes a request on the waiting rank: `None` when `deadline` passed
/// before every rank's deposit was visible.
pub(crate) type Complete<T> = fn(&OpCell, usize, Option<Instant>) -> Option<T>;

/// One collective in flight, shared by the ranks through the op table.
pub(crate) struct OpCell {
    /// The root of a reduce-to-root; `None` for every other op.
    root: Option<usize>,
    st: Mutex<OpState>,
    cv: Condvar,
}

struct OpState {
    /// When each rank's deposit becomes visible; `None` until it issues. A
    /// `CommDelay`/`CommStall` fault pushes this past the issue instant.
    visible_at: Vec<Option<Instant>>,
    parts: Parts,
    /// Ranks that have waited on or dropped their request.
    released: usize,
}

/// The deposits, by completion kind.
enum Parts {
    Reduce(Reduction),
    /// Each rank's contribution, copied by every waiter.
    Gather(Vec<Vec<f64>>),
    /// `boxes[src][dst]`: the chunk `src` sent to `dst`, taken by `dst`.
    Alltoall(Vec<Vec<Vec<f64>>>),
}

struct Reduction {
    len: usize,
    /// Every rank's buffer, shared read-only with the waiters folding it,
    /// until its owner takes it back as its output.
    bufs: Vec<Option<Arc<Vec<f64>>>>,
    /// Segments handed to a waiter so far, in index order.
    claimed: usize,
    /// The folded segments.
    sums: Vec<Option<Arc<Vec<f64>>>>,
    folded: usize,
}

impl OpCell {
    fn new(p: usize, first: &Deposit) -> OpCell {
        let (root, parts) = match first {
            Deposit::Reduce { root, buf } => (
                *root,
                Parts::Reduce(Reduction {
                    len: buf.len(),
                    bufs: vec![None; p],
                    claimed: 0,
                    sums: vec![None; buf.len().div_ceil(SEGMENT_WORDS)],
                    folded: 0,
                }),
            ),
            Deposit::Gather(_) => (None, Parts::Gather(vec![Vec::new(); p])),
            Deposit::Alltoall(_) => (None, Parts::Alltoall(vec![Vec::new(); p])),
        };
        let st = OpState { visible_at: vec![None; p], parts, released: 0 };
        OpCell { root, st: Mutex::new(st), cv: Condvar::new() }
    }

    /// Lock the cell once every rank's deposit is visible, or `None` once
    /// `deadline` passes first. Nobody signals a delayed deposit turning
    /// visible, so the wait times out at that instant.
    fn all_visible(&self, deadline: Option<Instant>) -> Option<MutexGuard<'_, OpState>> {
        let mut g = lock(&self.st);
        loop {
            let now = Instant::now();
            // When the last deposit shows; `None` while a rank has not issued.
            let last = g.visible_at.iter().try_fold(now, |t, v| v.map(|v| t.max(v)));
            if last == Some(now) {
                return Some(g);
            }
            if deadline.is_some_and(|d| d <= now) {
                return None;
            }
            g = match last.into_iter().chain(deadline).min() {
                Some(until) => {
                    self.cv.wait_timeout(g, until - now).unwrap_or_else(|p| p.into_inner()).0
                }
                None => cv_wait(&self.cv, g),
            };
        }
    }

    /// Fold every segment no waiter has claimed yet — outside the lock, so
    /// waiters fold in parallel — wait out the ones another waiter holds,
    /// then return the sum in this rank's own deposit buffer.
    fn fold<'a>(&'a self, mut g: MutexGuard<'a, OpState>, rank: usize) -> Vec<f64> {
        loop {
            let Parts::Reduce(r) = &mut g.parts else { unreachable!("fold of a non-reduction") };
            if r.claimed < r.sums.len() {
                let seg = r.claimed;
                r.claimed += 1;
                let range = seg * SEGMENT_WORDS..(seg * SEGMENT_WORDS + SEGMENT_WORDS).min(r.len);
                let bufs: Vec<Arc<Vec<f64>>> =
                    r.bufs.iter().map(|b| Arc::clone(b.as_ref().expect("deposited"))).collect();
                drop(g);
                let mut sum = vec![0.0; range.len()];
                for buf in &bufs {
                    sum.iter_mut().zip(&buf[range.clone()]).for_each(|(s, x)| *s += x);
                }
                drop(bufs);
                g = lock(&self.st);
                let Parts::Reduce(r) = &mut g.parts else { unreachable!() };
                r.sums[seg] = Some(Arc::new(sum));
                r.folded += 1;
                if r.folded == r.sums.len() {
                    self.cv.notify_all();
                }
            } else if r.folded < r.sums.len() {
                g = cv_wait(&self.cv, g);
            } else {
                // Every segment is folded, so no waiter reads a deposit any
                // more: this rank's own buffer becomes its output.
                let mine = r.bufs[rank].take().expect("a rank completes a reduction once");
                let sums: Vec<Arc<Vec<f64>>> =
                    r.sums.iter().map(|s| Arc::clone(s.as_ref().expect("folded"))).collect();
                drop(g);
                let mut out = Arc::try_unwrap(mine).unwrap_or_else(|shared| shared.to_vec());
                for (chunk, sum) in out.chunks_mut(SEGMENT_WORDS).zip(&sums) {
                    chunk.copy_from_slice(sum);
                }
                return out;
            }
        }
    }
}

/// Completion of reductions and gathers. A non-root rank of a
/// reduce-to-root owes nothing past its deposit and returns at once.
pub(crate) fn complete_vals(
    cell: &OpCell,
    rank: usize,
    deadline: Option<Instant>,
) -> Option<Vec<f64>> {
    if cell.root.is_some_and(|root| root != rank) {
        return Some(Vec::new());
    }
    let g = cell.all_visible(deadline)?;
    if let Parts::Gather(parts) = &g.parts {
        return Some(parts.concat());
    }
    Some(cell.fold(g, rank))
}

/// Completion of all-to-all: take the chunk every rank sent this one.
pub(crate) fn complete_chunks(
    cell: &OpCell,
    rank: usize,
    deadline: Option<Instant>,
) -> Option<Vec<Vec<f64>>> {
    let mut g = cell.all_visible(deadline)?;
    let Parts::Alltoall(boxes) = &mut g.parts else { unreachable!("chunks of a non-all-to-all") };
    Some(boxes.iter_mut().map(|sent| std::mem::take(&mut sent[rank])).collect())
}

/// Handle to an issued collective. The payload type depends on the op:
/// `Vec<f64>` for reductions, `Vec<Vec<f64>>` for all-to-all.
///
/// Dropping a request without waiting is allowed: this rank's deposit stays
/// for the ranks that do wait, and only its own payload is discarded.
pub struct Request<'c, T = Vec<f64>> {
    comm: &'c Comm,
    op: Op,
    state: State<T>,
}

enum State<T> {
    /// Solo communicator: complete at issue, taken by the wait.
    Ready(Option<T>),
    /// Deposited in op `id`'s cell; `complete` finishes it on this rank.
    Issued { id: u64, cell: Arc<OpCell>, complete: Complete<T> },
    /// Fault injection dropped it before an op id was taken; the issuing
    /// rank must re-issue ([`Comm::settle`] does).
    Dropped,
}

impl<'c, T> Request<'c, T> {
    fn ready(comm: &'c Comm, op: Op, v: T) -> Self {
        Request { comm, op, state: State::Ready(Some(v)) }
    }

    fn is_dropped(&self) -> bool {
        matches!(self.state, State::Dropped)
    }

    /// Request-API waits on a real group are traced and charged; blocking
    /// calls charge their whole call instead.
    fn traced(&self) -> bool {
        self.op.is_request() && matches!(self.state, State::Issued { .. })
    }

    fn complete(&mut self, deadline: Option<Instant>) -> Option<T> {
        match &mut self.state {
            State::Ready(v) => v.take(),
            State::Issued { cell, complete, .. } => complete(cell, self.comm.rank, deadline),
            State::Dropped => None,
        }
    }

    fn charge_wait(&self, t0: Instant) {
        if self.traced() {
            self.comm.charge_wait(self.op, t0.elapsed().as_secs_f64());
        }
    }

    /// Block until completion and hand back the payload. The waiting rank
    /// finishes the op itself; the time is charged to its
    /// [`CommStats`](crate::CommStats).
    pub fn wait(mut self) -> T {
        assert!(
            !self.is_dropped(),
            "wait() on a request dropped by fault injection (op `{}`); \
             use wait_deadline/Comm::settle on fault-injected paths",
            self.op.label()
        );
        let span = self.traced().then(|| obskit::span(obskit::Stage::Mpi, "mpi:wait"));
        let t0 = Instant::now();
        let v = self.complete(None).expect("a wait without a deadline completes");
        self.charge_wait(t0);
        drop(span);
        v
    }

    /// Wait under the fixed retry budget. Attempt `k` blocks for
    /// `60 ms + k·60 ms`; after five attempts the request is abandoned and
    /// [`CommError::Stalled`] surfaces. A request dropped by fault injection
    /// returns [`CommError::Dropped`] immediately.
    ///
    /// Expired deadlines re-wait on the **same** request — they never
    /// re-issue, because a locally-timed re-issue would desynchronize the
    /// SPMD op-id matching across ranks. Only symmetrically-dropped requests
    /// are re-issued ([`Comm::settle`]).
    pub fn wait_deadline(mut self) -> Result<T, CommError> {
        if self.is_dropped() {
            return Err(CommError::Dropped { op: self.op.label() });
        }
        let span = self.traced().then(|| obskit::span(obskit::Stage::Mpi, "mpi:wait"));
        let t0 = Instant::now();
        let mut waited = Duration::ZERO;
        for attempt in 0..WAIT_ATTEMPTS {
            let d = WAIT_DEADLINE + WAIT_BACKOFF * attempt;
            if let Some(v) = self.complete(Some(Instant::now() + d)) {
                self.charge_wait(t0);
                drop(span);
                return Ok(v);
            }
            waited += d;
        }
        self.charge_wait(t0);
        Err(CommError::Stalled { op: self.op.label(), waited, attempts: WAIT_ATTEMPTS })
    }
}

impl<T> Drop for Request<'_, T> {
    /// Release this rank's hold on the op; the last rank out retires the
    /// cell from the op table.
    fn drop(&mut self) {
        if let State::Issued { id, cell, .. } = &self.state {
            let last = {
                let mut g = lock(&cell.st);
                g.released += 1;
                g.released == self.comm.size()
            };
            if last {
                lock(&self.comm.shared.ops).remove(id);
            }
        }
    }
}

impl Comm {
    /// Deposit this rank's part of a collective and return its request;
    /// never blocks. A `CommDrop` fault returns a dropped request before an
    /// op id is taken; a `CommDelay`/`CommStall` of `d` makes the deposit
    /// visible only at issue + `d`, so every rank's wait sees the same stall.
    pub(crate) fn issue<T>(&self, op: Op, dep: Deposit, complete: Complete<T>) -> Request<'_, T> {
        let visible_at = match faultkit::comm_fault(op.fault_site()) {
            Some(CommFault::Drop) => return Request { comm: self, op, state: State::Dropped },
            Some(CommFault::Delay(d)) => Instant::now() + d,
            None => Instant::now(),
        };
        let id = self.next_op_id();
        let cell = Arc::clone(
            lock(&self.shared.ops)
                .entry(id)
                .or_insert_with(|| Arc::new(OpCell::new(self.size(), &dep))),
        );
        let mut g = lock(&cell.st);
        match (&mut g.parts, dep) {
            (Parts::Reduce(r), Deposit::Reduce { root, buf }) => {
                assert!(
                    r.len == buf.len() && cell.root == root,
                    "mismatched reduce parameters at op {id} (rank {})",
                    self.rank
                );
                r.bufs[self.rank] = Some(Arc::new(buf));
            }
            (Parts::Gather(parts), Deposit::Gather(mine)) => parts[self.rank] = mine,
            (Parts::Alltoall(boxes), Deposit::Alltoall(send)) => boxes[self.rank] = send,
            _ => panic!("collective kind mismatch at op {id} (rank {})", self.rank),
        }
        g.visible_at[self.rank] = Some(visible_at);
        drop(g);
        cell.cv.notify_all();
        Request { comm: self, op, state: State::Issued { id, cell, complete } }
    }

    /// Issue a request-API op under its `mpi:*` span and charge the issue
    /// side: one call, its bytes and modeled time, the issue latency.
    fn issue_request<T>(
        &self,
        op: Op,
        bytes: usize,
        modeled: f64,
        deposit: Deposit,
        complete: Complete<T>,
    ) -> Request<'_, T> {
        let span = obskit::span(obskit::Stage::Mpi, op.span_name());
        let t0 = Instant::now();
        let rq = self.issue(op, deposit, complete);
        self.account(op, bytes, t0, modeled, span);
        rq
    }

    /// Nonblocking sum-reduce of `data` to `root`. On `root`, `wait()`
    /// returns the reduced buffer; on other ranks it returns an empty vector
    /// at once — the deposit is all a non-root rank owes.
    pub fn ireduce_sum(&self, data: Vec<f64>, root: usize) -> Request<'_> {
        if self.size() == 1 {
            return Request::ready(self, Op::Ireduce, data);
        }
        let bytes = data.len() * 8;
        let modeled = self.shared.model.segmented_reduce(self.size(), bytes, SEGMENT_WORDS * 8);
        let deposit = Deposit::Reduce { root: Some(root), buf: data };
        self.issue_request(Op::Ireduce, bytes, modeled, deposit, complete_vals)
    }

    /// Nonblocking in-place sum-allreduce: `wait()` returns the fully
    /// reduced buffer on every rank.
    pub fn iallreduce_sum(&self, data: Vec<f64>) -> Request<'_> {
        if self.size() == 1 {
            return Request::ready(self, Op::Iallreduce, data);
        }
        let bytes = data.len() * 8;
        let modeled = self.shared.model.ring_allreduce(self.size(), bytes, SEGMENT_WORDS * 8);
        let deposit = Deposit::Reduce { root: None, buf: data };
        self.issue_request(Op::Iallreduce, bytes, modeled, deposit, complete_vals)
    }

    /// Settle an already-issued request with bounded recovery: a request
    /// dropped by fault injection is re-issued via `reissue` (safe because
    /// the injection decision fired symmetrically on every rank, so every
    /// rank re-issues and op ids stay matched), and completion is awaited
    /// under the fixed deadline/backoff budget of
    /// [`Request::wait_deadline`] before [`CommError::Stalled`] surfaces.
    ///
    /// Taking the first request as an argument (rather than issuing it
    /// here) lets callers keep their issue-then-compute window: the
    /// recovery path only engages after that compute is done.
    pub fn settle<'c, T>(
        &'c self,
        first: Request<'c, T>,
        mut reissue: impl FnMut(&'c Comm) -> Request<'c, T>,
    ) -> Result<T, CommError> {
        let mut rq = first;
        let mut reissues = 0u32;
        while rq.is_dropped() {
            if reissues >= WAIT_ATTEMPTS {
                return Err(CommError::Dropped { op: rq.op.label() });
            }
            reissues += 1;
            rq = reissue(self);
        }
        rq.wait_deadline()
    }

    /// Sum-allreduce a caller-packed buffer in place: one `iallreduce` over
    /// every field the caller laid side by side, settled with the recovery of
    /// [`Comm::settle`]. The identity on a size-1 communicator. A dropped
    /// request is re-issued from `buf` itself, which stays untouched until
    /// the sum comes back, so the fault-free path copies nothing extra.
    ///
    /// Packing changes no bit: summation is element-wise, every element is
    /// folded over the ranks in ascending order from `+0.0`, so fields side
    /// by side change *which* elements ride in one collective but never the
    /// fold order *within* an element — each field comes back bitwise equal
    /// to its own [`Comm::allreduce_sum`] (`tests/fused.rs`). The paper's
    /// K-Means sweep, the sampled ISDF rows and the LOBPCG Gram/norm
    /// reduction each pay one latency this way instead of one per field.
    pub fn allreduce_packed(&self, buf: &mut [f64]) -> Result<(), CommError> {
        if self.size() == 1 {
            return Ok(());
        }
        let rq = self.iallreduce_sum(buf.to_vec());
        let out = self.settle(rq, |c| c.iallreduce_sum(buf.to_vec()))?;
        buf.copy_from_slice(&out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::comm::{lock, spmd, Comm};

    #[test]
    fn dropped_requests_leave_nothing_behind() {
        // A request dropped unwaited still releases its op: once every rank
        // has dropped its side, the cell leaves the table.
        let left = spmd(2, |c| {
            for i in 0..1000 {
                drop(c.iallreduce_sum(vec![i as f64; 3]));
            }
            c.barrier();
            lock(&c.shared.ops).len()
        });
        assert_eq!(left, vec![0, 0]);
    }

    #[test]
    fn packed_reduce_sums_every_field() {
        // Fields [rank, 1] | [] | [10] packed side by side (the empty one
        // takes no room) come back summed over 4 ranks from one
        // `iallreduce`.
        let res = spmd(4, |c| {
            let mut buf = vec![c.rank() as f64, 1.0, 10.0];
            c.allreduce_packed(&mut buf).expect("packed reduce");
            (buf, c.stats())
        });
        for (buf, s) in res {
            assert_eq!(buf, vec![6.0, 4.0, 40.0]); // 0+1+2+3, 4·1, 4·10
            assert_eq!(s.iallreduce.calls, 1, "three fields, one collective");
            assert_eq!(s.collective_calls, 1);
        }
    }

    #[test]
    fn packed_reduce_on_one_rank_is_identity() {
        let c = Comm::solo();
        let mut buf = vec![5.0, 6.0];
        c.allreduce_packed(&mut buf).expect("identity");
        assert_eq!(buf, vec![5.0, 6.0]);
        assert_eq!(c.stats(), crate::CommStats::default());
    }
}
