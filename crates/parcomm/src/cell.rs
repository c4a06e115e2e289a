//! The op cell: one collective in flight, shared by its ranks.
//!
//! There is no progress engine: every collective is one blocking call on
//! the thread that calls it ([`Comm`](crate::Comm)'s private `collective`).
//! The rank **deposits** its contribution in the op's cell, **completes** the
//! op once every peer has deposited, and **releases** the cell; the last
//! rank out retires it from the communicator's op table. Ops pair up across
//! ranks by per-rank call order (op `n` on rank `a` matches op `n` on rank
//! `b`).
//!
//! Completion waits until every peer has deposited — an MPI collective's
//! rule: there is no deadline, and no rank gives up while its peers go on.
//! The completing rank then does the remaining work itself. Reduction ranks
//! claim unfolded 4096-word segments and sum each over every rank's deposit
//! in ascending rank order from `+0.0` — the per-element order of the
//! blocking sum, so results are bitwise identical however the segments were
//! shared out, and one rank can finish the whole op alone. A non-root rank
//! of a reduce-to-root owes nothing past its deposit and completes at once.
//! A gather or all-to-all rank copies or takes its parts.

use crate::comm::lock;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Words (f64) per reduction segment, the unit one rank claims: 32 KiB, so
/// a large reduction is shared out among its ranks and a latency-bound one
/// is a single claim.
const SEGMENT_WORDS: usize = 4096;

/// `Condvar::wait` with poison recovery (same policy as [`lock`]).
fn cv_wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(|p| p.into_inner())
}

/// One rank's contribution to a collective.
pub(crate) enum Deposit {
    /// Sum-reduce `buf` to `root`, or to every rank when `root` is `None`.
    Reduce { root: Option<usize>, buf: Vec<f64> },
    /// All-gather `mine` in rank order.
    Gather(Vec<f64>),
    /// All-to-all: chunk `q` goes to rank `q`.
    Alltoall(Vec<Vec<f64>>),
}

/// One collective in flight, shared by the ranks through the op table.
pub(crate) struct OpCell {
    size: usize,
    /// The root of a reduce-to-root; `None` for every other op.
    root: Option<usize>,
    st: Mutex<OpState>,
    cv: Condvar,
}

struct OpState {
    /// Ranks that have deposited.
    deposited: usize,
    parts: Parts,
    /// Ranks that have completed and released the cell.
    released: usize,
}

/// The deposits, by completion kind.
enum Parts {
    Reduce(Reduction),
    /// Each rank's contribution, copied by every rank.
    Gather(Vec<Vec<f64>>),
    /// `boxes[src][dst]`: the chunk `src` sent to `dst`, taken by `dst`.
    Alltoall(Vec<Vec<Vec<f64>>>),
}

struct Reduction {
    len: usize,
    /// Every rank's buffer, shared read-only with the ranks folding it,
    /// until its owner takes it back as its output.
    bufs: Vec<Option<Arc<Vec<f64>>>>,
    /// Segments handed to a rank so far, in index order.
    claimed: usize,
    /// The folded segments.
    sums: Vec<Option<Arc<Vec<f64>>>>,
    folded: usize,
}

impl OpCell {
    pub(crate) fn new(size: usize, first: &Deposit) -> OpCell {
        let (root, parts) = match first {
            Deposit::Reduce { root, buf } => (
                *root,
                Parts::Reduce(Reduction {
                    len: buf.len(),
                    bufs: vec![None; size],
                    claimed: 0,
                    sums: vec![None; buf.len().div_ceil(SEGMENT_WORDS)],
                    folded: 0,
                }),
            ),
            Deposit::Gather(_) => (None, Parts::Gather(vec![Vec::new(); size])),
            Deposit::Alltoall(_) => (None, Parts::Alltoall(vec![Vec::new(); size])),
        };
        let st = OpState { deposited: 0, parts, released: 0 };
        OpCell { size, root, st: Mutex::new(st), cv: Condvar::new() }
    }

    /// Hand over `rank`'s contribution to op `id`.
    pub(crate) fn deposit(&self, id: u64, rank: usize, dep: Deposit) {
        let mut g = lock(&self.st);
        match (&mut g.parts, dep) {
            (Parts::Reduce(r), Deposit::Reduce { root, buf }) => {
                assert!(
                    r.len == buf.len() && self.root == root,
                    "mismatched reduce parameters at op {id} (rank {rank})"
                );
                r.bufs[rank] = Some(Arc::new(buf));
            }
            (Parts::Gather(parts), Deposit::Gather(mine)) => parts[rank] = mine,
            (Parts::Alltoall(boxes), Deposit::Alltoall(send)) => boxes[rank] = send,
            _ => panic!("collective kind mismatch at op {id} (rank {rank})"),
        }
        g.deposited += 1;
        drop(g);
        self.cv.notify_all();
    }

    /// Release the calling rank's hold on the cell; true for the last rank
    /// out.
    pub(crate) fn release(&self) -> bool {
        let mut g = lock(&self.st);
        g.released += 1;
        g.released == self.size
    }

    /// Lock the cell once every rank has deposited.
    fn all_deposited(&self) -> MutexGuard<'_, OpState> {
        let mut g = lock(&self.st);
        while g.deposited < self.size {
            g = cv_wait(&self.cv, g);
        }
        g
    }

    /// Fold every segment no rank has claimed yet — outside the lock, so
    /// ranks fold in parallel — wait out the ones another rank holds, then
    /// return the sum in this rank's own deposit buffer.
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
                // Every segment is folded, so no rank reads a deposit any
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

    /// Completion of reductions and gathers. A non-root rank of a
    /// reduce-to-root returns an empty vector at once.
    pub(crate) fn vals(&self, rank: usize) -> Vec<f64> {
        if self.root.is_some_and(|root| root != rank) {
            return Vec::new();
        }
        let g = self.all_deposited();
        if let Parts::Gather(parts) = &g.parts {
            return parts.concat();
        }
        self.fold(g, rank)
    }

    /// Completion of all-to-all: take the chunk every rank sent this one.
    pub(crate) fn chunks(&self, rank: usize) -> Vec<Vec<f64>> {
        let mut g = self.all_deposited();
        let Parts::Alltoall(boxes) = &mut g.parts else { unreachable!("chunks of a non-all-to-all") };
        boxes.iter_mut().map(|sent| std::mem::take(&mut sent[rank])).collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::comm::{lock, spmd};

    #[test]
    fn finished_ops_leave_the_table() {
        // A non-root rank releases its cell at its deposit and the root once
        // it has folded: the last rank out retires the cell, whichever it is.
        let left = spmd(2, |c| {
            for i in 0..1000 {
                c.reduce_sum(vec![i as f64; 3], i % 2);
            }
            c.barrier();
            lock(&c.shared.ops).len()
        });
        assert_eq!(left, vec![0, 0]);
    }
}
