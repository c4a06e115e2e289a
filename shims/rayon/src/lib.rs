//! A deterministic scoped pool behind the subset of the `rayon` API this
//! workspace uses.
//!
//! The build environment has no registry access, so the real `rayon` cannot
//! be vendored; this shim keeps the `par_*` call sites in rayon's spelling
//! and runs them on `std::thread::scope` threads with a static split:
//!
//! * a region splits its items into at most [`current_num_threads`]
//!   contiguous parts whose lengths differ by at most one (and hold at least
//!   what [`iter::ParallelIterator::with_min_len`] asks for); part 0 runs on
//!   the calling thread, every other part on a scoped thread joined before
//!   the region returns;
//! * a region opened on a worker runs inline, so nesting never multiplies
//!   threads;
//! * `for_each_init` runs `init` once per part, on the calling thread, so a
//!   worker allocates nothing the caller did not hand it.
//!
//! Every item is one call of the region's closure, whatever the thread
//! count, and the pool offers no reduction. A call site whose items write
//! disjoint outputs therefore computes every output with one fold at 1, 2
//! or `n` threads: the bits do not depend on the thread count.
//!
//! A thread nothing configured uses every core the process may run on
//! (`available_parallelism`); [`ThreadPool::install`] sets the count for
//! the duration of a closure. Workers inherit no other thread-local state.

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    /// Threads a region opened on this thread may use; 0 means unset.
    static THREADS: Cell<usize> = const { Cell::new(0) };
}

fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Threads a region opened on this thread splits over: the installed count,
/// 1 on a worker, every core otherwise.
pub fn current_num_threads() -> usize {
    match THREADS.get() {
        0 => cores(),
        n => n,
    }
}

/// A thread count for the regions opened inside [`ThreadPool::install`].
/// Threads are scoped to each region, so the pool holds no thread itself.
#[derive(Clone, Copy, Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A pool of `threads` threads; 0 means every core.
    pub fn new(threads: usize) -> ThreadPool {
        ThreadPool { threads }
    }

    /// Run `op` on this thread with regions split over this pool's count,
    /// restoring the previous count afterwards (also on unwind).
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                THREADS.set(self.0);
            }
        }
        let _restore = Restore(THREADS.replace(self.threads));
        op()
    }
}

pub mod iter {
    use std::iter::Zip;
    use std::ops::{Range, RangeFrom};

    /// The items of one region: an exact-length sequence that splits into
    /// contiguous parts, each consumed on one thread.
    pub trait ParallelIterator: Sized + Send {
        type Item;
        #[doc(hidden)]
        type Seq: Iterator<Item = Self::Item>;
        #[doc(hidden)]
        fn items(&self) -> usize;
        #[doc(hidden)]
        fn min_items(&self) -> usize {
            1
        }
        #[doc(hidden)]
        fn split_at(self, index: usize) -> (Self, Self);
        #[doc(hidden)]
        fn into_seq(self) -> Self::Seq;

        /// Pair every item with its index in the whole region.
        fn enumerate(self) -> Enumerate<Self> {
            Enumerate { base: self, offset: 0 }
        }

        /// Give every part at least `min` items: the region runs inline when
        /// it holds fewer than `2·min`. This is the floor below which a
        /// region does not pay for a thread.
        fn with_min_len(self, min: usize) -> MinLen<Self> {
            MinLen { base: self, min }
        }

        fn for_each<OP>(self, op: OP)
        where
            OP: Fn(Self::Item) + Sync,
        {
            self.for_each_init(|| (), |(), item| op(item));
        }

        /// Run `op` on every item with a scratch value made by `init` once
        /// per part, on the calling thread.
        fn for_each_init<T, INIT, OP>(self, init: INIT, op: OP)
        where
            T: Send,
            INIT: FnMut() -> T,
            OP: Fn(&mut T, Self::Item) + Sync,
        {
            crate::run(self, init, &op);
        }
    }

    /// A range of indices.
    pub struct RangeIter {
        pub(crate) range: Range<usize>,
    }

    impl ParallelIterator for RangeIter {
        type Item = usize;
        type Seq = Range<usize>;
        fn items(&self) -> usize {
            self.range.len()
        }
        fn split_at(self, index: usize) -> (Self, Self) {
            let mid = self.range.start + index;
            (RangeIter { range: self.range.start..mid }, RangeIter { range: mid..self.range.end })
        }
        fn into_seq(self) -> Range<usize> {
            self.range
        }
    }

    /// Mutable references to the elements of a slice.
    pub struct IterMut<'a, T> {
        pub(crate) slice: &'a mut [T],
    }

    impl<'a, T: Send> ParallelIterator for IterMut<'a, T> {
        type Item = &'a mut T;
        type Seq = std::slice::IterMut<'a, T>;
        fn items(&self) -> usize {
            self.slice.len()
        }
        fn split_at(self, index: usize) -> (Self, Self) {
            let (a, b) = self.slice.split_at_mut(index);
            (IterMut { slice: a }, IterMut { slice: b })
        }
        fn into_seq(self) -> Self::Seq {
            self.slice.iter_mut()
        }
    }

    /// Disjoint mutable chunks of a slice; the last may be short.
    pub struct ChunksMut<'a, T> {
        pub(crate) slice: &'a mut [T],
        pub(crate) size: usize,
    }

    impl<'a, T: Send> ParallelIterator for ChunksMut<'a, T> {
        type Item = &'a mut [T];
        type Seq = std::slice::ChunksMut<'a, T>;
        fn items(&self) -> usize {
            self.slice.len().div_ceil(self.size)
        }
        fn split_at(self, index: usize) -> (Self, Self) {
            let at = (index * self.size).min(self.slice.len());
            let (a, b) = self.slice.split_at_mut(at);
            (ChunksMut { slice: a, size: self.size }, ChunksMut { slice: b, size: self.size })
        }
        fn into_seq(self) -> Self::Seq {
            self.slice.chunks_mut(self.size)
        }
    }

    /// See [`ParallelIterator::enumerate`].
    pub struct Enumerate<P> {
        base: P,
        offset: usize,
    }

    impl<P: ParallelIterator> ParallelIterator for Enumerate<P> {
        type Item = (usize, P::Item);
        type Seq = Zip<RangeFrom<usize>, P::Seq>;
        fn items(&self) -> usize {
            self.base.items()
        }
        fn min_items(&self) -> usize {
            self.base.min_items()
        }
        fn split_at(self, index: usize) -> (Self, Self) {
            let (a, b) = self.base.split_at(index);
            (
                Enumerate { base: a, offset: self.offset },
                Enumerate { base: b, offset: self.offset + index },
            )
        }
        fn into_seq(self) -> Self::Seq {
            (self.offset..).zip(self.base.into_seq())
        }
    }

    /// See [`ParallelIterator::with_min_len`].
    pub struct MinLen<P> {
        base: P,
        min: usize,
    }

    impl<P: ParallelIterator> ParallelIterator for MinLen<P> {
        type Item = P::Item;
        type Seq = P::Seq;
        fn items(&self) -> usize {
            self.base.items()
        }
        fn min_items(&self) -> usize {
            self.min.max(self.base.min_items())
        }
        fn split_at(self, index: usize) -> (Self, Self) {
            let (a, b) = self.base.split_at(index);
            (MinLen { base: a, min: self.min }, MinLen { base: b, min: self.min })
        }
        fn into_seq(self) -> Self::Seq {
            self.base.into_seq()
        }
    }
}

pub mod slice {
    use crate::iter::ChunksMut;

    /// `par_chunks_mut` over mutable slices.
    pub trait ParallelSliceMut<T: Send> {
        fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMut<'_, T>;
    }

    impl<T: Send> ParallelSliceMut<T> for [T] {
        fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMut<'_, T> {
            assert!(chunk_size != 0, "chunk size must not be zero");
            ChunksMut { slice: self, size: chunk_size }
        }
    }
}

pub mod prelude {
    pub use crate::iter::ParallelIterator;
    use crate::iter::{IterMut, RangeIter};
    pub use crate::slice::ParallelSliceMut;

    /// `into_par_iter()` on an index range.
    pub trait IntoParallelIterator {
        type Iter: ParallelIterator;
        fn into_par_iter(self) -> Self::Iter;
    }

    impl IntoParallelIterator for std::ops::Range<usize> {
        type Iter = RangeIter;
        fn into_par_iter(self) -> RangeIter {
            RangeIter { range: self }
        }
    }

    /// `par_iter_mut()` on a slice (or a `Vec`, through deref).
    pub trait IntoParallelRefMutIterator<T: Send> {
        fn par_iter_mut(&mut self) -> IterMut<'_, T>;
    }

    impl<T: Send> IntoParallelRefMutIterator<T> for [T] {
        fn par_iter_mut(&mut self) -> IterMut<'_, T> {
            IterMut { slice: self }
        }
    }
}

/// The one region driver: split `iter` into contiguous parts, make every
/// part's scratch here, run part 0 on this thread and the rest on scoped
/// workers, and re-raise a worker's panic with its own payload.
fn run<P, T, INIT, OP>(iter: P, mut init: INIT, op: &OP)
where
    P: iter::ParallelIterator,
    T: Send,
    INIT: FnMut() -> T,
    OP: Fn(&mut T, P::Item) + Sync,
{
    let len = iter.items();
    let parts = current_num_threads().min(len / iter.min_items().max(1)).max(1);
    let mut scratch = init();
    if parts == 1 {
        iter.into_seq().for_each(|item| op(&mut scratch, item));
        return;
    }
    let bound = |p: usize| p * len / parts;
    let (first, mut rest) = iter.split_at(bound(1));
    std::thread::scope(|s| {
        let mut workers = Vec::with_capacity(parts - 1);
        for p in 1..parts {
            let (part, tail) = rest.split_at(bound(p + 1) - bound(p));
            rest = tail;
            let mut scratch = init();
            workers.push(s.spawn(move || {
                THREADS.set(1);
                part.into_seq().for_each(|item| op(&mut scratch, item));
            }));
        }
        first.into_seq().for_each(|item| op(&mut scratch, item));
        for w in workers {
            if let Err(payload) = w.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::ThreadPool;
    use std::sync::Mutex;
    use std::thread::{self, ThreadId};

    /// The thread that ran each item of a `len`-item region at `threads`.
    fn owners(len: usize, threads: usize, min: usize) -> Vec<ThreadId> {
        let mut out = vec![thread::current().id(); len];
        ThreadPool::new(threads).install(|| {
            out.par_iter_mut().with_min_len(min).for_each(|o| *o = thread::current().id());
        });
        out
    }

    /// Lengths of the runs of equal owners, in order.
    fn runs(ids: &[ThreadId]) -> Vec<usize> {
        ids.chunk_by(|a, b| a == b).map(<[_]>::len).collect()
    }

    #[test]
    fn parts_are_contiguous_and_the_caller_takes_the_first() {
        let me = thread::current().id();
        assert!(owners(0, 3, 1).is_empty());
        assert_eq!(owners(1, 3, 1), [me]);
        // Fewer items than threads: one item per part.
        let two = owners(2, 3, 1);
        assert_eq!((two[0], runs(&two)), (me, vec![1, 1]));
        let ten = owners(10, 3, 1);
        assert_eq!((ten[0], runs(&ten)), (me, vec![3, 3, 4]));
        // A floor of 4 items per part leaves two parts of 5.
        assert_eq!(runs(&owners(10, 3, 4)), [5, 5]);
        assert_eq!(runs(&owners(7, 3, 4)), [7]);
    }

    #[test]
    fn chunks_enumerate_across_parts_with_a_short_last_chunk() {
        for threads in 1..=4 {
            let mut buf = vec![0usize; 11];
            ThreadPool::new(threads).install(|| {
                buf.par_chunks_mut(3).enumerate().for_each(|(i, chunk)| chunk.fill(i));
            });
            assert_eq!(buf, [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3], "{threads} threads");
            let mut seen = vec![usize::MAX; 5];
            ThreadPool::new(threads).install(|| {
                seen.par_iter_mut().enumerate().for_each(|(i, s)| *s = i);
                (0..5).into_par_iter().for_each(|i| assert!(i < 5));
            });
            assert_eq!(seen, [0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn init_runs_once_per_part_on_the_caller() {
        let me = thread::current().id();
        let mut inits = Vec::new();
        let parts = Mutex::new(Vec::new());
        ThreadPool::new(3).install(|| {
            (0..9).into_par_iter().for_each_init(
                || {
                    inits.push(thread::current().id());
                    inits.len() - 1
                },
                |part, i| parts.lock().unwrap().push((*part, i)),
            );
        });
        assert_eq!(inits, [me; 3]);
        let mut parts = parts.into_inner().unwrap();
        parts.sort_unstable_by_key(|&(_, i)| i);
        let by_item: Vec<usize> = parts.iter().map(|&(p, _)| p).collect();
        assert_eq!(by_item, [0, 0, 0, 1, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn a_region_inside_a_worker_runs_inline() {
        let inner = Mutex::new(Vec::new());
        ThreadPool::new(2).install(|| {
            (0..2).into_par_iter().for_each(|_| {
                let me = thread::current().id();
                let width = crate::current_num_threads();
                let mut ids = [me; 4];
                ids.par_iter_mut().for_each(|o| *o = thread::current().id());
                inner.lock().unwrap().push((width, ids.iter().all(|&id| id == me)));
            });
        });
        let inner = inner.into_inner().unwrap();
        // The caller's part still sees two threads; the worker's sees one.
        assert_eq!(inner.len(), 2);
        assert!(inner.contains(&(1, true)));
    }

    #[test]
    fn install_sets_and_restores_the_count() {
        let outside = crate::current_num_threads();
        assert!(outside >= 1);
        ThreadPool::new(3).install(|| {
            assert_eq!(crate::current_num_threads(), 3);
            ThreadPool::new(1).install(|| assert_eq!(crate::current_num_threads(), 1));
            assert_eq!(crate::current_num_threads(), 3);
        });
        assert_eq!(crate::current_num_threads(), outside);
        assert_eq!(ThreadPool::new(0).install(crate::current_num_threads), outside);
    }

    #[test]
    fn a_worker_panic_keeps_its_message() {
        let err = std::panic::catch_unwind(|| {
            ThreadPool::new(2).install(|| {
                (0..2).into_par_iter().for_each(|i| assert!(i == 0, "item {i} failed"));
            })
        })
        .unwrap_err();
        assert_eq!(err.downcast_ref::<String>().map(String::as_str), Some("item 1 failed"));
    }
}
