//! RAII span guards, instant events, and the per-thread event streams.
//!
//! Each thread owns a lock-free event buffer; spans push a `Begin` on
//! creation and an `End` on drop. When the thread's open-span stack returns
//! to depth zero the buffer drains into the global registry under one mutex
//! acquisition, keeping hot paths free of shared-state traffic.
//!
//! Every thread additionally carries a process-unique lane id (`tid`) and a
//! human-readable label. Ranks set both via [`set_rank`] (label `"rank N"`);
//! other threads — the main thread, Rayon workers — get distinct lanes named
//! after their OS thread name (or `"thread-N"`), so exported traces no
//! longer collapse every unranked thread into one polluted rank-0 lane.
//!
//! Every span — recording or not — also ticks the thread's
//! [`crate::StageClock`].

use crate::clock::{SelfTime, StageNanos};
use crate::{enabled, now_ns, Stage};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What kind of event a stream entry is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Span opened (Chrome `B`).
    Begin,
    /// Span closed (Chrome `E`). `aborted` means the guard dropped during a
    /// panic unwind — the trace stays well-formed, the span is flagged.
    End { aborted: bool },
    /// Point-in-time marker (Chrome `i`), e.g. a solver-iteration record.
    Instant,
}

/// One entry of a rank's event stream.
#[derive(Clone, Debug)]
pub struct Event {
    pub kind: EventKind,
    /// Static name, e.g. `"mpi:allreduce"` or `"lobpcg.iter"`.
    pub name: &'static str,
    /// Roll-up stage (Chrome `cat`).
    pub stage: Stage,
    /// Monotonic nanoseconds since the session epoch.
    pub ts_ns: u64,
    /// Numeric payload (byte counts, iteration numbers, residuals…).
    pub args: Vec<(&'static str, f64)>,
}

/// One flushed batch of events from a single thread.
pub(crate) struct Batch {
    pub rank: usize,
    pub tid: u64,
    pub label: String,
    pub events: Vec<Event>,
}

/// Global registry of flushed event batches, tagged by (rank, lane).
/// Batches are appended in flush order; within one lane the order is the
/// recording order because a lane is a single thread.
static REGISTRY: Mutex<Vec<Batch>> = Mutex::new(Vec::new());

/// Process-unique lane ids. 0 is the "unassigned" sentinel so the
/// const-initialised thread-local can detect first use.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

struct ThreadStream {
    rank: usize,
    /// True once [`set_rank`] ran on this thread; labels the lane "rank N".
    rank_explicit: bool,
    /// Process-unique lane id; 0 until lazily assigned.
    tid: u64,
    /// Explicit label from [`set_thread_label`], if any.
    label: Option<String>,
    events: Vec<Event>,
    depth: usize,
    /// The stage clock: fed by every span on this thread, enabled or not.
    clock: SelfTime,
}

impl ThreadStream {
    const fn new() -> Self {
        ThreadStream {
            rank: 0,
            rank_explicit: false,
            tid: 0,
            label: None,
            events: Vec::new(),
            depth: 0,
            clock: SelfTime::new(),
        }
    }

    fn tid(&mut self) -> u64 {
        if self.tid == 0 {
            self.tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        }
        self.tid
    }

    fn lane_label(&self) -> String {
        if let Some(l) = &self.label {
            return l.clone();
        }
        if self.rank_explicit {
            return format!("rank {}", self.rank);
        }
        match std::thread::current().name() {
            Some(n) if !n.is_empty() => n.to_string(),
            _ => format!("thread-{}", self.tid),
        }
    }

    fn flush(&mut self) {
        if self.events.is_empty() {
            return;
        }
        let tid = self.tid();
        let batch = Batch {
            rank: self.rank,
            tid,
            label: self.lane_label(),
            events: std::mem::take(&mut self.events),
        };
        REGISTRY.lock().unwrap_or_else(|p| p.into_inner()).push(batch);
    }
}

impl Drop for ThreadStream {
    // Backstop: a thread exiting with a non-empty buffer (e.g. killed while
    // spans were force-forgotten) still delivers what it recorded.
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static STREAM: RefCell<ThreadStream> = const { RefCell::new(ThreadStream::new()) };
}

/// Tag this thread's event stream with a simulated-MPI rank id. Called by
/// `parcomm::spmd` at rank-thread startup; defaults to 0 elsewhere. The
/// lane label becomes `"rank N"` unless [`set_thread_label`] overrides it.
pub fn set_rank(rank: usize) {
    STREAM.with(|s| {
        let mut st = s.borrow_mut();
        st.rank = rank;
        st.rank_explicit = true;
    });
}

/// Give this thread's trace lane a human-readable name, exported as a
/// Chrome `thread_name` metadata event. Use for worker/service threads that
/// are not SPMD ranks (benchmark clients, schedulers) so they don't read as
/// anonymous rank-0 activity.
pub fn set_thread_label(label: &str) {
    STREAM.with(|s| s.borrow_mut().label = Some(label.to_string()));
}

/// The rank this thread records as.
pub fn thread_rank() -> usize {
    STREAM.with(|s| s.borrow().rank)
}

/// Push this thread's buffered events to the global registry. `parcomm`
/// calls it when a rank thread finishes; call it on the main thread before
/// [`crate::take_trace`].
pub fn flush_thread() {
    STREAM.with(|s| s.borrow_mut().flush());
}

/// This thread's cumulative self nanoseconds per stage (closed spans only).
pub(crate) fn thread_self_ns() -> StageNanos {
    STREAM.with(|s| s.borrow().clock.ns)
}

pub(crate) fn drain_registry() -> Vec<Batch> {
    std::mem::take(&mut *REGISTRY.lock().unwrap_or_else(|p| p.into_inner()))
}

/// RAII span guard. Created by [`span`]; records its `End` event (with
/// panic-abort marking) when dropped. Attach numeric payload with
/// [`Span::arg`] — emitted on the closing event.
///
/// The guard reads the clock once at open and once at close. Those two
/// readings tick the thread's [`crate::StageClock`] even when full tracing
/// is disabled.
#[must_use = "a span measures the scope it lives in; binding it to _ closes it immediately"]
pub struct Span {
    live: bool,
    name: &'static str,
    stage: Stage,
    args: Vec<(&'static str, f64)>,
}

impl Span {
    /// Attach a numeric argument, exported on the span's closing event.
    /// No-op on a disabled-mode span.
    pub fn arg(&mut self, key: &'static str, value: f64) {
        if self.live {
            self.args.push((key, value));
        }
    }

    /// Whether this guard is actually recording (tracing was enabled at
    /// creation).
    pub fn is_recording(&self) -> bool {
        self.live
    }

    /// Close the span now and return its duration in seconds: the same two
    /// clock readings the stage clock charges, so a caller that accounts
    /// this duration agrees with the stage clock exactly.
    pub fn close(mut self) -> f64 {
        let ns = self.end();
        // `end` has taken the args, so forgetting the guard leaks nothing.
        std::mem::forget(self);
        ns as f64 * 1e-9
    }

    /// Record the close; returns the span's duration in nanoseconds.
    fn end(&mut self) -> u64 {
        let ts_ns = now_ns();
        STREAM.with(|s| {
            let mut st = s.borrow_mut();
            let dur = st.clock.close(ts_ns).map_or(0, |(dur, _)| dur);
            if self.live {
                st.events.push(Event {
                    kind: EventKind::End { aborted: std::thread::panicking() },
                    name: self.name,
                    stage: self.stage,
                    ts_ns,
                    args: std::mem::take(&mut self.args),
                });
                st.depth = st.depth.saturating_sub(1);
                if st.depth == 0 {
                    st.flush();
                }
            }
            dur
        })
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.end();
    }
}

/// Open a span. Disabled-mode cost: one clock read, one relaxed atomic load
/// and a thread-local push for the stage clock; no allocation once the
/// thread's span stack has grown to its working depth.
#[inline]
pub fn span(stage: Stage, name: &'static str) -> Span {
    let ts_ns = now_ns();
    let live = enabled();
    STREAM.with(|s| {
        let mut st = s.borrow_mut();
        st.clock.open(stage, ts_ns);
        if live {
            st.events.push(Event { kind: EventKind::Begin, name, stage, ts_ns, args: Vec::new() });
            st.depth += 1;
        }
    });
    Span { live, name, stage, args: Vec::new() }
}

/// Record a point-in-time event with a numeric payload, e.g. one solver
/// iteration's residual norm. Disabled-mode cost: one atomic load.
#[inline]
pub fn instant(stage: Stage, name: &'static str, args: &[(&'static str, f64)]) {
    if !enabled() {
        return;
    }
    let ts_ns = now_ns();
    STREAM.with(|s| {
        let mut st = s.borrow_mut();
        st.events.push(Event {
            kind: EventKind::Instant,
            name,
            stage,
            ts_ns,
            args: args.to_vec(),
        });
        if st.depth == 0 {
            st.flush();
        }
    });
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::{Mutex, MutexGuard};

    /// obskit state is process-global; tests that record serialize on this.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    pub fn exclusive() -> MutexGuard<'static, ()> {
        let g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        // Start from a clean slate: no stale registry batches or counters.
        crate::disable();
        crate::flush_thread();
        let _ = crate::take_trace();
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{disable, enable, take_trace};

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = testutil::exclusive();
        {
            let mut s = span(Stage::Gemm, "g");
            s.arg("bytes", 1.0);
            assert!(!s.is_recording());
        }
        instant(Stage::Diag, "i", &[("x", 1.0)]);
        flush_thread();
        let t = take_trace();
        assert!(t.ranks.is_empty(), "disabled mode must not record");
    }

    fn spin(ns: u64) {
        let t0 = now_ns();
        while now_ns() - t0 < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn stage_clock_ticks_with_tracing_disabled() {
        let _g = testutil::exclusive();
        let clock = crate::StageClock::now();
        {
            let s = span(Stage::Theta, "untraced");
            assert!(!s.is_recording());
            spin(50_000);
        }
        let dt = clock.elapsed();
        assert!(dt[Stage::Theta.index()] >= 50e-6, "clock must run untraced: {dt:?}");
        assert_eq!(dt[Stage::Gemm.index()], 0.0);
    }

    #[test]
    fn nested_child_is_charged_to_its_own_stage() {
        let _g = testutil::exclusive();
        enable();
        let clock = crate::StageClock::now();
        let t0 = now_ns();
        {
            let _outer = span(Stage::Gemm, "outer");
            spin(50_000);
            {
                let _inner = span(Stage::Mpi, "inner");
                spin(200_000);
            }
        }
        let wall = (now_ns() - t0) as f64 * 1e-9;
        let live = clock.elapsed();
        disable();
        let rollup = take_trace().stage_seconds_for_rank(thread_rank());
        let (gemm, mpi) = (live[Stage::Gemm.index()], live[Stage::Mpi.index()]);
        assert!(mpi >= 200e-6 && gemm >= 50e-6, "gemm {gemm} mpi {mpi}");
        assert!(gemm + mpi <= wall, "child counted twice: {gemm} + {mpi} > {wall}");
        // Same timestamps through the same rule: the views are identical.
        assert_eq!(live, rollup);
    }

    #[test]
    fn span_dropped_during_unwind_leaves_the_clock_stack_balanced() {
        let _g = testutil::exclusive();
        let depth = || STREAM.with(|s| s.borrow().clock.depth());
        let clock = crate::StageClock::now();
        let outer = span(Stage::Diag, "outer");
        let r = std::panic::catch_unwind(|| {
            let _doomed = span(Stage::Fft, "doomed");
            assert_eq!(depth(), 2);
            spin(50_000);
            panic!("boom");
        });
        assert!(r.is_err());
        assert_eq!(depth(), 1, "the unwound guard closed its own entry");
        drop(outer);
        assert_eq!(depth(), 0);
        let dt = clock.elapsed();
        assert!(dt[Stage::Fft.index()] >= 50e-6, "aborted span still charged: {dt:?}");
    }

    #[test]
    fn begin_end_pair_with_args_on_close() {
        let _g = testutil::exclusive();
        enable();
        {
            let mut s = span(Stage::Mpi, "mpi:allreduce");
            s.arg("bytes", 800.0);
        }
        disable();
        flush_thread();
        let t = take_trace();
        assert_eq!(t.ranks.len(), 1);
        let ev = &t.ranks[0].events;
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].kind, EventKind::Begin);
        assert_eq!(ev[1].kind, EventKind::End { aborted: false });
        assert_eq!(ev[1].args, vec![("bytes", 800.0)]);
        assert!(ev[1].ts_ns >= ev[0].ts_ns, "monotonic timestamps");
    }

    #[test]
    fn nested_spans_flush_at_depth_zero() {
        let _g = testutil::exclusive();
        enable();
        {
            let _outer = span(Stage::Diag, "outer");
            {
                let _inner = span(Stage::Mpi, "inner");
            }
            // Not yet flushed: stack depth is 1.
            assert!(crate::span::REGISTRY.lock().unwrap().is_empty());
        }
        disable();
        let t = take_trace();
        assert_eq!(t.ranks[0].events.len(), 4);
        let names: Vec<&str> = t.ranks[0].events.iter().map(|e| e.name).collect();
        assert_eq!(names, ["outer", "inner", "inner", "outer"]);
    }

    #[test]
    fn panicking_span_closes_as_aborted() {
        let _g = testutil::exclusive();
        enable();
        let r = std::thread::spawn(|| {
            set_rank(3);
            let _s = span(Stage::Fft, "doomed");
            panic!("boom");
        })
        .join();
        assert!(r.is_err());
        disable();
        let t = take_trace();
        let stream = t.ranks.iter().find(|r| r.rank == 3).expect("rank 3 stream");
        assert_eq!(stream.events.len(), 2);
        assert_eq!(stream.events[0].kind, EventKind::Begin);
        assert_eq!(stream.events[1].kind, EventKind::End { aborted: true });
        assert_eq!(stream.label, "rank 3");
    }

    #[test]
    fn instants_outside_spans_flush_immediately() {
        let _g = testutil::exclusive();
        enable();
        instant(Stage::Other, "scf.iter", &[("iter", 1.0), ("residual", 0.5)]);
        disable();
        let t = take_trace();
        assert_eq!(t.ranks[0].events.len(), 1);
        assert_eq!(t.ranks[0].events[0].kind, EventKind::Instant);
        assert_eq!(t.ranks[0].events[0].args.len(), 2);
    }

    #[test]
    fn rank_tagging_separates_streams() {
        let _g = testutil::exclusive();
        enable();
        std::thread::scope(|scope| {
            for rank in 0..4 {
                scope.spawn(move || {
                    set_rank(rank);
                    assert_eq!(thread_rank(), rank);
                    let _s = span(Stage::Gemm, "work");
                });
            }
        });
        disable();
        let t = take_trace();
        let mut ranks: Vec<usize> = t.ranks.iter().map(|r| r.rank).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn unranked_threads_get_distinct_labelled_lanes() {
        let _g = testutil::exclusive();
        enable();
        std::thread::scope(|scope| {
            for i in 0..2 {
                scope.spawn(move || {
                    set_thread_label(if i == 0 { "worker-a" } else { "worker-b" });
                    let _s = span(Stage::Gemm, "work");
                });
            }
        });
        disable();
        let t = take_trace();
        // Both threads defaulted to rank 0 but must land in separate lanes.
        assert_eq!(t.ranks.len(), 2, "one lane per thread, not one merged rank-0 lane");
        let mut labels: Vec<&str> = t.ranks.iter().map(|r| r.label.as_str()).collect();
        labels.sort_unstable();
        assert_eq!(labels, ["worker-a", "worker-b"]);
        assert_ne!(t.ranks[0].tid, t.ranks[1].tid);
    }
}
