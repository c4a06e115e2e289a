//! The stage clock: exclusive ("self") seconds per [`Stage`], by one rule.
//!
//! A span's self time is its duration minus the durations of its direct
//! children, charged to the span's own stage — an `mpi:*` span nested in a
//! `gemm` span is charged to `mpi` only, so the stages of one thread never
//! sum past its wall clock. `SelfTime` is that rule. Every span guard
//! feeds it live on its own thread, tracing enabled or not, and the
//! [`crate::Trace`] rollups replay recorded lanes through the same struct:
//! same arithmetic, same timestamps, same answer.

use crate::trace::StageSeconds;
use crate::Stage;

pub(crate) type StageNanos = [u64; Stage::ALL.len()];

/// Self-time accumulator over one well-nested stream of span opens/closes.
pub(crate) struct SelfTime {
    /// Open spans, innermost last: (stage, open timestamp, nanoseconds
    /// spent in already-closed direct children).
    open: Vec<(Stage, u64, u64)>,
    /// Self nanoseconds charged so far by closed spans.
    pub ns: StageNanos,
}

impl SelfTime {
    pub const fn new() -> Self {
        SelfTime { open: Vec::new(), ns: [0; Stage::ALL.len()] }
    }

    pub fn open(&mut self, stage: Stage, ts_ns: u64) {
        self.open.push((stage, ts_ns, 0));
    }

    /// Close the innermost open span and charge it; returns its
    /// `(duration, self)` nanoseconds, or `None` for an orphan close.
    pub fn close(&mut self, ts_ns: u64) -> Option<(u64, u64)> {
        let (stage, t0, child_ns) = self.open.pop()?;
        let dur = ts_ns.saturating_sub(t0);
        let self_ns = dur.saturating_sub(child_ns);
        self.ns[stage.index()] += self_ns;
        if let Some(parent) = self.open.last_mut() {
            parent.2 += dur;
        }
        Some((dur, self_ns))
    }

    #[cfg(test)]
    pub fn depth(&self) -> usize {
        self.open.len()
    }
}

pub(crate) fn to_seconds(ns: &StageNanos) -> StageSeconds {
    ns.map(|n| n as f64 * 1e-9)
}

/// A reading of the calling thread's stage clock, used like
/// [`std::time::Instant`]. The clock always runs (it is not gated by
/// [`crate::enable`]) and counts a span when it closes, so read it after the
/// stage guards of interest have dropped.
#[derive(Clone, Copy, Debug)]
pub struct StageClock(StageNanos);

impl StageClock {
    pub fn now() -> StageClock {
        StageClock(crate::span::thread_self_ns())
    }

    /// Self seconds per stage charged on this thread since the reading.
    pub fn elapsed(&self) -> StageSeconds {
        let mut delta = crate::span::thread_self_ns();
        for (d, start) in delta.iter_mut().zip(self.0) {
            *d = d.saturating_sub(start);
        }
        to_seconds(&delta)
    }
}
