//! # obskit — span-based tracing and metrics substrate
//!
//! Low-overhead observability for the whole LR-TDDFT workspace: RAII span
//! guards with parent/child nesting, monotonic timestamps, typed counters
//! (flops, bytes moved, FFT calls, a GEMM shape histogram), and per-rank
//! event streams, plus three exporters:
//!
//! * [`chrome::chrome_trace_json`] — Chrome Trace Event Format JSON,
//!   loadable in `chrome://tracing` / Perfetto, one lane per simulated MPI
//!   rank (`pid` = rank id);
//! * [`trace::Trace::summary_tree`] — a human-readable hierarchical call
//!   tree with per-node total/self time;
//! * per-stage second rollups ([`trace::Trace::stage_seconds_for_rank`]) that
//!   feed the machine-readable `BENCH_trace.json`.
//!
//! ## Stage clock
//!
//! Every span guard — recording or not — also ticks its thread's
//! [`StageClock`]: self seconds per [`Stage`], by the exclusive-time rule the
//! trace rollup replays ([`clock`]). `lrtddft::StageTimings` is a difference
//! of two readings of it.
//!
//! ## Overhead budget
//!
//! Recording is **disabled by default**. The counter adders and [`instant`]
//! start with a single relaxed atomic load and return immediately when
//! tracing is off — hot kernels (the packed GEMM microkernel path) pay ~1 ns
//! per call; a disabled [`span()`] additionally pays its two clock reads and
//! a thread-local push/pop for the stage clock. When enabled, events go to a thread-local buffer (no locks); the buffer
//! drains into the global registry only when the thread's span stack returns
//! to depth zero, so lock traffic is one mutex acquisition per *top-level*
//! span, not per event.
//!
//! ## Ranks and lanes
//!
//! The simulated MPI runtime (`parcomm`) runs each rank on its own OS
//! thread; [`set_rank`] tags the calling thread's stream (lane label
//! `"rank N"`). Threads that never call it — the main thread, Rayon
//! workers, the serving scheduler's threads — still record under rank 0 but
//! each gets its own trace lane, named via [`set_thread_label`] or the OS
//! thread name, so worker activity no longer pollutes the rank-0 timeline.
//!
//! ## Panic safety
//!
//! A [`Span`] dropped during unwinding still closes with its correct
//! duration and is marked `aborted`, so traces exported from failed runs
//! remain well-formed (every `B` has a matching `E`).

pub mod chrome;
pub mod clock;
pub mod counters;
pub mod span;
pub mod trace;

pub use clock::StageClock;
pub use counters::{
    add_bytes_moved, add_flops, add_fft_calls, add_fft_plan_hit, add_fft_plan_miss,
    record_gemm_shape, record_kernel_dispatch, CounterSnapshot,
};
pub use span::{
    flush_thread, instant, set_rank, set_thread_label, span, thread_rank, Event, EventKind, Span,
};
pub use trace::{take_trace, RankTrace, Trace};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Is recording on? One relaxed atomic load — the only cost every
/// instrumentation site pays when tracing is disabled.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on (idempotent). Pins the session epoch on first use so
/// all timestamps share one monotonic origin.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn recording off. Spans already open still close correctly (their
/// guards stay live); new spans become no-ops.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// The session epoch all timestamps are measured from.
pub(crate) fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the session epoch.
#[inline]
pub(crate) fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Pipeline stage a span rolls up into — mirrors the eight fields of
/// `lrtddft::StageTimings` (paper Fig. 8 breakdown) plus a catch-all.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Weighted K-Means interpolation-point selection.
    Kmeans,
    /// QRCP interpolation-point selection.
    Qrcp,
    /// Face-splitting product construction.
    FaceSplit,
    /// ISDF interpolation-vector (Θ) solve.
    Theta,
    /// FFT work (f_Hxc kernel applications).
    Fft,
    /// Dense contractions building V_Hxc / Ṽ_Hxc / H.
    Gemm,
    /// Communication — collectives in the simulated MPI runtime.
    Mpi,
    /// Diagonalization (SYEV or LOBPCG).
    Diag,
    /// Anything else (SCF, setup, reporting…). Not part of `StageTimings`.
    Other,
}

impl Stage {
    /// Every stage, in `StageTimings` field order (`Other` last).
    pub const ALL: [Stage; 9] = [
        Stage::Kmeans,
        Stage::Qrcp,
        Stage::FaceSplit,
        Stage::Theta,
        Stage::Fft,
        Stage::Gemm,
        Stage::Mpi,
        Stage::Diag,
        Stage::Other,
    ];

    /// Stable label used as the Chrome-trace `cat` and in JSON reports.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Kmeans => "kmeans",
            Stage::Qrcp => "qrcp",
            Stage::FaceSplit => "face_split",
            Stage::Theta => "theta",
            Stage::Fft => "fft",
            Stage::Gemm => "gemm",
            Stage::Mpi => "mpi",
            Stage::Diag => "diag",
            Stage::Other => "other",
        }
    }

    /// Index into [`Stage::ALL`]-ordered arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Stage::Kmeans => 0,
            Stage::Qrcp => 1,
            Stage::FaceSplit => 2,
            Stage::Theta => 3,
            Stage::Fft => 4,
            Stage::Gemm => 5,
            Stage::Mpi => 6,
            Stage::Diag => 7,
            Stage::Other => 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_index_roundtrips() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn labels_unique() {
        let mut seen = std::collections::HashSet::new();
        for s in Stage::ALL {
            assert!(seen.insert(s.label()), "duplicate label {}", s.label());
        }
    }

    #[test]
    fn disabled_span_is_noop() {
        let _g = crate::span::testutil::exclusive(); // leaves tracing disabled
        assert!(!enabled());
        let s = span(Stage::Other, "noop-check");
        assert!(!s.is_recording());
        drop(s);
        assert!(take_trace().ranks.is_empty());
    }
}
