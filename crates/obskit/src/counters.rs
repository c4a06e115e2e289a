//! Typed global counters: flops, bytes moved by collectives, FFT calls, and
//! a log₂-bucketed GEMM shape histogram.
//!
//! All adders are gated on [`crate::enabled`]: disabled cost is one relaxed
//! atomic load. Enabled cost is a `fetch_add` (plus, for the shape
//! histogram, one short mutex acquisition per GEMM call — GEMM calls are
//! milliseconds-scale, the lock is nanoseconds).

use crate::enabled;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

static FLOPS: AtomicU64 = AtomicU64::new(0);
static BYTES_MOVED: AtomicU64 = AtomicU64::new(0);
static FFT_CALLS: AtomicU64 = AtomicU64::new(0);
static FFT_PLAN_HITS: AtomicU64 = AtomicU64::new(0);
static FFT_PLAN_MISSES: AtomicU64 = AtomicU64::new(0);
static GEMM_SHAPES: Mutex<Option<HashMap<[u8; 3], u64>>> = Mutex::new(None);
static KERNEL_DISPATCH: Mutex<Option<HashMap<&'static str, u64>>> = Mutex::new(None);

/// Count floating-point work (e.g. `2·m·n·k` per GEMM).
#[inline]
pub fn add_flops(n: u64) {
    if enabled() {
        FLOPS.fetch_add(n, Ordering::Relaxed);
    }
}

/// Count bytes contributed to collectives.
#[inline]
pub fn add_bytes_moved(n: u64) {
    if enabled() {
        BYTES_MOVED.fetch_add(n, Ordering::Relaxed);
    }
}

/// Count 3-D FFT invocations.
#[inline]
pub fn add_fft_calls(n: u64) {
    if enabled() {
        FFT_CALLS.fetch_add(n, Ordering::Relaxed);
    }
}

/// Count a 1-D FFT plan-cache lookup that found an existing plan. Concurrent
/// same-shape solves share one process-wide plan table; this counter is how
/// tests and the serving report prove the sharing actually happens.
#[inline]
pub fn add_fft_plan_hit() {
    if enabled() {
        FFT_PLAN_HITS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Count a 1-D FFT plan-cache lookup that had to build a new plan (first
/// toucher of a length).
#[inline]
pub fn add_fft_plan_miss() {
    if enabled() {
        FFT_PLAN_MISSES.fetch_add(1, Ordering::Relaxed);
    }
}

/// ⌈log₂ v⌉ — a bucket's upper bound is `2^b ≥ v`, exact powers of two land
/// on their own boundary.
#[inline]
fn log2_bucket(v: usize) -> u8 {
    v.max(1).next_power_of_two().trailing_zeros() as u8
}

/// Record one GEMM call of output `m × n` over shared dimension `k` in the
/// shape histogram (dimensions bucketed by ⌈log₂⌉) and add its `2·m·n·k`
/// flops.
#[inline]
pub fn record_gemm_shape(m: usize, n: usize, k: usize) {
    if !enabled() {
        return;
    }
    FLOPS.fetch_add(2 * (m as u64) * (n as u64) * (k as u64), Ordering::Relaxed);
    let key = [log2_bucket(m), log2_bucket(n), log2_bucket(k)];
    let mut g = GEMM_SHAPES.lock().unwrap_or_else(|p| p.into_inner());
    *g.get_or_insert_with(HashMap::new).entry(key).or_insert(0) += 1;
}

/// Record which compute-kernel path a dense-kernel call dispatched to
/// (e.g. `"gemm.blocked.8x8"`, `"gemm.skinny_packed"`). Labels
/// must be static — the set of routes is finite and known at compile time.
#[inline]
pub fn record_kernel_dispatch(label: &'static str) {
    if !enabled() {
        return;
    }
    let mut g = KERNEL_DISPATCH.lock().unwrap_or_else(|p| p.into_inner());
    *g.get_or_insert_with(HashMap::new).entry(label).or_insert(0) += 1;
}

/// One GEMM histogram bucket: `m`, `n`, `k` upper bounds (`2^b`) and the
/// number of calls that landed in it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GemmBucket {
    pub m_max: u64,
    pub n_max: u64,
    pub k_max: u64,
    pub calls: u64,
}

/// Point-in-time snapshot of every counter.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CounterSnapshot {
    pub flops: u64,
    pub bytes_moved: u64,
    pub fft_calls: u64,
    /// 1-D FFT plan-cache lookups that reused an existing plan.
    pub fft_plan_hits: u64,
    /// 1-D FFT plan-cache lookups that built a new plan.
    pub fft_plan_misses: u64,
    /// GEMM shape histogram, sorted by descending call count.
    pub gemm_shapes: Vec<GemmBucket>,
    /// Kernel dispatch decisions `(label, calls)`, sorted by descending call
    /// count then label (e.g. which GEMM route ran).
    pub kernel_dispatch: Vec<(String, u64)>,
}

/// Snapshot and reset all counters (called by [`crate::take_trace`]).
pub(crate) fn take_counters() -> CounterSnapshot {
    let mut shapes: Vec<GemmBucket> = {
        let mut g = GEMM_SHAPES.lock().unwrap_or_else(|p| p.into_inner());
        g.take()
            .unwrap_or_default()
            .into_iter()
            .map(|([m, n, k], calls)| GemmBucket {
                m_max: 1u64 << m,
                n_max: 1u64 << n,
                k_max: 1u64 << k,
                calls,
            })
            .collect()
    };
    shapes.sort_by(|a, b| b.calls.cmp(&a.calls).then(a.m_max.cmp(&b.m_max)));
    let mut dispatch: Vec<(String, u64)> = {
        let mut g = KERNEL_DISPATCH.lock().unwrap_or_else(|p| p.into_inner());
        g.take().unwrap_or_default().into_iter().map(|(l, c)| (l.to_string(), c)).collect()
    };
    dispatch.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    CounterSnapshot {
        flops: FLOPS.swap(0, Ordering::Relaxed),
        bytes_moved: BYTES_MOVED.swap(0, Ordering::Relaxed),
        fft_calls: FFT_CALLS.swap(0, Ordering::Relaxed),
        fft_plan_hits: FFT_PLAN_HITS.swap(0, Ordering::Relaxed),
        fft_plan_misses: FFT_PLAN_MISSES.swap(0, Ordering::Relaxed),
        gemm_shapes: shapes,
        kernel_dispatch: dispatch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::testutil;
    use crate::{disable, enable};

    #[test]
    fn disabled_adders_do_nothing() {
        let _g = testutil::exclusive();
        add_flops(100);
        add_bytes_moved(100);
        add_fft_calls(1);
        record_gemm_shape(8, 8, 8);
        record_kernel_dispatch("gemm.small");
        let snap = take_counters();
        assert_eq!(snap, CounterSnapshot::default());
    }

    #[test]
    fn kernel_dispatch_histogram_accumulates() {
        let _g = testutil::exclusive();
        enable();
        record_kernel_dispatch("gemm.blocked.8x8");
        record_kernel_dispatch("gemm.blocked.8x8");
        record_kernel_dispatch("gemm.small");
        disable();
        let snap = take_counters();
        assert_eq!(
            snap.kernel_dispatch,
            vec![("gemm.blocked.8x8".to_string(), 2), ("gemm.small".to_string(), 1)]
        );
        assert_eq!(take_counters().kernel_dispatch, Vec::new());
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let _g = testutil::exclusive();
        enable();
        add_flops(10);
        add_flops(5);
        add_bytes_moved(800);
        add_fft_calls(3);
        record_gemm_shape(128, 128, 4096); // + 2*128*128*4096 flops
        record_gemm_shape(100, 100, 4000); // same log2 buckets
        record_gemm_shape(8, 4, 16);
        disable();
        let snap = take_counters();
        assert_eq!(snap.flops, 15 + 2 * 128 * 128 * 4096 + 2 * 100 * 100 * 4000 + 2 * 8 * 4 * 16);
        assert_eq!(snap.bytes_moved, 800);
        assert_eq!(snap.fft_calls, 3);
        assert_eq!(snap.gemm_shapes.len(), 2);
        assert_eq!(snap.gemm_shapes[0].calls, 2); // the two big ones share a bucket
        assert_eq!(snap.gemm_shapes[0].m_max, 128);
        // Second take is empty — counters reset.
        assert_eq!(take_counters(), CounterSnapshot::default());
    }

    #[test]
    fn fft_plan_counters_accumulate_and_reset() {
        let _g = testutil::exclusive();
        enable();
        add_fft_plan_miss();
        add_fft_plan_hit();
        add_fft_plan_hit();
        disable();
        let snap = take_counters();
        assert_eq!(snap.fft_plan_hits, 2);
        assert_eq!(snap.fft_plan_misses, 1);
        assert_eq!(take_counters().fft_plan_hits, 0);
    }

    #[test]
    fn log2_buckets_are_ceilings() {
        assert_eq!(log2_bucket(1), 0);
        assert_eq!(log2_bucket(2), 1);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 2);
        assert_eq!(log2_bucket(1024), 10);
    }
}
