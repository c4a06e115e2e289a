//! The packed GEMM engine packs one panel at a time. What it allocates
//! beyond its inputs and output is one `KC`-row slice of `op(B)` plus one
//! `MC × KC` block of `op(A)` per part, so it stays a few MiB and does not
//! grow with the shared dimension or the row count. Its own test binary:
//! the counting allocator below sees every allocation of the process.

use mathkit::gemm::symm_tn;
use mathkit::{gemm, Mat, Transpose};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    PEAK.fetch_max(LIVE.fetch_add(bytes, Relaxed) + bytes, Relaxed);
}

// SAFETY: every call is forwarded to `System` unchanged; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        match new_size.checked_sub(layout.size()) {
            Some(more) => grow(more),
            None => {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The engine's scratch may hold this much: a `KC × 720` slice of `op(B)`
/// is 2.8 MiB and each part's `op(A)` block 0.5 MiB.
const BOUND: usize = 4 << 20;

/// Peak bytes live during `run` above those live when it starts, less
/// `output` bytes that `run` returns. It runs on a fresh thread whose pool
/// has `threads` threads, so the thread's pack scratch starts empty and is
/// counted.
fn extra_peak(threads: usize, output: usize, run: impl FnOnce() -> Mat + Send) -> usize {
    std::thread::scope(|s| {
        s.spawn(|| {
            rayon::ThreadPool::new(threads).install(|| {
                let before = LIVE.load(Relaxed);
                PEAK.store(before, Relaxed);
                let out = run();
                let peak = PEAK.load(Relaxed);
                drop(out);
                peak - before - output
            })
        })
        .join()
        .expect("product panicked")
    })
}

fn filled(rows: usize, cols: usize) -> Mat {
    Mat::from_fn(rows, cols, |i, j| ((i * 7 + j * 13) % 29) as f64 * 0.01 - 0.14)
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

#[test]
fn pack_scratch_is_bounded_by_the_panels_not_by_k_or_m() {
    let n = 720;
    for threads in [1, 2] {
        // Symmetric product: 720 × 720 output, k = 8000 and then 16000.
        let symm: Vec<usize> = [8000, 16000]
            .iter()
            .map(|&k| {
                let w = filled(k, n);
                extra_peak(threads, n * n * 8, || symm_tn(1.0, &w, &w, 0..n))
            })
            .collect();
        // General product: m = 8000 and then 16000 rows, n = k = 720.
        let dense: Vec<usize> = [8000, 16000]
            .iter()
            .map(|&m| {
                let (a, b) = (filled(m, n), filled(n, n));
                let c = Mat::zeros(m, n);
                extra_peak(threads, 0, move || {
                    let mut c = c;
                    gemm(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c);
                    c
                })
            })
            .collect();
        for (what, [base, doubled]) in [("symm_tn", [symm[0], symm[1]]), ("gemm", [dense[0], dense[1]])] {
            assert!(
                base <= BOUND,
                "{what} at {threads} threads: {:.2} MiB of scratch, bound {:.2}",
                mib(base),
                mib(BOUND)
            );
            assert!(
                doubled <= base,
                "{what} at {threads} threads: {:.2} MiB grew to {:.2} MiB when its {} doubled",
                mib(base),
                mib(doubled),
                if what == "gemm" { "row count" } else { "shared dimension" }
            );
        }
    }
}
