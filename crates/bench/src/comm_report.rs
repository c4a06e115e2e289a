//! `repro comm-report` — the pipelined GEMM+Reduce schedule against the
//! blocking one, and the fused solve against the unfused one, written to
//! `BENCH_comm.json`.
//!
//! 1. **Blocking vs. pipelined wall time** on the Fig.-5 `V_Hxc` contraction
//!    shape (`B = diag(k)·A`, distinct factors whose product is symmetric by
//!    construction, as `P_vcᵀ(f_Hxc P_vc)` is):
//!    `gram_allreduce` (monolithic symmetric product + `Allreduce`) against
//!    `gram_pipelined_reduce` (column chunks, each chunk's `ireduce` settled
//!    after the next chunk is computed), per rank count. Reported, not gated:
//!    ranks are threads on this host's cores, so the pipeline buys the
//!    paper's `1/P` memory bound, not hidden communication time.
//! 2. **Bitwise agreement** — every column chunk of the pipelined result
//!    must equal the blocking result bit-for-bit, and `iallreduce` must
//!    equal the blocking `allreduce` bit-for-bit (`--check` gates on both).
//! 3. **Fused vs. unfused solve** — a small ISDF solve (one Si cell on a
//!    10³ grid, 3 conduction bands) run twice at 4 ranks, once with the
//!    deferred-reduction scheduler fusing collectives and once forced
//!    unfused. `--check` gates on: eigenvalues bitwise identical, and the
//!    fused schedule issuing ≤ 60% of the unfused α-dominated (≤ 32 KiB)
//!    collective calls.

use crate::report::json;
use lrtddft::pipeline::{gram_allreduce, gram_pipelined_reduce};
use lrtddft::{silicon_like_problem, IsdfRank, Solver};
use mathkit::Mat;
use parcomm::layout::block_ranges;
use parcomm::{spmd, CommStats};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Rank counts benchmarked.
const RANK_COUNTS: [usize; 2] = [2, 4];
/// `--check` gate: the fused solve must issue at most this fraction of the
/// unfused solve's α-dominated collective calls (≥ 40% reduction).
const ALPHA_CALL_RATIO_GATE: f64 = 0.6;

struct Shape {
    /// Global grid rows (`N_r` of the contraction).
    nr: usize,
    /// Output dimension (`N_cv`): the Gram result is `ncv × ncv`.
    ncv: usize,
    reps: usize,
}

fn shape(quick: bool) -> Shape {
    if quick {
        Shape { nr: 2048, ncv: 128, reps: 5 }
    } else {
        Shape { nr: 4096, ncv: 256, reps: 5 }
    }
}

/// Deterministic dense factors `A` and `B = diag(k)·A`: distinct, with
/// `AᵀB = Aᵀ diag(k) A` symmetric by construction.
fn global_ab(nr: usize, ncv: usize) -> (Mat, Mat) {
    let a = Mat::from_fn(nr, ncv, |i, j| ((i * 7 + j * 3) % 13) as f64 * 0.1 - 0.5);
    let b = Mat::from_fn(nr, ncv, |i, j| (((i * 5) % 17) as f64 * 0.1 - 0.7) * a[(i, j)]);
    (a, b)
}

struct CaseResult {
    ranks: usize,
    blocking_s: f64,
    pipelined_s: f64,
    bitwise_identical: bool,
    ireduce_calls: u64,
}

/// One rank count: time both schedules, then verify bitwise agreement and
/// count the pipelined schedule's `ireduce`s on one stats-isolated run.
fn bench_case(p: usize, sh: &Shape) -> CaseResult {
    let (a, b) = global_ab(sh.nr, sh.ncv);
    let reps = sh.reps;
    let per_rank = spmd(p, |c| {
        let rr = block_ranges(sh.nr, p)[c.rank()].clone();
        let al = a.row_block(rr.start, rr.end);
        let bl = b.row_block(rr.start, rr.end);

        // Warm-up: page in buffers.
        let mono = gram_allreduce(c, &al, &bl, 1.0, &mut []);
        let _ = gram_pipelined_reduce(c, &al, &bl, 1.0);

        c.barrier();
        let t0 = Instant::now();
        for _ in 0..reps {
            let _ = gram_allreduce(c, &al, &bl, 1.0, &mut []);
        }
        c.barrier();
        let blocking_s = t0.elapsed().as_secs_f64() / reps as f64;

        c.barrier();
        let t0 = Instant::now();
        for _ in 0..reps {
            let _ = gram_pipelined_reduce(c, &al, &bl, 1.0);
        }
        c.barrier();
        let pipelined_s = t0.elapsed().as_secs_f64() / reps as f64;

        c.reset_stats();
        let pipe = gram_pipelined_reduce(c, &al, &bl, 1.0).expect("pipelined reduce");
        let ireduce_calls = c.stats().ireduce.calls;
        let mut bitwise = true;
        for (jl, j) in pipe.col_range.clone().enumerate() {
            for i in 0..sh.ncv {
                if mono.local[(i, j)].to_bits() != pipe.local[(i, jl)].to_bits() {
                    bitwise = false;
                }
            }
        }
        (blocking_s, pipelined_s, bitwise, ireduce_calls)
    });
    CaseResult {
        ranks: p,
        // Barriers bracket the timed loops, so every rank reads ~the
        // critical path; take the max to be exact about it.
        blocking_s: per_rank.iter().map(|r| r.0).fold(0.0, f64::max),
        pipelined_s: per_rank.iter().map(|r| r.1).fold(0.0, f64::max),
        bitwise_identical: per_rank.iter().all(|r| r.2),
        ireduce_calls: per_rank.iter().map(|r| r.3).sum(),
    }
}

struct AlgResult {
    iallreduce_s: f64,
    iallreduce_matches_blocking_bitwise: bool,
}

/// `iallreduce` on an `ncv × ncv` buffer at 4 ranks: timed, and checked
/// bit-for-bit against the blocking path (same ascending fold order).
fn bench_algorithms(sh: &Shape) -> AlgResult {
    let n = sh.ncv * sh.ncv;
    let reps = sh.reps;
    let per_rank = spmd(4, |c| {
        let mine: Vec<f64> =
            (0..n).map(|i| ((i * 31 + c.rank() * 17) % 101) as f64 * 1e-2 - 0.5).collect();

        let nonblocking = c.iallreduce_sum(mine.clone()).wait();
        let mut blocking = mine.clone();
        c.allreduce_sum(&mut blocking);

        c.barrier();
        let t0 = Instant::now();
        for _ in 0..reps {
            let _ = c.iallreduce_sum(mine.clone()).wait();
        }
        c.barrier();
        let iallreduce_s = t0.elapsed().as_secs_f64() / reps as f64;

        let bitwise = nonblocking.iter().zip(&blocking).all(|(r, b)| r.to_bits() == b.to_bits());
        (iallreduce_s, bitwise)
    });
    AlgResult {
        iallreduce_s: per_rank.iter().map(|r| r.0).fold(0.0, f64::max),
        iallreduce_matches_blocking_bitwise: per_rank.iter().all(|r| r.1),
    }
}

// ---- fused vs. unfused solve -----------------------------------------------

/// One side (fused or forced-unfused) of the deferred-reduction comparison.
struct SolveSide {
    /// Replicated eigenvalues (identical across ranks; checked bitwise
    /// against the other side).
    eigenvalues: Vec<f64>,
    /// Total collectives issued across ranks (blocking + nonblocking).
    collective_calls: u64,
    /// Collectives with ≤ 32 KiB payload — the latency-dominated ones the
    /// scheduler exists to eliminate.
    alpha_calls: u64,
    fused_flushes: u64,
    fused_fields: u64,
}

/// Run the small Si ISDF solve at 4 ranks with fusion forced on or off.
fn solve_side(fused: bool) -> SolveSide {
    // The fusion switch is process-wide: put it back on the way out.
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            parcomm::set_fusion_enabled(self.0);
        }
    }
    let _restore = Restore(parcomm::fusion_enabled());
    parcomm::set_fusion_enabled(fused);
    let problem = silicon_like_problem(1, 10, 3);
    let n_mu = IsdfRank::default().resolve(problem.n_r(), problem.n_v(), problem.n_c());
    let k = 4.min(problem.n_cv());
    let per_rank = spmd(4, |c| {
        let solver = Solver::builder().rank(IsdfRank::Fixed(n_mu)).n_states(k).seed(0xcafe);
        let (vals, _t) = solver.solve_distributed(c, &problem);
        (vals, c.stats())
    });

    let eigenvalues = per_rank[0].0.clone();
    assert!(
        per_rank.iter().all(|(v, _)| v == &eigenvalues),
        "solve eigenvalues must be replicated across ranks"
    );
    let stats: Vec<CommStats> = per_rank.iter().map(|(_, s)| *s).collect();
    SolveSide {
        eigenvalues,
        collective_calls: stats.iter().map(|s| s.collective_calls).sum(),
        alpha_calls: stats.iter().map(|s| s.alpha_calls).sum(),
        fused_flushes: stats.iter().map(|s| s.fused_flushes).sum(),
        fused_fields: stats.iter().map(|s| s.fused_fields).sum(),
    }
}

pub fn run(out_dir: &Path, quick: bool, check: bool) -> std::io::Result<()> {
    let sh = shape(quick);
    println!(
        "comm-report: Fig.-5 contraction shape N_r={} N_cv={} ({} reps), ranks {:?}",
        sh.nr, sh.ncv, sh.reps, RANK_COUNTS
    );

    let cases: Vec<CaseResult> = RANK_COUNTS.iter().map(|&p| bench_case(p, &sh)).collect();

    let rows: Vec<Vec<String>> = cases
        .iter()
        .map(|c| {
            vec![
                c.ranks.to_string(),
                format!("{:.3}", c.blocking_s * 1e3),
                format!("{:.3}", c.pipelined_s * 1e3),
                format!("{:.2}x", c.blocking_s / c.pipelined_s),
                c.ireduce_calls.to_string(),
                if c.bitwise_identical { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    crate::report::print_table(
        &["ranks", "blocking (ms)", "pipelined (ms)", "speedup", "ireduce calls", "bitwise"],
        &rows,
    );

    let alg = bench_algorithms(&sh);
    println!(
        "iallreduce @4 ranks, {} words: {:.3} ms, iallreduce≡allreduce bitwise: {}",
        sh.ncv * sh.ncv,
        alg.iallreduce_s * 1e3,
        alg.iallreduce_matches_blocking_bitwise
    );

    // ---- fused vs. unfused solve ----------------------------------------
    println!("\nfused vs unfused solve (Si ISDF, 4 ranks):");
    let unfused = solve_side(false);
    let fused = solve_side(true);
    let values_bitwise = fused.eigenvalues.len() == unfused.eigenvalues.len()
        && fused
            .eigenvalues
            .iter()
            .zip(&unfused.eigenvalues)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    let alpha_ratio = fused.alpha_calls as f64 / unfused.alpha_calls.max(1) as f64;
    crate::report::print_table(
        &["metric", "unfused", "fused"],
        &[
            vec![
                "collective calls".into(),
                unfused.collective_calls.to_string(),
                fused.collective_calls.to_string(),
            ],
            vec![
                "α-dominated calls (≤32 KiB)".into(),
                unfused.alpha_calls.to_string(),
                format!("{} ({:.0}%)", fused.alpha_calls, alpha_ratio * 100.0),
            ],
            vec![
                "fused flushes / fields".into(),
                format!("{} / {}", unfused.fused_flushes, unfused.fused_fields),
                format!("{} / {}", fused.fused_flushes, fused.fused_fields),
            ],
        ],
    );
    println!(
        "eigenvalues fused ≡ unfused bitwise: {}",
        if values_bitwise { "yes" } else { "NO" }
    );
    // --- BENCH_comm.json --------------------------------------------------
    let case_entries: Vec<String> = cases
        .iter()
        .map(|c| {
            format!(
                "    {{\"ranks\": {}, \"blocking_s\": {}, \"pipelined_s\": {}, \"speedup\": {}, \
                 \"ireduce_calls\": {}, \"bitwise_identical\": {}}}",
                c.ranks,
                json::number(c.blocking_s),
                json::number(c.pipelined_s),
                json::number(c.blocking_s / c.pipelined_s),
                c.ireduce_calls,
                c.bitwise_identical
            )
        })
        .collect();
    let json_text = format!(
        "{{\n  \"benchmark\": \"comm-report\",\n  \"shape\": {{\"nr\": {}, \"ncv\": {}, \
         \"reps\": {}}},\n  \"cases\": [\n{}\n  ],\n  \
         \"algorithms\": {{\"iallreduce_s\": {}, \"iallreduce_matches_blocking_bitwise\": {}}},\n  \"fused_solve\": {{\n    \
         \"eigenvalues_bitwise\": {},\n    \"collective_calls_unfused\": {},\n    \
         \"collective_calls_fused\": {},\n    \"alpha_calls_unfused\": {},\n    \
         \"alpha_calls_fused\": {},\n    \"alpha_call_ratio\": {},\n    \
         \"fused_flushes\": {},\n    \"fused_fields\": {}\n  }}\n}}\n",
        sh.nr,
        sh.ncv,
        sh.reps,
        case_entries.join(",\n"),
        json::number(alg.iallreduce_s),
        alg.iallreduce_matches_blocking_bitwise,
        values_bitwise,
        unfused.collective_calls,
        fused.collective_calls,
        unfused.alpha_calls,
        fused.alpha_calls,
        json::number(alpha_ratio),
        fused.fused_flushes,
        fused.fused_fields,
    );
    std::fs::create_dir_all(out_dir)?;
    let path = out_dir.join("BENCH_comm.json");
    let mut f = std::fs::File::create(&path)?;
    f.write_all(json_text.as_bytes())?;
    println!("wrote {}", path.display());

    if check {
        let mut failures = Vec::new();
        if !cases.iter().all(|c| c.bitwise_identical) {
            failures.push("pipelined result not bitwise-identical to blocking".to_string());
        }
        if !alg.iallreduce_matches_blocking_bitwise {
            failures.push("iallreduce diverged from blocking allreduce".to_string());
        }
        if !values_bitwise {
            failures.push(
                "fused solve eigenvalues not bitwise-identical to unfused solve".to_string(),
            );
        }
        if alpha_ratio > ALPHA_CALL_RATIO_GATE {
            failures.push(format!(
                "fused solve still issues {:.0}% of the unfused α-dominated collective calls \
                 ({} vs {}, gate ≤ {:.0}%)",
                alpha_ratio * 100.0,
                fused.alpha_calls,
                unfused.alpha_calls,
                ALPHA_CALL_RATIO_GATE * 100.0
            ));
        }
        if failures.is_empty() {
            println!("comm-report --check: all gates passed");
        } else {
            for f in &failures {
                eprintln!("comm-report --check FAILED: {f}");
            }
            std::process::exit(1);
        }
    }
    Ok(())
}
