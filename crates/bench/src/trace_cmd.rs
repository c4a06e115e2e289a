//! `repro trace` / `repro trace-report` — capture and inspect span traces.
//!
//! `repro trace --version <label> [--ranks N] [--trace out.json]` runs the
//! requested solver version on the simulated MPI runtime with `obskit`
//! recording enabled, then
//!
//! * writes the Chrome Trace Event Format JSON to `--trace` (one lane per
//!   rank — load it in `chrome://tracing` or Perfetto),
//! * writes a machine-readable `BENCH_trace.json` (per-rank stage seconds,
//!   counters, per-collective byte breakdown) next to it,
//! * prints the hierarchical span summary tree and the per-collective
//!   communication breakdown.
//!
//! `repro trace-report <path> [--check]` re-parses an exported trace and
//! prints its schema summary; with `--check` a malformed file exits
//! non-zero (used by CI).

use crate::report::{json, print_table};
use lrtddft::{silicon_like_problem, Solver, StageTimings, Version};
use parcomm::{spmd, CommStats};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Options for a `repro trace` run.
pub struct TraceOptions {
    pub version: Version,
    pub ranks: usize,
    pub trace_path: PathBuf,
    pub quick: bool,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions {
            version: Version::ImplicitKmeansIsdfLobpcg,
            ranks: 4,
            trace_path: PathBuf::from("trace.json"),
            quick: false,
        }
    }
}

/// Parse a `--version` label: the Table 4 names, case-insensitive.
pub fn parse_version(label: &str) -> Option<Version> {
    let want = label.to_ascii_lowercase();
    Version::all().into_iter().find(|v| v.label().to_ascii_lowercase() == want)
}

/// Run one traced solve and emit every artifact. Returns an error string on
/// failure (no panics across the CLI boundary).
pub fn run_trace(opts: &TraceOptions) -> Result<(), String> {
    let version = opts.version;
    let problem = if opts.quick {
        silicon_like_problem(1, 10, 3)
    } else {
        silicon_like_problem(1, 12, 4)
    };
    let solver =
        Solver::builder().version(version).n_states(4.min(problem.n_cv())).seed(0xcafe).build();

    println!(
        "== trace: {} on {} ranks (N_r={}, N_cv={}, N_mu={}) ==",
        version.label(),
        opts.ranks,
        problem.n_r(),
        problem.n_cv(),
        solver.n_mu(&problem)
    );

    obskit::enable();
    let per_rank: Vec<CommStats> = spmd(opts.ranks, |c| {
        solver.solve_distributed(c, &problem);
        c.stats()
    });
    obskit::disable();
    let trace = obskit::take_trace();
    trace.validate().map_err(|e| format!("trace failed nesting validation: {e}"))?;

    // Chrome export + schema self-check.
    let chrome = obskit::chrome::chrome_trace_json(&trace);
    let stats = obskit::chrome::validate_chrome_trace(&chrome)
        .map_err(|e| format!("exported chrome trace invalid: {e}"))?;
    std::fs::write(&opts.trace_path, &chrome)
        .map_err(|e| format!("write {}: {e}", opts.trace_path.display()))?;
    println!(
        "chrome trace: {} ({} lanes, {} spans, {} instants) -> {}",
        human_bytes(chrome.len() as u64),
        stats.lanes,
        stats.spans,
        stats.instants,
        opts.trace_path.display()
    );

    // Machine-readable companion record.
    let bench_path = opts
        .trace_path
        .parent()
        .unwrap_or(Path::new("."))
        .join("BENCH_trace.json");
    std::fs::write(&bench_path, bench_trace_json(version, opts.ranks, &trace, &per_rank))
        .map_err(|e| format!("write {}: {e}", bench_path.display()))?;
    println!("machine-readable record -> {}", bench_path.display());

    // Human-readable rollups.
    println!("\n{}", trace.summary_tree());
    print_comm_breakdown(&per_rank);
    print_counters(&trace);
    Ok(())
}

/// Per-collective communication table (satellite of paper Fig. 8's MPI bar).
pub fn print_comm_breakdown(per_rank: &[CommStats]) {
    println!("== per-collective communication breakdown ==");
    let headers = ["op", "calls", "bytes", "seconds"];
    let mut totals: Vec<(&'static str, u64, u64, f64)> = Vec::new();
    for stats in per_rank {
        for (i, (name, op)) in stats.per_op().into_iter().enumerate() {
            if totals.len() <= i {
                totals.push((name, 0, 0, 0.0));
            }
            totals[i].1 += op.calls;
            totals[i].2 += op.bytes;
            totals[i].3 += op.seconds;
        }
    }
    let rows: Vec<Vec<String>> = totals
        .iter()
        .filter(|(_, calls, _, _)| *calls > 0)
        .map(|(name, calls, bytes, secs)| {
            vec![
                (*name).to_string(),
                calls.to_string(),
                human_bytes(*bytes),
                format!("{secs:.6}"),
            ]
        })
        .collect();
    print_table(&headers, &rows);
}

fn print_counters(trace: &obskit::Trace) {
    let c = &trace.counters;
    println!(
        "counters: {:.3} Gflop, {} moved by collectives, {} FFT calls",
        c.flops as f64 / 1e9,
        human_bytes(c.bytes_moved),
        c.fft_calls
    );
    if !c.gemm_shapes.is_empty() {
        let headers = ["m <=", "n <=", "k <=", "calls"];
        let rows: Vec<Vec<String>> = c
            .gemm_shapes
            .iter()
            .take(12)
            .map(|b| {
                vec![
                    b.m_max.to_string(),
                    b.n_max.to_string(),
                    b.k_max.to_string(),
                    b.calls.to_string(),
                ]
            })
            .collect();
        println!("== GEMM shape histogram (log2 buckets, top {}) ==", rows.len());
        print_table(&headers, &rows);
    }
    if !c.kernel_dispatch.is_empty() {
        let headers = ["kernel path", "calls"];
        let rows: Vec<Vec<String>> = c
            .kernel_dispatch
            .iter()
            .take(12)
            .map(|(label, calls)| vec![label.clone(), calls.to_string()])
            .collect();
        println!("== kernel dispatch (top {}) ==", rows.len());
        print_table(&headers, &rows);
    }
}

/// `BENCH_trace.json`: flat machine-readable rollup of one traced run.
fn bench_trace_json(
    version: Version,
    ranks: usize,
    trace: &obskit::Trace,
    per_rank: &[CommStats],
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"version\": {},", json::string(version.label()));
    let _ = writeln!(out, "  \"ranks\": {ranks},");
    let _ = writeln!(out, "  \"flops\": {},", trace.counters.flops);
    let _ = writeln!(out, "  \"bytes_moved\": {},", trace.counters.bytes_moved);
    let _ = writeln!(out, "  \"fft_calls\": {},", trace.counters.fft_calls);
    let disp: Vec<String> = trace
        .counters
        .kernel_dispatch
        .iter()
        .map(|(label, calls)| format!("{}: {calls}", json::string(label)))
        .collect();
    let _ = writeln!(out, "  \"kernel_dispatch\": {{{}}},", disp.join(", "));
    out.push_str("  \"stage_seconds_by_rank\": [\n");
    for rank in 0..per_rank.len() {
        let derived = StageTimings::from_trace(trace, rank);
        let fields: Vec<String> = derived
            .stages()
            .iter()
            .map(|(name, s)| format!("{}: {}", json::string(name), json::number(*s)))
            .collect();
        let _ = write!(out, "    {{{}}}", fields.join(", "));
        out.push_str(if rank + 1 < per_rank.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"comm_by_op\": [\n");
    for (rank, stats) in per_rank.iter().enumerate() {
        let ops: Vec<String> = stats
            .per_op()
            .into_iter()
            .map(|(name, op)| {
                format!(
                    "{}: {{\"calls\": {}, \"bytes\": {}, \"seconds\": {}}}",
                    json::string(name),
                    op.calls,
                    op.bytes,
                    json::number(op.seconds)
                )
            })
            .collect();
        let _ = write!(out, "    {{{}}}", ops.join(", "));
        out.push_str(if rank + 1 < per_rank.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// `repro trace-report <path> [--check]`.
pub fn run_trace_report(path: &Path, check: bool) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    match obskit::chrome::validate_chrome_trace(&text) {
        Ok(stats) => {
            println!(
                "{}: valid chrome trace — {} lanes, {} spans, {} instants",
                path.display(),
                stats.lanes,
                stats.spans,
                stats.instants
            );
            if !stats.categories.is_empty() {
                println!("categories: {}", stats.categories.join(", "));
            }
            Ok(())
        }
        Err(e) => {
            if check {
                Err(format!("{}: INVALID — {e}", path.display()))
            } else {
                println!("{}: INVALID — {e}", path.display());
                Ok(())
            }
        }
    }
}

fn human_bytes(b: u64) -> String {
    if b >= 1_000_000_000 {
        format!("{:.2} GB", b as f64 / 1e9)
    } else if b >= 1_000_000 {
        format!("{:.2} MB", b as f64 / 1e6)
    } else if b >= 1_000 {
        format!("{:.2} kB", b as f64 / 1e3)
    } else {
        format!("{b} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_labels_parse_case_insensitively() {
        assert_eq!(
            parse_version("implicit-kmeans-isdf-lobpcg"),
            Some(Version::ImplicitKmeansIsdfLobpcg)
        );
        assert_eq!(parse_version("NAIVE"), Some(Version::Naive));
        assert_eq!(parse_version("Kmeans-ISDF"), Some(Version::KmeansIsdf));
        assert_eq!(parse_version("nope"), None);
    }

    #[test]
    fn human_bytes_scales() {
        assert_eq!(human_bytes(17), "17 B");
        assert_eq!(human_bytes(2_500), "2.50 kB");
        assert_eq!(human_bytes(3_000_000), "3.00 MB");
    }
}
