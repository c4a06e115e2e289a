//! `repro perf-report` — the performance-analytics sentinel.
//!
//! One command runs the instrumented 4-rank solve and turns six PRs of
//! raw telemetry into the numbers the paper argues with:
//!
//! 1. **Load imbalance** — per-stage max/mean/min seconds across ranks and
//!    the imbalance factor λ = max/mean ([`perfsight::stage_loads`]).
//! 2. **Critical path** — the exact compute/collective decomposition of the
//!    solve's wall clock, reporting which rank and stage bounds each
//!    segment ([`perfsight::critical_path`]).
//! 3. **α–β cost model** — least-squares latency/bandwidth fits per
//!    collective from `parcomm`'s measured `OpStats`, plus the
//!    strong-scaling comm-fraction extrapolation to 1024 ranks
//!    ([`perfsight::fit`]).
//! 4. **Roofline** — measured machine ceilings (timed GEMM peak, streaming
//!    triad bandwidth) and the traced GEMM/FFT stages placed against them
//!    ([`perfsight::place`]).
//! 5. **Flight recorder** — a fault is injected into LOBPCG, the recovery
//!    ladder fires the `faultkit` error hook, and the hook dumps
//!    `obskit`'s flight ring as a Chrome trace that is then re-validated.
//!
//! Everything lands in `BENCH_perf.json`; `--check` grades the run against
//! `perf_baselines.toml` (per-metric tolerances, TOML subset parsed by
//! [`perfsight::parse_toml`]) and cross-checks the *committed*
//! `BENCH_gemm/fft/fault.json` records, exiting non-zero on regression.

use crate::report::{json, print_table};
use lrtddft::{silicon_like_problem, IsdfRank, Solver, Version};
use mathkit::{gemm, Mat, Transpose};
use obskit::Stage;
use parcomm::{spmd, CommStats};
use perfsight::{
    check_metrics, critical_path, fit, parse_toml, place, stage_loads, CheckReport, CostModelFit,
    CriticalPath, Machine, SegmentKind, StageLoad,
};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// SPMD width of the instrumented solve (matches `repro trace`).
const RANKS: usize = 4;
/// `--check` gate: critical-path total vs measured wall clock.
const CRITICAL_PATH_REL_ERR_GATE: f64 = 0.05;
/// `--check` gate: worst per-collective α–β model relative error.
const COSTMODEL_REL_ERR_GATE: f64 = 0.15;

/// Everything measured by one sentinel pass, in emission order.
struct PerfRecord {
    profile: &'static str,
    wall_seconds: f64,
    cp: CriticalPath,
    cp_rel_err: f64,
    loads: Vec<StageLoad>,
    lambda_max: f64,
    model: CostModelFit,
    machine: Machine,
    roofline: Vec<perfsight::RooflineRow>,
    flight_events: usize,
    flight_aborted: usize,
    flight_valid: bool,
    flight_dump: PathBuf,
    fault_recovered: bool,
    disabled_span_ns: f64,
    /// Per-rank collective stats from the instrumented solve (message-size
    /// histograms + deferred-reduction fusion counters).
    comm: Vec<CommStats>,
}

/// Run the sentinel. `quick` shrinks the problem and the machine-ceiling
/// microbenchmarks; `check` grades against `perf_baselines.toml` and the
/// committed BENCH records and returns `Err` on any regression.
pub fn run(out: &Path, quick: bool, check: bool) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let profile = if quick { "quick" } else { "full" };
    let problem =
        if quick { silicon_like_problem(1, 10, 3) } else { silicon_like_problem(1, 12, 4) };
    let n_mu = IsdfRank::default().resolve(problem.n_r(), problem.n_v(), problem.n_c());
    let k = 4.min(problem.n_cv());
    println!(
        "== perf-report ({profile}): {} on {RANKS} ranks (N_r={}, N_cv={}, N_mu={}) ==",
        Version::ImplicitKmeansIsdfLobpcg.label(),
        problem.n_r(),
        problem.n_cv(),
        n_mu
    );

    // ---- 1. instrumented solve --------------------------------------------
    obskit::flight::clear();
    obskit::enable();
    let t0 = Instant::now();
    let comm: Vec<CommStats> = spmd(RANKS, |c| {
        let solver = Solver::builder().rank(IsdfRank::Fixed(n_mu)).n_states(k).seed(0xcafe);
        solver.solve_distributed(c, &problem);
        c.stats()
    });
    let wall_seconds = t0.elapsed().as_secs_f64();
    obskit::disable();
    let trace = obskit::take_trace();
    trace.validate().map_err(|e| format!("trace failed nesting validation: {e}"))?;

    // ---- 2. analytics ------------------------------------------------------
    let loads = stage_loads(&trace);
    let lambda_max = loads.iter().map(|l| l.imbalance).fold(0.0, f64::max);
    let cp = critical_path(&trace);
    // The decomposition telescopes to the trace's span of wall time; grade
    // it against the independently measured `Instant` wall clock.
    let cp_rel_err = (cp.total_seconds - wall_seconds).abs() / wall_seconds.max(1e-12);
    let model = fit(&comm);

    // ---- 3. roofline -------------------------------------------------------
    let machine = measure_machine(quick);
    let stage_total = trace.stage_seconds_total();
    let mut rows: Vec<(String, f64, f64, f64)> = Vec::new();
    let gemm_s = stage_total[Stage::Gemm.index()];
    if gemm_s > 0.0 {
        rows.push((
            "gemm (traced solve)".to_string(),
            trace.counters.flops as f64,
            gemm_bytes_estimate(&trace.counters.gemm_shapes),
            gemm_s,
        ));
    }
    let fft_s = stage_total[Stage::Fft.index()];
    if fft_s > 0.0 && trace.counters.fft_calls > 0 {
        let n = problem.n_r() as f64;
        let calls = trace.counters.fft_calls as f64;
        // Radix-2 flop model per transform plus one read+write of the
        // complex grid — crude, but stable across runs of the same problem.
        rows.push((
            "fft (traced solve)".to_string(),
            calls * 2.5 * n * n.log2(),
            calls * 2.0 * 16.0 * n,
            fft_s,
        ));
    }
    let roofline = place(&machine, &rows);

    // ---- 4. flight-recorder dump on an injected fault ----------------------
    let flight_dump = out.join("flight_trace.json");
    let (fault_recovered, dump_fires) = fault_and_dump(&problem, &flight_dump)?;
    let dump_text = std::fs::read_to_string(&flight_dump)
        .map_err(|e| format!("read {}: {e}", flight_dump.display()))?;
    let flight_valid = obskit::chrome::validate_chrome_trace(&dump_text).is_ok();
    let snap = obskit::flight::snapshot();
    let flight_events = snap.len();
    let flight_aborted =
        snap.iter().filter(|e| e.kind == obskit::flight::FlightKind::AbortedSpan).count();

    // ---- 5. disabled-instrumentation overhead ------------------------------
    let disabled_span_ns = measure_disabled_span_ns();

    let rec = PerfRecord {
        profile,
        wall_seconds,
        cp,
        cp_rel_err,
        loads,
        lambda_max,
        model,
        machine,
        roofline,
        flight_events,
        flight_aborted,
        flight_valid,
        flight_dump,
        fault_recovered,
        disabled_span_ns,
        comm,
    };
    print_record(&rec, dump_fires);

    let bench_path = out.join("BENCH_perf.json");
    std::fs::write(&bench_path, bench_perf_json(&rec))
        .map_err(|e| format!("write {}: {e}", bench_path.display()))?;
    println!("machine-readable record -> {}", bench_path.display());

    if check {
        run_checks(out, &rec)?;
    }
    Ok(())
}

/// Measure the machine ceilings for the roofline: peak GEMM flops from a
/// timed square multiply, peak bandwidth from a streaming triad.
fn measure_machine(quick: bool) -> Machine {
    let n = if quick { 320 } else { 384 };
    let a = Mat::from_fn(n, n, |i, j| ((i * 31 + j * 7) % 13) as f64 * 0.125 - 0.75);
    let b = Mat::from_fn(n, n, |i, j| ((i * 17 + j * 29) % 11) as f64 * 0.25 - 1.25);
    let mut c = Mat::zeros(n, n);
    let flops = 2.0 * (n * n * n) as f64;
    let mut peak_flops: f64 = 0.0;
    for _ in 0..6 {
        let t = Instant::now();
        gemm(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c);
        peak_flops = peak_flops.max(flops / t.elapsed().as_secs_f64().max(1e-12));
    }

    let len = if quick { 2 << 20 } else { 8 << 20 };
    let mut x = vec![0.0f64; len];
    let y: Vec<f64> = (0..len).map(|i| (i % 7) as f64).collect();
    let z: Vec<f64> = (0..len).map(|i| (i % 5) as f64 * 0.5).collect();
    let bytes = (3 * 8 * len) as f64;
    let mut peak_bw: f64 = 0.0;
    for _ in 0..4 {
        let t = Instant::now();
        for i in 0..len {
            x[i] = y[i] + 2.5 * z[i];
        }
        peak_bw = peak_bw.max(bytes / t.elapsed().as_secs_f64().max(1e-12));
    }
    // Keep the triad result observable so the loop cannot be elided.
    std::hint::black_box(&x);
    Machine { peak_flops, peak_bytes_per_s: peak_bw }
}

/// Estimate DRAM traffic of the traced GEMMs from the log2 shape histogram:
/// one read of A and B plus a read+write of C per call, at bucket maxima.
fn gemm_bytes_estimate(shapes: &[obskit::counters::GemmBucket]) -> f64 {
    shapes
        .iter()
        .map(|s| {
            let (m, n, k) = (s.m_max as f64, s.n_max as f64, s.k_max as f64);
            s.calls as f64 * 8.0 * (m * k + k * n + 2.0 * m * n)
        })
        .sum()
}

/// Arm a one-shot NaN poison of LOBPCG's workspace, register a solve-error
/// hook that dumps the flight ring, and run the serial solve. The ladder
/// recovers from the poison; the hook fires at the failed rung, so the dump
/// captures the ring exactly as it stood at the fault.
fn fault_and_dump(
    problem: &lrtddft::CasidaProblem,
    dump_path: &Path,
) -> Result<(bool, usize), String> {
    let fires = Arc::new(AtomicUsize::new(0));
    let hook_fires = Arc::clone(&fires);
    let hook_path = dump_path.to_path_buf();
    faultkit::set_solve_error_hook(move |_err| {
        hook_fires.fetch_add(1, Ordering::SeqCst);
        let _ = obskit::flight::dump_to(&hook_path);
    });
    let campaign = faultkit::arm(
        faultkit::FaultPlan::new(0x5eed).with("lobpcg.w", 0, faultkit::FaultKind::NanPoison),
    );
    let solved = Solver::builder()
        .version(Version::ImplicitKmeansIsdfLobpcg)
        .rank(IsdfRank::Fixed(problem.n_cv()))
        .n_states(3)
        .seed(7)
        .solve(problem);
    faultkit::clear_solve_error_hook();
    let fired = campaign.fired();
    drop(campaign);
    let recovered = match solved {
        Ok(s) => !s.recovery.is_empty(),
        Err(_) => false,
    };
    if fired == 0 {
        return Err("fault plan never fired — lobpcg.w hook site unreachable?".to_string());
    }
    if fires.load(Ordering::SeqCst) == 0 {
        return Err("solve-error hook never fired — flight dump was not exercised".to_string());
    }
    Ok((recovered, fires.load(Ordering::SeqCst)))
}

/// Per-event cost of a span when tracing is disabled but the flight ring is
/// on — the always-on path whose budget is <2% of any real kernel.
fn measure_disabled_span_ns() -> f64 {
    assert!(!obskit::enabled(), "overhead probe must run with tracing disabled");
    const ITERS: u32 = 200_000;
    let t = Instant::now();
    for i in 0..ITERS {
        let sp = obskit::span(Stage::Other, "perf.overhead-probe");
        std::hint::black_box(i);
        drop(sp);
    }
    t.elapsed().as_secs_f64() * 1e9 / ITERS as f64
}

fn print_record(rec: &PerfRecord, dump_fires: usize) {
    println!("\n== per-stage load imbalance (λ = max/mean across ranks) ==");
    let headers = ["stage", "max (s)", "mean (s)", "min (s)", "λ", "bottleneck rank"];
    let rows: Vec<Vec<String>> = rec
        .loads
        .iter()
        .map(|l| {
            vec![
                l.stage.label().to_string(),
                format!("{:.6}", l.max_s),
                format!("{:.6}", l.mean_s),
                format!("{:.6}", l.min_s),
                format!("{:.3}", l.imbalance),
                l.bottleneck_rank.to_string(),
            ]
        })
        .collect();
    print_table(&headers, &rows);

    println!("\n== critical path ==");
    println!(
        "total {:.6}s = compute {:.6}s + collectives {:.6}s (comm fraction {:.1}%, {} segments, {} matched collectives)",
        rec.cp.total_seconds,
        rec.cp.compute_seconds,
        rec.cp.comm_seconds,
        rec.cp.comm_fraction() * 100.0,
        rec.cp.segments.len(),
        rec.cp.matched_collectives,
    );
    if let Some(r) = rec.cp.bottleneck_rank {
        println!("bottleneck rank: {r}");
    }
    println!(
        "measured wall clock {:.6}s, rel err {:.3}% (gate {:.0}%)",
        rec.wall_seconds,
        rec.cp_rel_err * 100.0,
        CRITICAL_PATH_REL_ERR_GATE * 100.0
    );
    let mut by_stage: Vec<(String, f64)> = Vec::new();
    for seg in &rec.cp.segments {
        let key = match &seg.kind {
            SegmentKind::Compute { stage, .. } => format!("compute:{}", stage.label()),
            SegmentKind::Collective { name } => format!("mpi:{name}"),
        };
        match by_stage.iter_mut().find(|(k, _)| *k == key) {
            Some((_, s)) => *s += seg.seconds,
            None => by_stage.push((key, seg.seconds)),
        }
    }
    by_stage.sort_by(|a, b| b.1.total_cmp(&a.1));
    let headers = ["critical-path segment", "seconds", "share"];
    let rows: Vec<Vec<String>> = by_stage
        .iter()
        .take(10)
        .map(|(k, s)| {
            vec![
                k.clone(),
                format!("{s:.6}"),
                format!("{:.1}%", s / rec.cp.total_seconds.max(1e-12) * 100.0),
            ]
        })
        .collect();
    print_table(&headers, &rows);

    println!("\n== α–β cost model (least squares over per-rank OpStats) ==");
    let headers = ["op", "calls", "α (us)", "β⁻¹ (GB/s)", "measured (s)", "predicted (s)", "rel err"];
    let rows: Vec<Vec<String>> = rec
        .model
        .ops
        .iter()
        .map(|o| {
            vec![
                o.op.to_string(),
                o.calls.to_string(),
                format!("{:.3}", o.alpha * 1e6),
                if o.beta > 0.0 { format!("{:.2}", 1.0 / o.beta / 1e9) } else { "-".to_string() },
                format!("{:.6}", o.measured_s),
                format!("{:.6}", o.predicted_s),
                format!("{:.2}%", o.rel_err * 100.0),
            ]
        })
        .collect();
    print_table(&headers, &rows);
    println!(
        "global fit: α = {:.3} us, β⁻¹ = {:.2} GB/s, worst per-op rel err {:.2}% (gate {:.0}%)",
        rec.model.global_alpha * 1e6,
        if rec.model.global_beta > 0.0 { 1.0 / rec.model.global_beta / 1e9 } else { f64::NAN },
        rec.model.worst_rel_err * 100.0,
        COSTMODEL_REL_ERR_GATE * 100.0
    );

    println!("\n== per-op message sizes (calls per ⌈log₂ bytes⌉ bucket, all ranks) ==");
    let headers = ["op", "calls", "α-dominated", "histogram"];
    let rows: Vec<Vec<String>> = op_histograms(&rec.comm)
        .into_iter()
        .map(|h| {
            vec![h.op.to_string(), h.calls.to_string(), h.alpha_calls.to_string(), h.render()]
        })
        .collect();
    print_table(&headers, &rows);
    let fused = fused_totals(&rec.comm);
    println!(
        "deferred-reduction scheduler: {} fused flushes carrying {} fields \
         ({} collectives avoided); {} of {} collective calls α-dominated (≤ {} KiB)",
        fused.flushes,
        fused.fields,
        fused.fields.saturating_sub(fused.flushes),
        fused.alpha_calls,
        fused.collective_calls,
        parcomm::ALPHA_SMALL_BYTES / 1024,
    );

    let sweep = rec.model.scale_sweep(rec.cp.compute_seconds, 1024);
    if !sweep.is_empty() {
        println!("\n== extrapolated comm fraction (α–β model, fixed per-rank work) ==");
        let headers = ["ranks", "comm (s)", "compute (s)", "comm fraction"];
        let rows: Vec<Vec<String>> = sweep
            .iter()
            .map(|p| {
                vec![
                    p.ranks.to_string(),
                    format!("{:.6}", p.comm_s),
                    format!("{:.6}", p.compute_s),
                    format!("{:.1}%", p.comm_fraction * 100.0),
                ]
            })
            .collect();
        print_table(&headers, &rows);
    }

    println!("\n== roofline ==");
    println!(
        "machine: {:.2} GF/s peak, {:.2} GB/s peak, ridge {:.2} flop/byte",
        rec.machine.peak_flops / 1e9,
        rec.machine.peak_bytes_per_s / 1e9,
        rec.machine.ridge_intensity()
    );
    let headers = ["stage", "GF/s", "flop/byte", "attainable GF/s", "efficiency", "bound"];
    let rows: Vec<Vec<String>> = rec
        .roofline
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                format!("{:.2}", r.achieved_flops / 1e9),
                if r.intensity.is_finite() { format!("{:.2}", r.intensity) } else { "∞".into() },
                format!("{:.2}", r.attainable_flops / 1e9),
                format!("{:.1}%", r.efficiency * 100.0),
                r.bound.label().to_string(),
            ]
        })
        .collect();
    print_table(&headers, &rows);

    println!("\n== flight recorder ==");
    println!(
        "injected lobpcg.w NaN poison: recovered = {}, error hook fired {}x, dump -> {}",
        rec.fault_recovered,
        dump_fires,
        rec.flight_dump.display()
    );
    println!(
        "ring snapshot: {} events ({} aborted spans), dump chrome-valid = {}",
        rec.flight_events, rec.flight_aborted, rec.flight_valid
    );
    println!(
        "disabled-tracing span cost: {:.0} ns/event (flight ring on)",
        rec.disabled_span_ns
    );
}

/// One op's message-size distribution, summed across ranks.
struct OpHistogram {
    op: &'static str,
    calls: u64,
    /// Calls with ≤ 32 KiB payload (latency-dominated under the default
    /// α–β model — the ones collective fusion exists to eliminate).
    alpha_calls: u64,
    /// Nonempty `(upper-limit bytes, calls)` buckets, ascending.
    buckets: Vec<(u64, u64)>,
}

impl OpHistogram {
    fn render(&self) -> String {
        self.buckets
            .iter()
            .map(|&(limit, n)| format!("≤{}:{}", human_bytes(limit), n))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

fn human_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{}MiB", b >> 20)
    } else if b >= 1 << 10 {
        format!("{}KiB", b >> 10)
    } else {
        format!("{b}B")
    }
}

/// Per-op ⌈log₂ bytes⌉ histograms summed across ranks, ops with no calls
/// omitted. Bucket `b` holds payloads in `(2^(b−1), 2^b]`, so the α-dominated
/// tally (limit ≤ 32 KiB) matches `CommStats::alpha_calls` exactly.
fn op_histograms(stats: &[CommStats]) -> Vec<OpHistogram> {
    let Some(first) = stats.first() else { return Vec::new() };
    let names: Vec<&'static str> = first.per_op().iter().map(|&(n, _)| n).collect();
    let mut out = Vec::new();
    for (idx, op) in names.into_iter().enumerate() {
        let mut buckets = Vec::new();
        let (mut calls, mut alpha_calls) = (0u64, 0u64);
        for b in 0..parcomm::HIST_BUCKETS {
            let n: u64 = stats.iter().map(|s| s.hist.counts[idx][b]).sum();
            if n > 0 {
                let limit = parcomm::MsgHist::bucket_limit(b);
                calls += n;
                if limit <= parcomm::ALPHA_SMALL_BYTES {
                    alpha_calls += n;
                }
                buckets.push((limit, n));
            }
        }
        if calls > 0 {
            out.push(OpHistogram { op, calls, alpha_calls, buckets });
        }
    }
    out
}

struct FusedTotals {
    flushes: u64,
    fields: u64,
    alpha_calls: u64,
    collective_calls: u64,
}

fn fused_totals(stats: &[CommStats]) -> FusedTotals {
    FusedTotals {
        flushes: stats.iter().map(|s| s.fused_flushes).sum(),
        fields: stats.iter().map(|s| s.fused_fields).sum(),
        alpha_calls: stats.iter().map(|s| s.alpha_calls).sum(),
        collective_calls: stats.iter().map(|s| s.collective_calls).sum(),
    }
}

/// `BENCH_perf.json` — the machine-readable sentinel record.
fn bench_perf_json(rec: &PerfRecord) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"benchmark\": \"perf-report\",");
    let _ = writeln!(out, "  \"profile\": {},", json::string(rec.profile));
    let _ = writeln!(out, "  \"ranks\": {RANKS},");
    let _ = writeln!(out, "  \"wall_seconds\": {},", json::number(rec.wall_seconds));
    let _ = writeln!(out, "  \"critical_path\": {{");
    let _ = writeln!(out, "    \"total_seconds\": {},", json::number(rec.cp.total_seconds));
    let _ = writeln!(out, "    \"compute_seconds\": {},", json::number(rec.cp.compute_seconds));
    let _ = writeln!(out, "    \"comm_seconds\": {},", json::number(rec.cp.comm_seconds));
    let _ = writeln!(out, "    \"comm_fraction\": {},", json::number(rec.cp.comm_fraction()));
    let _ = writeln!(out, "    \"segments\": {},", rec.cp.segments.len());
    let _ = writeln!(out, "    \"matched_collectives\": {},", rec.cp.matched_collectives);
    let _ = writeln!(
        out,
        "    \"bottleneck_rank\": {},",
        rec.cp.bottleneck_rank.map_or("null".to_string(), |r| r.to_string())
    );
    let _ = writeln!(out, "    \"rel_err_vs_wall\": {}", json::number(rec.cp_rel_err));
    let _ = writeln!(out, "  }},");
    out.push_str("  \"stage_loads\": [\n");
    for (i, l) in rec.loads.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"stage\": {}, \"max_s\": {}, \"mean_s\": {}, \"min_s\": {}, \"imbalance\": {}, \"bottleneck_rank\": {}}}",
            json::string(l.stage.label()),
            json::number(l.max_s),
            json::number(l.mean_s),
            json::number(l.min_s),
            json::number(l.imbalance),
            l.bottleneck_rank
        );
        out.push_str(if i + 1 < rec.loads.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    let _ = writeln!(out, "  \"costmodel\": {{");
    let _ = writeln!(out, "    \"global_alpha_s\": {},", json::number(rec.model.global_alpha));
    let _ = writeln!(out, "    \"global_beta_s_per_byte\": {},", json::number(rec.model.global_beta));
    let _ = writeln!(out, "    \"total_measured_s\": {},", json::number(rec.model.total_measured_s));
    let _ = writeln!(out, "    \"total_predicted_s\": {},", json::number(rec.model.total_predicted_s));
    let _ = writeln!(out, "    \"worst_rel_err\": {},", json::number(rec.model.worst_rel_err));
    out.push_str("    \"ops\": [\n");
    for (i, o) in rec.model.ops.iter().enumerate() {
        let _ = write!(
            out,
            "      {{\"op\": {}, \"calls\": {}, \"bytes\": {}, \"measured_s\": {}, \"alpha_s\": {}, \"beta_s_per_byte\": {}, \"predicted_s\": {}, \"rel_err\": {}}}",
            json::string(o.op),
            o.calls,
            o.bytes,
            json::number(o.measured_s),
            json::number(o.alpha),
            json::number(o.beta),
            json::number(o.predicted_s),
            json::number(o.rel_err)
        );
        out.push_str(if i + 1 < rec.model.ops.len() { ",\n" } else { "\n" });
    }
    out.push_str("    ],\n    \"scale_sweep\": [\n");
    let sweep = rec.model.scale_sweep(rec.cp.compute_seconds, 1024);
    for (i, p) in sweep.iter().enumerate() {
        let _ = write!(
            out,
            "      {{\"ranks\": {}, \"comm_s\": {}, \"compute_s\": {}, \"comm_fraction\": {}}}",
            p.ranks,
            json::number(p.comm_s),
            json::number(p.compute_s),
            json::number(p.comm_fraction)
        );
        out.push_str(if i + 1 < sweep.len() { ",\n" } else { "\n" });
    }
    out.push_str("    ]\n  },\n");
    out.push_str("  \"msg_histogram\": [\n");
    let hists = op_histograms(&rec.comm);
    for (i, h) in hists.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"op\": {}, \"calls\": {}, \"alpha_calls\": {}, \"buckets\": [",
            json::string(h.op),
            h.calls,
            h.alpha_calls
        );
        for (j, &(limit, n)) in h.buckets.iter().enumerate() {
            let _ = write!(out, "{{\"limit_bytes\": {limit}, \"calls\": {n}}}");
            if j + 1 < h.buckets.len() {
                out.push_str(", ");
            }
        }
        out.push_str("]}");
        out.push_str(if i + 1 < hists.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    let fused = fused_totals(&rec.comm);
    let _ = writeln!(
        out,
        "  \"fused\": {{\"flushes\": {}, \"fields\": {}, \"collectives_avoided\": {}, \"alpha_small_calls\": {}, \"collective_calls\": {}}},",
        fused.flushes,
        fused.fields,
        fused.fields.saturating_sub(fused.flushes),
        fused.alpha_calls,
        fused.collective_calls
    );
    let _ = writeln!(out, "  \"machine\": {{");
    let _ = writeln!(out, "    \"peak_flops\": {},", json::number(rec.machine.peak_flops));
    let _ = writeln!(out, "    \"peak_bytes_per_s\": {},", json::number(rec.machine.peak_bytes_per_s));
    let _ = writeln!(out, "    \"ridge_intensity\": {}", json::number(rec.machine.ridge_intensity()));
    let _ = writeln!(out, "  }},");
    out.push_str("  \"roofline\": [\n");
    for (i, r) in rec.roofline.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"stage\": {}, \"achieved_flops\": {}, \"intensity\": {}, \"attainable_flops\": {}, \"efficiency\": {}, \"bound\": {}}}",
            json::string(&r.label),
            json::number(r.achieved_flops),
            json::number(r.intensity),
            json::number(r.attainable_flops),
            json::number(r.efficiency),
            json::string(r.bound.label())
        );
        out.push_str(if i + 1 < rec.roofline.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    let _ = writeln!(out, "  \"flight\": {{");
    let _ = writeln!(out, "    \"events\": {},", rec.flight_events);
    let _ = writeln!(out, "    \"aborted_spans\": {},", rec.flight_aborted);
    let _ = writeln!(out, "    \"dump_valid\": {},", rec.flight_valid);
    let _ = writeln!(out, "    \"fault_recovered\": {},", rec.fault_recovered);
    let _ = writeln!(out, "    \"dump\": {}", json::string(&rec.flight_dump.display().to_string()));
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"disabled_span_ns\": {}", json::number(rec.disabled_span_ns));
    out.push_str("}\n");
    out
}

// ---- `--check`: baselines + committed-record cross-checks ------------------

/// Locate `perf_baselines.toml`: `$PERF_BASELINES`, then the out dir, then
/// the working directory.
fn baselines_path(out: &Path) -> Result<PathBuf, String> {
    if let Ok(p) = std::env::var("PERF_BASELINES") {
        return Ok(PathBuf::from(p));
    }
    for cand in [out.join("perf_baselines.toml"), PathBuf::from("perf_baselines.toml")] {
        if cand.is_file() {
            return Ok(cand);
        }
    }
    Err("perf_baselines.toml not found (searched --out and the working directory; \
         set PERF_BASELINES to override)"
        .to_string())
}

fn run_checks(out: &Path, rec: &PerfRecord) -> Result<(), String> {
    let path = baselines_path(out)?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = parse_toml(&text).map_err(|e| format!("{}: {e}", path.display()))?;

    let metrics: Vec<(&str, f64)> = vec![
        ("critical_path_rel_err", rec.cp_rel_err),
        ("costmodel_worst_rel_err", rec.model.worst_rel_err),
        ("comm_fraction", rec.cp.comm_fraction()),
        ("lambda_max", rec.lambda_max),
        ("flight_events", rec.flight_events as f64),
        ("flight_dump_valid", if rec.flight_valid { 1.0 } else { 0.0 }),
        ("fault_recovered", if rec.fault_recovered { 1.0 } else { 0.0 }),
        ("disabled_span_ns", rec.disabled_span_ns),
    ];
    let mut report = check_metrics(&doc, rec.profile, &metrics)?;

    // Cross-check the committed sibling records: these are deterministic
    // files, so their tolerances (profile `committed`) can be tight.
    let committed = committed_metrics(out);
    let cross = check_metrics(&doc, "committed", &committed)?;
    merge_reports(&mut report, cross);

    print_check_report(&path, &report);
    if report.ok() {
        Ok(())
    } else {
        Err(format!("{} perf metric(s) regressed", report.failures.len()))
    }
}

fn merge_reports(into: &mut CheckReport, from: CheckReport) {
    into.passed.extend(from.passed);
    into.failures.extend(from.failures);
    into.uncovered.extend(from.uncovered);
}

fn print_check_report(path: &Path, report: &CheckReport) {
    println!("\n== --check against {} ==", path.display());
    for (metric, measured) in &report.passed {
        println!("  PASS {metric} = {measured:.6}");
    }
    for metric in &report.uncovered {
        println!("  SKIP {metric} (no baseline section)");
    }
    for failure in &report.failures {
        println!("  FAIL {failure}");
    }
}

/// Extract cross-check metrics from the committed `BENCH_gemm/fft/fault`
/// records, if present next to `--out`. Missing files contribute nothing
/// (their metrics fall out as uncovered, which never fails CI).
fn committed_metrics(out: &Path) -> Vec<(&'static str, f64)> {
    let mut metrics = Vec::new();
    if let Some(v) = load_json(&out.join("BENCH_gemm.json")) {
        let min_speedup = v
            .get("shapes")
            .and_then(|s| s.as_array())
            .map(|shapes| {
                shapes
                    .iter()
                    .filter_map(|s| s.get("speedup").and_then(|x| x.as_f64()))
                    .fold(f64::INFINITY, f64::min)
            })
            .unwrap_or(f64::INFINITY);
        if min_speedup.is_finite() {
            metrics.push(("bench_gemm_min_speedup", min_speedup));
        }
    }
    if let Some(v) = load_json(&out.join("BENCH_fft.json")) {
        if let Some(ratio) =
            v.get("hxc_apply").and_then(|h| h.get("fft_call_ratio")).and_then(|x| x.as_f64())
        {
            metrics.push(("bench_fft_call_ratio", ratio));
        }
    }
    if let Some(v) = load_json(&out.join("BENCH_fault.json")) {
        if let Some(cases) = v.get("cases").and_then(|c| c.as_array()) {
            let total = cases.len();
            let recovered = cases
                .iter()
                .filter(|c| {
                    matches!(c.get("recovered"), Some(obskit::chrome::Value::Bool(true)))
                })
                .count();
            if total > 0 {
                metrics.push(("bench_fault_recovered_fraction", recovered as f64 / total as f64));
            }
        }
    }
    metrics
}

fn load_json(path: &Path) -> Option<obskit::chrome::Value> {
    let text = std::fs::read_to_string(path).ok()?;
    obskit::chrome::parse_json(&text).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_bytes_estimate_counts_all_three_operands() {
        let shapes =
            vec![obskit::counters::GemmBucket { m_max: 4, n_max: 4, k_max: 8, calls: 2 }];
        // 2 calls * 8 bytes * (4*8 + 8*4 + 2*4*4) = 2 * 8 * 96
        assert_eq!(gemm_bytes_estimate(&shapes), 2.0 * 8.0 * 96.0);
    }

    #[test]
    fn committed_metrics_survive_missing_files() {
        let dir = std::env::temp_dir().join("perf-report-missing-bench");
        let _ = std::fs::create_dir_all(&dir);
        assert!(committed_metrics(&dir).is_empty());
    }

    #[test]
    fn machine_ceilings_are_positive_and_ordered() {
        let m = measure_machine(true);
        assert!(m.peak_flops > 0.0);
        assert!(m.peak_bytes_per_s > 0.0);
        assert!(m.ridge_intensity() > 0.0);
    }
}
