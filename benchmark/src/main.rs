//! End-to-end benchmark of the LR-TDDFT suite: five paper-sized workloads,
//! five end-to-end metrics measured with tracing off, and a per-layer
//! ledger from a separate traced pass. See `README.md` beside this crate.
//!
//! ```text
//! e2e-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last stdout line is the result JSON
//! e2e-benchmark [--all] [--traced] [--seed <n>] [--seconds <s>]
//!     every workload, each in a fresh child process; report on stdout and
//!     in benchmark/out/report.json
//! e2e-benchmark --self-check [--seed <n>]
//!     the untraced pass twice; non-zero exit if a pair differs by more than
//!     the metric's bound
//! e2e-benchmark --list | --print-manifest | --regen-golden
//! ```

mod jobmix;
mod ledger;
mod probes;
mod spec;
mod stats;
mod workloads;

use obskit::chrome::{parse_json, Value};
use obskit::Stage;
use spec::{Metric, END_TO_END, PER_LAYER, RUN_SECONDS, SETUPS_PER_RUN, WORKLOADS};
use stats::{median, tail};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{Kind, Prepared, Round};

/// Where `--all` writes its report and `--regen-golden` its files, relative
/// to the repository root (the directory the benchmark is run from).
const OUT_DIR: &str = "benchmark/out";
const GOLDEN_DIR: &str = "benchmark/golden";

struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static Metric, f64)>,
}

impl RunResult {
    fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|(_, v)| v.is_finite())
    }

    /// The contract's result line.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|m| m.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run one workload in this process.
fn run_one(kind: Kind, seed: u64, seconds: f64, trace: bool) -> RunResult {
    let busy = if matches!(kind, Kind::Si64R2 | Kind::ServedStream) {
        2
    } else {
        1
    };
    eprintln!(
        "# {} seed={seed} seconds={seconds} trace={} | busy threads {busy} of nproc {} | {} | kernel {}",
        kind.name(),
        u8::from(trace),
        nproc(),
        cpu_model(),
        mathkit::active_kernel().name()
    );

    if kind == Kind::ServedStream {
        let (repeats, mates) = jobmix::repeat_ratios(&jobmix::round_jobs(seed, 0));
        eprintln!(
            "# job mix per round of {}: {repeats:.2} repeat an earlier cache key, {mates:.2} share the previous job's batch key",
            jobmix::ROUND_JOBS
        );
    }

    let mut setups = Vec::with_capacity(SETUPS_PER_RUN);
    let mut prepared = None;
    for _ in 0..SETUPS_PER_RUN {
        drop(prepared.take()); // one set of inputs (and one service) at a time
        let t = Instant::now();
        prepared = Some(Prepared::new(kind, seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut prepared = prepared.expect("at least one set-up");
    eprintln!("# set-ups {setups:.3?}");

    // Rounds until the time is up. The traced pass alternates traced and
    // untraced rounds, so that their ratio is the tracing overhead.
    let mut rounds: Vec<Round> = Vec::new();
    let t0 = Instant::now();
    loop {
        let traced = trace && rounds.len().is_multiple_of(2);
        let round = prepared.round(rounds.len() as u64, traced);
        eprintln!(
            "# round {} {} wall {:.4}s steal {:.2}s units {} failed {} max_rel_err {:.2e}",
            rounds.len(),
            if traced { "traced" } else { "untraced" },
            round.wall_s,
            round.steal_s,
            round.samples.len(),
            round.failed,
            round.facts.max_rel_err
        );
        rounds.push(round);
        let both = !trace || rounds.len() >= 2;
        if t0.elapsed().as_secs_f64() >= seconds && both {
            break;
        }
    }
    let peak_rss_mb = peak_rss_mb(); // before the checks below allocate
    let same_input_misses = prepared.verify_same_inputs(trace);
    if same_input_misses > 0 {
        eprintln!("# {same_input_misses} unit(s) differ from a direct solve of the same inputs");
    }

    let attempted = rounds.iter().map(|r| r.attempted).sum();
    let failed = rounds.iter().map(|r| r.failed).sum::<u64>() + same_input_misses;
    let values = if trace {
        let probes = probes::run(prepared.probe_problem(), prepared.n_mu(), seed);
        per_layer_values(prepared.n_mu(), &rounds, &probes)
    } else {
        end_to_end_values(&rounds, median(&setups), peak_rss_mb)
    };
    // Both value lists are written in their table's order (a test pins it).
    let table = if trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let metrics = table
        .iter()
        .zip(values)
        .map(|(m, (name, v))| {
            assert_eq!(m.name, name, "values out of step with the metric table");
            (m, v)
        })
        .collect();
    RunResult {
        attempted,
        failed,
        metrics,
    }
}

fn end_to_end_values(rounds: &[Round], setup_s: f64, peak_rss_mb: f64) -> Vec<(&'static str, f64)> {
    let samples: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.samples.iter().copied())
        .collect();
    let wall: f64 = rounds.iter().map(|r| r.wall_s).sum();
    vec![
        ("solve_s", median(&samples)),
        ("tail_s", tail(&samples)),
        ("units_per_s", samples.len() as f64 / wall),
        ("peak_rss_mb", peak_rss_mb),
        ("setup_s", setup_s),
    ]
}

fn per_layer_values(
    n_mu: usize,
    rounds: &[Round],
    probes: &probes::Probes,
) -> Vec<(&'static str, f64)> {
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let ledgers: Vec<_> = traced.iter().filter_map(|r| r.ledger.as_ref()).collect();
    // Median over the traced rounds of one ledger-derived quantity.
    let led = |f: &dyn Fn(&ledger::UnitLedger) -> f64| {
        median(&ledgers.iter().map(|l| f(l)).collect::<Vec<_>>())
    };
    let stage = |s: Stage| led(&|l| l.stage(s));
    let share = |f: &dyn Fn(&ledger::UnitLedger) -> f64| led(&|l| f(l) / l.wall_s);
    let per_unit_counter = |f: &dyn Fn(&obskit::CounterSnapshot) -> u64| {
        let v: Vec<f64> = traced
            .iter()
            .filter_map(|r| {
                r.counters
                    .as_ref()
                    .map(|c| f(c) as f64 / r.samples.len() as f64)
            })
            .collect();
        median(&v)
    };
    let fact = |f: &dyn Fn(&workloads::Facts) -> f64| {
        median(&rounds.iter().map(|r| f(&r.facts)).collect::<Vec<_>>())
    };
    // Share of a ladder sweep spent in version `i` (0 on the other workloads).
    let version_frac = |i: usize| {
        fact(&|f| f.version_s[i] / f.version_s.iter().sum::<f64>().max(f64::MIN_POSITIVE))
    };
    let unit_s = |rs: &[&Round]| {
        median(
            &rs.iter()
                .map(|r| r.wall_s / r.samples.len() as f64)
                .collect::<Vec<_>>(),
        )
    };

    // Served totals over every round of the run.
    let sv = |f: &dyn Fn(&workloads::ServedFacts) -> f64| -> f64 {
        rounds.iter().map(|r| f(&r.facts.served)).sum()
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let (jobs, executed) = (sv(&|s| s.jobs as f64), sv(&|s| s.executed as f64));
    let mean_batch = ratio(sv(&|s| s.batch_size_sum as f64), executed);

    // Rate of the Θ builds: the round's computed flops over its ledger time.
    let theta_gflops = median(
        &traced
            .iter()
            .filter_map(|r| {
                let theta_s = r.ledger.as_ref()?.stage(Stage::Theta) * r.samples.len() as f64;
                Some(ratio(r.facts.theta_flops * 1e-9, theta_s))
            })
            .collect::<Vec<_>>(),
    );

    let solo_latency = sv(&|s| s.solo_latency_s);
    vec![
        ("core.unit_s", led(&|l| l.wall_s)),
        ("core.other_s", led(&|l| l.other_s)),
        ("core.unattributed_frac", share(&|l| l.other_s)),
        (
            "core.face_split_share",
            share(&|l| l.stage(Stage::FaceSplit)),
        ),
        ("core.n_mu", n_mu as f64),
        (
            "core.recovery_rungs",
            rounds.iter().map(|r| r.facts.recovery_rungs as f64).sum(),
        ),
        ("core.v1_naive_frac", version_frac(0)),
        ("core.v2_qrcp_frac", version_frac(1)),
        ("core.v3_kmeans_frac", version_frac(2)),
        ("core.v4_lobpcg_frac", version_frac(3)),
        ("core.v5_implicit_frac", version_frac(4)),
        ("pwdft.share", share(&|l| l.pwdft_s)),
        ("pwdft.scf_iterations", fact(&|f| f.scf_iterations)),
        ("pwdft.scf_residual", fact(&|f| f.scf_residual)),
        ("pwdft.band_iterations", led(&|l| l.band_iterations)),
        ("pwdft.hamiltonian_apply_s", probes.hamiltonian_apply_s),
        ("isdf.kmeans_s", stage(Stage::Kmeans)),
        ("isdf.theta_s", stage(Stage::Theta)),
        ("isdf.theta_gflops", theta_gflops),
        ("isdf.qrcp_share", share(&|l| l.stage(Stage::Qrcp))),
        ("isdf.kmeans_probe_s", probes.kmeans_s),
        ("isdf.kmeans_iterations", probes.kmeans_iterations),
        ("isdf.kmeans_objective", probes.kmeans_objective),
        ("isdf.fit_rel_err", probes.fit_rel_err),
        ("fftkit.fft_s", stage(Stage::Fft)),
        ("fftkit.fft_calls", per_unit_counter(&|c| c.fft_calls)),
        (
            "fftkit.plan_cache_hits",
            per_unit_counter(&|c| c.fft_plan_hits),
        ),
        (
            "fftkit.plan_cache_misses",
            per_unit_counter(&|c| c.fft_plan_misses),
        ),
        ("fftkit.fft3_roundtrip_s", probes.fft3_roundtrip_s),
        ("fftkit.gflops", probes.fft_gflops),
        ("fftkit.hxc_apply_s", probes.hxc_apply_s),
        ("mathkit.gemm_s", stage(Stage::Gemm)),
        ("mathkit.diag_s", stage(Stage::Diag)),
        ("mathkit.syev_share", share(&|l| l.syev_s)),
        ("mathkit.lobpcg_iterations", led(&|l| l.lobpcg_iterations)),
        ("mathkit.gemm_gflops", probes.gemm_gflops),
        ("mathkit.syev_s", probes.syev_s),
        ("mathkit.solve_spd_s", probes.solve_spd_s),
        ("parcomm.mpi_share", share(&|l| l.stage(Stage::Mpi))),
        ("parcomm.wait_frac", share(&|l| l.mpi_max_s)),
        ("parcomm.collective_calls", led(&|l| l.mpi_calls)),
        ("parcomm.bytes", led(&|l| l.mpi_bytes)),
        ("parcomm.allreduce_latency_us", probes.allreduce_latency_us),
        ("parcomm.alltoallv_mb_per_s", probes.alltoallv_mb_per_s),
        (
            "served.cache_hit_ratio",
            ratio(sv(&|s| s.cache_hits as f64), jobs),
        ),
        ("served.mean_batch_size", mean_batch),
        (
            "served.queue_wait_frac",
            ratio(solo_latency - sv(&|s| s.solo_timings_s), solo_latency),
        ),
        (
            "served.sched_overhead_frac",
            ratio(solo_latency - sv(&|s| s.solo_direct_s), solo_latency),
        ),
        (
            "served.comm_calls_per_job",
            ratio(sv(&|s| s.comm_calls as f64), executed),
        ),
        ("served.retries", sv(&|s| s.retries as f64)),
        ("served.degraded", sv(&|s| s.degraded as f64)),
        ("served.refused", sv(&|s| s.refused as f64)),
        ("served.start_s", probes.serve_start_s),
        ("served.shutdown_s", probes.serve_shutdown_s),
        (
            "obskit.trace_overhead_frac",
            unit_s(&traced) / unit_s(&untraced) - 1.0,
        ),
        ("obskit.trace_events", led(&|l| l.events)),
        (
            "obskit.traced_units",
            traced.iter().map(|r| r.samples.len() as f64).sum(),
        ),
        ("obskit.flops", per_unit_counter(&|c| c.flops) * 1e-9),
    ]
}

// ---------------------------------------------------------------------------
// Multi-workload modes: every workload in a fresh child process.

/// One child's parsed result line.
struct ChildResult {
    workload: &'static str,
    line: String,
    value: Value,
}

impl ChildResult {
    fn metric(&self, name: &str) -> Option<f64> {
        self.value.get("metrics")?.get(name)?.get("value")?.as_f64()
    }

    fn failed(&self) -> f64 {
        self.value
            .get("failed")
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN)
    }

    fn attempted(&self) -> f64 {
        self.value
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN)
    }
}

fn run_child(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", kind.name()))?;
    if !out.status.success() {
        return Err(format!("{} exited with {}", kind.name(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default().to_string();
    let value = parse_json(&line).map_err(|e| format!("{}: bad result line: {e}", kind.name()))?;
    Ok(ChildResult {
        workload: kind.name(),
        line,
        value,
    })
}

fn run_pass(seed: u64, seconds: f64, trace: bool) -> Result<Vec<ChildResult>, String> {
    Kind::ALL
        .into_iter()
        .map(|k| run_child(k, seed, seconds, trace))
        .collect()
}

fn print_pass(title: &str, table: &[Metric], pass: &[ChildResult]) {
    println!("\n## {title}");
    print!("{:<28} {:>8}", "metric", "unit");
    for r in pass {
        print!(" {:>17}", r.workload);
    }
    println!();
    for m in table {
        print!("{:<28} {:>8}", m.name, m.unit);
        for r in pass {
            match r.metric(m.name) {
                Some(v) => print!(" {v:>17.6}"),
                None => print!(" {:>17}", "-"),
            }
        }
        println!();
    }
    print!("{:<28} {:>8}", "failed / attempted", "count");
    for r in pass {
        print!(" {:>17}", format!("{} / {}", r.failed(), r.attempted()));
    }
    println!();
}

/// `solve_s(r1) / (2 * solve_s(r2))`: needs both Si64 workloads, so it is
/// derived here and not a per-workload metric.
fn parallel_eff(pass: &[ChildResult]) -> Option<f64> {
    let solve = |name: &str| pass.iter().find(|r| r.workload == name)?.metric("solve_s");
    Some(solve("si64_implicit_r1")? / (2.0 * solve("si64_implicit_r2")?))
}

fn all(seed: u64, seconds: f64, traced: bool) -> Result<bool, String> {
    let e2e = run_pass(seed, seconds, false)?;
    print_pass("End-to-end (tracing off)", &END_TO_END, &e2e);
    let eff = parallel_eff(&e2e);
    if let Some(eff) = eff {
        println!("parcomm.parallel_eff = solve_s(r1) / (2 * solve_s(r2)) = {eff:.4}");
    }
    let layers = if traced {
        Some(run_pass(seed, seconds, true)?)
    } else {
        None
    };
    if let Some(layers) = &layers {
        print_pass("Per layer (traced pass)", &PER_LAYER, layers);
    }

    let pass_json = |pass: &[ChildResult]| {
        let rows: Vec<String> = pass
            .iter()
            .map(|r| format!("    \"{}\": {}", r.workload, r.line))
            .collect();
        format!("{{\n{}\n  }}", rows.join(",\n"))
    };
    let doc = format!(
        "{{\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"nproc\": {},\n  \"cpu\": {},\n  \"kernel\": \"{}\",\n  \"parcomm.parallel_eff\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        nproc(),
        spec::json_str(&cpu_model()),
        mathkit::active_kernel().name(),
        eff.map_or("null".into(), |e| format!("{e:?}")),
        pass_json(&e2e),
        layers.as_deref().map_or("null".into(), pass_json),
    );
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/report.json");
    std::fs::write(&path, &doc).map_err(|e| format!("{path}: {e}"))?;
    println!("\nreport written to {path}");
    let clean = e2e
        .iter()
        .chain(layers.iter().flatten())
        .all(|r| r.failed() == 0.0);
    Ok(clean)
}

fn self_check(seed: u64, seconds: f64) -> Result<bool, String> {
    let first = run_pass(seed, seconds, false)?;
    let second = run_pass(seed, seconds, false)?;
    let mut ok = true;
    println!(
        "{:<18} {:<12} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "differ", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (a.metric(m.name), b.metric(m.name)) else {
                return Err(format!("{}: {} missing", a.workload, m.name));
            };
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let differ = m.better.worsening(x, y).max(m.better.worsening(y, x));
            let verdict = if differ > bound { "FAIL" } else { "" };
            ok &= differ <= bound;
            println!(
                "{:<18} {:<12} {x:>14.6} {y:>14.6} {:>8.2}% {:>6.0}% {verdict}",
                a.workload,
                m.name,
                differ * 100.0,
                bound * 100.0
            );
        }
        ok &= a.failed() == 0.0 && b.failed() == 0.0;
    }
    Ok(ok)
}

fn list() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:<18} {}", w.name, w.why);
    }
    println!("end-to-end metrics (tracing off):");
    for m in &END_TO_END {
        let bound = m.bound.expect("end-to-end metrics carry a bound") * 100.0;
        println!(
            "  {:<28} {:<8} {:<6} bound {bound:.0}%  {}",
            m.name,
            m.unit,
            m.better.label(),
            m.what
        );
    }
    println!("per-layer metrics (traced pass):");
    for m in &PER_LAYER {
        println!(
            "  {:<28} {:<8} {:<6} {}",
            m.name,
            m.unit,
            m.better.label(),
            m.what
        );
    }
}

fn regen_golden() -> Result<(), String> {
    std::fs::create_dir_all(GOLDEN_DIR).map_err(|e| format!("{GOLDEN_DIR}: {e}"))?;
    for (label, file, problem) in [
        (
            "silicon_like_problem(2, 16, 4)",
            "silicon_like_2_16_4.json",
            workloads::ladder_problem(),
        ),
        (
            "silicon_like_problem(2, 20, 16)",
            "silicon_like_2_20_16.json",
            workloads::si64_problem(),
        ),
    ] {
        let t = Instant::now();
        let text = workloads::golden_json(&problem, label);
        let path = format!("{GOLDEN_DIR}/{file}");
        std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))?;
        println!("{path} ({:.1} s)", t.elapsed().as_secs_f64());
    }
    Ok(())
}

enum Mode {
    One(Kind),
    All,
    SelfCheck,
    List,
    PrintManifest,
    RegenGolden,
}

struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::All,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let kind =
                    Kind::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
                args.mode = Mode::One(kind);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => args.trace = true,
            "--all" => args.mode = Mode::All,
            "--self-check" => args.mode = Mode::SelfCheck,
            "--list" => args.mode = Mode::List,
            "--print-manifest" => args.mode = Mode::PrintManifest,
            "--regen-golden" => args.mode = Mode::RegenGolden,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nsee the usage at the top of benchmark/src/main.rs or benchmark/README.md");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.mode {
        Mode::One(kind) => {
            let result = run_one(kind, args.seed, args.seconds, args.trace);
            println!("{}", result.json());
            // The result line reports failures; the exit code reports that
            // the benchmark itself ran.
            Ok(true)
        }
        Mode::All => all(args.seed, args.seconds, args.trace),
        Mode::SelfCheck => self_check(args.seed, args.seconds),
        Mode::List => {
            list();
            Ok(true)
        }
        Mode::PrintManifest => {
            print!("{}", spec::manifest_json());
            Ok(true)
        }
        Mode::RegenGolden => regen_golden().map(|()| true),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_parses() {
        let r = RunResult {
            attempted: 3,
            failed: 0,
            metrics: END_TO_END
                .iter()
                .enumerate()
                .map(|(i, m)| (m, 1.5 + i as f64))
                .collect(),
        };
        let v = parse_json(&r.json()).expect("valid JSON");
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(3.0));
        assert_eq!(v.get("failed").and_then(Value::as_f64), Some(0.0));
        assert!(r.json().starts_with("{\"correct\": true, "));
        for m in &END_TO_END {
            let entry = v
                .get("metrics")
                .and_then(|ms| ms.get(m.name))
                .expect(m.name);
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(m.unit));
            assert!(entry.get("value").and_then(Value::as_f64).is_some());
        }
    }

    #[test]
    fn a_non_finite_metric_or_a_failure_makes_the_run_incorrect() {
        let m = &END_TO_END[0];
        assert!(!RunResult {
            attempted: 1,
            failed: 0,
            metrics: vec![(m, f64::NAN)]
        }
        .correct());
        assert!(!RunResult {
            attempted: 1,
            failed: 1,
            metrics: vec![(m, 1.0)]
        }
        .correct());
        assert!(RunResult {
            attempted: 1,
            failed: 0,
            metrics: vec![(m, 1.0)]
        }
        .correct());
    }

    fn round(traced: bool) -> Round {
        Round {
            traced,
            wall_s: 2.0,
            steal_s: 0.0,
            samples: vec![2.0],
            attempted: 1,
            failed: 0,
            facts: Default::default(),
            ledger: traced.then(|| ledger::UnitLedger {
                wall_s: 2.0,
                ..Default::default()
            }),
            counters: traced.then(Default::default),
        }
    }

    #[test]
    fn emitted_metric_names_are_the_spec_tables_in_order() {
        let rounds = [round(true), round(false)];
        let layers = per_layer_values(7, &rounds, &probes::Probes::default());
        let names: Vec<&str> = layers.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
        assert!(
            layers.iter().all(|(_, v)| v.is_finite()),
            "an idle run still reports numbers"
        );
        let e2e = end_to_end_values(&rounds, 0.5, 10.0);
        let names: Vec<&str> = e2e.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
    }

    #[test]
    fn arguments_parse_in_the_contract_order_and_reject_junk() {
        let argv: Vec<String> = "--workload served_stream --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv).unwrap();
        assert!(matches!(a.mode, Mode::One(Kind::ServedStream)));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--seed",
            "--frobnicate",
        ] {
            let argv: Vec<String> = bad.split(' ').map(String::from).collect();
            assert!(parse_args(&argv).is_err(), "{bad}");
        }
    }
}
