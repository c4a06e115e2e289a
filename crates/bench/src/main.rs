//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro <experiment> [--quick|--full] [--out results/]
//! experiments: table3 table4 table5 table6 fig2 fig5 fig7 fig8 weak fig9 all
//! ```
//!
//! The `*-report` subcommands (chaos, fft, comm, fault, serve) all take the
//! same `[--quick|--full] [--out DIR] [--check]` flags, so they share one
//! parser ([`ReportArgs`]) and one dispatch table ([`REPORTS`]) — adding a
//! report is one table row, and the usage string regenerates itself.

use bench::experiments::{self, Scale};
use bench::report::ExperimentRecord;
use std::path::{Path, PathBuf};

/// Shared arguments of every `repro <name>-report` subcommand.
struct ReportArgs {
    quick: bool,
    check: bool,
    out: PathBuf,
}

impl ReportArgs {
    /// Parse `[--quick|--full] [--out DIR] [--check]`; exits with status 2
    /// on an unknown flag, naming the subcommand in the message.
    fn parse(subcommand: &str, args: &[String]) -> ReportArgs {
        let mut parsed = ReportArgs {
            quick: false,
            check: false,
            // Default to the working directory so `BENCH_<name>.json` lands
            // at the repo root when run as `cargo run -p bench -- <name>`.
            out: PathBuf::from("."),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => parsed.quick = true,
                "--full" => parsed.quick = false,
                "--check" => parsed.check = true,
                "--out" => match it.next() {
                    Some(p) => parsed.out = PathBuf::from(p),
                    None => {
                        eprintln!("--out needs a path");
                        std::process::exit(2);
                    }
                },
                other => {
                    eprintln!("unknown {subcommand} argument: {other}");
                    std::process::exit(2);
                }
            }
        }
        parsed
    }
}

/// Entry point shared by every report: `run(out, quick, check)`.
type ReportFn = fn(&Path, bool, bool) -> Result<(), String>;

/// Every report subcommand: name → entry point. The usage string below is
/// generated from this table, so it cannot drift.
const REPORTS: &[(&str, ReportFn)] = &[
    ("chaos-report", |o, q, c| bench::chaos_report::run(o, q, c).map_err(|e| e.to_string())),
    ("fft-report", |o, q, c| bench::fft_report::run(o, q, c).map_err(|e| e.to_string())),
    ("comm-report", |o, q, c| bench::comm_report::run(o, q, c).map_err(|e| e.to_string())),
    ("fault-report", |o, q, c| bench::fault_report::run(o, q, c).map_err(|e| e.to_string())),
    ("serve-report", |o, q, c| bench::serve_report::run(o, q, c).map_err(|e| e.to_string())),
];

fn usage() -> String {
    let mut u = String::from(
        "usage: repro <table3|table4|table5|table6|fig2|fig5|fig7|fig8|weak|fig9|ablation|all> [--quick|--full] [--out DIR]\n       repro trace [--version LABEL] [--ranks N] [--trace PATH] [--quick]\n       repro trace-report <PATH> [--check]",
    );
    for (name, _) in REPORTS {
        u.push_str(&format!("\n       repro {name} [--quick|--full] [--out DIR] [--check]"));
    }
    u
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `trace`, `trace-report`, and the report table take their own flags
    // (--version/--ranks/--trace/--check) that the experiment arg loop would
    // reject, so they are dispatched before it.
    match args.first().map(String::as_str) {
        Some("trace") => {
            run_trace_cli(&args[1..]);
            return;
        }
        Some("trace-report") => {
            run_trace_report_cli(&args[1..]);
            return;
        }
        Some(name) => {
            if let Some((sub, run)) = REPORTS.iter().find(|(n, _)| *n == name) {
                let a = ReportArgs::parse(sub, &args[1..]);
                if let Err(e) = run(&a.out, a.quick, a.check) {
                    eprintln!("{sub} failed: {e}");
                    std::process::exit(1);
                }
                return;
            }
        }
        None => {}
    }
    let mut experiment = None;
    let mut scale = Scale::Default;
    let mut out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => scale = Scale::Quick,
            "--full" => scale = Scale::Full,
            "--out" => match it.next() {
                Some(p) => out = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                }
            },
            name if experiment.is_none() => experiment = Some(name.to_string()),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let experiment = experiment.unwrap_or_else(|| {
        eprintln!("{}", usage());
        std::process::exit(2);
    });

    let out = out.unwrap_or_else(|| PathBuf::from("results"));

    let run = |name: &str, scale: Scale| -> ExperimentRecord {
        match name {
            "table3" => experiments::table3(scale),
            "table4" => experiments::table4(scale),
            "table5" => experiments::table5(scale),
            "table6" => experiments::table6(scale),
            "fig2" => experiments::fig2(scale),
            "fig5" => experiments::fig5(scale),
            "fig7" => experiments::fig7(scale),
            "fig8" => experiments::fig8(scale),
            "weak" => experiments::weak_scaling(scale),
            "fig9" => experiments::fig9(scale),
            "ablation" => experiments::ablation(scale),
            other => {
                eprintln!("unknown experiment: {other}");
                std::process::exit(2);
            }
        }
    };

    if experiment == "all" {
        for name in
            [
                "table3", "table4", "table5", "table6", "fig2", "fig5", "fig7", "fig8", "weak",
                "fig9", "ablation",
            ]
        {
            let rec = run(name, scale);
            rec.save(&out).expect("write record");
        }
        println!("\nAll experiment records written to {}", out.display());
    } else {
        let rec = run(&experiment, scale);
        rec.save(&out).expect("write record");
        println!("\nRecord written to {}", out.join(format!("{experiment}.json")).display());
    }
}

fn run_trace_cli(args: &[String]) {
    let mut opts = bench::trace_cmd::TraceOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--version" => match it.next() {
                Some(label) => match bench::trace_cmd::parse_version(label) {
                    Some(v) => opts.version = v,
                    None => {
                        eprintln!("unknown version label: {label}");
                        std::process::exit(2);
                    }
                },
                None => {
                    eprintln!("--version needs a label");
                    std::process::exit(2);
                }
            },
            "--ranks" => match it.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n > 0 => opts.ranks = n,
                _ => {
                    eprintln!("--ranks needs a positive integer");
                    std::process::exit(2);
                }
            },
            "--trace" => match it.next() {
                Some(p) => opts.trace_path = PathBuf::from(p),
                None => {
                    eprintln!("--trace needs a path");
                    std::process::exit(2);
                }
            },
            "--quick" => opts.quick = true,
            "--full" => opts.quick = false,
            other => {
                eprintln!("unknown trace argument: {other}");
                std::process::exit(2);
            }
        }
    }
    if let Err(e) = bench::trace_cmd::run_trace(&opts) {
        eprintln!("trace failed: {e}");
        std::process::exit(1);
    }
}

fn run_trace_report_cli(args: &[String]) {
    let mut path: Option<PathBuf> = None;
    let mut check = false;
    for a in args {
        match a.as_str() {
            "--check" => check = true,
            p if path.is_none() => path = Some(PathBuf::from(p)),
            other => {
                eprintln!("unknown trace-report argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: repro trace-report <PATH> [--check]");
        std::process::exit(2);
    };
    if let Err(e) = bench::trace_cmd::run_trace_report(&path, check) {
        eprintln!("{e}");
        std::process::exit(1);
    }
}
