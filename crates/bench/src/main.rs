//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro <experiment> [--quick|--full] [--out results/]
//! experiments: table3 table4 table5 table6 fig2 fig5 fig7 fig8 weak fig9 ablation all
//! repro trace [--version LABEL] [--ranks N] [--trace PATH] [--quick]
//! repro trace-report <PATH> [--check]
//! ```

use bench::experiments::{self, Scale};
use bench::report::ExperimentRecord;
use std::path::PathBuf;

const USAGE: &str = "\
usage: repro <table3|table4|table5|table6|fig2|fig5|fig7|fig8|weak|fig9|ablation|all> [--quick|--full] [--out DIR]
       repro trace [--version LABEL] [--ranks N] [--trace PATH] [--quick]
       repro trace-report <PATH> [--check]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `trace` and `trace-report` take their own flags (--version/--ranks/
    // --trace/--check) that the experiment arg loop would reject, so they are
    // dispatched before it.
    match args.first().map(String::as_str) {
        Some("trace") => {
            run_trace_cli(&args[1..]);
            return;
        }
        Some("trace-report") => {
            run_trace_report_cli(&args[1..]);
            return;
        }
        _ => {}
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
        eprintln!("{USAGE}");
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
