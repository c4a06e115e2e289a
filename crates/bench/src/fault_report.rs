//! `repro fault-report` — deterministic fault-injection campaign over the
//! LR-TDDFT pipeline, written to `BENCH_fault.json`.
//!
//! Each case arms one [`faultkit::FaultPlan`], runs the solver through the
//! recovery ladders ([`Solver::solve`] serially, or
//! [`Solver::solve_distributed`] under SPMD for the comm faults), and grades the
//! outcome against a fault-free baseline computed once up front:
//!
//! * **recovered** — the run completed without panicking and every
//!   eigenvalue agrees with the baseline to [`AGREEMENT_TOL`].
//! * **fired** — the planned fault actually triggered (a case whose fault
//!   never fires exercises nothing and is reported as such, not as a pass).
//! * **bit-reproducible** — the whole campaign is run twice with identical
//!   seeds; fault-event logs and recovered eigenvalues must match exactly.
//!
//! `--check` gates on: recovery rate ≥ [`RECOVERY_GATE`], zero panics,
//! every fault fired, and bitwise campaign reproducibility — the ISSUE's
//! acceptance criteria for the self-healing ladders.

use crate::report::json;
use faultkit::{arm, FaultKind, FaultPlan};
use lrtddft::problem::{synthetic_problem, CasidaProblem};
use lrtddft::{IsdfRank, Solver, Version};
use parcomm::spmd;
use std::io::Write;
use std::path::Path;

/// Recovered eigenvalues must match the fault-free run this closely.
const AGREEMENT_TOL: f64 = 1e-8;
/// `--check` gate on the fraction of fired faults that recover.
const RECOVERY_GATE: f64 = 0.95;
/// SPMD width for the communication-fault cases.
const COMM_RANKS: usize = 2;

/// One planned fault case.
struct Case {
    name: &'static str,
    site: &'static str,
    occurrence: u64,
    kind: FaultKind,
    version: Version,
    /// Run under `spmd(COMM_RANKS)` through the distributed solver.
    distributed: bool,
}

fn campaign_cases(quick: bool) -> Vec<Case> {
    let mut cases = vec![
        Case {
            name: "nan-ham-c",
            site: "ham.c",
            occurrence: 0,
            kind: FaultKind::NanPoison,
            version: Version::KmeansIsdf,
            distributed: false,
        },
        Case {
            name: "inf-vtilde",
            site: "ham.v_tilde",
            occurrence: 0,
            kind: FaultKind::InfPoison,
            version: Version::KmeansIsdf,
            distributed: false,
        },
        Case {
            name: "lobpcg-w-poison",
            site: "lobpcg.w",
            occurrence: 0,
            kind: FaultKind::NanPoison,
            version: Version::ImplicitKmeansIsdfLobpcg,
            distributed: false,
        },
        Case {
            name: "rank-starvation",
            site: "isdf.points",
            occurrence: 0,
            kind: FaultKind::RankStarvation,
            version: Version::KmeansIsdf,
            distributed: false,
        },
        Case {
            name: "kmeans-degenerate",
            site: "kmeans.init",
            occurrence: 0,
            kind: FaultKind::DegenerateSeeding,
            version: Version::KmeansIsdf,
            distributed: false,
        },
        Case {
            name: "comm-drop-reduce",
            site: "comm.ireduce",
            occurrence: 1,
            kind: FaultKind::CommDrop,
            version: Version::ImplicitKmeansIsdfLobpcg,
            distributed: true,
        },
        Case {
            name: "comm-delay-allreduce",
            site: "comm.iallreduce",
            occurrence: 0,
            kind: FaultKind::CommDelay { micros: 2_000 },
            version: Version::ImplicitKmeansIsdfLobpcg,
            distributed: true,
        },
        Case {
            name: "comm-stall-allreduce",
            site: "comm.iallreduce",
            occurrence: 0,
            // Longer than one wait deadline (60 ms) but far inside the
            // retry budget: exercises wait-with-deadline + re-wait.
            kind: FaultKind::CommStall { micros: 80_000 },
            version: Version::ImplicitKmeansIsdfLobpcg,
            distributed: true,
        },
    ];
    if !quick {
        cases.push(Case {
            name: "lobpcg-w-poison-qrcp",
            site: "lobpcg.w",
            occurrence: 0,
            kind: FaultKind::NanPoison,
            version: Version::KmeansIsdfLobpcg,
            distributed: false,
        });
        cases.push(Case {
            name: "nan-vtilde-lobpcg",
            site: "ham.v_tilde",
            occurrence: 0,
            kind: FaultKind::NanPoison,
            version: Version::ImplicitKmeansIsdfLobpcg,
            distributed: false,
        });
    }
    cases
}

/// Per-case outcome of one campaign pass.
#[derive(Clone)]
struct CaseOutcome {
    name: &'static str,
    fired: usize,
    panicked: bool,
    recovered: bool,
    max_abs_err: f64,
    /// Recovery-log lines (serial path) for the JSON record.
    recovery: Vec<String>,
    /// Stable renderings of the fired fault events.
    events: Vec<String>,
    /// Recovered eigenvalue bits, for the reproducibility comparison.
    value_bits: Vec<u64>,
}

fn opts(p: &CasidaProblem, seed: u64) -> Solver {
    Solver::builder().rank(IsdfRank::Fixed(p.n_cv())).n_states(3).seed(seed)
}

/// Fault-free eigenvalues for `version` on the campaign problem.
fn baseline(p: &CasidaProblem, case: &Case, seed: u64) -> Vec<f64> {
    if case.distributed {
        let solver = opts(p, seed).version(case.version).pipelined(true);
        let mut vals = spmd(COMM_RANKS, |c| solver.solve_distributed(c, p).0);
        vals.pop().expect("at least one rank")
    } else {
        o_run(p, case.version, seed).expect("fault-free baseline must solve").0
    }
}

fn o_run(
    p: &CasidaProblem,
    version: Version,
    seed: u64,
) -> Result<(Vec<f64>, Vec<String>), String> {
    match opts(p, seed).version(version).solve(p) {
        Ok(s) => Ok((s.energies, s.recovery)),
        Err(e) => Err(e.to_string()),
    }
}

/// Run one case with its fault armed and grade against `base`.
fn run_case(p: &CasidaProblem, case: &Case, base: &[f64], plan_seed: u64) -> CaseOutcome {
    let plan = FaultPlan::new(plan_seed).with(case.site, case.occurrence, case.kind);
    let campaign = arm(plan);
    let solved: Result<(Vec<f64>, Vec<String>), String> = if case.distributed {
        // `spmd` re-installs this thread's armed plan on every rank thread,
        // so the drops/delays fire symmetrically from the one shared plan.
        let solver = opts(p, plan_seed).version(case.version).pipelined(true);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut vals = spmd(COMM_RANKS, |c| solver.solve_distributed(c, p).0);
            vals.pop().expect("at least one rank")
        }));
        match caught {
            Ok(vals) => Ok((vals, Vec::new())),
            Err(_) => Err("panic".to_string()),
        }
    } else {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            o_run(p, case.version, plan_seed)
        }));
        match caught {
            Ok(r) => r,
            Err(_) => Err("panic".to_string()),
        }
    };
    let fired = campaign.fired();
    let events: Vec<String> = campaign.events().iter().map(|e| e.render()).collect();
    drop(campaign);

    match solved {
        Ok((vals, recovery)) => {
            let max_abs_err = base
                .iter()
                .zip(&vals)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max)
                .max(if vals.len() == base.len() { 0.0 } else { f64::INFINITY });
            CaseOutcome {
                name: case.name,
                fired,
                panicked: false,
                recovered: max_abs_err < AGREEMENT_TOL,
                max_abs_err,
                recovery,
                events,
                value_bits: vals.iter().map(|v| v.to_bits()).collect(),
            }
        }
        Err(why) => CaseOutcome {
            name: case.name,
            fired,
            panicked: why == "panic",
            recovered: false,
            max_abs_err: f64::INFINITY,
            recovery: vec![why],
            events,
            value_bits: Vec::new(),
        },
    }
}

/// One full campaign pass: every case, graded. The same `plan_seed` must
/// yield a bitwise-identical pass.
fn run_campaign(p: &CasidaProblem, cases: &[Case], plan_seed: u64) -> Vec<CaseOutcome> {
    cases
        .iter()
        .map(|case| {
            let base = baseline(p, case, plan_seed);
            run_case(p, case, &base, plan_seed)
        })
        .collect()
}

pub fn run(out_dir: &Path, quick: bool, check: bool) -> std::io::Result<()> {
    let p = if quick {
        synthetic_problem([8, 8, 8], 6.0, 2, 2)
    } else {
        synthetic_problem([12, 12, 12], 8.0, 3, 3)
    };
    let cases = campaign_cases(quick);
    println!(
        "fault-report: {} cases on a {} pair-product problem (N_cv = {})",
        cases.len(),
        if quick { "quick" } else { "default" },
        p.n_cv()
    );

    let plan_seed = 42;
    let pass1 = run_campaign(&p, &cases, plan_seed);
    let pass2 = run_campaign(&p, &cases, plan_seed);

    let bit_reproducible = pass1
        .iter()
        .zip(&pass2)
        .all(|(a, b)| a.events == b.events && a.value_bits == b.value_bits);

    let fired = pass1.iter().filter(|c| c.fired > 0).count();
    let recovered = pass1.iter().filter(|c| c.recovered).count();
    let panics = pass1.iter().filter(|c| c.panicked).count();
    let recovery_rate = recovered as f64 / pass1.len() as f64;

    let rows: Vec<Vec<String>> = pass1
        .iter()
        .map(|c| {
            vec![
                c.name.to_string(),
                c.fired.to_string(),
                if c.recovered { "yes" } else { "NO" }.to_string(),
                if c.max_abs_err.is_finite() {
                    format!("{:.2e}", c.max_abs_err)
                } else {
                    "inf".to_string()
                },
                c.recovery.first().cloned().unwrap_or_default(),
            ]
        })
        .collect();
    crate::report::print_table(&["case", "fired", "recovered", "max |Δλ|", "first log line"], &rows);
    println!(
        "recovery {recovered}/{} ({:.0}%), {panics} panic(s), fired {fired}/{}, \
         bit-reproducible: {bit_reproducible}",
        pass1.len(),
        recovery_rate * 100.0,
        pass1.len()
    );

    // --- BENCH_fault.json -------------------------------------------------
    let case_entries: Vec<String> = pass1
        .iter()
        .map(|c| {
            let logs: Vec<String> =
                c.recovery.iter().map(|l| format!("\"{}\"", l.replace('"', "'"))).collect();
            let events: Vec<String> =
                c.events.iter().map(|l| format!("\"{}\"", l.replace('"', "'"))).collect();
            format!(
                "    {{\"name\": \"{}\", \"fired\": {}, \"recovered\": {}, \"panicked\": {}, \
                 \"max_abs_err\": {}, \"recovery_log\": [{}], \"events\": [{}]}}",
                c.name,
                c.fired,
                c.recovered,
                c.panicked,
                if c.max_abs_err.is_finite() {
                    json::number(c.max_abs_err)
                } else {
                    "\"inf\"".to_string()
                },
                logs.join(", "),
                events.join(", ")
            )
        })
        .collect();
    let json_text = format!(
        "{{\n  \"benchmark\": \"fault-report\",\n  \"plan_seed\": {},\n  \
         \"agreement_tol\": {},\n  \"cases\": [\n{}\n  ],\n  \
         \"recovery_rate\": {},\n  \"panics\": {},\n  \"fired\": {},\n  \
         \"bit_reproducible\": {}\n}}\n",
        plan_seed,
        json::number(AGREEMENT_TOL),
        case_entries.join(",\n"),
        json::number(recovery_rate),
        panics,
        fired,
        bit_reproducible
    );
    std::fs::create_dir_all(out_dir)?;
    let path = out_dir.join("BENCH_fault.json");
    let mut f = std::fs::File::create(&path)?;
    f.write_all(json_text.as_bytes())?;
    println!("wrote {}", path.display());

    if check {
        let mut failures = Vec::new();
        if recovery_rate < RECOVERY_GATE {
            failures.push(format!(
                "recovery rate {recovery_rate:.2} below gate {RECOVERY_GATE}"
            ));
        }
        if panics > 0 {
            failures.push(format!("{panics} case(s) panicked instead of degrading"));
        }
        if fired < pass1.len() {
            failures.push(format!("only {fired}/{} planned faults fired", pass1.len()));
        }
        if !bit_reproducible {
            failures.push("same-seed campaigns were not bit-reproducible".to_string());
        }
        if failures.is_empty() {
            println!("fault-report --check: all gates passed");
        } else {
            for f in &failures {
                eprintln!("fault-report --check FAILED: {f}");
            }
            std::process::exit(1);
        }
    }
    Ok(())
}
