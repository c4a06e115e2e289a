//! The benchmark's contract in one place: workload names and reasons, every
//! metric's name, unit, direction and (for end-to-end metrics) regression
//! bound. `BENCHMARK.json`, `--list` and the emitted results are all derived
//! from or checked against these tables.

/// Seconds one run measures for (the driver passes this back as `--seconds`).
pub const RUN_SECONDS: u64 = 16;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS_PER_RUN: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `new` is than `base`, as a share of `base` (negative
    /// when `new` is better).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        match self {
            Better::Lower => (new - base) / base,
            Better::Higher => (base - new) / base,
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "si8_scf_casida",
        why: "real SCF + Casida on Si8 at 16^3: pwdft is >99% of it, so it bypasses every ISDF/comm change and targets the SCF/band solver",
    },
    Workload {
        name: "si64_implicit_r1",
        why: "paper headline path at Si64 size (N_r=8000 on 20^3, N_cv=2048, N_mu=720), one rank: Theta solve, Bluestein FFT, GEMM, K-Means; where threading would show",
    },
    Workload {
        name: "si64_implicit_r2",
        why: "same problem through spmd(2, solve_distributed): adds parcomm to identical numerics; both cores busy, so comm/balance gains show and threading must not",
    },
    Workload {
        name: "table4_ladder",
        why: "paper Table 4: all five versions on 16^3, N_cv=512, N_mu=256; big square GEMM, dense SYEV, QRCP and radix-2 FFT that no other workload touches",
    },
    Workload {
        name: "served_stream",
        why: "2-rank service, 4 closed-loop clients, Si8-like jobs with ~30% cache repeats and ~30% batch mates: collective latency, scheduler, cache and batching",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        what,
    }
}

use Better::{Higher, Lower};

/// Measured with tracing off; every workload reports every one.
///
/// Every bound is the contract's maximum, 0.25. On the shared 2-vCPU guest
/// the baseline was taken on, ten runs of one workload spread (quartile
/// distance over median) by 2-16 % in a quiet hour and far more when the
/// host is busy (README, "Run-to-run spread"); a tighter bound would reject
/// noise, not regressions.
pub const END_TO_END: [Metric; 5] = [
    e2e("solve_s", "s", Lower, 0.25, "median wall time of one unit (SCF+Casida, solve, five-version sweep, or job submit->result)"),
    e2e("tail_s", "s", Lower, 0.25, "highest percentile of the unit times with >=10 samples beyond it, at most p95 (served_stream), at least the median (a handful of solves)"),
    e2e("units_per_s", "1/s", Higher, 0.25, "units completed per second of measured wall time (failures are counted in `failed`)"),
    e2e("peak_rss_mb", "MiB", Lower, 0.25, "VmHWM of the run's process"),
    e2e("setup_s", "s", Lower, 0.25, "median of the set-ups: input generation, references, Service::start, warm-up solve"),
];

/// Measured in the traced pass (`--trace 1`). Ledger entries are per unit
/// (per job on `served_stream`), the mean over rank lanes of span self
/// time; probe entries time one public call of the layer at the workload's
/// shapes. A time that a workload can lack is reported as a share, so that
/// every value in seconds is a real measurement on every workload.
pub const PER_LAYER: [Metric; 58] = [
    // Whole-unit ledger.
    layer(
        "core.unit_s",
        "s",
        Lower,
        "traced unit wall (ledger base); per job: round wall / jobs",
    ),
    layer(
        "core.other_s",
        "s",
        Lower,
        "unit wall minus every attributed stage below",
    ),
    layer(
        "core.unattributed_frac",
        "ratio",
        Lower,
        "core.other_s / core.unit_s; above 0.02 the ledger is incomplete",
    ),
    layer(
        "core.face_split_share",
        "ratio",
        Lower,
        "ledger: share of the unit in face-splitting products",
    ),
    layer(
        "core.n_mu",
        "count",
        Lower,
        "ISDF rank the solves resolve to (largest job shape on served_stream)",
    ),
    layer(
        "core.recovery_rungs",
        "count",
        Lower,
        "recovery-ladder rungs taken (0 on a fault-free run)",
    ),
    layer(
        "core.v1_naive_frac",
        "ratio",
        Lower,
        "table4_ladder: share of the sweep spent in version 1",
    ),
    layer(
        "core.v2_qrcp_frac",
        "ratio",
        Lower,
        "table4_ladder: share of the sweep spent in version 2",
    ),
    layer(
        "core.v3_kmeans_frac",
        "ratio",
        Lower,
        "table4_ladder: share of the sweep spent in version 3",
    ),
    layer(
        "core.v4_lobpcg_frac",
        "ratio",
        Lower,
        "table4_ladder: share of the sweep spent in version 4",
    ),
    layer(
        "core.v5_implicit_frac",
        "ratio",
        Lower,
        "table4_ladder: share of the sweep spent in version 5",
    ),
    // pwdft.
    layer(
        "pwdft.share",
        "ratio",
        Lower,
        "share of the unit inside scf + from_ground_state (inclusive)",
    ),
    layer(
        "pwdft.scf_iterations",
        "count",
        Lower,
        "SCF iterations taken",
    ),
    layer(
        "pwdft.scf_residual",
        "ratio",
        Lower,
        "final density residual",
    ),
    layer(
        "pwdft.band_iterations",
        "count",
        Lower,
        "LOBPCG iterations inside the SCF band solves",
    ),
    layer(
        "pwdft.hamiltonian_apply_s",
        "s",
        Lower,
        "probe: KsHamiltonian::apply on N_r x (N_v+N_c)",
    ),
    // isdf.
    layer(
        "isdf.kmeans_s",
        "s",
        Lower,
        "ledger: K-Means point selection self time",
    ),
    layer(
        "isdf.theta_s",
        "s",
        Lower,
        "ledger: interpolation-vector (Theta) solve self time",
    ),
    layer(
        "isdf.theta_gflops",
        "Gflop/s",
        Higher,
        "computed 2*N_r*N_mu^2 + N_mu^3/3 + 2*N_r*N_mu*(N_v+N_c) flops over isdf.theta_s",
    ),
    layer(
        "isdf.qrcp_share",
        "ratio",
        Lower,
        "ledger: share of the unit in QRCP point selection",
    ),
    layer(
        "isdf.kmeans_probe_s",
        "s",
        Lower,
        "probe: pair_weights + kmeans_points at the workload's shape",
    ),
    layer(
        "isdf.kmeans_iterations",
        "count",
        Lower,
        "probe: Lloyd iterations",
    ),
    layer(
        "isdf.kmeans_objective",
        "1",
        Lower,
        "probe: final weighted within-cluster sum of squares",
    ),
    layer(
        "isdf.fit_rel_err",
        "ratio",
        Lower,
        "probe: IsdfDecomposition::sampled_relative_error at the K-Means points",
    ),
    // fftkit.
    layer(
        "fftkit.fft_s",
        "s",
        Lower,
        "ledger: f_Hxc kernel application self time",
    ),
    layer(
        "fftkit.fft_calls",
        "count",
        Lower,
        "3-D FFTs per unit (obskit counter)",
    ),
    layer(
        "fftkit.plan_cache_hits",
        "count",
        Higher,
        "1-D plan-cache hits per unit",
    ),
    layer(
        "fftkit.plan_cache_misses",
        "count",
        Lower,
        "1-D plan-cache misses per unit",
    ),
    layer(
        "fftkit.fft3_roundtrip_s",
        "s",
        Lower,
        "probe: forward_many + inverse_many per grid, batch of 8",
    ),
    layer(
        "fftkit.gflops",
        "Gflop/s",
        Higher,
        "probe: computed 2 * 5 N log2 N flops over the round trip",
    ),
    layer(
        "fftkit.hxc_apply_s",
        "s",
        Lower,
        "probe: HxcKernel::apply on N_r x min(N_mu, 256)",
    ),
    // mathkit.
    layer(
        "mathkit.gemm_s",
        "s",
        Lower,
        "ledger: dense contraction self time",
    ),
    layer(
        "mathkit.diag_s",
        "s",
        Lower,
        "ledger: diagonalisation (SYEV or LOBPCG) self time",
    ),
    layer(
        "mathkit.syev_share",
        "ratio",
        Lower,
        "ledger: share of the unit in dense SYEV spans",
    ),
    layer(
        "mathkit.lobpcg_iterations",
        "count",
        Lower,
        "LOBPCG iterations of the Casida eigensolve",
    ),
    layer(
        "mathkit.gemm_gflops",
        "Gflop/s",
        Higher,
        "probe: gemm_tn of N_r x min(N_mu, 512) with itself",
    ),
    layer(
        "mathkit.syev_s",
        "s",
        Lower,
        "probe: syev at n = min(N_cv, 512)",
    ),
    layer(
        "mathkit.solve_spd_s",
        "s",
        Lower,
        "probe: solve_spd at N_mu x N_mu with min(N_r, 1024) right-hand sides",
    ),
    // parcomm.
    layer(
        "parcomm.mpi_share",
        "ratio",
        Lower,
        "ledger: share of the unit inside collectives, mean over ranks",
    ),
    layer(
        "parcomm.wait_frac",
        "ratio",
        Lower,
        "ledger: the same for the rank that spent longest in collectives",
    ),
    layer(
        "parcomm.collective_calls",
        "count",
        Lower,
        "collective calls per unit, mean over ranks",
    ),
    layer(
        "parcomm.bytes",
        "B",
        Lower,
        "bytes a rank contributed to collectives per unit, mean over ranks",
    ),
    layer(
        "parcomm.allreduce_latency_us",
        "us",
        Lower,
        "probe: 2000 8-byte allreduce_sum on 2 ranks",
    ),
    layer(
        "parcomm.alltoallv_mb_per_s",
        "MB/s",
        Higher,
        "probe: 1 MiB per rank alltoallv on 2 ranks",
    ),
    // served.
    layer(
        "served.cache_hit_ratio",
        "ratio",
        Higher,
        "jobs answered from the result cache",
    ),
    layer(
        "served.mean_batch_size",
        "count",
        Higher,
        "mean batch size of executed jobs",
    ),
    layer(
        "served.queue_wait_frac",
        "ratio",
        Lower,
        "executed solo jobs: (latency - stage timings) / latency",
    ),
    layer(
        "served.sched_overhead_frac",
        "ratio",
        Lower,
        "executed solo jobs: (latency - solo distributed solve of the same shape) / latency",
    ),
    layer(
        "served.comm_calls_per_job",
        "count",
        Lower,
        "collective calls per executed job",
    ),
    layer("served.retries", "count", Lower, "retry attempts"),
    layer("served.degraded", "count", Lower, "degraded results"),
    layer("served.refused", "count", Lower, "admission refusals"),
    layer(
        "served.start_s",
        "s",
        Lower,
        "probe: Service::start of a 2-rank, 1-group pool",
    ),
    layer(
        "served.shutdown_s",
        "s",
        Lower,
        "probe: Service::shutdown of the idle pool",
    ),
    // obskit.
    layer(
        "obskit.trace_overhead_frac",
        "ratio",
        Lower,
        "traced over untraced median unit time, minus 1; above 0.02 the ledger is suspect",
    ),
    layer(
        "obskit.trace_events",
        "count",
        Lower,
        "events recorded per traced unit",
    ),
    layer(
        "obskit.traced_units",
        "count",
        Higher,
        "traced units the ledger medians are taken over",
    ),
    layer(
        "obskit.flops",
        "Gflop",
        Lower,
        "flops the instrumented kernels counted per unit",
    ),
];

/// `s` as a JSON string literal (the texts here hold no control characters).
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The text of `/BENCHMARK.json` (`--print-manifest`; a test pins the file
/// to it).
pub fn manifest_json() -> String {
    let rows = |rows: Vec<String>| rows.join(",\n");
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let metric = |m: &Metric| {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.label())
        )
    };
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        rows(workloads),
        rows(END_TO_END.iter().map(metric).collect()),
        rows(PER_LAYER.iter().map(metric).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        let first_ok = s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS.iter().map(|w| w.name) {
            assert!(name_ok(name), "{name}");
            assert!(seen.insert(name), "duplicate {name}");
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .map(|m| m.bound.unwrap())
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s takes the largest bound");
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, manifest_json(), "regenerate with --print-manifest");
        assert!(on_disk.len() <= 64 * 1024);
        // And it parses, with exactly the contract's keys.
        let v = obskit::chrome::parse_json(&on_disk).expect("valid JSON");
        for key in [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ] {
            assert!(v.get(key).is_some(), "missing {key}");
        }
        let names: Vec<&str> = v
            .get("per_layer")
            .and_then(|a| a.as_array())
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(|n| n.as_str()).unwrap())
            .collect();
        assert_eq!(names, PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((Better::Lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Better::Lower.worsening(10.0, 9.0) < 0.0);
    }
}
