//! One function per paper table/figure. Each returns an
//! [`ExperimentRecord`] (also printed) so `repro all` can assemble
//! EXPERIMENTS.md data.

use crate::report::{print_table, ExperimentRecord};
use crate::scaling::{isdf_construct_stages, CommPattern, ScalingStudy, Stage};
use isdf::{kmeans_points, pair_weights, qrcp_points, KmeansOptions};
use lrtddft::{
    build_isdf_hamiltonian,
    parallel::distributed_dense_hamiltonian,
    pipeline::{gram_allreduce, gram_pipelined_reduce},
    problem::{silicon_like_problem, CasidaProblem},
    IsdfRank, PointSelector, Solver, StageTimings, Version,
};
use mathkit::Mat;
use parcomm::{spmd, Comm, CostModel};
use pwdft::{bilayer_graphene, gaussian_dos, scf, water_in_box, Grid, ScfOptions};

fn run_solve(p: &CasidaProblem, v: Version, o: &Solver) -> lrtddft::Solution {
    o.version(v).solve(p).unwrap()
}
use std::time::Instant;

/// Problem scale knob for the harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Minutes-scale default on a laptop core.
    Default,
    /// Seconds-scale smoke run (CI-friendly).
    Quick,
    /// Larger ladder (tens of minutes).
    Full,
}

fn fmt_s(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.1}")
    } else if x >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

// ---------------------------------------------------------------- Table 3

/// Paper Table 3: time to select interpolation points, QRCP vs K-Means.
pub fn table3(scale: Scale) -> ExperimentRecord {
    // Paper: Si64, N_μ ∈ {512, 1024, 2048}. Scaled: a Si64-shaped synthetic
    // workload and N_μ scaled by the same N_e ratio.
    let (problem, n_mus): (CasidaProblem, Vec<usize>) = match scale {
        Scale::Quick => (silicon_like_problem(1, 12, 8), vec![16, 32, 64]),
        Scale::Default => (silicon_like_problem(2, 16, 16), vec![32, 64, 128]),
        Scale::Full => (silicon_like_problem(2, 32, 16), vec![128, 256, 512]),
    };
    let coords: Vec<[f64; 3]> = (0..problem.n_r()).map(|i| problem.grid.coords(i)).collect();
    let w = pair_weights(&problem.psi_v, &problem.psi_c);

    let mut rows = Vec::new();
    for &n_mu in &n_mus {
        let t0 = Instant::now();
        let q = qrcp_points(&problem.psi_v, &problem.psi_c, n_mu);
        let t_qrcp = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let k = kmeans_points(&coords, &w, n_mu, KmeansOptions::default());
        let t_kmeans = t0.elapsed().as_secs_f64();
        rows.push(vec![
            n_mu.to_string(),
            fmt_s(t_qrcp),
            fmt_s(t_kmeans),
            format!("{:.1}x", t_qrcp / t_kmeans.max(1e-12)),
            q.len().to_string(),
            k.points.len().to_string(),
        ]);
    }
    let headers = ["N_mu", "QRCP (s)", "K-Means (s)", "speedup", "#pts QRCP", "#pts KM"];
    println!("\n== Table 3: interpolation-point selection time (paper: 10.12/1.61, 42.16/2.85, 147.27/5.57 s) ==");
    print_table(&headers, &rows);
    ExperimentRecord::new(
        "table3",
        &headers,
        &rows,
        "Scaled Si64-shaped workload; paper shape: K-Means one order of magnitude faster, gap widening with N_mu.",
    )
}

// ---------------------------------------------------------------- Table 4

/// Paper Table 4: complexity model + measured stage times of all 5 versions.
pub fn table4(scale: Scale) -> ExperimentRecord {
    let problem = match scale {
        Scale::Quick => silicon_like_problem(1, 12, 4),
        _ => silicon_like_problem(1, 16, 8),
    };
    let opts = Solver::builder().n_states(3);
    let mut rows = Vec::new();
    for v in Version::all() {
        let t0 = Instant::now();
        let s = run_solve(&problem, v, &opts);
        let wall = t0.elapsed().as_secs_f64();
        rows.push(vec![
            v.label().to_string(),
            fmt_s(s.timings.construction()),
            fmt_s(s.timings.diag),
            fmt_s(wall),
            format!("{:.2e}", s.complexity.construct_flops),
            format!("{:.2e}", s.complexity.diag_flops),
            format!("{:.1} MB", s.complexity.total_bytes() / 1e6),
        ]);
    }
    let headers =
        ["version", "construct (s)", "diag (s)", "total (s)", "model C-flops", "model D-flops", "model mem"];
    println!("\n== Table 4: five versions, measured stages + complexity model ==");
    print_table(&headers, &rows);
    ExperimentRecord::new(
        "table4",
        &headers,
        &rows,
        "Implicit-Kmeans-ISDF-LOBPCG should dominate both phases; model columns are the paper's Table 4 leading terms.",
    )
}

// ---------------------------------------------------------------- Table 5

/// Paper Table 5: lowest excitation energies, naive vs ISDF-LOBPCG relative
/// error, on real SCF orbitals (H2O box + Si8). Our naive dense solver plays
/// the role of the QE reference (see DESIGN.md substitution table).
pub fn table5(scale: Scale) -> ExperimentRecord {
    let mut rows = Vec::new();
    let mut run_system = |label: &str, problem: &CasidaProblem, n_mu: usize| {
        let naive = run_solve(problem, Version::Naive, &Solver::builder().n_states(3));
        let isdf = run_solve(
            problem,
            Version::ImplicitKmeansIsdfLobpcg,
            &Solver::builder().n_states(3).rank(IsdfRank::Fixed(n_mu)),
        );
        for i in 0..3.min(naive.energies.len()) {
            let e_ref = naive.energies[i];
            let e_isdf = isdf.energies[i];
            let rel = (e_ref - e_isdf) / e_ref.abs().max(1e-300);
            rows.push(vec![
                label.to_string(),
                i.to_string(),
                format!("{e_ref:.6}"),
                format!("{e_isdf:.6}"),
                format!("{:.4}%", 100.0 * rel),
            ]);
        }
    };

    // H2O in a box (paper: 11 Å box, Ecut 100 Ha; scaled grid here).
    // Power-of-two grids keep the radix-2 FFT path (24³ would fall back to
    // the ~6x slower Bluestein transform).
    let (h2o_grid_n, si_grid, scf_iters) = match scale {
        Scale::Quick => (16usize, 12usize, 8),
        Scale::Default => (16, 16, 20),
        Scale::Full => (32, 16, 35),
    };
    let water = water_in_box(14.0);
    let wgrid = Grid::new(water.cell, [h2o_grid_n, h2o_grid_n, h2o_grid_n]);
    let wgs = scf(
        &wgrid,
        &water,
        ScfOptions { n_conduction: 4, max_iter: scf_iters, ..Default::default() },
    );
    let wproblem = CasidaProblem::from_ground_state(&wgrid, &wgs);
    run_system("H2O", &wproblem, (wproblem.n_cv() * 7 / 8).max(4));

    // Si8 (scaled from the paper's Si64).
    let si = pwdft::silicon_supercell(1);
    let sgrid = Grid::new(si.cell, [si_grid, si_grid, si_grid]);
    let sgs = scf(
        &sgrid,
        &si,
        ScfOptions { n_conduction: 4, max_iter: scf_iters, ..Default::default() },
    );
    let sproblem = CasidaProblem::from_ground_state(&sgrid, &sgs);
    run_system("Si8", &sproblem, (sproblem.n_cv() * 7 / 8).max(8));

    let headers = ["system", "state", "naive (Ha)", "ISDF-LOBPCG (Ha)", "rel. error"];
    println!("\n== Table 5: excitation-energy accuracy (paper: errors 0.12%-0.92%) ==");
    print_table(&headers, &rows);
    ExperimentRecord::new(
        "table5",
        &headers,
        &rows,
        "Reference = our dense naive solver (QE substitution per DESIGN.md); N_mu = 7/8 N_cv. Paper shape: sub-percent relative errors.",
    )
}

// ---------------------------------------------------------------- Table 6

/// Paper Table 6: wall-clock of naive vs ISDF-LOBPCG across system sizes.
pub fn table6(scale: Scale) -> ExperimentRecord {
    let ladder: Vec<(&str, usize, usize, usize)> = match scale {
        Scale::Quick => vec![("Si8-like", 1, 12, 4), ("Si8+", 1, 16, 8)],
        Scale::Default => vec![
            ("Si8-like", 1, 16, 8),
            ("Si64-like", 2, 16, 8),
            ("Si64-like+", 2, 16, 16),
        ],
        Scale::Full => vec![
            ("Si8-like", 1, 16, 8),
            ("Si64-like", 2, 16, 16),
            ("Si216-like", 3, 32, 8),
        ],
    };
    let mut rows = Vec::new();
    for (label, n_cells, grid_n, n_c) in ladder {
        let problem = silicon_like_problem(n_cells, grid_n, n_c);
        let opts = Solver::builder().n_states(8.min(problem.n_cv()));
        let t0 = Instant::now();
        let naive = run_solve(&problem, Version::Naive, &opts);
        let t_naive = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let fast = run_solve(&problem, Version::ImplicitKmeansIsdfLobpcg, &opts);
        let t_fast = t0.elapsed().as_secs_f64();
        let err = naive
            .energies
            .iter()
            .zip(&fast.energies)
            .map(|(a, b)| ((a - b) / a.abs().max(1e-300)).abs())
            .fold(0.0f64, f64::max);
        rows.push(vec![
            label.to_string(),
            format!("{}", problem.n_cv()),
            fmt_s(t_naive),
            fmt_s(t_fast),
            format!("{:.2}x", t_naive / t_fast.max(1e-12)),
            format!("{:.3}%", 100.0 * err),
        ]);
    }
    let headers = ["system", "N_cv", "Naive (s)", "ISDF-LOBPCG (s)", "speedup", "max rel err"];
    println!("\n== Table 6: naive vs ISDF-LOBPCG wall-clock (paper: 13.06x / 9.89x / 7.79x / 6.26x) ==");
    print_table(&headers, &rows);
    ExperimentRecord::new(
        "table6",
        &headers,
        &rows,
        "Paper shape: order-of-magnitude speedups, ratio drifting down as the (well-parallelized) dense parts grow.",
    )
}

// ---------------------------------------------------------------- Figure 2

/// Paper Fig. 2: K-Means interpolation points on a wavefunction projection.
pub fn fig2(_scale: Scale) -> ExperimentRecord {
    let problem = silicon_like_problem(1, 16, 4);
    let w = pair_weights(&problem.psi_v, &problem.psi_c);
    let coords: Vec<[f64; 3]> = (0..problem.n_r()).map(|i| problem.grid.coords(i)).collect();
    let out = kmeans_points(&coords, &w, 15, KmeansOptions::default());

    // Project weights and points onto the x-y plane.
    let n = problem.grid.n[0];
    let mut proj = vec![0.0f64; n * n];
    for i3 in 0..problem.grid.n[2] {
        for i2 in 0..problem.grid.n[1] {
            for i1 in 0..n {
                proj[i1 + n * i2] += w[problem.grid.idx(i1, i2, i3)];
            }
        }
    }
    let pmax = proj.iter().cloned().fold(0.0f64, f64::max);
    let mut marks = vec![false; n * n];
    for &p in &out.points {
        let i1 = p % n;
        let i2 = (p / n) % problem.grid.n[1];
        marks[i1 + n * i2] = true;
    }
    println!("\n== Figure 2: orbital-pair weight projection (shade) + K-Means points (*) ==");
    let shades = [' ', '.', ':', '-', '=', '+', 'x', '#'];
    for i2 in (0..n).rev() {
        let mut line = String::new();
        for i1 in 0..n {
            if marks[i1 + n * i2] {
                line.push('*');
            } else {
                let level = (proj[i1 + n * i2] / pmax * 7.0).round() as usize;
                line.push(shades[level.min(7)]);
            }
        }
        println!("  {line}");
    }
    let rows: Vec<Vec<String>> = out
        .points
        .iter()
        .map(|&p| {
            let c = problem.grid.coords(p);
            vec![p.to_string(), format!("{:.2}", c[0]), format!("{:.2}", c[1]), format!("{:.2}", c[2])]
        })
        .collect();
    let headers = ["grid idx", "x (Bohr)", "y", "z"];
    print_table(&headers, &rows);
    ExperimentRecord::new(
        "fig2",
        &headers,
        &rows,
        "15 interpolation points cluster on the high-weight (atom) regions, as in the paper's figure.",
    )
}

// ---------------------------------------------------------------- Figure 5

/// Paper Figs. 4–5: monolithic GEMM+Allreduce vs pipelined GEMM+Reduce.
pub fn fig5(scale: Scale) -> ExperimentRecord {
    let (nr, ncv) = match scale {
        Scale::Quick => (2048, 128),
        _ => (4096, 512),
    };
    let a = Mat::from_fn(nr, ncv, |i, j| (((i * 31 + j * 7) % 23) as f64) * 0.05 - 0.4);
    let mut rows = Vec::new();
    let mut comm_by_ranks = Vec::new();
    for ranks in [2usize, 4] {
        let res = spmd(ranks, |c| {
            let rr = parcomm::block_ranges(nr, ranks)[c.rank()].clone();
            let al = a.row_block(rr.start, rr.end);
            let t0 = Instant::now();
            let mono = gram_allreduce(c, &al, &al, 1.0, &mut []);
            let t_mono = t0.elapsed().as_secs_f64();
            c.barrier();
            let t0 = Instant::now();
            let pipe = gram_pipelined_reduce(c, &al, &al, 1.0);
            let t_pipe = t0.elapsed().as_secs_f64();
            (t_mono, t_pipe, mono.peak_words, pipe.peak_words, c.stats())
        });
        comm_by_ranks.push((ranks, res.iter().map(|r| r.4).collect::<Vec<_>>()));
        let (tm, tp, wm, wp) = res.into_iter().fold((0.0f64, 0.0f64, 0usize, 0usize), |acc, r| {
            (acc.0.max(r.0), acc.1.max(r.1), acc.2.max(r.2), acc.3.max(r.3))
        });
        rows.push(vec![
            format!("{ranks} (measured)"),
            fmt_s(tm),
            fmt_s(tp),
            format!("{:.1} MB", wm as f64 * 8.0 / 1e6),
            format!("{:.1} MB", wp as f64 * 8.0 / 1e6),
        ]);
    }
    // Modeled comm at Cori-like scales.
    let model = CostModel::default();
    for p in [128usize, 1024] {
        let bytes = ncv * ncv * 8;
        let mono = model.allreduce(p, bytes);
        let pipe = p as f64 * model.reduce(p, bytes / p);
        rows.push(vec![
            format!("{p} (alpha-beta model)"),
            fmt_s(mono),
            fmt_s(pipe),
            format!("{:.1} MB", bytes as f64 / 1e6),
            format!("{:.1} MB", bytes as f64 / p as f64 / 1e6),
        ]);
    }
    let headers = ["ranks", "monolithic (s)", "pipelined (s)", "mem/rank mono", "mem/rank pipe"];
    println!("\n== Figure 5: GEMM+reduction, monolithic vs pipelined ==");
    print_table(&headers, &rows);
    for (ranks, per_rank) in &comm_by_ranks {
        println!("\nmeasured run, {ranks} ranks:");
        crate::trace_cmd::print_comm_breakdown(per_rank);
    }
    ExperimentRecord::new(
        "fig5",
        &headers,
        &rows,
        "Pipelined variant stores 1/P of V_Hxc per rank; paper reports the GEMM+Allreduce stage at 12.87% of construction time.",
    )
}

// ------------------------------------------------------- Figures 7/8, weak

/// Calibrate per-stage serial works from real single-rank distributed runs.
pub struct Calibration {
    pub problem_label: String,
    pub n_r: usize,
    pub n_v: usize,
    pub n_c: usize,
    pub n_mu: usize,
    pub naive_t: StageTimings,
    pub isdf_t: StageTimings,
    pub t_syev: f64,
    pub t_lobpcg: f64,
    pub lobpcg_iters: usize,
}

pub fn calibrate(scale: Scale) -> Calibration {
    let (label, problem) = match scale {
        Scale::Quick => ("Si8-like(12)", silicon_like_problem(1, 12, 4)),
        _ => ("Si64-like(16)", silicon_like_problem(2, 16, 8)),
    };
    let n_mu = IsdfRank::default().resolve(problem.n_r(), problem.n_v(), problem.n_c());
    // Single-rank distributed runs give the per-stage serial works.
    let naive_t =
        spmd(1, |c| distributed_dense_hamiltonian(c, &problem).expect("dense build").1)
            .pop()
            .unwrap();
    let clock = obskit::StageClock::now();
    let selector = Solver::builder().kmeans_selector();
    build_isdf_hamiltonian(&Comm::solo(), &problem, selector, n_mu)
        .expect("isdf build on clean benchmark input");
    let isdf_t = StageTimings::since(clock);
    // Diagonalization works measured via the versions API.
    let opts = Solver::builder().n_states(8.min(problem.n_cv()));
    let dense = run_solve(&problem, Version::KmeansIsdf, &opts);
    let implicit = run_solve(&problem, Version::ImplicitKmeansIsdfLobpcg, &opts);
    Calibration {
        problem_label: label.to_string(),
        n_r: problem.n_r(),
        n_v: problem.n_v(),
        n_c: problem.n_c(),
        n_mu,
        naive_t,
        isdf_t,
        t_syev: dense.timings.diag,
        t_lobpcg: implicit.timings.diag,
        lobpcg_iters: implicit.lobpcg_iterations.unwrap_or(20),
    }
}

impl Calibration {
    pub fn n_cv(&self) -> usize {
        self.n_v * self.n_c
    }

    /// Strong-scaling study for the naive version.
    pub fn naive_study(&self) -> ScalingStudy {
        let ncv = self.n_cv();
        ScalingStudy::new(
            vec![
                Stage::new("face_split", self.naive_t.face_split, vec![]),
                Stage::new(
                    "fft",
                    self.naive_t.fft,
                    vec![CommPattern::Alltoall { global_bytes: self.n_r * ncv * 8, times: 2 }],
                ),
                Stage::new(
                    "gemm",
                    self.naive_t.gemm,
                    vec![CommPattern::Allreduce { bytes: ncv * ncv * 8, times: 1 }],
                ),
                Stage::new("diag", self.t_syev, vec![CommPattern::ScalapackDiag { n: ncv }]),
            ],
            CostModel::default(),
        )
    }

    /// Strong-scaling study for Kmeans-ISDF with dense diagonalization.
    pub fn isdf_study(&self) -> ScalingStudy {
        let mut stages = isdf_construct_stages(&self.isdf_t, self.n_r, self.n_v, self.n_c, self.n_mu);
        stages.push(Stage::new("diag", self.t_syev, vec![CommPattern::ScalapackDiag { n: self.n_cv() }]));
        ScalingStudy::new(stages, CostModel::default())
    }

    /// Strong-scaling study for the implicit ISDF-LOBPCG version.
    pub fn isdf_lobpcg_study(&self) -> ScalingStudy {
        let k = 8usize;
        let mut stages = isdf_construct_stages(&self.isdf_t, self.n_r, self.n_v, self.n_c, self.n_mu);
        stages.push(Stage::new(
            "diag",
            self.t_lobpcg,
            vec![CommPattern::Allreduce {
                bytes: (3 * k) * (3 * k) * 8,
                times: self.lobpcg_iters.max(1),
            }],
        ));
        ScalingStudy::new(stages, CostModel::default())
    }
}

/// Paper Fig. 7: strong scaling of Naive / ISDF / ISDF-LOBPCG.
pub fn fig7(scale: Scale) -> ExperimentRecord {
    let cal = calibrate(scale);
    let ranks = [128usize, 256, 512, 1024, 2048];
    let studies = [
        ("Naive", cal.naive_study()),
        ("ISDF", cal.isdf_study()),
        ("ISDF-LOBPCG", cal.isdf_lobpcg_study()),
    ];
    let mut rows = Vec::new();
    for (label, study) in &studies {
        for row in study.strong_scaling(&ranks) {
            rows.push(vec![
                label.to_string(),
                row.ranks.to_string(),
                fmt_s(row.total_seconds),
                fmt_s(row.compute_seconds),
                fmt_s(row.comm_seconds),
                format!("{:.1}%", 100.0 * row.parallel_efficiency),
            ]);
        }
    }
    let headers = ["version", "cores", "time (s)", "compute", "comm", "efficiency"];
    println!(
        "\n== Figure 7: strong scaling (calibrated on {}, alpha-beta extrapolated; paper: >50% at 2048 cores) ==",
        cal.problem_label
    );
    print_table(&headers, &rows);
    ExperimentRecord::new(
        "fig7",
        &headers,
        &rows,
        "Works measured serially on this host; collectives charged by alpha-beta model (DESIGN.md). Shape: efficiency decays with cores, ISDF-LOBPCG fastest in absolute time.",
    )
}

/// Paper Fig. 8: per-stage strong scaling of Hamiltonian construction.
pub fn fig8(scale: Scale) -> ExperimentRecord {
    let cal = calibrate(scale);
    let study = ScalingStudy::new(
        isdf_construct_stages(&cal.isdf_t, cal.n_r, cal.n_v, cal.n_c, cal.n_mu),
        CostModel::default(),
    );
    let ranks = [128usize, 256, 512, 1024, 2048];
    let mut rows = Vec::new();
    for row in study.strong_scaling(&ranks) {
        let mut r = vec![row.ranks.to_string()];
        for (_, secs) in &row.per_stage {
            r.push(fmt_s(*secs));
        }
        r.push(fmt_s(row.comm_seconds));
        r.push(fmt_s(row.total_seconds));
        rows.push(r);
    }
    let headers = ["cores", "kmeans", "theta", "fft", "gemm+allred", "comm(total)", "total"];
    println!("\n== Figure 8: construction-stage strong scaling (paper: all stages scale to 2048 cores; GEMM+Allreduce ~12.87% of construction) ==");
    print_table(&headers, &rows);
    let gemm_frac = cal.isdf_t.gemm / cal.isdf_t.construction().max(1e-12);
    println!("   measured GEMM share of construction at P=1: {:.1}%", 100.0 * gemm_frac);
    ExperimentRecord::new(
        "fig8",
        &headers,
        &rows,
        "Per-stage times from calibrated model; kmeans/fft/gemm scale near-ideally, comm grows with cores.",
    )
}

/// Paper §6.4: weak scaling — Si512→Si4096-shaped ladders at 1024 ranks.
pub fn weak_scaling(scale: Scale) -> ExperimentRecord {
    // Calibrate an effective flop rate from the measured GEMM stage, then
    // evaluate the Table 4 cost model for the paper ladder at P = 1024.
    let cal = calibrate(scale);
    let ncv = cal.n_cv() as f64;
    // The V_Hxc contraction is a symmetric product: its lower triangle.
    let gemm_flops = ncv * (ncv + 1.0) * cal.n_r as f64;
    let flop_rate = gemm_flops / cal.naive_t.gemm.max(1e-9);
    let model = CostModel::default();
    let p = 1024usize;

    let ladder: [(&str, usize); 5] =
        [("Si512", 512), ("Si1000", 1000), ("Si1728", 1728), ("Si2744", 2744), ("Si4096", 4096)];
    let mut rows = Vec::new();
    for (label, atoms) in ladder {
        let ne = 2 * atoms; // 4 valence electrons/atom → N_v = 2·atoms
        let n_v = ne;
        let n_c = ne / 8; // paper keeps a modest conduction window
        let n_r = 64 * atoms; // N_r ∝ atoms (fixed E_cut); scaled prefactor
        let n_mu = 10 * atoms;
        let est = lrtddft::metrics::ComplexityEstimate::for_version(
            Version::ImplicitKmeansIsdfLobpcg,
            n_r,
            n_mu,
            n_v,
            n_c,
            8,
        );
        let compute = est.total_flops() / flop_rate / p as f64;
        let comm = model.alltoallv(p, n_r * n_mu * 8 / p) * 2.0
            + model.allreduce(p, n_mu * n_mu * 8)
            + model.allreduce(p, 4 * n_mu * 8) * 30.0;
        rows.push(vec![
            label.to_string(),
            atoms.to_string(),
            format!("{:.2e}", est.total_flops()),
            fmt_s(compute + comm),
        ]);
    }
    let headers = ["system", "atoms", "model flops", "modeled time @1024 (s)"];
    println!("\n== Weak scaling (paper §6.4: 3.58, 10.23, 26.95, 35.58, 41.89 s at 1024 cores) ==");
    print_table(&headers, &rows);
    ExperimentRecord::new(
        "weak",
        &headers,
        &rows,
        "Times grow superlinearly in atoms, matching the paper's O(N^3)-dominated trend; absolute scale set by this host's measured flop rate.",
    )
}

// --------------------------------------------------------------- Ablations

/// Design-choice ablations called out in DESIGN.md:
/// (a) K-Means initialization strategy (the paper argues weight-guided init
///     is essential, §4.2), (b) ISDF rank vs accuracy, (c) LOBPCG vs the
///     Davidson alternative the paper cites.
pub fn ablation(scale: Scale) -> ExperimentRecord {
    use isdf::KmeansInit;
    use lrtddft::parallel_eig::{distributed_casida_lobpcg, initial_guess, precondition};
    use mathkit::davidson::{davidson, DavidsonOptions};
    use mathkit::lobpcg::LobpcgOptions;

    let problem = match scale {
        Scale::Quick => silicon_like_problem(1, 12, 4),
        _ => silicon_like_problem(1, 16, 8),
    };
    let mut rows = Vec::new();

    // (a) K-Means initialization: iterations + objective.
    let w = pair_weights(&problem.psi_v, &problem.psi_c);
    let coords: Vec<[f64; 3]> = (0..problem.n_r()).map(|i| problem.grid.coords(i)).collect();
    let n_mu = IsdfRank::default().resolve(problem.n_r(), problem.n_v(), problem.n_c());
    for init in [KmeansInit::WeightGuided, KmeansInit::PlusPlus, KmeansInit::Random] {
        let t0 = Instant::now();
        let out = kmeans_points(&coords, &w, n_mu, KmeansOptions { init, ..Default::default() });
        rows.push(vec![
            format!("kmeans-init {init:?}"),
            format!("{} iters", out.iterations),
            format!("obj {:.3e}", out.objective),
            fmt_s(t0.elapsed().as_secs_f64()),
        ]);
    }

    // (a') snap rule: ISDF accuracy with nearest-centroid vs max-weight snap.
    {
        let reference =
            run_solve(&problem, Version::Naive, &Solver::builder().n_states(1));
        for snap in [isdf::SnapRule::NearestCentroid, isdf::SnapRule::MaxWeight] {
            let ham = build_isdf_hamiltonian(
                &Comm::solo(),
                &problem,
                PointSelector::Kmeans(KmeansOptions { snap, ..Default::default() }),
                n_mu,
            )
            .expect("isdf build on clean benchmark input");
            let eig = mathkit::syev(&ham.to_dense());
            let rel = ((eig.values[0] - reference.energies[0]) / reference.energies[0]).abs();
            rows.push(vec![
                format!("kmeans-snap {snap:?}"),
                format!("lambda_0 {:.6}", eig.values[0]),
                format!("rel err {:.2e}", rel),
                String::new(),
            ]);
        }
    }

    // (b) rank sweep: relative error of the lowest excitation vs N_μ. A rank
    // too small for the fit-residual guard is refused by the build; its row
    // carries the typed error instead of an energy.
    let reference = run_solve(&problem, Version::Naive, &Solver::builder().n_states(1));
    for frac in [4usize, 8, 16, 32] {
        let n_mu = (problem.n_cv() * frac / 32).max(4);
        let label = format!("rank N_mu={n_mu} ({frac}/32 N_cv)");
        let solver = Solver::builder()
            .version(Version::ImplicitKmeansIsdfLobpcg)
            .n_states(1)
            .rank(IsdfRank::Fixed(n_mu));
        match solver.solve(&problem) {
            Ok(s) => {
                let rel = ((s.energies[0] - reference.energies[0]) / reference.energies[0]).abs();
                rows.push(vec![
                    label,
                    format!("lambda_0 {:.6}", s.energies[0]),
                    format!("rel err {:.2e}", rel),
                    String::new(),
                ]);
            }
            Err(e) => rows.push(vec![label, "refused".into(), e.to_string(), String::new()]),
        }
    }

    // (c) LOBPCG vs Davidson on the identical implicit operator.
    let ham = build_isdf_hamiltonian(
        &Comm::solo(),
        &problem,
        PointSelector::Kmeans(KmeansOptions::default()),
        n_mu,
    )
    .expect("isdf build on clean benchmark input");
    let k = 4;
    let opts = LobpcgOptions { max_iter: 400, tol: 1e-8 };
    let t0 = Instant::now();
    let lob = distributed_casida_lobpcg(&Comm::solo(), &ham, k, opts, 3)
        .expect("lobpcg breakdown on clean benchmark input");
    let t_lob = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let dav = davidson(
        |x| ham.apply(x),
        |r, theta| precondition(r, &ham.diag_d, theta),
        &initial_guess(&ham.diag_d, k, 3),
        DavidsonOptions { base: opts, max_space: 6 * k },
    );
    let t_dav = t0.elapsed().as_secs_f64();
    rows.push(vec![
        "eigensolver LOBPCG".into(),
        format!("{} iters", lob.iterations),
        format!("lambda_0 {:.6}", lob.values[0]),
        fmt_s(t_lob),
    ]);
    rows.push(vec![
        "eigensolver Davidson".into(),
        format!("{} iters", dav.iterations),
        format!("lambda_0 {:.6}", dav.values[0]),
        fmt_s(t_dav),
    ]);

    let headers = ["variant", "metric 1", "metric 2", "time (s)"];
    println!("\n== Ablations: K-Means init / ISDF rank / iterative eigensolver ==");
    print_table(&headers, &rows);
    ExperimentRecord::new(
        "ablation",
        &headers,
        &rows,
        "Weight-guided init converges fastest (paper §4.2); error falls monotonically with N_mu; LOBPCG and Davidson agree on the spectrum.",
    )
}

// ---------------------------------------------------------------- Figure 9

/// Paper Fig. 9: MATBG ground-/excited-state DOS at two interlayer
/// distances. Scaled stand-in: a Moiré-modulated bilayer-graphene cell.
pub fn fig9(scale: Scale) -> ExperimentRecord {
    let (nx, ny, grid_xy, grid_z, n_cond, scf_iters) = match scale {
        Scale::Quick => (1usize, 1usize, 8usize, 16usize, 4usize, 6),
        _ => (2, 1, 16, 32, 8, 14),
    };
    let mut rows = Vec::new();
    let mut fermi_dos = Vec::new();
    for d in [2.6f64, 4.0] {
        let s = bilayer_graphene(nx, ny, d, 18.0);
        let grid = Grid::new(s.cell, [grid_xy, grid_xy, grid_z]);
        let gs = scf(
            &grid,
            &s,
            ScfOptions { n_conduction: n_cond, max_iter: scf_iters, ..Default::default() },
        );
        // Ground-state DOS around the HOMO-LUMO region.
        let e_f = 0.5 * (gs.eps[gs.n_valence - 1] + gs.eps[gs.n_valence]);
        let lo = e_f - 0.6;
        let hi = e_f + 0.6;
        let dos = gaussian_dos(&gs.eps, None, 0.03, lo, hi, 41);
        let at_fermi = dos
            .iter()
            .min_by(|a, b| (a.0 - e_f).abs().partial_cmp(&(b.0 - e_f).abs()).unwrap())
            .unwrap()
            .1;
        fermi_dos.push(at_fermi);
        rows.push(vec![
            format!("D={d} A (ground)"),
            format!("{:.4}", gs.gap()),
            format!("{at_fermi:.3}"),
            format!("{}", gs.iterations),
        ]);
        // Excited-state DOS (paper Fig. 9b) for the close-stacked case.
        if (d - 2.6).abs() < 1e-9 {
            let problem = CasidaProblem::from_ground_state(&grid, &gs);
            let k = 8.min(problem.n_cv());
            let sol = run_solve(
                &problem,
                Version::ImplicitKmeansIsdfLobpcg,
                &Solver::builder().n_states(k),
            );
            let emax = sol.energies.iter().cloned().fold(0.0f64, f64::max) + 0.1;
            let xdos = gaussian_dos(&sol.energies, None, 0.02, 0.0, emax, 25);
            let peak = xdos.iter().cloned().fold((0.0, 0.0), |a, b| if b.1 > a.1 { b } else { a });
            rows.push(vec![
                format!("D={d} A (excited)"),
                format!("{:.4}", sol.energies[0]),
                format!("peak@{:.3}", peak.0),
                format!("{k} states"),
            ]);
        }
    }
    let headers = ["case", "gap / E_1 (Ha)", "DOS(E_F) / peak", "info"];
    println!("\n== Figure 9: bilayer-graphene (MATBG stand-in) DOS vs interlayer distance ==");
    print_table(&headers, &rows);
    println!(
        "   DOS at Fermi level: D=2.6 A -> {:.3}, D=4.0 A -> {:.3} (paper: localized states appear at small D)",
        fermi_dos[0], fermi_dos[1]
    );
    ExperimentRecord::new(
        "fig9",
        &headers,
        &rows,
        "Scaled Moire bilayer; the close-stacked layer shows more mid-gap spectral weight, echoing the paper's localized-state observation.",
    )
}
