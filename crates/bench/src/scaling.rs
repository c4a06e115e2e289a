//! Calibrated strong/weak-scaling prediction.
//!
//! A stage is (measured serial compute seconds, communication pattern).
//! `T(P) = Σ_s W_s/min(P, P_max_s) + Σ_s comm_s(P)` with collective costs
//! from [`parcomm::CostModel`]. Byte counts mirror the real implementation
//! in `lrtddft::parallel`, so the predicted efficiency decay comes from the
//! same collectives the paper's Fig. 7/8 discussion attributes it to.

use parcomm::CostModel;

/// Communication pattern of one pipeline stage, parameterized by rank count.
#[derive(Clone, Copy, Debug)]
pub enum CommPattern {
    /// No communication.
    None,
    /// `times` allreduces of a replicated buffer of `bytes`.
    Allreduce { bytes: usize, times: usize },
    /// `times` all-to-alls of a globally distributed array of `global_bytes`
    /// (each rank sends `global_bytes / P`).
    Alltoall { global_bytes: usize, times: usize },
    /// `times` allgathers totalling `total_bytes`.
    Allgather { total_bytes: usize, times: usize },
    /// ScaLAPACK-style dense eigensolve communication for an `n × n` matrix:
    /// `≈ log₂(P)/√P` panel broadcasts of the matrix.
    ScalapackDiag { n: usize },
}

impl CommPattern {
    /// Modeled communication seconds at `p` ranks.
    pub fn seconds(&self, p: usize, model: &CostModel) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        match *self {
            CommPattern::None => 0.0,
            CommPattern::Allreduce { bytes, times } => {
                times as f64 * model.allreduce(p, bytes)
            }
            CommPattern::Alltoall { global_bytes, times } => {
                times as f64 * model.alltoallv(p, global_bytes / p)
            }
            CommPattern::Allgather { total_bytes, times } => {
                times as f64 * model.allgatherv(p, total_bytes)
            }
            CommPattern::ScalapackDiag { n } => {
                let pf = p as f64;
                let panels = pf.log2().max(1.0) / pf.sqrt();
                model.bcast(p, n * n * 8) * panels
            }
        }
    }
}

/// One pipeline stage with measured serial work.
#[derive(Clone, Debug)]
pub struct Stage {
    pub label: &'static str,
    /// Serial compute seconds (measured on this host at `P = 1`).
    pub work_seconds: f64,
    /// Communication per stage execution.
    pub comm: Vec<CommPattern>,
    /// Parallelizable fraction cap: compute cannot use more than this many
    /// ranks (e.g. a stage bounded by `N_μ` independent tasks).
    pub max_parallelism: usize,
}

impl Stage {
    pub fn new(label: &'static str, work_seconds: f64, comm: Vec<CommPattern>) -> Self {
        Stage { label, work_seconds, comm, max_parallelism: usize::MAX }
    }

    /// Predicted (compute, comm) seconds at `p` ranks.
    pub fn predict(&self, p: usize, model: &CostModel) -> (f64, f64) {
        let eff_p = p.min(self.max_parallelism).max(1);
        let compute = self.work_seconds / eff_p as f64;
        let comm: f64 = self.comm.iter().map(|c| c.seconds(p, model)).sum();
        (compute, comm)
    }
}

/// A full scaling study over a pipeline of stages.
pub struct ScalingStudy {
    pub stages: Vec<Stage>,
    pub model: CostModel,
}

/// One row of a strong-scaling table.
#[derive(Clone, Debug)]
pub struct ScalingRow {
    pub ranks: usize,
    pub total_seconds: f64,
    pub compute_seconds: f64,
    pub comm_seconds: f64,
    /// Speedup / (P / P_base), relative to the smallest rank count queried.
    pub parallel_efficiency: f64,
    /// Per-stage totals in stage order.
    pub per_stage: Vec<(&'static str, f64)>,
}

impl ScalingStudy {
    pub fn new(stages: Vec<Stage>, model: CostModel) -> Self {
        ScalingStudy { stages, model }
    }

    /// Predicted total time at `p` ranks.
    pub fn time_at(&self, p: usize) -> f64 {
        self.stages
            .iter()
            .map(|s| {
                let (c, m) = s.predict(p, &self.model);
                c + m
            })
            .sum()
    }

    /// Strong-scaling table over `rank_counts` with efficiency relative to
    /// the first entry (the paper's Fig. 7 normalizes at 128 cores).
    pub fn strong_scaling(&self, rank_counts: &[usize]) -> Vec<ScalingRow> {
        assert!(!rank_counts.is_empty());
        let base_p = rank_counts[0];
        let base_t = self.time_at(base_p);
        rank_counts
            .iter()
            .map(|&p| {
                let mut compute = 0.0;
                let mut comm = 0.0;
                let mut per_stage = Vec::with_capacity(self.stages.len());
                for s in &self.stages {
                    let (c, m) = s.predict(p, &self.model);
                    compute += c;
                    comm += m;
                    per_stage.push((s.label, c + m));
                }
                let total = compute + comm;
                let speedup = base_t / total;
                let parallel_efficiency = speedup / (p as f64 / base_p as f64);
                ScalingRow { ranks: p, total_seconds: total, compute_seconds: compute, comm_seconds: comm, parallel_efficiency, per_stage }
            })
            .collect()
    }
}

/// The Hamiltonian-construction stages of one K-Means ISDF build (paper
/// Fig. 8 scope: K-Means / Θ / FFT / GEMM+Allreduce), from the build's serial
/// stage seconds `t` on `n_r` grid points, `n_v` valence and `n_c`
/// conduction states, at rank `n_mu`. Every ISDF study, `repro fig8` and the
/// `scaling_study` example charge the build through this one model.
pub fn isdf_construct_stages(
    t: &lrtddft::StageTimings,
    n_r: usize,
    n_v: usize,
    n_c: usize,
    n_mu: usize,
) -> Vec<Stage> {
    vec![
        Stage::new(
            "kmeans",
            t.kmeans,
            vec![
                CommPattern::Allgather { total_bytes: n_r * 8, times: 1 },
                CommPattern::Allreduce { bytes: 4 * n_mu * 8, times: 30 },
            ],
        ),
        Stage::new(
            "theta",
            t.theta,
            vec![CommPattern::Allreduce { bytes: n_mu * (n_v + n_c) * 8, times: 2 }],
        ),
        Stage::new(
            "fft",
            t.fft,
            vec![CommPattern::Alltoall { global_bytes: n_r * n_mu * 8, times: 2 }],
        ),
        Stage::new(
            "gemm",
            t.gemm,
            vec![CommPattern::Allreduce { bytes: n_mu * n_mu * 8, times: 1 }],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_study() -> ScalingStudy {
        ScalingStudy::new(
            vec![
                Stage::new("gemm", 10.0, vec![CommPattern::Allreduce { bytes: 1 << 24, times: 1 }]),
                Stage::new(
                    "fft",
                    5.0,
                    vec![CommPattern::Alltoall { global_bytes: 1 << 28, times: 2 }],
                ),
            ],
            CostModel::default(),
        )
    }

    #[test]
    fn single_rank_has_no_comm() {
        let s = toy_study();
        assert!((s.time_at(1) - 15.0).abs() < 1e-12);
    }

    #[test]
    fn efficiency_decays_monotonically_at_scale() {
        let s = toy_study();
        let rows = s.strong_scaling(&[1, 8, 64, 512, 4096]);
        assert!((rows[0].parallel_efficiency - 1.0).abs() < 1e-12);
        for w in rows.windows(2) {
            assert!(
                w[1].parallel_efficiency <= w[0].parallel_efficiency + 1e-9,
                "efficiency should decay: {:?}",
                rows.iter().map(|r| r.parallel_efficiency).collect::<Vec<_>>()
            );
        }
        // still substantial speedup at moderate scale
        assert!(rows[1].total_seconds < rows[0].total_seconds);
    }

    #[test]
    fn comm_grows_with_ranks_for_allreduce() {
        let m = CostModel::default();
        let p1 = CommPattern::Allreduce { bytes: 1 << 20, times: 1 };
        assert!(p1.seconds(256, &m) > p1.seconds(4, &m));
    }

    #[test]
    fn alltoall_per_rank_bytes_shrink() {
        // Total bytes fixed: per-rank payload shrinks with P, so the β-term
        // decreases even as the α-term grows.
        let m = CostModel { alpha: 0.0, beta: 1e-9 };
        let p = CommPattern::Alltoall { global_bytes: 1 << 30, times: 1 };
        assert!(p.seconds(64, &m) < p.seconds(2, &m));
    }

    #[test]
    fn max_parallelism_caps_speedup() {
        let mut st = Stage::new("kmeans", 8.0, vec![]);
        st.max_parallelism = 4;
        let (c, _) = st.predict(1024, &CostModel::default());
        assert!((c - 2.0).abs() < 1e-12);
    }

    #[test]
    fn scalapack_diag_term_positive_and_sublinear() {
        let m = CostModel::default();
        let d = CommPattern::ScalapackDiag { n: 2048 };
        let t64 = d.seconds(64, &m);
        let t1024 = d.seconds(1024, &m);
        assert!(t64 > 0.0);
        // log/√P keeps growth mild
        assert!(t1024 < t64 * 16.0);
    }

    #[test]
    fn weak_scaling_flat_when_comm_free() {
        // With zero comm cost, doubling work and ranks keeps time constant.
        let model = CostModel::free();
        let t1 = ScalingStudy::new(vec![Stage::new("w", 4.0, vec![])], model).time_at(4);
        let t2 = ScalingStudy::new(vec![Stage::new("w", 8.0, vec![])], model).time_at(8);
        assert!((t1 - t2).abs() < 1e-12);
    }
}
