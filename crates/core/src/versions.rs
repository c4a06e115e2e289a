//! The five solver versions of paper Table 4, behind one entry point.

use crate::kernel::HxcKernel;
use crate::metrics::ComplexityEstimate;
use crate::problem::CasidaProblem;
use crate::timers::StageTimings;
use faultkit::{NumericalError, SolveError};
use isdf::{
    kmeans_points_checked, pair_weights, qrcp_points, IsdfDecomposition, KmeansOptions,
};
use mathkit::gemm::{gemm, Transpose};
use mathkit::{simd, Mat};

/// Interpolation-point selector for the ISDF versions.
#[derive(Clone, Copy, Debug)]
pub enum PointSelector {
    /// Traditional pivoted QR on `Zᵀ` (paper §4.1.1).
    Qrcp,
    /// Weighted K-Means clustering (paper §4.2).
    Kmeans(KmeansOptions),
}

/// The five versions of paper Table 4.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Version {
    /// (1) explicit construction + dense SYEV.
    Naive,
    /// (2) QRCP-ISDF + dense SYEV.
    QrcpIsdf,
    /// (3) K-Means-ISDF + dense SYEV.
    KmeansIsdf,
    /// (4) K-Means-ISDF + explicit H + LOBPCG.
    KmeansIsdfLobpcg,
    /// (5) K-Means-ISDF + matrix-free H + LOBPCG.
    ImplicitKmeansIsdfLobpcg,
}

impl Version {
    /// All five, in Table 4 order.
    pub fn all() -> [Version; 5] {
        [
            Version::Naive,
            Version::QrcpIsdf,
            Version::KmeansIsdf,
            Version::KmeansIsdfLobpcg,
            Version::ImplicitKmeansIsdfLobpcg,
        ]
    }

    pub fn label(&self) -> &'static str {
        match self {
            Version::Naive => "Naive",
            Version::QrcpIsdf => "QRCP-ISDF",
            Version::KmeansIsdf => "Kmeans-ISDF",
            Version::KmeansIsdfLobpcg => "Kmeans-ISDF-LOBPCG",
            Version::ImplicitKmeansIsdfLobpcg => "Implicit-Kmeans-ISDF-LOBPCG",
        }
    }

    pub fn uses_isdf(&self) -> bool {
        !matches!(self, Version::Naive)
    }

    pub fn uses_lobpcg(&self) -> bool {
        matches!(self, Version::KmeansIsdfLobpcg | Version::ImplicitKmeansIsdfLobpcg)
    }
}

/// What a solve returns.
pub struct Solution {
    /// Lowest `k` excitation energies, ascending.
    pub energies: Vec<f64>,
    /// Excitation coefficients (`N_cv × k`).
    pub coefficients: Mat,
    /// Stage timing breakdown.
    pub timings: StageTimings,
    /// ISDF rank actually used (0 for the naive version).
    pub n_mu: usize,
    /// LOBPCG iterations (None for dense solves).
    pub lobpcg_iterations: Option<usize>,
    /// Analytic complexity estimate at these dimensions (paper Table 4).
    pub complexity: ComplexityEstimate,
    /// Recovery-ladder rungs taken during this solve, in order — empty on a
    /// clean run. Each entry names what failed and how it was healed.
    pub recovery: Vec<String>,
}

/// The factored ISDF Hamiltonian pieces: `H = D + 2 Cᵀ Ṽ C`.
pub struct IsdfHamiltonian {
    /// Bare transition diagonal (`N_cv`).
    pub diag_d: Vec<f64>,
    /// Coefficients `C` (`N_μ × N_cv`).
    pub c: Mat,
    /// Projected kernel `Ṽ_Hxc = ΔV·Θᵀ(f_Hxc Θ)` (`N_μ × N_μ`, symmetric).
    pub v_tilde: Mat,
}

impl IsdfHamiltonian {
    /// Matrix-free application `H·X = D∘X + 2 Cᵀ(Ṽ(C·X))` (paper §4.3) —
    /// cost `k·O(N_μ N_v N_c)` per call, memory `O(N_μ²)`.
    pub fn apply(&self, x: &Mat) -> Mat {
        let ncv = self.diag_d.len();
        assert_eq!(x.nrows(), ncv);
        // CX: N_μ × k
        let mut cx = Mat::zeros(self.c.nrows(), x.ncols());
        gemm(1.0, &self.c, Transpose::No, x, Transpose::No, 0.0, &mut cx);
        // Ṽ (CX)
        let mut vcx = Mat::zeros(self.c.nrows(), x.ncols());
        gemm(1.0, &self.v_tilde, Transpose::No, &cx, Transpose::No, 0.0, &mut vcx);
        // 2 Cᵀ (·) + D∘X
        let mut out = Mat::zeros(ncv, x.ncols());
        gemm(2.0, &self.c, Transpose::Yes, &vcx, Transpose::No, 0.0, &mut out);
        for j in 0..x.ncols() {
            simd::pointwise_muladd(out.col_mut(j), &self.diag_d, x.col(j));
        }
        out
    }

    /// Materialize the dense `H` (versions 2–4).
    pub fn to_dense(&self) -> Mat {
        let ncv = self.diag_d.len();
        // VC = Ṽ C, then H₂ = Cᵀ (VC)
        let mut vc = Mat::zeros(self.c.nrows(), ncv);
        gemm(1.0, &self.v_tilde, Transpose::No, &self.c, Transpose::No, 0.0, &mut vc);
        let mut h = Mat::zeros(ncv, ncv);
        gemm(2.0, &self.c, Transpose::Yes, &vc, Transpose::No, 0.0, &mut h);
        for (i, d) in self.diag_d.iter().enumerate() {
            h[(i, i)] += d;
        }
        h.symmetrize();
        h
    }
}

/// Fit-residual guard for [`build_isdf_hamiltonian`]: a sampled relative
/// fit residual at or above this means the low-rank basis carries essentially
/// no signal (healthy fits — even aggressively rank-reduced ones — sit orders
/// of magnitude below it), so the build escalates the rank and retries.
pub const FIT_RESIDUAL_GUARD: f64 = 1.0;

/// Interpolation points per the selector, with the K-Means degenerate-start
/// recovery: a run that had to reseed empty clusters is retried once cleanly
/// (injected seeding faults are one-shot, so the retry is pristine).
fn select_isdf_points(
    problem: &CasidaProblem,
    selector: PointSelector,
    n_mu: usize,
    recovery: &mut Vec<String>,
) -> Result<Vec<usize>, SolveError> {
    match selector {
        PointSelector::Qrcp => {
            let sp = obskit::span(obskit::Stage::Qrcp, "isdf.qrcp_points");
            let pts = qrcp_points(&problem.psi_v, &problem.psi_c, n_mu);
            drop(sp);
            Ok(pts)
        }
        PointSelector::Kmeans(opts) => {
            let sp = obskit::span(obskit::Stage::Kmeans, "isdf.kmeans_points");
            let w = pair_weights(&problem.psi_v, &problem.psi_c);
            let coords: Vec<[f64; 3]> =
                (0..problem.n_r()).map(|i| problem.grid.coords(i)).collect();
            let mut out = kmeans_points_checked(&coords, &w, n_mu, opts)?;
            if out.reseeded > 0 {
                recovery.push(format!(
                    "kmeans: {} empty cluster(s) reseeded — degenerate start, clean retry",
                    out.reseeded
                ));
                out = kmeans_points_checked(&coords, &w, n_mu, opts)?;
            }
            drop(sp);
            Ok(out.points)
        }
    }
}

/// Θ fit for a point set (Galerkin LS with separable Gram matrices).
fn fit_isdf(problem: &CasidaProblem, points: &[usize]) -> Result<IsdfDecomposition, SolveError> {
    let sp = obskit::span(obskit::Stage::Theta, "isdf.theta");
    let isdf = IsdfDecomposition::try_build(&problem.psi_v, &problem.psi_c, points)?;
    drop(sp);
    Ok(isdf)
}

/// Run the ISDF pipeline up to the factored Hamiltonian, with typed failure
/// reporting and built-in recovery: point-starvation re-selection, a sampled
/// fit-residual guard with one rank-escalation retry, and finiteness guards
/// on the assembled `C` / `Ṽ` factors. Rungs taken are appended to
/// `recovery`.
pub fn build_isdf_hamiltonian(
    problem: &CasidaProblem,
    selector: PointSelector,
    n_mu: usize,
    recovery: &mut Vec<String>,
) -> Result<IsdfHamiltonian, SolveError> {
    problem.validate();
    let dv = problem.grid.dv();

    // Interpolation points, with the rank-starvation guard: a selector that
    // comes back short (here, only via injection — natural K-Means dedup
    // shrinkage is accepted downstream as n_mu_eff) is re-run at the
    // requested rank.
    let mut points = select_isdf_points(problem, selector, n_mu, recovery)?;
    if faultkit::starve_points("isdf.points", &mut points) {
        recovery.push(format!(
            "isdf.points: starved to {} of {n_mu}, re-selecting",
            points.len()
        ));
        points = select_isdf_points(problem, selector, n_mu, recovery)?;
    }

    // Interpolation vectors Θ, guarded by the sampled fit residual with one
    // rank-escalation retry.
    let mut isdf = fit_isdf(problem, &points)?;
    // NaN residuals must trip the guard too, hence the is_nan arm.
    let fit_res = isdf.sampled_relative_error(&problem.psi_v, &problem.psi_c);
    if fit_res.is_nan() || fit_res >= FIT_RESIDUAL_GUARD {
        let n_esc = (n_mu + n_mu.div_ceil(2)).min(problem.n_cv());
        recovery.push(format!(
            "isdf.fit: residual {fit_res:.3e} breaches guard, escalating rank {n_mu} -> {n_esc}"
        ));
        let points_esc = select_isdf_points(problem, selector, n_esc, recovery)?;
        isdf = fit_isdf(problem, &points_esc)?;
        let second = isdf.sampled_relative_error(&problem.psi_v, &problem.psi_c);
        if second.is_nan() || second >= FIT_RESIDUAL_GUARD {
            return Err(NumericalError::FitResidual {
                residual: second,
                tolerance: FIT_RESIDUAL_GUARD,
            }
            .into());
        }
    }

    // Ṽ_Hxc = ΔV · Θᵀ (f_Hxc Θ) (paper Eq. 7).
    let sp = obskit::span(obskit::Stage::Fft, "kernel.apply");
    let kernel = HxcKernel::for_problem(problem);
    let f_theta = kernel.apply(&isdf.theta);
    drop(sp);
    let sp = obskit::span(obskit::Stage::Gemm, "v_tilde.contract");
    // ΔV folds into the contraction's alpha — no separate scale pass.
    let mut v_tilde = Mat::zeros(isdf.theta.ncols(), f_theta.ncols());
    gemm(dv, &isdf.theta, Transpose::Yes, &f_theta, Transpose::No, 0.0, &mut v_tilde);
    v_tilde.symmetrize();
    let mut c = isdf.coefficients();
    drop(sp);

    // Fault-injection hooks on the assembled factors, backed by real
    // finiteness guards — corruption here (from whatever source) must become
    // a typed error, not NaN excitation energies.
    faultkit::inject_slice("ham.v_tilde", v_tilde.as_mut_slice());
    faultkit::inject_slice("ham.c", c.as_mut_slice());
    if let Some(bad) = v_tilde.as_slice().iter().position(|v| !v.is_finite()) {
        return Err(NumericalError::NonFinite { site: "ham.v_tilde".into(), index: bad }.into());
    }
    if let Some(bad) = c.as_slice().iter().position(|v| !v.is_finite()) {
        return Err(NumericalError::NonFinite { site: "ham.c".into(), index: bad }.into());
    }

    Ok(IsdfHamiltonian { diag_d: problem.diag_d(), c, v_tilde })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::SolveOptions;
    use crate::rank::IsdfRank;
    use crate::problem::synthetic_problem;
    use crate::solver::Solver;

    fn full_rank_opts(p: &CasidaProblem) -> SolveOptions {
        SolveOptions::new().rank(IsdfRank::Fixed(p.n_cv()))
    }

    /// All solves in this module go through the `Solver` facade.
    fn run(p: &CasidaProblem, v: Version, o: &SolveOptions) -> Solution {
        Solver::builder().version(v).options(*o).build().solve(p).unwrap()
    }

    #[test]
    fn all_versions_agree_at_full_rank() {
        // With N_μ = N_cv the ISDF fit is (numerically) exact, so versions
        // 2–5 must reproduce the naive spectrum.
        let p = synthetic_problem([8, 8, 8], 6.0, 3, 2);
        let opts = full_rank_opts(&p);
        let reference = run(&p, Version::Naive, &opts);
        for v in [
            Version::QrcpIsdf,
            Version::KmeansIsdf,
            Version::KmeansIsdfLobpcg,
            Version::ImplicitKmeansIsdfLobpcg,
        ] {
            let s = run(&p, v, &opts);
            for i in 0..3 {
                let rel = (s.energies[i] - reference.energies[i]).abs()
                    / reference.energies[i].abs().max(1e-12);
                assert!(rel < 1e-5, "{:?} λ_{i}: {} vs {}", v, s.energies[i], reference.energies[i]);
            }
        }
    }

    #[test]
    fn explicit_and_implicit_hamiltonians_identical() {
        let p = synthetic_problem([8, 8, 8], 7.0, 2, 3);
        let ham = build_isdf_hamiltonian(&p, PointSelector::Qrcp, p.n_cv(), &mut Vec::new())
            .expect("clean full-rank build");
        let dense = ham.to_dense();
        // Apply to random block and compare.
        let mut s = 5u64;
        let x = Mat::from_fn(p.n_cv(), 4, |_, _| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) - 0.5
        });
        let implicit = ham.apply(&x);
        let mut explicit = Mat::zeros(p.n_cv(), 4);
        gemm(1.0, &dense, Transpose::No, &x, Transpose::No, 0.0, &mut explicit);
        assert!(implicit.max_abs_diff(&explicit) < 1e-9);
    }

    #[test]
    fn reduced_rank_keeps_small_error() {
        // The paper's headline accuracy claim: low-rank + iterative introduces
        // only tiny relative errors (Table 5: ~0.001%–1%).
        let p = synthetic_problem([8, 8, 8], 6.0, 4, 3);
        let reference = run(&p, Version::Naive, &full_rank_opts(&p));
        let reduced = SolveOptions::new().rank(IsdfRank::Fixed(p.n_cv() * 3 / 4));
        let s = run(&p, Version::ImplicitKmeansIsdfLobpcg, &reduced);
        for i in 0..3 {
            let rel = (s.energies[i] - reference.energies[i]).abs()
                / reference.energies[i].abs().max(1e-12);
            assert!(rel < 0.05, "λ_{i} relative error {rel}");
        }
    }

    #[test]
    fn timing_stages_populated_per_version() {
        let p = synthetic_problem([8, 8, 8], 6.0, 2, 2);
        let opts = full_rank_opts(&p);
        let naive = run(&p, Version::Naive, &opts);
        assert!(naive.timings.face_split > 0.0);
        assert!(naive.timings.kmeans == 0.0);
        let km = run(&p, Version::KmeansIsdf, &opts);
        assert!(km.timings.kmeans > 0.0);
        assert!(km.timings.qrcp == 0.0);
        assert!(km.timings.theta > 0.0);
        let qr = run(&p, Version::QrcpIsdf, &opts);
        assert!(qr.timings.qrcp > 0.0);
        let imp = run(&p, Version::ImplicitKmeansIsdfLobpcg, &opts);
        assert!(imp.lobpcg_iterations.is_some());
        assert!(imp.timings.diag > 0.0);
    }

    #[test]
    fn n_mu_reported() {
        let p = synthetic_problem([8, 8, 8], 6.0, 2, 2);
        let s = run(&p, Version::KmeansIsdf, &SolveOptions::new().rank(IsdfRank::Fixed(3)));
        assert_eq!(s.n_mu, 3);
        let s = run(&p, Version::Naive, &SolveOptions::default());
        assert_eq!(s.n_mu, 0);
    }

    #[test]
    fn triplet_channel_lowers_excitations() {
        // Dropping the (repulsive) Hartree term must lower the lowest
        // excitation relative to the singlet channel.
        let mut p = synthetic_problem([8, 8, 8], 6.0, 2, 2);
        let opts = full_rank_opts(&p);
        let singlet = run(&p, Version::Naive, &opts);
        p.kernel_kind = crate::problem::KernelKind::Triplet;
        let triplet = run(&p, Version::Naive, &opts);
        assert!(
            triplet.energies[0] < singlet.energies[0],
            "triplet {} should lie below singlet {}",
            triplet.energies[0],
            singlet.energies[0]
        );
        // and the ISDF path honours the channel too
        let triplet_isdf = run(&p, Version::ImplicitKmeansIsdfLobpcg, &opts);
        let rel = (triplet_isdf.energies[0] - triplet.energies[0]).abs()
            / triplet.energies[0].abs().max(1e-12);
        assert!(rel < 1e-5, "ISDF triplet mismatch: rel {rel}");
    }

    #[test]
    fn version_labels_and_flags() {
        assert_eq!(Version::all().len(), 5);
        assert!(!Version::Naive.uses_isdf());
        assert!(Version::QrcpIsdf.uses_isdf());
        assert!(Version::ImplicitKmeansIsdfLobpcg.uses_lobpcg());
        assert!(!Version::KmeansIsdf.uses_lobpcg());
        assert_eq!(Version::ImplicitKmeansIsdfLobpcg.label(), "Implicit-Kmeans-ISDF-LOBPCG");
    }
}
