//! The five solver versions of paper Table 4, behind one entry point.

use crate::metrics::ComplexityEstimate;
use crate::parallel::distributed_kernel_apply;
use crate::pipeline::gram_allreduce;
use crate::problem::{check_finite, CasidaProblem, Slab};
use crate::timers::StageTimings;
use faultkit::{NumericalError, SolveError};
use isdf::interp::{floored_cholesky, gram_pair, GramPair};
use isdf::{
    face_splitting_product, kmeans_points_checked, pair_weights, qrcp_points,
    residual_sample_rows, sampled_residual_sums, KmeansOptions,
};
use mathkit::chol::solve_right_in_place;
use mathkit::gemm::{gemm, Transpose};
use mathkit::{simd, Mat};
use obskit::Stage;
use parcomm::Comm;
use std::borrow::Cow;

/// Interpolation-point selector for the ISDF versions.
#[derive(Clone, Copy, Debug)]
pub enum PointSelector {
    /// Traditional pivoted QR on `Zᵀ` (paper §4.1.1).
    Qrcp,
    /// Weighted K-Means clustering (paper §4.2).
    Kmeans(KmeansOptions),
}

/// The five versions of paper Table 4.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
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
    /// Recovery rungs taken during this solve — empty on a clean run, else
    /// the eigensolver's one `…; dense floor` line naming why LOBPCG failed.
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

/// What the build half of a solve ([`crate::Solver::hamiltonian`]) hands its
/// finish half: the dense `H` of Algorithm 1 (row 1) or the ISDF factors
/// (rows 2–5), replicated on every rank.
pub enum Hamiltonian {
    /// `H = D + 2 V_Hxc`, `N_cv × N_cv`.
    Dense(Mat),
    /// `H = D + 2 Cᵀ Ṽ C`, never formed unless asked.
    Isdf(IsdfHamiltonian),
}

impl Hamiltonian {
    /// `N_cv`, the order of `H`.
    pub fn n_cv(&self) -> usize {
        match self {
            Hamiltonian::Dense(h) => h.nrows(),
            Hamiltonian::Isdf(factors) => factors.diag_d.len(),
        }
    }

    /// The dense `H`: borrowed, or materialized from the factors.
    pub fn dense(&self) -> Cow<'_, Mat> {
        match self {
            Hamiltonian::Dense(h) => Cow::Borrowed(h),
            Hamiltonian::Isdf(factors) => Cow::Owned(factors.to_dense()),
        }
    }
}

/// Fit-residual guard for [`build_isdf_hamiltonian`]: a sampled relative
/// fit residual at or above this means the low-rank basis carries essentially
/// no signal (healthy fits — even aggressively rank-reduced ones — sit orders
/// of magnitude below it), so the build fails with the typed
/// [`NumericalError::FitResidual`].
pub const FIT_RESIDUAL_GUARD: f64 = 1.0;

/// Interpolation points per the selector, replicated on every rank. QRCP is
/// the reference selector and runs replicated; K-Means classifies this
/// rank's slab (paper §4.2), one packed reduction per sweep.
fn select_points(
    comm: &Comm,
    problem: &CasidaProblem,
    slab: &Slab,
    selector: PointSelector,
    n_mu: usize,
) -> Result<Vec<usize>, NumericalError> {
    let PointSelector::Kmeans(opts) = selector else {
        let _sp = obskit::span(Stage::Qrcp, "isdf.qrcp_points");
        return Ok(qrcp_points(&problem.psi_v, &problem.psi_c, n_mu));
    };
    let _sp = obskit::span(Stage::Kmeans, "kmeans.points");
    // Weights are gathered so that pruning and seeding replicate.
    let w = comm.allgatherv(&pair_weights(&slab.psi_v, &slab.psi_c));
    let coords: Vec<[f64; 3]> = (0..problem.n_r()).map(|i| problem.grid.coords(i)).collect();
    let mut sweep = 0.0;
    let reduce = |partials: &mut [f64]| {
        comm.allreduce_sum(partials);
        let args = [("sweep", sweep), ("objective", partials[partials.len() - 1])];
        obskit::instant(Stage::Kmeans, "kmeans.sweep", &args);
        sweep += 1.0;
    };
    let gather = |candidates: &[f64]| comm.allgatherv(candidates);
    let out = kmeans_points_checked(&coords, &w, n_mu, opts, slab.rows.clone(), reduce, gather)?;
    Ok(out.points)
}

/// The ISDF pipeline up to the replicated factors of `H = D + 2 Cᵀ Ṽ C`,
/// SPMD-collective on `comm` — a serial solve passes [`Comm::solo`].
/// Failures are typed: a sampled fit-residual guard, the input check
/// ([`CasidaProblem::check_inputs`]) going in and finiteness guards on
/// `C` / `Ṽ` coming out. Each is decided on replicated data, so the ranks of
/// a group fail together.
pub fn build_isdf_hamiltonian(
    comm: &Comm,
    problem: &CasidaProblem,
    selector: PointSelector,
    n_mu: usize,
) -> Result<IsdfHamiltonian, SolveError> {
    problem.check_inputs()?;

    let slab = problem.slab(comm);
    // Algorithm 1 + §4: the replicated factors and the sampled relative fit
    // residual.
    let (mut ham, residual) = {
        // Natural K-Means dedup shrinkage is accepted as the effective rank.
        let points = select_points(comm, problem, &slab, selector, n_mu)?;

        // Sampled orbital rows, assembled by summation — each point's row
        // lives on exactly one rank — ψ̂ then φ̂ packed into ONE collective.
        let sp = obskit::span(Stage::Theta, "theta.sample_rows");
        let sample = |m: &Mat| {
            let mine = |mu: usize| slab.rows.contains(&points[mu]);
            let row = |mu, j| if mine(mu) { m[(points[mu], j)] } else { 0.0 };
            Mat::from_fn(points.len(), m.ncols(), row)
        };
        let mut rows = sample(&problem.psi_v).into_vec();
        let n_psi = rows.len();
        rows.extend_from_slice(sample(&problem.psi_c).as_slice());
        comm.allreduce_sum(&mut rows);
        let phi_hat = Mat::from_vec(points.len(), problem.n_c(), rows.split_off(n_psi));
        let psi_hat = Mat::from_vec(points.len(), problem.n_v(), rows);
        drop(sp);

        // Half the Galerkin fit, in my slab's rows of B = ZCᵀ: with
        // CCᵀ + floor·I = LLᵀ, W = B·L⁻ᵀ is one tall right solve, and
        // Θ = W·L⁻¹ is never formed. L comes from the replicated sampled
        // rows, so every rank climbs the same Tikhonov ladder and a failed
        // fit fails everywhere. The residual guard solves Θ at its sampled
        // rows only.
        let sp = obskit::span(Stage::Theta, "theta.solve");
        let GramPair { zc_t: mut w, cc_t } =
            gram_pair(&slab.psi_v, &slab.psi_c, &psi_hat, &phi_hat);
        let l = floored_cholesky(cc_t)?;
        check_finite("isdf.zc_t", w.as_slice())?;
        solve_right_in_place(&mut w, &l, Transpose::Yes);
        let sample = residual_sample_rows(slab.rows.clone(), problem.n_r());
        let mut theta_rows = w.select_rows(&sample);
        solve_right_in_place(&mut theta_rows, &l, Transpose::No);
        let (psi, phi) = (&slab.psi_v, &slab.psi_c);
        let (num, den) = sampled_residual_sums(&theta_rows, psi, phi, &psi_hat, &phi_hat, &sample);
        drop(sp);
        let f_w = distributed_kernel_apply(comm, problem, &w);

        // Ṽ_Hxc = ΔV·Θᵀ(f_Hxc Θ) (paper Eq. 7) = L⁻ᵀ N L⁻¹ with
        // N = ΔV·Wᵀ(f_Hxc W), symmetric by construction (ΔV folds into its
        // alpha, and the two residual sums ride its reduction). The finish
        // is N_μ-sized: N·L⁻¹, transposed in place to L⁻ᵀN, then ·L⁻¹. Not
        // A⁻¹(Bᵀ f_Hxc B)A⁻¹ with A = CCᵀ: that form amplifies the rounding
        // of the reduction by κ(A)² instead of κ(A), and 2 ranks then left
        // the serial energies by 4.2e-10 on `silicon_like_problem(1, 12, 4)`.
        let _sp = obskit::span(Stage::Gemm, "v_tilde.contract");
        let (dv, mut sums) = (problem.grid.dv(), [num, den]);
        let mut v_tilde = gram_allreduce(comm, &w, &f_w, dv, &mut sums).local;
        solve_right_in_place(&mut v_tilde, &l, Transpose::No);
        v_tilde.transpose_in_place();
        solve_right_in_place(&mut v_tilde, &l, Transpose::No);
        v_tilde.symmetrize();
        let c = face_splitting_product(&psi_hat, &phi_hat);
        let fit_res = if sums[1] == 0.0 { 0.0 } else { (sums[0] / sums[1]).sqrt() };
        (IsdfHamiltonian { diag_d: problem.diag_d(), c, v_tilde }, fit_res)
    };
    // NaN residuals must trip the guard too, hence the is_nan arm.
    if residual.is_nan() || residual >= FIT_RESIDUAL_GUARD {
        let tolerance = FIT_RESIDUAL_GUARD;
        return Err(NumericalError::FitResidual { residual, tolerance }.into());
    }

    // Fault-injection hooks on the assembled factors, backed by real
    // finiteness guards — corruption here (from whatever source) must become
    // a typed error, not NaN excitation energies. A poison lands on the same
    // element of every rank's replicated copy.
    faultkit::inject_slice("ham.v_tilde", ham.v_tilde.as_mut_slice());
    faultkit::inject_slice("ham.c", ham.c.as_mut_slice());
    check_finite("ham.v_tilde", ham.v_tilde.as_slice())?;
    check_finite("ham.c", ham.c.as_slice())?;
    Ok(ham)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::HxcKernel;
    use crate::problem::{silicon_like_problem, synthetic_problem};
    use crate::rank::IsdfRank;
    use crate::solver::Solver;
    use isdf::{kmeans_points, IsdfDecomposition};
    use mathkit::gemm::symm_tn;
    use mathkit::syev;
    use parcomm::spmd;

    fn full_rank_opts(p: &CasidaProblem) -> Solver {
        Solver::builder().rank(IsdfRank::Fixed(p.n_cv()))
    }

    fn run(p: &CasidaProblem, v: Version, o: &Solver) -> Solution {
        o.version(v).solve(p).unwrap()
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
        let (solo, n_mu) = (Comm::solo(), p.n_cv());
        let ham = build_isdf_hamiltonian(&solo, &p, PointSelector::Qrcp, n_mu)
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
    fn one_rank_build_is_the_reference_composition() {
        // On a solo communicator the build is, bit for bit, the composition
        // written out here: serial K-Means, the whole-grid Gram pair, the
        // floored factor, W = ZCᵀ·L⁻ᵀ, one kernel application, the
        // symmetric ΔV contraction and the N_μ-sized L⁻ᵀ N L⁻¹ finish.
        let p = silicon_like_problem(1, 12, 4);
        let opts = Solver::default();
        let PointSelector::Kmeans(km) = opts.kmeans_selector() else { unreachable!() };
        let coords: Vec<[f64; 3]> = (0..p.n_r()).map(|i| p.grid.coords(i)).collect();
        let weights = pair_weights(&p.psi_v, &p.psi_c);
        for rank in [IsdfRank::Fixed(p.n_cv()), opts.rank] {
            let n_mu = rank.resolve(p.n_r(), p.n_v(), p.n_c());
            let solo = Comm::solo();
            let ham = build_isdf_hamiltonian(&solo, &p, opts.kmeans_selector(), n_mu)
                .expect("clean build");
            assert_eq!(solo.stats().collective_calls, 0, "a solo collective is not a call");

            let points = kmeans_points(&coords, &weights, n_mu, km).points;
            let (psi_hat, phi_hat) = (p.psi_v.select_rows(&points), p.psi_c.select_rows(&points));
            let GramPair { zc_t: mut w, cc_t } = gram_pair(&p.psi_v, &p.psi_c, &psi_hat, &phi_hat);
            let l = floored_cholesky(cc_t).expect("SPD Gram");
            solve_right_in_place(&mut w, &l, Transpose::Yes);
            let f_w = HxcKernel::for_problem(&p).apply(&w);
            let mut v_tilde = symm_tn(p.grid.dv(), &w, &f_w, 0..points.len());
            solve_right_in_place(&mut v_tilde, &l, Transpose::No);
            v_tilde.transpose_in_place();
            solve_right_in_place(&mut v_tilde, &l, Transpose::No);
            v_tilde.symmetrize();
            let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&ham.v_tilde), bits(&v_tilde), "Ṽ at rank {n_mu}");
            let c = face_splitting_product(&psi_hat, &phi_hat);
            assert_eq!(bits(&ham.c), bits(&c), "C at rank {n_mu}");
        }
    }

    #[test]
    fn v_tilde_matches_the_theta_composition() {
        // The W form reassociates Θᵀ(f_Hxc Θ) with Θ = W·L⁻¹: Ṽ and the
        // lowest energies agree with the textbook composition — the whole
        // Θ, the kernel on it, the ΔV GEMM — to 1e-12 relative, on the
        // shapes of the cross-rank test below.
        let problems = [
            silicon_like_problem(1, 12, 4),
            silicon_like_problem(1, 16, 8),
            synthetic_problem([8, 8, 8], 6.0, 2, 2),
        ];
        for p in &problems {
            let solver = Solver::builder().n_states(5).build();
            let (solo, n_mu) = (Comm::solo(), solver.n_mu(p));
            let selector = solver.kmeans_selector();
            let ham = build_isdf_hamiltonian(&solo, p, selector, n_mu).expect("clean build");
            let points = select_points(&solo, p, &p.slab(&solo), selector, n_mu)
                .expect("clean selection");
            let fit = IsdfDecomposition::build(&p.psi_v, &p.psi_c, &points);
            let f_theta = HxcKernel::for_problem(p).apply(&fit.theta);
            let mut v_tilde = Mat::zeros(points.len(), points.len());
            let dv = p.grid.dv();
            gemm(dv, &fit.theta, Transpose::Yes, &f_theta, Transpose::No, 0.0, &mut v_tilde);
            v_tilde.symmetrize();
            let rel = ham.v_tilde.max_abs_diff(&v_tilde) / v_tilde.norm_max();
            assert!(rel < 1e-12, "Ṽ differs by {rel:e} relative");

            let k = solver.n_states.min(p.n_cv());
            let energies = |v_tilde: &Mat| {
                let (diag_d, c, v_tilde) = (p.diag_d(), ham.c.clone(), v_tilde.clone());
                let h = IsdfHamiltonian { diag_d, c, v_tilde };
                syev(&h.to_dense()).values[..k].to_vec()
            };
            for (w, t) in energies(&ham.v_tilde).iter().zip(energies(&v_tilde)) {
                assert!((w - t).abs() <= 1e-12 * t.abs(), "{w} vs {t}");
            }
        }
    }

    #[test]
    fn every_rank_count_selects_the_serial_points_and_energies() {
        // One K-Means: the point list is *equal* on the calling thread and on
        // 1, 2 and 3 ranks, and with it the lowest energies agree to 1e-10
        // (8.3e-7 apart on the first shape while the distributed build had
        // its own clustering). Ṽ stays in the W = ZCᵀ·L⁻ᵀ form for this: the
        // full A⁻¹(ZCᵀ)ᵀ f_Hxc (ZCᵀ)A⁻¹ form put 2 ranks 4.2e-10 away from
        // the serial energy on the first shape.
        let problems = [
            silicon_like_problem(1, 12, 4),
            silicon_like_problem(1, 16, 8),
            synthetic_problem([8, 8, 8], 6.0, 2, 2),
        ];
        for p in &problems {
            let solver = Solver::builder().n_states(5).build();
            let n_mu = solver.n_mu(p);
            let points = |c: &Comm| {
                let slab = p.slab(c);
                select_points(c, p, &slab, solver.kmeans_selector(), n_mu).unwrap()
            };
            let serial_points = points(&Comm::solo());
            let serial = solver.solve(p).unwrap().energies;
            for ranks in [1usize, 2, 3] {
                for (pts, (energies, _)) in
                    spmd(ranks, |c| (points(c), solver.solve_distributed(c, p)))
                {
                    assert_eq!(pts, serial_points, "{ranks} ranks");
                    for (e, s) in energies.iter().zip(&serial) {
                        assert!((e - s).abs() <= 1e-10 * s.abs(), "{ranks} ranks: {e} vs {s}");
                    }
                }
            }
        }
    }

    #[test]
    fn reduced_rank_keeps_small_error() {
        // The paper's headline accuracy claim: low-rank + iterative introduces
        // only tiny relative errors (Table 5: ~0.001%–1%).
        let p = synthetic_problem([8, 8, 8], 6.0, 4, 3);
        let reference = run(&p, Version::Naive, &full_rank_opts(&p));
        let reduced = Solver::builder().rank(IsdfRank::Fixed(p.n_cv() * 3 / 4));
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
        let s = run(&p, Version::KmeansIsdf, &Solver::builder().rank(IsdfRank::Fixed(3)));
        assert_eq!(s.n_mu, 3);
        let s = run(&p, Version::Naive, &Solver::default());
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
        assert_eq!(Version::ImplicitKmeansIsdfLobpcg.label(), "Implicit-Kmeans-ISDF-LOBPCG");
    }
}
