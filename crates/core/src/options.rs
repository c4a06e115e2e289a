//! Unified solver configuration.
//!
//! [`SolveOptions`] is one consuming builder shared by the serial and
//! distributed entry points, fronted by [`crate::Solver`]:
//!
//! ```
//! use lrtddft::{Eig, SolveOptions};
//! let opts = SolveOptions::new()
//!     .n_states(4)
//!     .pipelined(true)
//!     .eigensolver(Eig::Lobpcg);
//! assert_eq!(opts.n_states, 4);
//! assert!(opts.pipelined);
//! ```
//!
//! Runtime knobs that used to be env-only (`MATHKIT_KERNEL`,
//! `PARCOMM_NO_FUSE`) now have typed equivalents ([`KernelChoice`],
//! [`FusionPolicy`]); the env vars remain as overrides that win over the
//! programmatic setting, so CI's fallback matrices keep working unchanged.

use crate::rank::IsdfRank;
use mathkit::lobpcg::LobpcgOptions;

/// Which eigensolver the distributed solve finishes with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Eig {
    /// Replicated dense SYEV on the materialized factored Hamiltonian —
    /// exact, `O(N_cv³)`, fine while `N_cv` is small.
    Syev,
    /// Distributed matrix-free LOBPCG for the lowest `n_states` — the
    /// paper's Table 4 row (5) path.
    Lobpcg,
}

/// Arithmetic precision of the LOBPCG solve path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Precision {
    /// Everything in f64 — bitwise identical to the historical solver.
    #[default]
    Full,
    /// Iterative refinement: inner LOBPCG iterations apply an f32-storage
    /// copy of the ISDF factors (f64-accumulating mixed GEMMs), then a short
    /// full-f64 polish drives the residual to `opts.tol`. Falls back to the
    /// full-precision recovery ladder if refinement breaks down or fails to
    /// converge. Only affects the LOBPCG versions; dense-SYEV versions
    /// ignore it.
    MixedRefined,
}

/// Which dense-kernel SIMD path mathkit dispatches to — the typed
/// equivalent of the `MATHKIT_KERNEL` env var (which, when set, wins).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KernelChoice {
    /// Runtime CPU detection picks the best available path.
    #[default]
    Auto,
    /// Force the AVX2+FMA microkernels (panics at dispatch if the CPU
    /// can't run them).
    Avx2,
    /// Force the portable scalar reference kernels.
    Scalar,
}

/// Whether batched reductions fuse into one collective — the typed
/// equivalent of the `PARCOMM_NO_FUSE` env var (which, when set, wins).
/// Fused and unfused schedules are bitwise identical; unfused pays one
/// latency (α) per field.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FusionPolicy {
    /// Fuse pending same-op reductions into one wire collective (default).
    #[default]
    Fused,
    /// One collective per field — the reference schedule CI exercises via
    /// `PARCOMM_NO_FUSE=1`.
    Unfused,
}

/// Every knob of a serial or distributed LR-TDDFT solve, with a consuming
/// builder. `Default` reproduces the legacy `SolverParams::default()`
/// behavior: 3 states, `IsdfRank::default()` rank policy, 400-iteration
/// LOBPCG at `tol = 1e-8`, seed `0xcafe`, monolithic (non-pipelined)
/// reductions, LOBPCG eigensolver.
///
/// Non-exhaustive: construct via [`SolveOptions::new`] (or
/// [`crate::Solver::builder`]) and the builder methods, not a struct
/// literal, so future knobs can land without breaking downstream code.
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub struct SolveOptions {
    /// Number of excitations to return (`k`).
    pub n_states: usize,
    /// ISDF rank policy.
    pub rank: IsdfRank,
    /// LOBPCG settings (used when the eigensolver is iterative).
    pub lobpcg: LobpcgOptions,
    /// RNG seed (K-Means init, LOBPCG guess dressing).
    pub seed: u64,
    /// Use the pipelined GEMM+`Reduce` overlap schedule (paper Fig. 5) for
    /// the distributed `V_Hxc` / `Ṽ_Hxc` contractions instead of the
    /// monolithic GEMM+`Allreduce`. Bitwise-identical results either way.
    pub pipelined: bool,
    /// Final eigensolver for the distributed solve.
    pub eigensolver: Eig,
    /// Arithmetic precision of the LOBPCG solve path. `Full` (the default)
    /// is bitwise identical to the historical solver; `MixedRefined` runs
    /// f32-storage inner iterations with an f64 polish.
    pub precision: Precision,
    /// SIMD kernel dispatch policy (`MATHKIT_KERNEL` env wins when set).
    pub kernel: KernelChoice,
    /// Reduction fusion policy (`PARCOMM_NO_FUSE` env wins when set).
    pub fusion: FusionPolicy,
    /// Degradation marker. `Some(label)` means this option set is a
    /// deliberate downgrade to a cheaper configuration (one rung of
    /// [`crate::recover::degrade`], applied by the serving scheduler under
    /// deadline pressure or a circuit-breaker probe); the label is recorded
    /// in `Solution::recovery` so a degraded answer is never silent. `None`
    /// (the default) leaves the clean path untouched.
    pub degraded: Option<&'static str>,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            n_states: 3,
            rank: IsdfRank::default(),
            lobpcg: LobpcgOptions { max_iter: 400, tol: 1e-8 },
            seed: 0xcafe,
            pipelined: false,
            eigensolver: Eig::Lobpcg,
            precision: Precision::Full,
            kernel: KernelChoice::Auto,
            fusion: FusionPolicy::Fused,
            degraded: None,
        }
    }
}

impl SolveOptions {
    /// Start from the defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of excitations to return.
    pub fn n_states(mut self, k: usize) -> Self {
        self.n_states = k;
        self
    }

    /// ISDF rank policy.
    pub fn rank(mut self, rank: IsdfRank) -> Self {
        self.rank = rank;
        self
    }

    /// LOBPCG iteration/tolerance settings.
    pub fn lobpcg(mut self, opts: LobpcgOptions) -> Self {
        self.lobpcg = opts;
        self
    }

    /// RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Toggle the pipelined GEMM+`Reduce` overlap schedule.
    pub fn pipelined(mut self, on: bool) -> Self {
        self.pipelined = on;
        self
    }

    /// Final eigensolver for the distributed solve.
    pub fn eigensolver(mut self, eig: Eig) -> Self {
        self.eigensolver = eig;
        self
    }

    /// Arithmetic precision of the LOBPCG solve path.
    pub fn precision(mut self, p: Precision) -> Self {
        self.precision = p;
        self
    }

    /// SIMD kernel dispatch policy. Programmatic equivalent of
    /// `MATHKIT_KERNEL`; the env var, when set, overrides this.
    pub fn kernel(mut self, k: KernelChoice) -> Self {
        self.kernel = k;
        self
    }

    /// Reduction fusion policy. Programmatic equivalent of
    /// `PARCOMM_NO_FUSE`; the env var, when set, overrides this.
    pub fn fusion(mut self, f: FusionPolicy) -> Self {
        self.fusion = f;
        self
    }

    /// Mark this option set as a deliberate downgrade (see
    /// [`SolveOptions::degraded`]). The label lands in `Solution::recovery`.
    pub fn degraded(mut self, label: &'static str) -> Self {
        self.degraded = Some(label);
        self
    }

    /// Push the process-wide runtime knobs ([`KernelChoice`],
    /// [`FusionPolicy`]) into mathkit / parcomm. Env vars win: when
    /// `MATHKIT_KERNEL` or `PARCOMM_NO_FUSE` is set the corresponding
    /// programmatic setting is ignored, so CI's scalar-fallback and
    /// unfused-fallback matrices override whatever a caller hard-coded.
    ///
    /// Called by the [`crate::Solver`] facade before every solve. These are
    /// process-wide switches — concurrent solves wanting different policies
    /// should agree or accept last-writer-wins.
    pub fn apply_runtime_knobs(&self) {
        if std::env::var("MATHKIT_KERNEL").is_err() {
            match self.kernel {
                KernelChoice::Auto => mathkit::force_kernel(None),
                KernelChoice::Avx2 => mathkit::force_kernel(Some(mathkit::Kernel::Avx2)),
                KernelChoice::Scalar => mathkit::force_kernel(Some(mathkit::Kernel::Scalar)),
            }
        }
        if std::env::var("PARCOMM_NO_FUSE").is_err() {
            parcomm::set_fusion_enabled(self.fusion == FusionPolicy::Fused);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let o = SolveOptions::new()
            .n_states(7)
            .rank(IsdfRank::Fixed(12))
            .lobpcg(LobpcgOptions { max_iter: 10, tol: 1e-3 })
            .seed(42)
            .pipelined(true)
            .eigensolver(Eig::Syev)
            .precision(Precision::MixedRefined)
            .kernel(KernelChoice::Scalar)
            .fusion(FusionPolicy::Unfused)
            .degraded("rank-floor");
        assert_eq!(o.n_states, 7);
        assert!(matches!(o.rank, IsdfRank::Fixed(12)));
        assert_eq!(o.lobpcg.max_iter, 10);
        assert_eq!(o.seed, 42);
        assert!(o.pipelined);
        assert_eq!(o.eigensolver, Eig::Syev);
        assert_eq!(o.precision, Precision::MixedRefined);
        assert_eq!(o.kernel, KernelChoice::Scalar);
        assert_eq!(o.fusion, FusionPolicy::Unfused);
        assert_eq!(o.degraded, Some("rank-floor"));
        assert_eq!(SolveOptions::default().degraded, None);
    }

    #[test]
    fn default_precision_is_full() {
        // Full precision must stay the default: the fault-free f64 path is
        // contractually bitwise identical to the historical solver.
        assert_eq!(SolveOptions::default().precision, Precision::Full);
        assert_eq!(Precision::default(), Precision::Full);
    }

    #[test]
    fn defaults_match_legacy_solver_params() {
        // Pin the legacy `SolverParams::default()` behaviour the docs
        // promise: 3 states, seed 0xcafe, 400-iter LOBPCG, monolithic
        // reductions.
        let fresh = SolveOptions::default();
        assert_eq!(fresh.n_states, 3);
        assert_eq!(fresh.seed, 0xcafe);
        assert_eq!(fresh.lobpcg.max_iter, 400);
        assert!(!fresh.pipelined);
        assert_eq!(fresh.eigensolver, Eig::Lobpcg);
        assert_eq!(fresh.kernel, KernelChoice::Auto);
        assert_eq!(fresh.fusion, FusionPolicy::Fused);
    }

    #[test]
    fn runtime_knobs_round_trip_when_env_unset() {
        // Serialized with other kernel/fusion togglers via env checks: if
        // either env var is set this test degrades to a no-op assertion.
        if std::env::var("MATHKIT_KERNEL").is_ok() || std::env::var("PARCOMM_NO_FUSE").is_ok() {
            return;
        }
        SolveOptions::new().fusion(FusionPolicy::Unfused).apply_runtime_knobs();
        assert!(!parcomm::fusion_enabled());
        SolveOptions::new().apply_runtime_knobs();
        assert!(parcomm::fusion_enabled());
        assert_eq!(SolveOptions::default().kernel, KernelChoice::Auto);
    }
}
