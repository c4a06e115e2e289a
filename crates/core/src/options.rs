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
//! The scalar-kernel and unfused-reduction *reference* paths are not solve
//! options: they are process-wide switches (`MATHKIT_KERNEL`,
//! `PARCOMM_NO_FUSE`, `mathkit::force_kernel`,
//! `parcomm::set_fusion_enabled`) that a solve reads and never writes.

use crate::rank::IsdfRank;
use crate::versions::PointSelector;
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
    /// Degradation marker. `Some(label)` means this option set is a
    /// deliberate downgrade to a cheaper configuration — the one rung of
    /// [`crate::recover::degrade`] (`direct-eig`), applied by the serving
    /// scheduler under deadline pressure or a circuit-breaker probe; the
    /// label is recorded in `Solution::recovery` so a degraded answer is
    /// never silent. `None` (the default) leaves the clean path untouched.
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

    /// Mark this option set as a deliberate downgrade (see
    /// [`SolveOptions::degraded`]). The label lands in `Solution::recovery`.
    pub fn degraded(mut self, label: &'static str) -> Self {
        self.degraded = Some(label);
        self
    }

    /// The K-Means point selector of these options: default clustering
    /// knobs, seeded by [`SolveOptions::seed`].
    pub fn kmeans_selector(&self) -> PointSelector {
        PointSelector::Kmeans(isdf::KmeansOptions { seed: self.seed, ..Default::default() })
    }

    /// A fresh recovery log. A degraded option set must never produce a
    /// silently-degraded answer: its marker is the first entry, before
    /// anything runs.
    pub(crate) fn recovery_log(&self) -> Vec<String> {
        self.degraded.iter().map(|label| format!("degraded: {label}")).collect()
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
            .degraded("direct-eig");
        assert_eq!(o.n_states, 7);
        assert!(matches!(o.rank, IsdfRank::Fixed(12)));
        assert_eq!(o.lobpcg.max_iter, 10);
        assert_eq!(o.seed, 42);
        assert!(o.pipelined);
        assert_eq!(o.eigensolver, Eig::Syev);
        assert_eq!(o.degraded, Some("direct-eig"));
        assert_eq!(SolveOptions::default().degraded, None);
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
    }
}
