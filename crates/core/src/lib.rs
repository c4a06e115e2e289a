//! # lrtddft — linear-response TDDFT with K-Means ISDF low-rank compression
//!
//! Rust reproduction of *"Accelerating Parallel First-Principles
//! Excited-State Calculation by Low-Rank Approximation with K-Means
//! Clustering"* (ICPP '22). The crate solves the Casida equation in the
//! Tamm–Dancoff approximation,
//!
//! ```text
//! H = D + 2 V_Hxc,     H x_i = λ_i x_i              (paper Eq. 2)
//! D(i_v i_c, j_v j_c) = (ε_{i_c} − ε_{i_v}) δ δ
//! V_Hxc = P_vcᵀ f_Hxc P_vc                           (paper Eq. 3)
//! ```
//!
//! in five versions of increasing sophistication (paper Table 4):
//!
//! 1. [`Version::Naive`] — explicit `P_vc`, dense `V_Hxc`, full `SYEV`;
//! 2. [`Version::QrcpIsdf`] — ISDF with QRCP points, dense eigensolve;
//! 3. [`Version::KmeansIsdf`] — ISDF with K-Means points, dense eigensolve;
//! 4. [`Version::KmeansIsdfLobpcg`] — explicit low-rank `H`, iterative
//!    LOBPCG for the lowest `k` excitations;
//! 5. [`Version::ImplicitKmeansIsdfLobpcg`] — matrix-free
//!    `H·X = D∘X + 2Cᵀ(Ṽ_Hxc(C·X))`, never forming the `N_cv × N_cv`
//!    Hamiltonian.
//!
//! [`Solver`] is the one configuration type; its `version` alone picks the
//! algorithms, on every door: [`Solver::solve`], [`Solver::solve_distributed`]
//! and a `served` job all run the build half [`Solver::hamiltonian`] and the
//! finish half [`Solver::eigensolve`], by the same version → (points,
//! explicit or matrix-free `H`, SYEV or LOBPCG) mapping. Both builds — dense
//! ([`parallel::distributed_dense_hamiltonian`]) and ISDF
//! ([`build_isdf_hamiltonian`]) — and the one Casida LOBPCG
//! ([`parallel_eig`]) are written once, against a communicator, and a serial
//! solve is their one-rank case. [`parallel`] holds the paper's
//! MPI pipeline (Algorithm 1) on the simulated-MPI runtime; [`pipeline`]
//! its contraction and, for `repro fig5`, the pipelined GEMM+`Reduce`.

pub mod analysis;
pub mod kernel;
pub mod metrics;
pub mod naive;
pub mod parallel;
pub mod parallel_eig;
pub mod pipeline;
pub mod problem;
pub mod rank;
pub mod recover;
pub mod solver;
pub mod spectrum;
pub mod timers;
pub mod versions;

pub use analysis::{analyze_states, describe_state, StateCharacter};
pub use kernel::HxcKernel;
pub use metrics::ComplexityEstimate;
pub use naive::build_dense_hamiltonian;
pub use problem::{silicon_like_problem, synthetic_problem, CasidaProblem, KernelKind};
pub use rank::IsdfRank;
pub use recover::degrade;
pub use solver::Solver;
pub use spectrum::{absorption_spectrum, oscillator_strengths, transition_dipoles};
pub use timers::StageTimings;
pub use versions::{
    build_isdf_hamiltonian, Hamiltonian, IsdfHamiltonian, PointSelector, Solution, Version,
    FIT_RESIDUAL_GUARD,
};
pub use faultkit::{NumericalError, SolveError};
