//! Typed failure and the one recovery rung, on inputs that trip them. Every
//! `f_xc` entry at f64::MAX passes the input check and overflows `Ṽ`: the
//! build fails once, with `NonFinite` at `ham.v_tilde` on every rank. One
//! entry at f64::MAX leaves the factors finite but overflows LOBPCG's first
//! subspace Gram: the dense floor answers with one log line and the dense
//! row's energies, bit for bit. A late rank only delays a distributed solve.

use faultkit::{NumericalError, SolveError};
use lrtddft::problem::{synthetic_problem, CasidaProblem};
use lrtddft::{IsdfRank, Solver, Version};

/// The test problem with every `f_xc` entry at f64::MAX: `Ṽ` overflows.
fn overflowing_v_tilde() -> CasidaProblem {
    let mut p = synthetic_problem([8, 8, 8], 6.0, 2, 2);
    p.fxc.fill(f64::MAX);
    p
}

/// The test problem with `f_xc[100]` at f64::MAX: the factors and `H` stay
/// finite, LOBPCG's first subspace Gram overflows.
fn overflowing_gram() -> CasidaProblem {
    let mut p = synthetic_problem([8, 8, 8], 6.0, 2, 2);
    p.fxc[100] = f64::MAX;
    p
}

fn opts(p: &CasidaProblem) -> Solver {
    Solver::builder().rank(IsdfRank::Fixed(p.n_cv())).n_states(3).seed(7)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The distributed door runs the same build: every rank's `hamiltonian`
/// returns the same `NonFinite` (the factors are replicated, so the guard
/// trips alike everywhere).
#[test]
fn poisoned_v_tilde_fails_alike_on_every_rank_of_a_distributed_solve() {
    let p = overflowing_v_tilde();
    let solver = opts(&p);
    let errors = parcomm::spmd(2, |c| solver.hamiltonian(c, &p).map(|_| ()));
    match &errors[0] {
        Err(SolveError::Numerical(NumericalError::NonFinite { site, .. })) => {
            assert_eq!(site, "ham.v_tilde");
        }
        other => panic!("expected NonFinite at ham.v_tilde, got {other:?}"),
    }
    assert_eq!(errors[1], errors[0], "the ranks disagree");
}

/// An overflowed pair weight (`psi_v` ×1e160 on every 7th entry) is named
/// where K-Means meets it: the weights are gathered before the check, so
/// both ranks return `NonFinite` at `kmeans.pair_weights`, grid point 0.
#[test]
fn overflowed_pair_weight_fails_alike_on_every_rank() {
    let mut p = synthetic_problem([8, 8, 8], 6.0, 2, 2);
    p.psi_v.as_mut_slice().iter_mut().step_by(7).for_each(|x| *x *= 1e160);
    let solver = opts(&p).version(Version::KmeansIsdf);
    let errors = parcomm::spmd(2, |c| solver.hamiltonian(c, &p).map(|_| ()));
    let want = NumericalError::NonFinite { site: "kmeans.pair_weights".into(), index: 0 };
    assert_eq!(errors, vec![Err(want.clone().into()), Err(want.into())]);
}

/// Both inputs on every row, serially: the overflowed `Ṽ` fails each ISDF
/// row's one build with `NonFinite` at `ham.v_tilde` (row 1 forms no `Ṽ`,
/// and its `H` stays finite), and the overflowed LOBPCG Gram costs rows 4
/// and 5 exactly one `…; dense floor` line each, answered with row 3's
/// energies to the bit; the dense rows take no rung.
#[test]
fn every_serial_fault_fires_once_and_fails_typed_or_heals() {
    let p = overflowing_v_tilde();
    for v in Version::all().into_iter().filter(|v| v.uses_isdf()) {
        match opts(&p).version(v).solve(&p) {
            Err(SolveError::Numerical(NumericalError::NonFinite { site, .. })) => {
                assert_eq!(site, "ham.v_tilde", "{v:?}");
            }
            Err(other) => panic!("{v:?}: expected NonFinite at ham.v_tilde, got {other}"),
            Ok(s) => panic!("{v:?}: an overflowed Ṽ solved: {:?}", s.energies),
        }
    }

    let p = overflowing_gram();
    let row3 = opts(&p).version(Version::KmeansIsdf).solve(&p).expect("row 3").energies;
    for v in Version::all() {
        let s = opts(&p).version(v).solve(&p).expect("finite build");
        let lobpcg = matches!(v, Version::KmeansIsdfLobpcg | Version::ImplicitKmeansIsdfLobpcg);
        assert_eq!(s.recovery.len(), usize::from(lobpcg), "{v:?}: {:?}", s.recovery);
        if lobpcg {
            assert!(s.recovery[0].ends_with("; dense floor"), "{v:?}: {:?}", s.recovery);
            assert_eq!(bits(&s.energies), bits(&row3), "{v:?}");
        }
    }
}

/// A peer 1.2 s late to the build — longer than any wait that gives up
/// would allow — only delays it: rank 1 sleeps before `Solver::hamiltonian`,
/// so rank 0 waits for it at the build's first collective, and through
/// `hamiltonian` + `eigensolve` on 2 ranks the energies are the prompt
/// run's bit for bit and no recovery rung is taken.
#[test]
fn late_peer_delays_a_distributed_solve_without_a_recovery_rung() {
    let p = synthetic_problem([8, 8, 8], 6.0, 2, 2);
    let solver = opts(&p).version(Version::ImplicitKmeansIsdfLobpcg);
    let run = |late: bool| {
        parcomm::spmd(2, |c| {
            if late && c.rank() == 1 {
                std::thread::sleep(std::time::Duration::from_millis(1200));
            }
            let ham = solver.hamiltonian(c, &p).expect("build");
            let mut recovery = Vec::new();
            let values = solver.eigensolve(c, &ham, &mut recovery).values;
            (values, recovery)
        })
    };
    let clean = run(false);
    let t0 = std::time::Instant::now();
    let delayed = run(true);
    let waited = t0.elapsed();
    for ((values, recovery), (clean_values, _)) in delayed.iter().zip(&clean) {
        assert!(recovery.is_empty(), "a late peer took a recovery rung: {recovery:?}");
        assert_eq!(bits(values), bits(clean_values));
    }
    assert!(waited.as_secs_f64() >= 1.2, "the late peer was not waited out: {waited:?}");
}
