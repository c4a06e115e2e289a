//! The pool splits every region into contiguous parts and never splits a
//! reduction, so each kernel returns the same bits at any thread count.
//! Every case here runs at 1, 2 and 3 threads (`ThreadPool::install`) on
//! shapes large enough that the regions really split, and compares the
//! outputs with `to_bits`.

use fftkit::{Complex, Fft3};
use isdf::{face_splitting_product, kmeans_points, qrcp_points, KmeansOptions};
use lrtddft::{silicon_like_problem, Solver};
use mathkit::chol::{cholesky, solve_right_in_place};
use mathkit::gemm::{symm_tn, syrk_tn};
use mathkit::{gemm, qrcp, Mat, Transpose};
use pwdft::{scf, silicon_supercell, Grid, ScfOptions};
use rayon::ThreadPool;

/// `f` at 1, 2 and 3 threads, as bits; panics naming `what` if they differ.
fn same_bits_at_every_count(what: &str, f: impl Fn() -> Vec<f64>) {
    let runs: Vec<Vec<u64>> = [1, 2, 3]
        .iter()
        .map(|&t| ThreadPool::new(t).install(&f).iter().map(|v| v.to_bits()).collect())
        .collect();
    assert!(!runs[0].is_empty(), "{what}: empty output");
    assert_eq!(runs[0], runs[1], "{what}: 2 threads moved bits");
    assert_eq!(runs[0], runs[2], "{what}: 3 threads moved bits");
}

fn random(rows: usize, cols: usize, seed: u64) -> Mat {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    Mat::from_fn(rows, cols, |_, _| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    })
}

#[test]
fn gemm_paths_and_symmetric_products() {
    use Transpose::{No, Yes};
    // (m, n, k) of the blocked, skinny-packed and skinny-column paths.
    for (path, (m, n, k)) in [
        ("blocked", (300, 200, 150)),
        ("skinny_packed", (3000, 5, 400)),
        ("skinny_cols", (2000, 10, 600)),
    ] {
        for (ta, tb) in [(No, No), (No, Yes), (Yes, No), (Yes, Yes)] {
            let a = if ta == No { random(m, k, 1) } else { random(k, m, 1) };
            let b = if tb == No { random(k, n, 2) } else { random(n, k, 2) };
            let c0 = random(m, n, 3);
            same_bits_at_every_count(&format!("gemm {path} {ta:?}{tb:?}"), || {
                let mut c = c0.clone();
                gemm(0.75, &a, ta, &b, tb, 0.5, &mut c);
                c.into_vec()
            });
        }
    }
    let (a, b) = (random(2000, 300, 4), random(2000, 300, 5));
    same_bits_at_every_count("syrk_tn", || syrk_tn(&a).into_vec());
    same_bits_at_every_count("symm_tn", || symm_tn(0.5, &a, &b, 100..300).into_vec());
}

#[test]
fn triangular_solve_over_several_leaf_blocks() {
    let g = random(400, 200, 6);
    let mut spd = syrk_tn(&g);
    for i in 0..200 {
        spd[(i, i)] += 200.0;
    }
    let b = random(1000, 200, 7);
    same_bits_at_every_count("cholesky + solve_right_in_place", || {
        let l = cholesky(&spd).expect("diagonally dominant");
        let mut x = b.clone();
        solve_right_in_place(&mut x, &l, Transpose::Yes);
        solve_right_in_place(&mut x, &l, Transpose::No);
        x.into_vec()
    });
}

#[test]
fn fft_batches_with_an_odd_column_count() {
    let plan = Fft3::new(20, 20, 20);
    let grids = random(2 * plan.len(), 15, 8).into_vec();
    same_bits_at_every_count("forward_many", || {
        let mut batch: Vec<Complex> = grids.chunks(2).map(|p| Complex::new(p[0], p[1])).collect();
        plan.forward_many(&mut batch);
        batch.iter().flat_map(|z| [z.re, z.im]).collect()
    });
    // Even under G → −G: a function of the squared frequency index.
    let coeff: Vec<f64> = (0..plan.len())
        .map(|g| {
            let f = |i: usize, n: usize| i.min(n - i) as f64;
            let (i1, i2, i3) = (g % 20, g / 20 % 20, g / 400);
            1.0 / (1.0 + f(i1, 20).powi(2) + f(i2, 20).powi(2) + f(i3, 20).powi(2))
        })
        .collect();
    let fields = random(plan.len(), 19, 9).into_vec();
    same_bits_at_every_count("apply_real_diagonal_batch", || {
        let mut out = random(plan.len(), 19, 10).into_vec();
        plan.apply_real_diagonal_batch(&coeff, &fields, &mut out, true);
        out
    });
}

#[test]
fn kmeans_classification() {
    let n = 20;
    let coords: Vec<[f64; 3]> = (0..n * n * n)
        .map(|i| [(i % n) as f64, (i / n % n) as f64, (i / (n * n)) as f64])
        .collect();
    let w: Vec<f64> = random(coords.len(), 1, 11).as_slice().iter().map(|v| v + 0.6).collect();
    same_bits_at_every_count("kmeans_points", || {
        let out = kmeans_points(&coords, &w, 128, KmeansOptions::default());
        let mut v: Vec<f64> = out.points.iter().map(|&p| p as f64).collect();
        v.extend([out.iterations as f64, out.objective]);
        v
    });
}

#[test]
fn qrcp_trailing_update() {
    // N_cv 128 × N_r 1728: the early steps split three ways.
    let p = silicon_like_problem(1, 12, 8);
    let zt = face_splitting_product(&p.psi_v, &p.psi_c).transpose();
    same_bits_at_every_count("qrcp_points + qrcp", || {
        let points = qrcp_points(&p.psi_v, &p.psi_c, 64).expect("finite orbitals");
        let fac = qrcp(zt.clone(), 64, 0.0).expect("finite orbitals");
        let mut v: Vec<f64> = points.iter().chain(&fac.perm).map(|&i| i as f64).collect();
        v.extend(fac.rdiag);
        v.push(fac.rank as f64);
        v
    });
}

#[test]
fn solve_and_scf_end_to_end() {
    let problem = silicon_like_problem(1, 12, 4);
    let solver = Solver::builder().n_states(4).seed(3).build();
    same_bits_at_every_count("Solver::solve", || solver.solve(&problem).expect("solves").energies);

    let structure = silicon_supercell(1);
    let grid = Grid::new(structure.cell, [12; 3]);
    let opts = ScfOptions { n_conduction: 4, max_iter: 3, ..Default::default() };
    same_bits_at_every_count("3-iteration scf", || {
        let gs = scf(&grid, &structure, opts);
        let mut v = gs.eps;
        v.extend(gs.psi.as_slice());
        v.extend(gs.density);
        v
    });
}
