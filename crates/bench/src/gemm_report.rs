//! `repro gemm-report [--check]` — throughput of the packed GEMM engine vs.
//! the pre-rewrite reference kernel, written to `BENCH_gemm.json`.
//!
//! The reference ([`reference_gemm`]) is the column-parallel dot-product
//! kernel this repo shipped before the BLIS-style packed engine landed in
//! `mathkit::gemm`: per output column, a scalar inner loop over the shared
//! dimension with no packing and no register tiling. Benchmarking it from
//! here (instead of an old git checkout) keeps the comparison runnable in
//! one build.
//!
//! Beyond throughput, the report now records per shape which runtime-
//! dispatched kernel path ran (via the obskit dispatch counter) and the
//! maximum ulp distance between a forced-scalar and a forced-SIMD run of the
//! same call — the explicit microkernels are built to be *bitwise* identical
//! to the scalar fallback, so this is expected to be 0 and `--check` gates
//! it at ≤ 1, plus every GEMM shape at ≥ 1.0x over the reference.

use crate::report::json;
use mathkit::{Mat, Transpose};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The pre-rewrite GEMM: parallel over output columns, scalar dot products,
/// operands read in place (strided for the transposed cases).
pub fn reference_gemm(
    alpha: f64,
    a: &Mat,
    ta: Transpose,
    b: &Mat,
    tb: Transpose,
    beta: f64,
    c: &mut Mat,
) {
    let (m, ka) = match ta {
        Transpose::No => (a.nrows(), a.ncols()),
        Transpose::Yes => (a.ncols(), a.nrows()),
    };
    let (kb, n) = match tb {
        Transpose::No => (b.nrows(), b.ncols()),
        Transpose::Yes => (b.ncols(), b.nrows()),
    };
    assert_eq!(ka, kb, "inner dimensions must agree");
    assert_eq!(c.shape(), (m, n), "output shape mismatch");
    let k = ka;
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    let (a_rows, b_rows) = (a.nrows(), b.nrows());

    c.par_cols_mut().enumerate().for_each(|(j, c_col)| {
        if beta == 0.0 {
            c_col.fill(0.0);
        } else if beta != 1.0 {
            for x in c_col.iter_mut() {
                *x *= beta;
            }
        }
        match (ta, tb) {
            (Transpose::No, Transpose::No) => {
                let b_col = &b_data[j * b_rows..(j + 1) * b_rows];
                for l in 0..k {
                    let blj = alpha * b_col[l];
                    if blj == 0.0 {
                        continue;
                    }
                    let a_col = &a_data[l * a_rows..(l + 1) * a_rows];
                    for i in 0..m {
                        c_col[i] += blj * a_col[i];
                    }
                }
            }
            (Transpose::Yes, Transpose::No) => {
                let b_col = &b_data[j * b_rows..(j + 1) * b_rows];
                for i in 0..m {
                    let a_col = &a_data[i * a_rows..(i + 1) * a_rows];
                    let mut s = 0.0;
                    for l in 0..k {
                        s += a_col[l] * b_col[l];
                    }
                    c_col[i] += alpha * s;
                }
            }
            (Transpose::No, Transpose::Yes) => {
                for l in 0..k {
                    let blj = alpha * b_data[j + l * b_rows];
                    if blj == 0.0 {
                        continue;
                    }
                    let a_col = &a_data[l * a_rows..(l + 1) * a_rows];
                    for i in 0..m {
                        c_col[i] += blj * a_col[i];
                    }
                }
            }
            (Transpose::Yes, Transpose::Yes) => {
                for i in 0..m {
                    let a_col = &a_data[i * a_rows..(i + 1) * a_rows];
                    let mut s = 0.0;
                    for l in 0..k {
                        s += a_col[l] * b_data[j + l * b_rows];
                    }
                    c_col[i] += alpha * s;
                }
            }
        }
    });
}

/// One benchmark shape: `C(m×n) = op(A)·op(B)` with shared dimension `k`.
struct Shape {
    name: String,
    role: &'static str,
    m: usize,
    n: usize,
    k: usize,
    ta: Transpose,
    tb: Transpose,
}

fn shapes(quick: bool) -> Vec<Shape> {
    let d = if quick { 4 } else { 1 };
    vec![
        // The acceptance shape: V_Hxc = P_vcᵀ (f_Hxc P_vc) on a 32³ grid
        // slab with N_cv = 128 pair products (Algorithm 1 line 7).
        Shape {
            name: format!("vhxc_{0}x128t_x_{0}x128", 32768 / d),
            role: "V_Hxc contraction (paper Alg. 1 line 7)",
            m: 128,
            n: 128,
            k: 32768 / d,
            ta: Transpose::Yes,
            tb: Transpose::No,
        },
        // Ṽ = ΔV Θᵀ(f_Hxc Θ): the ISDF projected kernel (paper Eq. 7).
        Shape {
            name: format!("vtilde_{0}x256t_x_{0}x256", 8192 / d),
            role: "ISDF projected kernel (paper Eq. 7)",
            m: 256,
            n: 256,
            k: 8192 / d,
            ta: Transpose::Yes,
            tb: Transpose::No,
        },
        // Implicit apply C·X: tall-skinny NN (paper §4.3).
        Shape {
            name: format!("implicit_512x{0}_x_{0}x8", 4096 / d),
            role: "implicit H·X block (paper §4.3)",
            m: 512,
            n: 8,
            k: 4096 / d,
            ta: Transpose::No,
            tb: Transpose::No,
        },
        // Square NN, e.g. Ṽ·(CX) at large N_μ.
        Shape {
            name: "square_384".to_string(),
            role: "square NN (Ṽ·CX at large N_μ)",
            m: 384,
            n: 384,
            k: 384,
            ta: Transpose::No,
            tb: Transpose::No,
        },
    ]
}

/// Best-of-reps wall time of `f`, in seconds (1 warmup, then up to `reps`
/// timed runs, stopping early past a 2 s budget).
fn best_seconds<F: FnMut()>(mut f: F, reps: usize) -> f64 {
    f();
    let mut best = f64::INFINITY;
    let budget = Instant::now();
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
        if budget.elapsed().as_secs_f64() > 2.0 {
            break;
        }
    }
    best
}

fn operand(rows: usize, cols: usize, phase: usize) -> Mat {
    Mat::from_fn(rows, cols, |i, j| {
        (((i * 7 + j * 13 + phase) % 23) as f64) * 0.04 - 0.44
    })
}

/// Maximum ulp distance between two equal-length f64 slices (0 when bitwise
/// identical; +0 and −0 count as equal).
fn max_ulp(a: &[f64], b: &[f64]) -> u64 {
    // Monotonic bit mapping: flip all bits of negatives, the sign bit of
    // non-negatives — then ulp distance is plain integer distance.
    fn key(x: f64) -> u64 {
        let b = x.to_bits();
        if b >> 63 == 1 {
            !b
        } else {
            b | (1u64 << 63)
        }
    }
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| if x == y { 0 } else { key(x).abs_diff(key(y)) })
        .max()
        .unwrap_or(0)
}

/// Which dispatch label `mathkit::gemm` records for this call, via a single
/// traced invocation.
fn dispatched_label(a: &Mat, ta: Transpose, b: &Mat, tb: Transpose, c: &mut Mat) -> String {
    let _ = obskit::take_trace(); // drop anything a previous section left behind
    obskit::enable();
    mathkit::gemm(1.0, a, ta, b, tb, 0.0, c);
    obskit::disable();
    let trace = obskit::take_trace();
    trace
        .counters
        .kernel_dispatch
        .iter()
        .find(|(l, _)| l.starts_with("gemm"))
        .map(|(l, _)| l.clone())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Run the report and write `BENCH_gemm.json` into `out_dir`. With `check`,
/// exit with an error if any shape regresses below 1.0x over the reference
/// or the forced-scalar/-SIMD runs disagree beyond 1 ulp.
pub fn run(out_dir: &Path, quick: bool, check: bool) -> std::io::Result<()> {
    let mut entries = Vec::new();
    let mut rows = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for s in shapes(quick) {
        let (ar, ac) = match s.ta {
            Transpose::No => (s.m, s.k),
            Transpose::Yes => (s.k, s.m),
        };
        let (br, bc) = match s.tb {
            Transpose::No => (s.k, s.n),
            Transpose::Yes => (s.n, s.k),
        };
        let a = operand(ar, ac, 0);
        let b = operand(br, bc, 5);
        let mut c = Mat::zeros(s.m, s.n);
        let flops = 2.0 * s.m as f64 * s.n as f64 * s.k as f64;

        let t_ref =
            best_seconds(|| reference_gemm(1.0, &a, s.ta, &b, s.tb, 0.0, &mut c), 10);
        let reference = c.clone();
        let t_packed =
            best_seconds(|| mathkit::gemm(1.0, &a, s.ta, &b, s.tb, 0.0, &mut c), 10);
        assert!(
            c.max_abs_diff(&reference) < 1e-9 * flops.sqrt(),
            "packed engine disagrees with reference on {}",
            s.name
        );

        let kernel = dispatched_label(&a, s.ta, &b, s.tb, &mut c);

        // Forced-fallback agreement: the explicit SIMD microkernels keep the
        // scalar fold order, so the two runs must agree bitwise (0 ulp).
        let ulp = if mathkit::simd::avx2_available() {
            let mut c_simd = Mat::zeros(s.m, s.n);
            let mut c_scalar = Mat::zeros(s.m, s.n);
            mathkit::force_kernel(Some(mathkit::Kernel::Avx2));
            mathkit::gemm(1.0, &a, s.ta, &b, s.tb, 0.0, &mut c_simd);
            mathkit::force_kernel(Some(mathkit::Kernel::Scalar));
            mathkit::gemm(1.0, &a, s.ta, &b, s.tb, 0.0, &mut c_scalar);
            mathkit::force_kernel(None);
            max_ulp(c_simd.as_slice(), c_scalar.as_slice())
        } else {
            0
        };

        let gf_ref = flops / t_ref / 1e9;
        let gf_packed = flops / t_packed / 1e9;
        let speedup = t_ref / t_packed;
        if speedup < 1.0 {
            failures.push(format!("shape {}: speedup {speedup:.2}x < 1.0x", s.name));
        }
        if ulp > 1 {
            failures.push(format!("shape {}: SIMD vs scalar differ by {ulp} ulp", s.name));
        }
        rows.push(vec![
            s.name.to_string(),
            format!("{gf_ref:.2}"),
            format!("{gf_packed:.2}"),
            format!("{speedup:.2}x"),
            kernel.clone(),
            ulp.to_string(),
        ]);
        entries.push(format!(
            "    {{\"shape\": {}, \"role\": {}, \"m\": {}, \"n\": {}, \"k\": {}, \
             \"gflops_reference\": {}, \"gflops_packed\": {}, \"speedup\": {}, \
             \"kernel\": {}, \"max_ulp_simd_vs_scalar\": {}}}",
            json::string(&s.name),
            json::string(s.role),
            s.m,
            s.n,
            s.k,
            json::number(gf_ref),
            json::number(gf_packed),
            json::number(speedup),
            json::string(&kernel),
            ulp
        ));
    }

    crate::report::print_table(
        &["shape", "reference GF/s", "packed GF/s", "speedup", "kernel", "max ulp"],
        &rows,
    );

    let body = format!(
        "{{\n  \"benchmark\": \"gemm-report\",\n  \"threads\": {},\n  \"simd\": {},\n  \"shapes\": [\n{}\n  ]\n}}",
        rayon::current_num_threads(),
        json::string(mathkit::active_kernel().name()),
        entries.join(",\n")
    );
    std::fs::create_dir_all(out_dir)?;
    let path = out_dir.join("BENCH_gemm.json");
    let mut f = std::fs::File::create(&path)?;
    f.write_all(body.as_bytes())?;
    println!("\nReport written to {}", path.display());

    if check {
        if failures.is_empty() {
            println!("check: all gates passed");
        } else {
            for f in &failures {
                eprintln!("check FAILED: {f}");
            }
            return Err(std::io::Error::other(format!(
                "{} gemm-report gate(s) failed",
                failures.len()
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_gemm_matches_packed_engine() {
        let a = operand(37, 19, 1);
        let b = operand(37, 23, 2);
        let mut c1 = operand(19, 23, 3);
        let mut c2 = c1.clone();
        reference_gemm(0.7, &a, Transpose::Yes, &b, Transpose::No, 0.3, &mut c1);
        mathkit::gemm(0.7, &a, Transpose::Yes, &b, Transpose::No, 0.3, &mut c2);
        assert!(c1.max_abs_diff(&c2) < 1e-11);
    }

    #[test]
    fn report_writes_json_with_all_shapes() {
        let dir = std::env::temp_dir().join("lrtddft_gemm_report_test");
        run(&dir, true, false).unwrap();
        let body = std::fs::read_to_string(dir.join("BENCH_gemm.json")).unwrap();
        assert!(body.contains("\"benchmark\": \"gemm-report\""));
        for s in shapes(true) {
            assert!(body.contains(&s.name), "missing shape {}", s.name);
        }
        assert!(body.contains("\"kernel\""));
        assert!(body.contains("\"max_ulp_simd_vs_scalar\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ulp_distance_basics() {
        assert_eq!(max_ulp(&[1.0, -2.0, 0.0], &[1.0, -2.0, -0.0]), 0);
        assert_eq!(max_ulp(&[1.0], &[1.0 + f64::EPSILON]), 1);
        assert_eq!(max_ulp(&[1.0], &[1.0 + 2.0 * f64::EPSILON]), 2);
        // Across zero: ±smallest subnormals are 3 steps apart under the
        // monotonic mapping (−tiny → −0 → +0 → +tiny).
        let tiny = f64::from_bits(1);
        assert_eq!(max_ulp(&[tiny], &[-tiny]), 3);
    }
}
