//! Weighted K-Means interpolation-point selection (paper §4.2).
//!
//! The algorithm, following the paper:
//! 1. compute the weight `w(r)` of every grid point (Eq. 14),
//! 2. **prune** points whose weight falls below `threshold · max(w)` — the
//!    weight vector is low-rank/sparse for plane-wave orbital pairs, so the
//!    effective point count `N_r'` is much smaller than `N_r`,
//! 3. initialize `N_μ` centroids from the surviving points, guided by the
//!    weights (the paper initializes at points "whose weight functions are
//!    rather large"),
//! 4. Lloyd iterations with *weighted* centroid updates (Eq. 13); a cluster
//!    that empties keeps its centroid (Lloyd's rule). The classification
//!    step is embarrassingly parallel — each rank classifies its own grid
//!    slab, as in the paper, and the ranks meet through the two closures of
//!    [`kmeans_points_checked`],
//! 5. return, per cluster, the member grid point closest to the centroid.

use faultkit::NumericalError;
use rayon::prelude::*;

/// Point-to-centroid distances a part of the parallel classification must
/// evaluate (≈ 2 Mflop): a smaller sweep runs inline on the calling thread.
const PAR_DISTANCES: usize = 1 << 18;

/// Centroids [`Centroids::nearest`] compares per step: one residue class of
/// centroid indices per lane.
const LANES: usize = 8;

/// Pruning cutoff: a point survives when its weight exceeds this fraction
/// of the largest weight.
const PRUNE_REL: f64 = 1e-6;

/// Lloyd sweeps at most.
const MAX_SWEEPS: usize = 100;

/// A sweep whose total squared centroid movement falls below this ends the
/// loop.
const TOL: f64 = 1e-10;

/// The argument of [`kmeans_points`]. The algorithm has no knobs: seeding
/// is deterministic, so nothing here is read.
#[derive(Clone, Copy, Debug)]
pub struct KmeansOptions {
    /// Unread: weight-guided seeding draws no random numbers.
    pub seed: u64,
}

impl Default for KmeansOptions {
    fn default() -> Self {
        KmeansOptions { seed: 0x5ee_d00d }
    }
}

/// Result of a K-Means run.
#[derive(Clone, Debug)]
pub struct KmeansOutcome {
    /// Selected interpolation points (indices into the original grid),
    /// sorted ascending, deduplicated.
    pub points: Vec<usize>,
    /// Lloyd iterations executed.
    pub iterations: usize,
    /// Number of grid points that survived pruning (`N_r'` in the paper).
    pub active_points: usize,
    /// Final weighted within-cluster sum of squares (the Eq. 11 objective).
    pub objective: f64,
}

/// Select `n_mu` interpolation points from grid `coords` (one `[x,y,z]` per
/// point) with weights `w` (Eq. 14 values): [`kmeans_points_checked`] on the
/// whole grid, alone. `_opts` is not read. Panics on degenerate inputs.
pub fn kmeans_points(
    coords: &[[f64; 3]],
    w: &[f64],
    n_mu: usize,
    _opts: KmeansOptions,
) -> KmeansOutcome {
    match kmeans_points_checked(coords, w, n_mu, 0..coords.len(), |_| {}, <[f64]>::to_vec) {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

/// The Lloyd loop, for one caller of a group that shares the work as the
/// paper's ranks do (§4.2). `coords` and `w` — hence pruning, seeding, the
/// centroids and every decision on them — are replicated; the caller
/// classifies only the active points of its `slab` of grid indices and meets
/// the others through two closures:
///
/// * `reduce(partials)` sum-reduces the packed per-sweep partials in place —
///   side by side: `3·n_mu` weighted coordinate sums, `n_mu` cluster
///   weights, the objective `Σ w·d²`;
/// * `gather(mine)` concatenates every caller's `mine` in slab order: per
///   cluster its best snap candidate (`n_mu` scores, then `n_mu` grid
///   indices, `-1` for none), then its share of the final objective. Equal
///   scores go to the lowest grid index, as in one scan of the whole grid.
///
/// With the whole grid as `slab` and identity closures this is the serial
/// algorithm ([`kmeans_points`]), operation for operation. Degenerate inputs
/// are typed errors: a coords/weights length mismatch, a non-finite weight
/// (`NonFinite` at `kmeans.pair_weights`, the first such index), all-zero
/// weights, or pruning that leaves fewer than `n_mu` candidates.
pub fn kmeans_points_checked(
    coords: &[[f64; 3]],
    w: &[f64],
    n_mu: usize,
    slab: std::ops::Range<usize>,
    mut reduce: impl FnMut(&mut [f64]),
    mut gather: impl FnMut(&[f64]) -> Vec<f64>,
) -> Result<KmeansOutcome, NumericalError> {
    assert!(n_mu >= 1);
    if coords.len() != w.len() {
        return Err(NumericalError::ShapeMismatch {
            stage: "kmeans",
            expected: (coords.len(), 1),
            got: (w.len(), 1),
        });
    }
    // An overflowed weight would make the prune cutoff +Inf (or NaN) and
    // pass no point. `w` is replicated, so every caller stops here alike.
    if let Some(index) = w.iter().position(|x| !x.is_finite()) {
        return Err(NumericalError::NonFinite { site: "kmeans.pair_weights".into(), index });
    }
    let wmax = w.iter().cloned().fold(0.0f64, f64::max);
    if wmax <= 0.0 {
        return Err(NumericalError::AllZeroWeights);
    }

    // Step 2: prune.
    let cutoff = PRUNE_REL * wmax;
    let active: Vec<usize> = (0..coords.len()).filter(|&i| w[i] > cutoff).collect();
    let n_active = active.len();
    if n_active < n_mu {
        return Err(NumericalError::RankDeficient { requested: n_mu, got: n_active });
    }
    // `active` ascends, so the slab's share of it is one contiguous run.
    let mine = &active[active.partition_point(|&gi| gi < slab.start)
        ..active.partition_point(|&gi| gi < slab.end)];

    // Step 3: initialize centroids.
    let mut centroids = initialize(coords, w, &active, n_mu);

    // Step 4: Lloyd iterations.
    let mut partials = vec![0.0f64; 4 * n_mu + 1];
    // (cluster, squared distance to its centroid) of each of `mine`.
    let mut assign = vec![(0usize, 0.0f64); mine.len()];
    let mut iterations = 0;
    for it in 0..MAX_SWEEPS {
        iterations = it + 1;
        // Classification (parallel over this slab's active points), into
        // the one buffer allocated above.
        assign
            .par_iter_mut()
            .enumerate()
            .with_min_len(PAR_DISTANCES.div_ceil(n_mu))
            .for_each(|(i, a)| *a = centroids.nearest(coords[mine[i]]));

        // Weighted centroid update (Eq. 13) from the group-wide sums.
        partials.fill(0.0);
        for (&(a, d2), &gi) in assign.iter().zip(mine.iter()) {
            let wi = w[gi];
            for c in 0..3 {
                partials[3 * a + c] += coords[gi][c] * wi;
            }
            partials[3 * n_mu + a] += wi;
            partials[4 * n_mu] += wi * d2;
        }
        reduce(&mut partials);
        let (sums, wsum) = partials.split_at(3 * n_mu);
        let mut movement = 0.0;
        // An emptied cluster (no weight) keeps its centroid: Lloyd's rule.
        for k in (0..n_mu).filter(|&k| wsum[k] > 0.0) {
            let new = [sums[3 * k] / wsum[k], sums[3 * k + 1] / wsum[k], sums[3 * k + 2] / wsum[k]];
            movement += dist2(centroids.get(k), new);
            centroids.set(k, new);
        }
        if movement < TOL {
            break;
        }
    }

    // Step 5: snap each centroid to its nearest member grid point (empty
    // clusters fall back to the globally nearest active point). This
    // slab's candidates travel with its share of the Eq. 11 objective at the
    // final assignment.
    let mut cand = vec![f64::INFINITY; 2 * n_mu + 1];
    cand[n_mu..2 * n_mu].fill(-1.0);
    for (&(a, _), &gi) in assign.iter().zip(mine.iter()) {
        let score = dist2(centroids.get(a), coords[gi]);
        if score < cand[a] {
            cand[a] = score;
            cand[n_mu + a] = gi as f64;
        }
    }
    cand[2 * n_mu] = assign
        .iter()
        .zip(mine.iter())
        .map(|(&(a, _), &gi)| w[gi] * dist2(centroids.get(a), coords[gi]))
        .sum();
    let all = gather(&cand);
    let shares = || all.chunks_exact(2 * n_mu + 1);
    let mut points: Vec<usize> = Vec::with_capacity(n_mu);
    for k in 0..n_mu {
        let mut best: (f64, Option<usize>) = (f64::INFINITY, None);
        for share in shares() {
            if share[k] < best.0 {
                best = (share[k], Some(share[n_mu + k] as usize));
            }
        }
        let idx = match best.1 {
            Some(gi) => gi,
            None => {
                // Global nearest active point to this centroid (`active` is
                // non-empty — checked above — so this cannot fail).
                let mut best_gi = active[0];
                let mut best_d = f64::INFINITY;
                for &a in &active {
                    let d = dist2(centroids.get(k), coords[a]);
                    if d < best_d {
                        best_d = d;
                        best_gi = a;
                    }
                }
                best_gi
            }
        };
        points.push(idx);
    }
    points.sort_unstable();
    points.dedup();
    let objective: f64 = shares().map(|share| share[2 * n_mu]).sum();

    Ok(KmeansOutcome { points, iterations, active_points: n_active, objective })
}

/// The paper's weight-guided seeding: visit the active points by weight,
/// heaviest first, and accept each one at least `dmin` away from every seed
/// so far, halving `dmin` until `n_mu` seeds exist.
fn initialize(coords: &[[f64; 3]], w: &[f64], active: &[usize], n_mu: usize) -> Centroids {
    let mut order: Vec<usize> = active.to_vec();
    order.sort_by(|&a, &b| w[b].partial_cmp(&w[a]).unwrap());
    // Estimate a separation scale from the bounding box.
    let (mut lo, mut hi) = ([f64::INFINITY; 3], [f64::NEG_INFINITY; 3]);
    for &gi in active {
        for c in 0..3 {
            lo[c] = lo[c].min(coords[gi][c]);
            hi[c] = hi[c].max(coords[gi][c]);
        }
    }
    let vol: f64 = (0..3).map(|c| (hi[c] - lo[c]).max(1e-6)).product();
    let mut dmin = 0.5 * (vol / n_mu as f64).powf(1.0 / 3.0);
    loop {
        let mut cs: Vec<[f64; 3]> = Vec::with_capacity(n_mu);
        for &gi in &order {
            if cs.iter().all(|&c| dist2(c, coords[gi]) >= dmin * dmin) {
                cs.push(coords[gi]);
                if cs.len() == n_mu {
                    return Centroids::from_points(&cs);
                }
            }
        }
        dmin *= 0.5;
        if dmin < 1e-12 {
            // Degenerate geometry: the `n_mu` heaviest points (`order` holds
            // all `n_active ≥ n_mu` of them).
            let cs: Vec<[f64; 3]> = order[..n_mu].iter().map(|&gi| coords[gi]).collect();
            return Centroids::from_points(&cs);
        }
    }
}

#[inline]
fn dist2(a: [f64; 3], b: [f64; 3]) -> f64 {
    let dx = a[0] - b[0];
    let dy = a[1] - b[1];
    let dz = a[2] - b[2];
    dx * dx + dy * dy + dz * dz
}

/// Centroid coordinates as a structure of arrays, `xyz[c][k]` coordinate
/// `c` of centroid `k`, so [`Centroids::nearest`] loads `LANES` centroids
/// per vector.
#[derive(Clone, Debug)]
struct Centroids {
    xyz: [Vec<f64>; 3],
}

impl Centroids {
    fn from_points(points: &[[f64; 3]]) -> Self {
        Centroids { xyz: [0, 1, 2].map(|c| points.iter().map(|p| p[c]).collect()) }
    }

    fn get(&self, k: usize) -> [f64; 3] {
        self.xyz.each_ref().map(|c| c[k])
    }

    fn set(&mut self, k: usize, p: [f64; 3]) {
        for (c, v) in self.xyz.iter_mut().zip(p) {
            c[k] = v;
        }
    }

    /// The centroid nearest `p` and its squared distance: the first minimum
    /// in index order, `(0, +Inf)` when no distance is below +Inf (a NaN
    /// distance never wins), each distance [`dist2`]'s to the bit.
    ///
    /// A step compares `LANES` centroids without a branch: lane `l` keeps the
    /// first minimum of the indices `≡ l (mod LANES)` and the step it was
    /// met in. The lanes then meet on the smallest distance, ties to the
    /// lowest index, and the ragged tail past the last whole step continues
    /// that first-minimum scan in index order.
    fn nearest(&self, p: [f64; 3]) -> (usize, f64) {
        let [xs, ys, zs] = &self.xyz;
        let mut best = [f64::INFINITY; LANES];
        let mut best_step = [0usize; LANES];
        let whole = xs.len() / LANES * LANES;
        let steps = xs[..whole].chunks_exact(LANES).zip(ys.chunks_exact(LANES));
        for (step, ((x, y), z)) in steps.zip(zs.chunks_exact(LANES)).enumerate() {
            for l in 0..LANES {
                let d = dist2([x[l], y[l], z[l]], p);
                let closer = d < best[l];
                best[l] = if closer { d } else { best[l] };
                best_step[l] = if closer { step } else { best_step[l] };
            }
        }
        let mut nearest = (0, f64::INFINITY);
        for (l, (&d, &step)) in best.iter().zip(&best_step).enumerate() {
            let k = step * LANES + l;
            if d < nearest.1 || (d == nearest.1 && k < nearest.0) {
                nearest = (k, d);
            }
        }
        for k in whole..xs.len() {
            let d = dist2([xs[k], ys[k], zs[k]], p);
            if d < nearest.1 {
                nearest = (k, d);
            }
        }
        nearest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The element-indexed first-minimum loop [`Centroids::nearest`] must
    /// equal to the bit.
    fn first_minimum(centroids: &[[f64; 3]], p: [f64; 3]) -> (usize, f64) {
        let mut bi = 0;
        let mut bd = f64::INFINITY;
        for (k, &c) in centroids.iter().enumerate() {
            let d = dist2(c, p);
            if d < bd {
                bd = d;
                bi = k;
            }
        }
        (bi, bd)
    }

    /// The lane search and the oracle on one query, as (index, bits).
    fn both(cs: &[[f64; 3]], p: [f64; 3]) -> [(usize, u64); 2] {
        let lanes = Centroids::from_points(cs).nearest(p);
        let oracle = first_minimum(cs, p);
        [(lanes.0, lanes.1.to_bits()), (oracle.0, oracle.1.to_bits())]
    }

    fn assert_same(cs: &[[f64; 3]], p: [f64; 3]) -> usize {
        let [lanes, oracle] = both(cs, p);
        assert_eq!(lanes, oracle, "{} centroids, query {p:?}", cs.len());
        lanes.0
    }

    fn scattered(n: usize, seed: u64) -> Vec<[f64; 3]> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| [(); 3].map(|_| rng.gen_range(-4.0..4.0))).collect()
    }

    #[test]
    fn lane_search_is_the_first_minimum_loop_bitwise() {
        for n in [1, LANES - 1, LANES, LANES + 1, 720] {
            let cs = scattered(n, n as u64);
            for p in scattered(500, 1000 + n as u64) {
                assert_same(&cs, p);
            }
            // Every centroid queried at itself: distance zero, its own index.
            for (k, &c) in cs.iter().enumerate() {
                assert_eq!(assert_same(&cs, c), k);
            }
        }
    }

    #[test]
    fn duplicate_centroids_go_to_the_lowest_index() {
        for n in [2 * LANES + 5, 723] {
            let mut cs = scattered(n, 7 + n as u64);
            // Centroid 1 again in another lane, centroid 2 again in the tail
            // (`n` is no multiple of `LANES`), centroid 3 again in its own
            // lane two steps later.
            let dups = [(1, LANES + 3), (2, n - 1), (3, 3 + 2 * LANES)];
            for (k, dup) in dups {
                cs[dup] = cs[k];
            }
            for (k, dup) in dups {
                let c = cs[k];
                assert_eq!(assert_same(&cs, c), k, "centroid {k} and its copy at {dup}");
                let near = [c[0] + 1e-3, c[1] - 2e-3, c[2]];
                assert_eq!(assert_same(&cs, near), k, "near centroid {k}");
            }
        }
    }

    #[test]
    fn equal_distances_across_lanes_go_to_the_lowest_index() {
        // Unit vectors and their negatives at the query's unit distance, in
        // every lane and the tail; the rest far away.
        let axes = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]];
        for first in [0, 3, LANES - 1, LANES + 2] {
            let mut cs = vec![[9.0, 9.0, 9.0]; 2 * LANES + 5];
            for (i, slot) in (first..cs.len()).step_by(3).enumerate().take(6) {
                let a = axes[i % 3];
                let sign = if i < 3 { 1.0 } else { -1.0 };
                cs[slot] = a.map(|v| sign * v);
            }
            assert_eq!(assert_same(&cs, [0.0; 3]), first);
        }
    }

    #[test]
    fn non_finite_coordinates_match_the_first_minimum_loop() {
        let base = scattered(2 * LANES + 3, 42);
        let queries = [[0.5, -0.25, 1.0], [f64::NAN, 0.0, 0.0], [f64::INFINITY, 0.0, 0.0]];
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for k in [0, 1, LANES, base.len() - 1] {
                let mut cs = base.clone();
                cs[k][1] = bad;
                for p in queries.iter().copied().chain([[0.0, bad, 0.0], cs[k]]) {
                    assert_same(&cs, p);
                }
            }
            // Every centroid non-finite: no distance is below +Inf.
            let cs = vec![[bad, 0.0, 0.0]; LANES + 1];
            let [lanes, _] = both(&cs, [0.0; 3]);
            assert_eq!(lanes, (0, f64::INFINITY.to_bits()));
            assert_same(&cs, [0.0; 3]);
        }
    }

    /// Two tight blobs of heavy points + scattered near-zero noise.
    fn two_blob_fixture() -> (Vec<[f64; 3]>, Vec<f64>) {
        let mut coords = Vec::new();
        let mut w = Vec::new();
        for i in 0..10 {
            let t = i as f64 * 0.01;
            coords.push([1.0 + t, 1.0, 1.0]);
            w.push(10.0);
            coords.push([5.0 + t, 5.0, 5.0]);
            w.push(12.0);
        }
        // background noise, prunable
        for i in 0..50 {
            coords.push([(i % 7) as f64, (i % 5) as f64, (i % 3) as f64]);
            w.push(1e-9);
        }
        (coords, w)
    }

    #[test]
    fn finds_the_two_blobs() {
        let (coords, w) = two_blob_fixture();
        let out = kmeans_points(&coords, &w, 2, KmeansOptions::default());
        assert_eq!(out.points.len(), 2);
        // One point from each blob.
        let p0 = coords[out.points[0]];
        let p1 = coords[out.points[1]];
        let near = |p: [f64; 3], c: [f64; 3]| dist2(p, c) < 0.5;
        assert!(
            (near(p0, [1.05, 1.0, 1.0]) && near(p1, [5.05, 5.0, 5.0]))
                || (near(p1, [1.05, 1.0, 1.0]) && near(p0, [5.05, 5.0, 5.0])),
            "{p0:?} {p1:?}"
        );
    }

    #[test]
    fn pruning_removes_noise() {
        let (coords, w) = two_blob_fixture();
        let out = kmeans_points(&coords, &w, 2, KmeansOptions::default());
        assert_eq!(out.active_points, 20, "only the blob points should survive");
    }

    #[test]
    fn weight_guided_seeding_starts_near_converged() {
        // On the blob fixture, weight-guided should start essentially
        // converged (paper's motivation for the initialization).
        let (coords, w) = two_blob_fixture();
        let wg = kmeans_points(&coords, &w, 2, KmeansOptions::default());
        assert!(wg.iterations <= 5, "took {} iterations", wg.iterations);
    }

    #[test]
    fn points_are_sorted_unique_valid() {
        let (coords, w) = two_blob_fixture();
        let out = kmeans_points(&coords, &w, 5, KmeansOptions::default());
        for win in out.points.windows(2) {
            assert!(win[0] < win[1]);
        }
        assert!(out.points.iter().all(|&p| p < coords.len()));
        // selected points must be heavy (survived pruning)
        for &p in &out.points {
            assert!(w[p] > 1.0);
        }
    }

    #[test]
    fn n_mu_equals_active_points() {
        // Degenerate: ask for exactly as many clusters as active points.
        let coords: Vec<[f64; 3]> = (0..4).map(|i| [i as f64, 0.0, 0.0]).collect();
        let w = vec![1.0; 4];
        let out = kmeans_points(&coords, &w, 4, KmeansOptions::default());
        assert_eq!(out.points, vec![0, 1, 2, 3]);
    }

    #[test]
    fn deterministic_given_seed() {
        let (coords, w) = two_blob_fixture();
        let a = kmeans_points(&coords, &w, 3, KmeansOptions::default());
        let b = kmeans_points(&coords, &w, 3, KmeansOptions::default());
        assert_eq!(a.points, b.points);
    }

    #[test]
    #[should_panic(expected = "all-zero weights")]
    fn zero_weights_panic() {
        let coords = vec![[0.0, 0.0, 0.0]; 3];
        let w = vec![0.0; 3];
        kmeans_points(&coords, &w, 1, KmeansOptions::default());
    }

    #[test]
    fn checked_variant_reports_typed_errors() {
        let alone = |coords: &[[f64; 3]], w: &[f64], n_mu| {
            kmeans_points_checked(
                coords,
                w,
                n_mu,
                0..coords.len(),
                |_| {},
                <[f64]>::to_vec,
            )
        };
        let coords = vec![[0.0, 0.0, 0.0]; 3];
        assert_eq!(
            alone(&coords, &[0.0; 3], 1).unwrap_err(),
            NumericalError::AllZeroWeights
        );
        assert_eq!(
            alone(&coords, &[1.0; 2], 1).unwrap_err(),
            NumericalError::ShapeMismatch { stage: "kmeans", expected: (3, 1), got: (2, 1) }
        );
        // An overflowed weight names itself, not the rank it would prune.
        for bad in [f64::INFINITY, f64::NAN] {
            assert_eq!(
                alone(&coords, &[1.0, bad, bad], 1).unwrap_err(),
                NumericalError::NonFinite { site: "kmeans.pair_weights".into(), index: 1 }
            );
        }
        // One heavy point drowns the rest below the prune cutoff.
        let mut w = vec![1e-12; 3];
        w[0] = 1.0;
        assert_eq!(
            alone(&coords, &w, 2).unwrap_err(),
            NumericalError::RankDeficient { requested: 2, got: 1 }
        );
    }

    #[test]
    fn coincident_points_reseed_without_panic() {
        // Pathological distribution: every surviving point at the same
        // coordinate. Initialization degenerates, clusters empty out and
        // keep their centroids, and the run must neither panic nor loop.
        let coords = vec![[0.0, 0.0, 0.0]; 3];
        let w = vec![1.0, 2.0, 3.0];
        let out = kmeans_points(&coords, &w, 2, KmeansOptions::default());
        assert!(!out.points.is_empty());
        assert!(out.points.iter().all(|&p| p < 3));
    }
}
