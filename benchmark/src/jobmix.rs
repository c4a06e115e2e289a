//! The seeded job stream of `served_stream`.
//!
//! Every round holds the same multiset of work — so throughput and latency
//! compare across seeds — and the seed decides the order, which shapes get
//! batch mates and which jobs are repeated:
//!
//! - `FRESH` jobs open a new batch key (a shape from the pool plus a
//!   K-Means seed nobody used before), the four shapes in equal parts;
//! - `MATES` jobs directly follow a fresh job and share its batch key with
//!   a different `n_states`, so the scheduler can batch the two while the
//!   first is still queued (different cache key: never a cache hit);
//! - `REPEATS` jobs copy a job at least `REPEAT_DISTANCE` places earlier in
//!   the round, which has completed by then with four clients, so they hit
//!   the result cache.

pub const FRESH: usize = 48;
pub const MATES: usize = 36;
pub const REPEATS: usize = 36;
pub const ROUND_JOBS: usize = FRESH + MATES + REPEATS;
pub const REPEAT_DISTANCE: usize = 12;
/// Shapes in the pool (see `workloads::job_pool`).
pub const POOL: usize = 4;

/// What a client submits: which pool problem, and the solver knobs that
/// make up the batch key (`kmeans_seed`) and the cache key (`n_states`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Job {
    pub shape: usize,
    pub kmeans_seed: u64,
    pub n_states: usize,
}

impl Job {
    pub fn batch_key(&self) -> (usize, u64) {
        (self.shape, self.kmeans_seed)
    }
}

/// SplitMix64: small, seedable, and owned by the benchmark so the mix does
/// not change when a crate's RNG does.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The jobs of round `round` of the stream with seed `seed`, in submission
/// order. K-Means seeds are unique across rounds, so nothing hits the cache
/// except the intended repeats.
pub fn round_jobs(seed: u64, round: u64) -> Vec<Job> {
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x1000_0000_01b3).wrapping_add(round));
    let mut heads: Vec<Job> = (0..FRESH)
        .map(|i| Job {
            shape: i % POOL,
            kmeans_seed: seed
                .wrapping_mul(1_000_000)
                .wrapping_add(round * 1_000 + i as u64),
            n_states: 3,
        })
        .collect();
    rng.shuffle(&mut heads);
    let mut has_mate = vec![false; FRESH];
    has_mate[..MATES].fill(true);
    rng.shuffle(&mut has_mate);

    let mut jobs = Vec::with_capacity(ROUND_JOBS);
    // Places a repeat may go: in front of a head or at the end, never
    // between a head and its mate.
    let mut gaps = Vec::with_capacity(FRESH + 1);
    for (head, mate) in heads.into_iter().zip(has_mate) {
        gaps.push(jobs.len());
        jobs.push(head);
        if mate {
            jobs.push(Job {
                n_states: 5,
                ..head
            });
        }
    }
    gaps.push(jobs.len());
    gaps.retain(|&at| at >= REPEAT_DISTANCE);
    // Insert the repeats back to front so the places in front stay valid;
    // each copies a job far enough ahead of it to have completed.
    let mut slots: Vec<usize> = (0..REPEATS).map(|_| gaps[rng.below(gaps.len())]).collect();
    slots.sort_unstable_by(|a, b| b.cmp(a));
    for at in slots {
        let original = jobs[rng.below(at - REPEAT_DISTANCE + 1)];
        jobs.insert(at, original);
    }
    jobs
}

/// Share of jobs whose cache key appeared earlier in the round, and share
/// whose batch key equals the previous job's while the cache key differs.
pub fn repeat_ratios(jobs: &[Job]) -> (f64, f64) {
    let mut seen = std::collections::BTreeSet::new();
    let mut cache_repeats = 0usize;
    let mut batch_mates = 0usize;
    for (i, j) in jobs.iter().enumerate() {
        if !seen.insert(*j) {
            cache_repeats += 1;
        } else if i > 0 && jobs[i - 1].batch_key() == j.batch_key() {
            batch_mates += 1;
        }
    }
    (
        cache_repeats as f64 / jobs.len() as f64,
        batch_mates as f64 / jobs.len() as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_mix_and_ratios() {
        let a = round_jobs(7, 2);
        let b = round_jobs(7, 2);
        assert_eq!(a, b);
        assert_eq!(repeat_ratios(&a), repeat_ratios(&b));
        assert_eq!(a.len(), ROUND_JOBS);
    }

    #[test]
    fn different_seed_or_round_gives_a_different_mix() {
        let a = round_jobs(1, 0);
        assert_ne!(a, round_jobs(2, 0));
        assert_ne!(a, round_jobs(1, 1));
        let shapes = |v: &[Job]| v.iter().map(|j| j.shape).collect::<Vec<_>>();
        assert_ne!(
            shapes(&a),
            shapes(&round_jobs(2, 0)),
            "order differs, not only the seeds"
        );
    }

    #[test]
    fn every_round_holds_the_same_work() {
        for seed in 1..=20 {
            let jobs = round_jobs(seed, seed % 3);
            let (cache, batch) = repeat_ratios(&jobs);
            assert_eq!(cache, REPEATS as f64 / ROUND_JOBS as f64, "seed {seed}");
            assert_eq!(batch, MATES as f64 / ROUND_JOBS as f64, "seed {seed}");
            // Fresh work: 12 of each shape.
            let mut fresh = std::collections::BTreeSet::new();
            for j in &jobs {
                fresh.insert(j.batch_key());
            }
            assert_eq!(fresh.len(), FRESH);
            for shape in 0..POOL {
                assert_eq!(fresh.iter().filter(|k| k.0 == shape).count(), FRESH / POOL);
            }
        }
    }

    #[test]
    fn repeats_copy_a_job_at_least_the_distance_back() {
        let jobs = round_jobs(3, 0);
        let mut first_at = std::collections::BTreeMap::new();
        for (i, j) in jobs.iter().enumerate() {
            if let Some(&first) = first_at.get(j) {
                assert!(i - first >= REPEAT_DISTANCE, "repeat at {i} of {first}");
            } else {
                first_at.insert(*j, i);
            }
        }
    }
}
