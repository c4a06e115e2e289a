//! Bounded LRU result cache keyed by structure hash + solve parameters.
//!
//! A hit means some tenant already paid for a bitwise-identical solve
//! (same structure, same build inputs, same eigensolve knobs — see
//! [`crate::job::CacheKey`]), so the job completes at submission without
//! touching a solver group. Faulted jobs bypass the cache entirely, in both
//! directions: they are never served from it and never populate it (the key
//! does not encode a fault plan). Every other job ran its own solver, so its
//! values are what any job with its key would compute.
//!
//! A cached value is a pure function of its key, so it never goes stale and
//! an entry has no lifetime: the capacity alone bounds the memory, evicting
//! the least-recently-used entry once full.

use crate::job::CacheKey;
use std::collections::HashMap;
use std::sync::Mutex;

struct Entry {
    values: Vec<f64>,
    /// Logical timestamp of the last hit (or the insert); smallest = LRU.
    last_used: u64,
}

struct CacheInner {
    map: HashMap<CacheKey, Entry>,
    /// Monotonic use counter backing `last_used`.
    tick: u64,
}

pub(crate) struct ResultCache {
    /// Max live entries; inserting into a full cache evicts the LRU entry.
    capacity: usize,
    inner: Mutex<CacheInner>,
}

impl ResultCache {
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity: capacity.max(1),
            inner: Mutex::new(CacheInner { map: HashMap::new(), tick: 0 }),
        }
    }

    /// Look `key` up; a hit refreshes its LRU position.
    pub fn get(&self, key: &CacheKey) -> Option<Vec<f64>> {
        let mut g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        g.tick += 1;
        let tick = g.tick;
        let e = g.map.get_mut(key)?;
        e.last_used = tick;
        Some(e.values.clone())
    }

    /// Insert (or refresh) `key`. Later writers win; values for one key are
    /// bitwise identical by construction, so the race is benign. A new key
    /// inserted at capacity evicts the least-recently-used entry.
    pub fn put(&self, key: CacheKey, values: Vec<f64>) {
        let mut g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        g.tick += 1;
        let tick = g.tick;
        if g.map.len() >= self.capacity && !g.map.contains_key(&key) {
            // O(n) scan is fine at serving-cache sizes (hundreds).
            if let Some(lru) = g
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                g.map.remove(&lru);
            }
        }
        g.map.insert(key, Entry { values, last_used: tick });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{cache_key, JobSpec};
    use lrtddft::synthetic_problem;
    use std::sync::Arc;

    fn key_for(n_states: usize) -> CacheKey {
        let solver = lrtddft::Solver::builder().n_states(n_states).build();
        let spec = JobSpec::new(1, Arc::new(synthetic_problem([8, 8, 8], 6.0, 2, 2)))
            .with_solver(solver);
        cache_key(&spec)
    }

    #[test]
    fn round_trip() {
        let cache = ResultCache::new(16);
        let key = key_for(3);
        assert!(cache.get(&key).is_none());
        cache.put(key, vec![0.1, 0.2]);
        assert_eq!(cache.get(&key), Some(vec![0.1, 0.2]));
        assert!(cache.get(&key_for(4)).is_none(), "other eigensolve knobs miss");
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let cache = ResultCache::new(2);
        let (a, b, c) = (key_for(1), key_for(2), key_for(3));
        cache.put(a, vec![1.0]);
        cache.put(b, vec![2.0]);
        // Touch `a` so `b` becomes LRU, then overflow.
        assert!(cache.get(&a).is_some());
        cache.put(c, vec![3.0]);
        assert!(cache.get(&b).is_none(), "LRU entry evicted");
        assert!(cache.get(&a).is_some(), "recently-used entry survives");
        assert!(cache.get(&c).is_some(), "new entry present");
    }

    #[test]
    fn refreshing_existing_key_does_not_evict() {
        let cache = ResultCache::new(2);
        let (a, b) = (key_for(1), key_for(2));
        cache.put(a, vec![1.0]);
        cache.put(b, vec![2.0]);
        cache.put(a, vec![1.5]); // refresh in place at capacity
        assert_eq!(cache.get(&a), Some(vec![1.5]), "later writer wins");
        assert_eq!(cache.get(&b), Some(vec![2.0]), "refresh evicted nothing");
    }
}
