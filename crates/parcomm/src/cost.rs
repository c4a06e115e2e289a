//! α–β communication cost model.
//!
//! Collective costs follow the standard Hockney-style estimates used in the
//! MPI literature (and implicitly in the paper's scaling discussion):
//!
//! | collective  | modeled time                                   |
//! |-------------|------------------------------------------------|
//! | bcast       | `log₂(p) · (α + β·n)`                          |
//! | reduce      | `log₂(p) · (α + β·n)`                          |
//! | allreduce   | `2·log₂(p)·α + 2·β·n·(p−1)/p` (Rabenseifner)   |
//! | allgatherv  | `(p−1)·α + β·n_total·(p−1)/p`                  |
//! | alltoallv   | `(p−1)·α + β·n_sent`                           |
//!
//! where `n` is the per-rank payload in bytes. The defaults approximate a
//! Cray-Aries-class interconnect (≈1.5 µs latency, ≈8 GB/s per-rank
//! bandwidth); benches may calibrate them.

/// Latency–bandwidth model for collective communication.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Per-message latency, seconds.
    pub alpha: f64,
    /// Per-byte transfer time, seconds (1/bandwidth).
    pub beta: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // ~1.5 µs latency, 8 GB/s effective per-rank bandwidth.
        CostModel { alpha: 1.5e-6, beta: 1.0 / 8.0e9 }
    }
}

impl CostModel {
    /// A model in which communication is free (useful to isolate compute).
    pub fn free() -> Self {
        CostModel { alpha: 0.0, beta: 0.0 }
    }

    #[inline]
    fn log2p(p: usize) -> f64 {
        (p.max(1) as f64).log2().max(1.0)
    }

    pub fn bcast(&self, p: usize, bytes: usize) -> f64 {
        if p <= 1 {
            0.0
        } else {
            Self::log2p(p) * (self.alpha + self.beta * bytes as f64)
        }
    }

    pub fn reduce(&self, p: usize, bytes: usize) -> f64 {
        self.bcast(p, bytes)
    }

    pub fn allreduce(&self, p: usize, bytes: usize) -> f64 {
        if p <= 1 {
            0.0
        } else {
            2.0 * Self::log2p(p) * self.alpha
                + 2.0 * self.beta * bytes as f64 * (p as f64 - 1.0) / p as f64
        }
    }

    pub fn allgatherv(&self, p: usize, total_bytes: usize) -> f64 {
        if p <= 1 {
            0.0
        } else {
            (p as f64 - 1.0) * self.alpha
                + self.beta * total_bytes as f64 * (p as f64 - 1.0) / p as f64
        }
    }

    pub fn alltoallv(&self, p: usize, sent_bytes: usize) -> f64 {
        if p <= 1 {
            0.0
        } else {
            (p as f64 - 1.0) * self.alpha + self.beta * sent_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_is_free() {
        let m = CostModel::default();
        assert_eq!(m.allreduce(1, 1 << 20), 0.0);
        assert_eq!(m.alltoallv(1, 1 << 20), 0.0);
    }

    #[test]
    fn costs_grow_with_ranks_and_bytes() {
        let m = CostModel::default();
        assert!(m.allreduce(16, 1 << 20) > m.allreduce(4, 1 << 20));
        assert!(m.allreduce(16, 1 << 22) > m.allreduce(16, 1 << 20));
        assert!(m.alltoallv(64, 1 << 20) > m.alltoallv(8, 1 << 20));
    }

    #[test]
    fn free_model_is_zero() {
        let m = CostModel::free();
        assert_eq!(m.allreduce(1024, 1 << 30), 0.0);
        assert_eq!(m.bcast(1024, 1 << 30), 0.0);
    }

    #[test]
    fn latency_dominates_tiny_messages() {
        let m = CostModel::default();
        // 8-byte allreduce at p=1024: latency term >> bandwidth term.
        let t = m.allreduce(1024, 8);
        assert!(t > 2.0 * 10.0 * m.alpha * 0.9);
        assert!(t < 2.0 * 10.0 * m.alpha + 1e-6);
    }
}
