//! Service-level resilience policies: retry/backoff and per-tenant circuit
//! breakers.
//!
//! Everything here is deliberately deterministic-friendly: the retry jitter
//! is seeded (SplitMix64 over `seed ^ tenant ^ attempt`, the same generator
//! family faultkit and the K-Means seeding use) and breaker transitions are
//! driven by counted failures plus an explicit cooldown — so a chaos
//! campaign re-run under the same seed takes the same decisions.
//!
//! The deadline/backoff arithmetic mirrors [`parcomm`]'s `RetryPolicy`
//! (bounded attempts, per-attempt backoff growing with the attempt index);
//! it lives here rather than reusing that type because job backoff delays
//! re-*queueing* (scheduler side), not re-*polling* (request side).

use crate::job::TenantId;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Resilience policy knobs, one copy per [`crate::ServeConfig`].
#[derive(Clone, Copy, Debug)]
pub struct ResilienceConfig {
    /// Total execution attempts per job (1 = no retries). A recoverable
    /// failure with budget left re-queues the job (solo, after backoff);
    /// without budget it fails terminally.
    pub retry_max_attempts: u32,
    /// Base re-queue delay; attempt `k`'s delay is `base · 2^(k-1)` plus
    /// seeded jitter in `[0, base)`.
    pub retry_backoff: Duration,
    /// Jitter seed. Same seed + same tenant + same attempt ⇒ same delay.
    pub retry_jitter_seed: u64,
    /// Consecutive terminal failures that open a tenant's breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker sheds load before admitting one half-open
    /// probe.
    pub breaker_cooldown: Duration,
    /// Deadline pressure window: a job claimed with less than this much
    /// budget remaining is downgraded (degradation ladder) instead of run
    /// at full cost.
    pub pressure_window: Duration,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            retry_max_attempts: 3,
            retry_backoff: Duration::from_millis(2),
            retry_jitter_seed: 0x5eed,
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_millis(200),
            pressure_window: Duration::from_millis(50),
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Deterministic exponential backoff with seeded jitter: attempt `k`
/// (1-based count of attempts already made) waits `base · 2^(k-1) + jitter`,
/// jitter uniform in `[0, base)` from SplitMix64 over
/// `seed ^ tenant ^ attempt`.
pub(crate) fn retry_delay(cfg: &ResilienceConfig, tenant: TenantId, attempt: u32) -> Duration {
    let base = cfg.retry_backoff;
    let exp = base.saturating_mul(1u32 << (attempt.saturating_sub(1)).min(16));
    let jitter_ns = if base.is_zero() {
        0
    } else {
        splitmix64(cfg.retry_jitter_seed ^ tenant ^ u64::from(attempt)) % base.as_nanos() as u64
    };
    exp + Duration::from_nanos(jitter_ns)
}

/// What the breaker says about an admission attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Admit {
    /// Breaker closed (or no history): admit normally.
    Normal,
    /// Breaker was open and the cooldown elapsed: admit exactly this job as
    /// the half-open probe (runs solo, bypasses the cache, may be degraded).
    Probe,
}

enum BreakerPhase {
    Closed,
    Open { since: Instant },
    /// One probe is in flight; everything else is shed until it resolves.
    HalfOpen,
}

struct BreakerState {
    phase: BreakerPhase,
    consecutive_failures: u32,
}

/// Per-tenant circuit breakers: closed → open after `breaker_threshold`
/// consecutive terminal failures → (cooldown) → half-open, admitting one
/// probe → closed on success, re-open on failure. Retried-then-solved and
/// degraded-but-solved both count as success; only terminal failures trip
/// the breaker.
pub(crate) struct Breakers {
    threshold: u32,
    cooldown: Duration,
    inner: Mutex<HashMap<TenantId, BreakerState>>,
}

impl Breakers {
    pub fn new(cfg: &ResilienceConfig) -> Self {
        Breakers {
            threshold: cfg.breaker_threshold.max(1),
            cooldown: cfg.breaker_cooldown,
            inner: Mutex::new(HashMap::new()),
        }
    }

    /// Admission check. `Err(failures)` means shed the job (breaker open).
    pub fn admit(&self, tenant: TenantId) -> Result<Admit, u32> {
        let mut g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let Some(s) = g.get_mut(&tenant) else { return Ok(Admit::Normal) };
        match s.phase {
            BreakerPhase::Closed => Ok(Admit::Normal),
            BreakerPhase::Open { since } => {
                if since.elapsed() >= self.cooldown {
                    s.phase = BreakerPhase::HalfOpen;
                    Ok(Admit::Probe)
                } else {
                    Err(s.consecutive_failures)
                }
            }
            BreakerPhase::HalfOpen => Err(s.consecutive_failures),
        }
    }

    /// A job for `tenant` reached a successful terminal state.
    pub fn record_success(&self, tenant: TenantId) {
        let mut g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(s) = g.get_mut(&tenant) {
            s.phase = BreakerPhase::Closed;
            s.consecutive_failures = 0;
        }
    }

    /// A job for `tenant` failed terminally: opens the breaker at the
    /// threshold, and a failed half-open probe re-opens it immediately.
    pub fn record_failure(&self, tenant: TenantId) {
        let mut g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let s = g.entry(tenant).or_insert(BreakerState {
            phase: BreakerPhase::Closed,
            consecutive_failures: 0,
        });
        s.consecutive_failures += 1;
        let opens = match s.phase {
            BreakerPhase::Closed => s.consecutive_failures >= self.threshold,
            BreakerPhase::HalfOpen => true,
            // Already open: a late failure does not restart the cooldown.
            BreakerPhase::Open { .. } => false,
        };
        if opens {
            s.phase = BreakerPhase::Open { since: Instant::now() };
        }
    }

    /// The admitted probe never started (its queue submission failed).
    /// Rewind half-open to open-with-expired-cooldown so the *next*
    /// admission attempt becomes the probe instead of shedding forever.
    pub fn abort_probe(&self, tenant: TenantId) {
        let mut g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(s) = g.get_mut(&tenant) {
            if matches!(s.phase, BreakerPhase::HalfOpen) {
                let lapsed = Instant::now().checked_sub(self.cooldown).unwrap_or_else(Instant::now);
                s.phase = BreakerPhase::Open { since: lapsed };
            }
        }
    }

    /// Is `tenant`'s breaker currently shedding load?
    #[cfg(test)]
    pub fn is_open(&self, tenant: TenantId) -> bool {
        let g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        matches!(
            g.get(&tenant).map(|s| &s.phase),
            Some(BreakerPhase::Open { .. } | BreakerPhase::HalfOpen)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ResilienceConfig {
        ResilienceConfig::default()
    }

    #[test]
    fn retry_delay_grows_exponentially_and_is_deterministic() {
        let c = ResilienceConfig { retry_backoff: Duration::from_millis(4), ..cfg() };
        let d1 = retry_delay(&c, 7, 1);
        let d2 = retry_delay(&c, 7, 2);
        let d3 = retry_delay(&c, 7, 3);
        // base·2^(k-1) ≤ delay < base·2^(k-1) + base
        assert!(d1 >= Duration::from_millis(4) && d1 < Duration::from_millis(8), "{d1:?}");
        assert!(d2 >= Duration::from_millis(8) && d2 < Duration::from_millis(12), "{d2:?}");
        assert!(d3 >= Duration::from_millis(16) && d3 < Duration::from_millis(20), "{d3:?}");
        // Same inputs ⇒ same jitter; different tenant ⇒ (generically)
        // different jitter but same bounds.
        assert_eq!(d1, retry_delay(&c, 7, 1));
        let other = retry_delay(&c, 8, 1);
        assert!(other >= Duration::from_millis(4) && other < Duration::from_millis(8));
    }

    #[test]
    fn zero_backoff_is_zero_delay() {
        let c = ResilienceConfig { retry_backoff: Duration::ZERO, ..cfg() };
        assert_eq!(retry_delay(&c, 1, 1), Duration::ZERO);
        assert_eq!(retry_delay(&c, 1, 5), Duration::ZERO);
    }

    #[test]
    fn breaker_opens_after_threshold_and_probes_after_cooldown() {
        let c = ResilienceConfig {
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(10),
            ..cfg()
        };
        let b = Breakers::new(&c);
        assert_eq!(b.admit(1), Ok(Admit::Normal));
        b.record_failure(1);
        b.record_failure(1);
        assert!(!b.is_open(1));
        assert_eq!(b.admit(1), Ok(Admit::Normal), "below threshold stays closed");
        b.record_failure(1);
        assert!(b.is_open(1), "third consecutive failure opens");
        assert_eq!(b.admit(1), Err(3), "open breaker sheds load");
        assert_eq!(b.admit(2), Ok(Admit::Normal), "other tenants unaffected");

        std::thread::sleep(Duration::from_millis(12));
        assert_eq!(b.admit(1), Ok(Admit::Probe), "cooldown elapsed: one probe");
        assert_eq!(b.admit(1), Err(3), "only one probe while half-open");
        b.record_success(1);
        assert_eq!(b.admit(1), Ok(Admit::Normal), "probe success closes");
        assert!(!b.is_open(1));
    }

    #[test]
    fn failed_probe_reopens_immediately() {
        let c = ResilienceConfig {
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_millis(5),
            ..cfg()
        };
        let b = Breakers::new(&c);
        b.record_failure(9);
        std::thread::sleep(Duration::from_millis(7));
        assert_eq!(b.admit(9), Ok(Admit::Probe));
        b.record_failure(9);
        assert_eq!(b.admit(9), Err(2), "failed probe re-opens");
    }

    #[test]
    fn aborted_probe_lets_the_next_admit_probe_again() {
        let c = ResilienceConfig {
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_millis(5),
            ..cfg()
        };
        let b = Breakers::new(&c);
        b.record_failure(3);
        assert!(b.is_open(3));
        std::thread::sleep(Duration::from_millis(7));
        assert_eq!(b.admit(3), Ok(Admit::Probe));
        b.abort_probe(3); // probe was shed at the queue, never ran
        assert_eq!(b.admit(3), Ok(Admit::Probe), "slot is immediately re-offered");
    }

    #[test]
    fn success_resets_consecutive_failures() {
        let c = ResilienceConfig { breaker_threshold: 2, ..cfg() };
        let b = Breakers::new(&c);
        b.record_failure(4);
        b.record_success(4);
        b.record_failure(4);
        assert!(!b.is_open(4), "streak restarted; one failure is below threshold");
        b.record_failure(4);
        assert!(b.is_open(4));
    }
}
