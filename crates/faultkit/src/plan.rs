//! Deterministic, seeded fault injection.
//!
//! A [`FaultPlan`] names *where* (a hook site string), *when* (the `nth`
//! occurrence of that site on each rank), and *what* ([`FaultKind`]). Arming
//! a plan ([`arm`]) installs it in the current thread; SPMD runtimes
//! propagate the armed handle into rank threads ([`handle`]/[`install`]) so
//! every rank sees the same plan and per-rank occurrence counters advance in
//! lockstep — which makes collective faults fire symmetrically.
//!
//! Every fault is **one-shot per rank**: once spec `i` fires on rank `r` it
//! is consumed there, so a recovery retry of the same code path runs clean.
//! All randomness (which element of a buffer gets poisoned) derives from the
//! plan seed via SplitMix64, so identical plans produce identical fault
//! sequences — the determinism gate the campaign runner and the proptest
//! both rely on.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What to inject when a spec fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Overwrite one seed-chosen element of the hooked buffer with NaN.
    NanPoison,
    /// Overwrite one seed-chosen element of the hooked buffer with +Inf.
    InfPoison,
    /// Hold this rank's contribution to the collective back `micros` past
    /// issue: a slow peer, which every rank of the collective waits out.
    CommDelay { micros: u64 },
}

impl FaultKind {
    fn label(self) -> &'static str {
        match self {
            FaultKind::NanPoison => "nan-poison",
            FaultKind::InfPoison => "inf-poison",
            FaultKind::CommDelay { .. } => "comm-delay",
        }
    }
}

/// One planned fault: fire `kind` on the `nth` (0-based) occurrence of hook
/// calls at `site`, independently on every rank.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    pub site: String,
    pub nth: u64,
    pub kind: FaultKind,
}

/// A reproducible fault campaign: a seed plus an ordered list of specs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    pub seed: u64,
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, faults: Vec::new() }
    }

    /// Builder-style: add one spec.
    pub fn with(mut self, site: &str, nth: u64, kind: FaultKind) -> Self {
        self.faults.push(FaultSpec { site: site.to_string(), nth, kind });
        self
    }
}

/// Record of one fired fault, in firing order per rank.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    pub site: String,
    pub rank: usize,
    pub occurrence: u64,
    pub kind: FaultKind,
    /// Kind-specific detail: poisoned element index, points kept, etc.
    pub detail: u64,
}

impl FaultEvent {
    /// Stable one-line rendering, used by the campaign log and the
    /// bit-reproducibility comparison.
    pub fn render(&self) -> String {
        format!(
            "{}@{}#{} rank{} detail={}",
            self.kind.label(),
            self.site,
            self.occurrence,
            self.rank,
            self.detail
        )
    }
}

struct ArmedState {
    plan: FaultPlan,
    /// Occurrences seen so far, per (site, rank).
    counters: Mutex<HashMap<(String, usize), u64>>,
    /// Specs already fired, per (spec index, rank) — one-shot consumption.
    consumed: Mutex<HashSet<(usize, usize)>>,
    events: Mutex<Vec<FaultEvent>>,
}

/// Cloneable cross-thread reference to an armed plan; opaque on purpose.
#[derive(Clone)]
pub struct Handle(Arc<ArmedState>);

impl Handle {
    /// Arm `plan` into a detached handle **without** touching the current
    /// thread's armed state. The serving scheduler builds one of these per
    /// faulted tenant job and installs it only around that job's execution
    /// window ([`install_scoped`]), so co-scheduled tenants never see it.
    pub fn armed(plan: FaultPlan) -> Handle {
        Handle(Arc::new(ArmedState {
            plan,
            counters: Mutex::new(HashMap::new()),
            consumed: Mutex::new(HashSet::new()),
            events: Mutex::new(Vec::new()),
        }))
    }

    /// Every fault fired so far, across all ranks, in a stable order
    /// (rank-major, then firing order). Same contract as
    /// [`Campaign::events`], but usable from a detached handle.
    pub fn events(&self) -> Vec<FaultEvent> {
        let mut ev = lock_events(&self.0);
        ev.sort_by(|a, b| {
            (a.rank, &a.site, a.occurrence).cmp(&(b.rank, &b.site, b.occurrence))
        });
        ev
    }

    /// Number of faults fired so far.
    pub fn fired(&self) -> usize {
        lock_events(&self.0).len()
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<ArmedState>>> = const { RefCell::new(None) };
    static RANK: Cell<usize> = const { Cell::new(0) };
}

/// RAII guard for an armed plan; dropping it disarms the current thread.
pub struct Campaign {
    state: Arc<ArmedState>,
}

impl Campaign {
    /// Every fault fired so far, across all ranks, in a stable order
    /// (rank-major, then firing order).
    pub fn events(&self) -> Vec<FaultEvent> {
        let mut ev = lock_events(&self.state);
        ev.sort_by(|a, b| {
            (a.rank, &a.site, a.occurrence).cmp(&(b.rank, &b.site, b.occurrence))
        });
        ev
    }

    /// Number of faults fired so far.
    pub fn fired(&self) -> usize {
        lock_events(&self.state).len()
    }
}

fn lock_events(state: &ArmedState) -> Vec<FaultEvent> {
    state.events.lock().unwrap_or_else(|p| p.into_inner()).clone()
}

impl Drop for Campaign {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = None);
    }
}

/// Arm `plan` on the current thread and return the campaign guard.
pub fn arm(plan: FaultPlan) -> Campaign {
    let state = Arc::new(ArmedState {
        plan,
        counters: Mutex::new(HashMap::new()),
        consumed: Mutex::new(HashSet::new()),
        events: Mutex::new(Vec::new()),
    });
    CURRENT.with(|c| *c.borrow_mut() = Some(Arc::clone(&state)));
    Campaign { state }
}

/// The current thread's armed plan, if any — pass to [`install`] in spawned
/// worker/rank threads so they share the campaign.
pub fn handle() -> Option<Handle> {
    CURRENT.with(|c| c.borrow().as_ref().map(|s| Handle(Arc::clone(s))))
}

/// Install (or clear) an armed plan on the current thread.
pub fn install(h: Option<Handle>) {
    CURRENT.with(|c| *c.borrow_mut() = h.map(|h| h.0));
}

/// RAII guard restoring the thread's previously armed plan on drop —
/// returned by [`install_scoped`].
pub struct InstallGuard {
    previous: Option<Arc<ArmedState>>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.previous.take());
    }
}

/// Install `h` for the lifetime of the returned guard, then restore whatever
/// was armed before. This is the tenant-isolation primitive: a rank thread
/// executing a faulted tenant's job scopes that tenant's plan to exactly the
/// job window, so neighbouring jobs on the same rank run with their own (or
/// no) plan.
#[must_use = "dropping the guard immediately restores the previous plan"]
pub fn install_scoped(h: Option<Handle>) -> InstallGuard {
    let previous = CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), h.map(|h| h.0)));
    InstallGuard { previous }
}

/// Tag this thread with its SPMD rank (rank 0 outside SPMD regions).
pub fn set_rank(rank: usize) {
    RANK.with(|r| r.set(rank));
}

/// SplitMix64 — the deterministic element-picker for poison faults.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn site_hash(site: &str) -> u64 {
    // FNV-1a: stable across runs and platforms.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in site.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Core matcher: bump the (site, rank) counter and return the first armed,
/// unconsumed spec whose `nth` matches, filtered by `accepts`.
fn fire(site: &str, accepts: impl Fn(FaultKind) -> bool) -> Option<(FaultKind, u64, u64)> {
    let state = CURRENT.with(|c| c.borrow().as_ref().map(Arc::clone))?;
    let rank = RANK.with(|r| r.get());
    let occurrence = {
        let mut counters = state.counters.lock().unwrap_or_else(|p| p.into_inner());
        let slot = counters.entry((site.to_string(), rank)).or_insert(0);
        let occ = *slot;
        *slot += 1;
        occ
    };
    let mut hit = None;
    {
        let mut consumed = state.consumed.lock().unwrap_or_else(|p| p.into_inner());
        for (i, spec) in state.plan.faults.iter().enumerate() {
            if spec.site == site
                && spec.nth == occurrence
                && accepts(spec.kind)
                && !consumed.contains(&(i, rank))
            {
                consumed.insert((i, rank));
                hit = Some(spec.kind);
                break;
            }
        }
    }
    let kind = hit?;
    Some((kind, occurrence, state.plan.seed))
}

fn record(site: &str, occurrence: u64, kind: FaultKind, detail: u64) {
    if let Some(state) = CURRENT.with(|c| c.borrow().as_ref().map(Arc::clone)) {
        let rank = RANK.with(|r| r.get());
        let mut ev = state.events.lock().unwrap_or_else(|p| p.into_inner());
        ev.push(FaultEvent { site: site.to_string(), rank, occurrence, kind, detail });
    }
}

/// Poison hook for named buffers. Returns `true` when a fault fired (one
/// seed-chosen element of `buf` is now NaN or +Inf).
pub fn inject_slice(site: &str, buf: &mut [f64]) -> bool {
    let Some((kind, occ, seed)) =
        fire(site, |k| matches!(k, FaultKind::NanPoison | FaultKind::InfPoison))
    else {
        return false;
    };
    if buf.is_empty() {
        return false;
    }
    let idx = (splitmix64(seed ^ site_hash(site) ^ occ) % buf.len() as u64) as usize;
    buf[idx] = match kind {
        FaultKind::InfPoison => f64::INFINITY,
        _ => f64::NAN,
    };
    record(site, occ, kind, idx as u64);
    true
}

/// Comm hook, called when a rank issues a collective: how long past issue
/// this rank's contribution stays invisible to its peers. Because rank
/// counters advance in lockstep across an SPMD region, the same decision
/// fires on every rank of the same collective.
pub fn comm_fault(site: &str) -> Option<Duration> {
    let (kind, occ, _) = fire(site, |k| matches!(k, FaultKind::CommDelay { .. }))?;
    let FaultKind::CommDelay { micros } = kind else { unreachable!("filtered to delays") };
    record(site, occ, kind, micros);
    Some(Duration::from_micros(micros))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_hooks_are_noops() {
        let mut buf = vec![1.0, 2.0];
        assert!(!inject_slice("x", &mut buf));
        assert_eq!(buf, vec![1.0, 2.0]);
        assert!(comm_fault("x").is_none());
    }

    #[test]
    fn nth_occurrence_fires_once() {
        let c = arm(FaultPlan::new(7).with("buf", 1, FaultKind::NanPoison));
        let mut buf = vec![1.0; 8];
        assert!(!inject_slice("buf", &mut buf)); // occurrence 0
        assert!(inject_slice("buf", &mut buf)); // occurrence 1 fires
        assert_eq!(buf.iter().filter(|v| v.is_nan()).count(), 1);
        let mut buf2 = vec![1.0; 8];
        assert!(!inject_slice("buf", &mut buf2)); // consumed: retry runs clean
        assert_eq!(c.fired(), 1);
    }

    #[test]
    fn same_seed_same_element() {
        let pick = |seed: u64| {
            let _c = arm(FaultPlan::new(seed).with("buf", 0, FaultKind::InfPoison));
            let mut buf = vec![0.0; 64];
            inject_slice("buf", &mut buf);
            buf.iter().position(|v| v.is_infinite()).unwrap()
        };
        assert_eq!(pick(42), pick(42));
        // Different sites on the same seed decorrelate.
        let _c = arm(
            FaultPlan::new(42)
                .with("a", 0, FaultKind::NanPoison)
                .with("b", 0, FaultKind::NanPoison),
        );
        let mut a = vec![0.0; 1024];
        let mut b = vec![0.0; 1024];
        inject_slice("a", &mut a);
        inject_slice("b", &mut b);
        let ia = a.iter().position(|v| v.is_nan()).unwrap();
        let ib = b.iter().position(|v| v.is_nan()).unwrap();
        assert_ne!(ia, ib);
    }

    #[test]
    fn disarm_on_drop() {
        {
            let _c = arm(FaultPlan::new(1).with("s", 0, FaultKind::NanPoison));
            assert!(handle().is_some());
        }
        assert!(handle().is_none());
        assert!(!inject_slice("s", &mut [1.0]));
    }

    #[test]
    fn handle_propagates_to_other_threads() {
        let c = arm(FaultPlan::new(3).with("cross", 0, FaultKind::NanPoison));
        let h = handle();
        std::thread::scope(|s| {
            s.spawn(|| {
                install(h.clone());
                set_rank(1);
                assert!(inject_slice("cross", &mut [1.0]));
            });
        });
        let ev = c.events();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].rank, 1);
    }

    #[test]
    fn detached_handle_does_not_arm_the_creating_thread() {
        let h = Handle::armed(FaultPlan::new(11).with("d", 0, FaultKind::NanPoison));
        assert!(handle().is_none(), "Handle::armed must not touch thread state");
        let mut buf = vec![1.0; 4];
        assert!(!inject_slice("d", &mut buf));
        install(Some(h.clone()));
        assert!(inject_slice("d", &mut buf));
        install(None);
        assert_eq!(h.fired(), 1);
        assert_eq!(h.events()[0].site, "d");
    }

    #[test]
    fn install_scoped_restores_previous_plan() {
        let outer = arm(FaultPlan::new(1).with("outer", 0, FaultKind::NanPoison));
        let tenant = Handle::armed(FaultPlan::new(2).with("inner", 0, FaultKind::NanPoison));
        {
            let _g = install_scoped(Some(tenant.clone()));
            assert!(inject_slice("inner", &mut [1.0])); // tenant plan active
            assert!(!inject_slice("outer", &mut [1.0])); // outer plan shadowed
        }
        // Guard dropped: outer plan is back and untouched by the inner window.
        assert!(inject_slice("outer", &mut [1.0]));
        assert_eq!(outer.fired(), 1);
        assert_eq!(tenant.fired(), 1);
    }

    #[test]
    fn install_scoped_none_clears_within_window() {
        let _c = arm(FaultPlan::new(1).with("s", 0, FaultKind::NanPoison));
        {
            let _g = install_scoped(None);
            assert!(handle().is_none());
        }
        assert!(handle().is_some());
    }

    #[test]
    fn comm_delay_fires_at_its_occurrence() {
        let _c = arm(FaultPlan::new(9).with("op", 1, FaultKind::CommDelay { micros: 250 }));
        assert_eq!(comm_fault("op"), None);
        assert_eq!(comm_fault("op"), Some(Duration::from_micros(250)));
        assert_eq!(comm_fault("op"), None);
    }

    #[test]
    fn events_render_stably() {
        let c = arm(FaultPlan::new(5).with("w", 0, FaultKind::NanPoison));
        let mut buf = vec![0.0; 4];
        inject_slice("w", &mut buf);
        let lines: Vec<String> = c.events().iter().map(|e| e.render()).collect();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("nan-poison@w#0 rank0"), "{}", lines[0]);
    }
}
