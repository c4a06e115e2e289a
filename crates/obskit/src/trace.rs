//! The collected trace: per-rank event streams, nesting validation, the
//! per-stage second rollup, and the hierarchical summary tree.

use crate::clock::{to_seconds, SelfTime};
use crate::counters::{take_counters, CounterSnapshot};
use crate::span::{drain_registry, flush_thread, Event, EventKind};
use crate::Stage;
use std::collections::BTreeMap;

/// One thread lane's event stream, in recording order. A simulated-MPI
/// rank is usually a single lane, but unranked threads (main thread, Rayon
/// workers, serving threads) each get their own lane under rank 0 rather
/// than being merged together.
#[derive(Clone, Debug)]
pub struct RankTrace {
    pub rank: usize,
    /// Process-unique lane id (distinguishes threads sharing a rank).
    pub tid: u64,
    /// Human-readable lane name, e.g. `"rank 2"` or `"bench client 0"`.
    pub label: String,
    pub events: Vec<Event>,
}

/// A completed trace: every rank's stream plus the counter snapshot.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Lane streams, sorted by (rank, lane id).
    pub ranks: Vec<RankTrace>,
    pub counters: CounterSnapshot,
}

/// Flush the calling thread, drain every rank stream recorded so far, and
/// snapshot-and-reset the counters. Rank threads launched via
/// `parcomm::spmd` flush on exit, so calling this after `spmd` returns
/// yields the complete run.
pub fn take_trace() -> Trace {
    flush_thread();
    let mut by_lane: BTreeMap<(usize, u64), (String, Vec<Event>)> = BTreeMap::new();
    for batch in drain_registry() {
        let lane = by_lane
            .entry((batch.rank, batch.tid))
            .or_insert_with(|| (batch.label, Vec::new()));
        lane.1.extend(batch.events);
    }
    Trace {
        ranks: by_lane
            .into_iter()
            .map(|((rank, tid), (label, events))| RankTrace { rank, tid, label, events })
            .collect(),
        counters: take_counters(),
    }
}

/// Seconds per [`Stage`], indexed by [`Stage::index`].
pub type StageSeconds = [f64; Stage::ALL.len()];

impl Trace {
    /// Total wall span (seconds) covered by the trace, first `Begin` to
    /// last event, 0.0 if empty.
    pub fn wall_seconds(&self) -> f64 {
        let lo = self.ranks.iter().filter_map(|r| r.events.first()).map(|e| e.ts_ns).min();
        let hi = self.ranks.iter().filter_map(|r| r.events.last()).map(|e| e.ts_ns).max();
        match (lo, hi) {
            (Some(a), Some(b)) => (b.saturating_sub(a)) as f64 * 1e-9,
            _ => 0.0,
        }
    }

    /// Check the nesting invariants of every rank stream: timestamps are
    /// monotone, every `End` matches the innermost open `Begin` by name (no
    /// orphan closes), and no span is left open. Child intervals are ⊆ the
    /// parent interval by construction of the per-thread stack; monotonicity
    /// makes that checkable here.
    pub fn validate(&self) -> Result<(), String> {
        for r in &self.ranks {
            let mut stack: Vec<&Event> = Vec::new();
            let mut last_ts = 0u64;
            for (i, ev) in r.events.iter().enumerate() {
                if ev.ts_ns < last_ts {
                    return Err(format!(
                        "rank {}: timestamp regression at event {i} ({} < {last_ts})",
                        r.rank, ev.ts_ns
                    ));
                }
                last_ts = ev.ts_ns;
                match ev.kind {
                    EventKind::Begin => stack.push(ev),
                    EventKind::End { .. } => {
                        let open = stack.pop().ok_or_else(|| {
                            format!("rank {}: orphan close '{}' at event {i}", r.rank, ev.name)
                        })?;
                        if open.name != ev.name {
                            return Err(format!(
                                "rank {}: close '{}' does not match open '{}' at event {i}",
                                r.rank, ev.name, open.name
                            ));
                        }
                    }
                    EventKind::Instant => {}
                }
            }
            if let Some(open) = stack.last() {
                return Err(format!("rank {}: span '{}' never closed", r.rank, open.name));
            }
        }
        Ok(())
    }

    /// Exclusive (self-time) seconds per stage for one rank, by the
    /// [`crate::clock`] rule: nested `mpi` spans inside a `gemm` span are
    /// charged to `mpi` only. Replaying a lane here gives exactly what that
    /// thread's [`crate::StageClock`] read live over the same spans. A rank
    /// can own several lanes (rank thread + labelled workers); each has its
    /// own well-nested stack, so they are summed.
    pub fn stage_seconds_for_rank(&self, rank: usize) -> StageSeconds {
        self_seconds(self.ranks.iter().filter(|r| r.rank == rank))
    }

    /// [`Trace::stage_seconds_for_rank`] summed over all ranks.
    pub fn stage_seconds_total(&self) -> StageSeconds {
        self_seconds(self.ranks.iter())
    }

    /// Sum of an `args` key over all events (e.g. `"bytes"` across `mpi:*`
    /// closes) for one rank, filtered by event-name prefix.
    pub fn sum_arg(&self, rank: usize, name_prefix: &str, key: &str) -> f64 {
        self.ranks
            .iter()
            .filter(|r| r.rank == rank)
            .flat_map(|r| r.events.iter())
            .filter(|e| e.name.starts_with(name_prefix))
            .flat_map(|e| e.args.iter())
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v)
            .sum()
    }

    /// Per-iteration instant events with `name`, for one rank, as
    /// `(ts_seconds, args)` rows in time order.
    pub fn instants(&self, rank: usize, name: &str) -> Vec<(f64, Vec<(&'static str, f64)>)> {
        self.ranks
            .iter()
            .filter(|r| r.rank == rank)
            .flat_map(|r| r.events.iter())
            .filter(|e| e.kind == EventKind::Instant && e.name == name)
            .map(|e| (e.ts_ns as f64 * 1e-9, e.args.clone()))
            .collect()
    }

    /// Render the hierarchical summary tree: spans aggregated by call path,
    /// with call counts, total (inclusive) and self (exclusive) seconds,
    /// all ranks merged.
    pub fn summary_tree(&self) -> String {
        let mut root = Node::default();
        for r in &self.ranks {
            let mut path: Vec<&'static str> = Vec::new();
            let mut lane = SelfTime::new();
            for ev in &r.events {
                match ev.kind {
                    EventKind::Begin => {
                        path.push(ev.name);
                        lane.open(ev.stage, ev.ts_ns);
                    }
                    EventKind::End { aborted } => {
                        if let Some((dur, self_ns)) = lane.close(ev.ts_ns) {
                            let node = root.descend(&path);
                            node.calls += 1;
                            node.total_ns += dur;
                            node.self_ns += self_ns;
                            node.aborted += aborted as u64;
                            path.pop();
                        }
                    }
                    EventKind::Instant => {}
                }
            }
        }
        let mut out = String::from("span tree (calls, total s, self s):\n");
        root.render(&mut out, 0);
        out
    }
}

/// Replay each lane through the self-time rule and sum the charges.
fn self_seconds<'a>(lanes: impl Iterator<Item = &'a RankTrace>) -> StageSeconds {
    let mut ns = [0u64; Stage::ALL.len()];
    for r in lanes {
        let mut lane = SelfTime::new();
        for ev in &r.events {
            match ev.kind {
                EventKind::Begin => lane.open(ev.stage, ev.ts_ns),
                EventKind::End { .. } => {
                    lane.close(ev.ts_ns);
                }
                EventKind::Instant => {}
            }
        }
        for (total, n) in ns.iter_mut().zip(lane.ns) {
            *total += n;
        }
    }
    to_seconds(&ns)
}

#[derive(Default)]
struct Node {
    calls: u64,
    total_ns: u64,
    self_ns: u64,
    aborted: u64,
    children: BTreeMap<&'static str, Node>,
}

impl Node {
    fn descend(&mut self, path: &[&'static str]) -> &mut Node {
        let mut n = self;
        for name in path {
            n = n.children.entry(name).or_default();
        }
        n
    }

    fn render(&self, out: &mut String, depth: usize) {
        // Children sorted by descending total time.
        let mut kids: Vec<(&&str, &Node)> = self.children.iter().collect();
        kids.sort_by_key(|kid| std::cmp::Reverse(kid.1.total_ns));
        for (name, node) in kids {
            let aborted = if node.aborted > 0 {
                format!("  [{} aborted]", node.aborted)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "{:indent$}{name:<width$} {calls:>6}  {total:>10.6}  {selfs:>10.6}{aborted}\n",
                "",
                indent = 2 * depth,
                width = (34usize).saturating_sub(2 * depth),
                calls = node.calls,
                total = node.total_ns as f64 * 1e-9,
                selfs = node.self_ns as f64 * 1e-9,
            ));
            node.render(out, depth + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::testutil;
    use crate::{disable, enable, instant, span};

    fn record_demo() -> Trace {
        enable();
        {
            let _d = span(Stage::Diag, "diag");
            {
                let mut m = span(Stage::Mpi, "mpi:allreduce");
                m.arg("bytes", 64.0);
            }
            instant(Stage::Diag, "lobpcg.iter", &[("iter", 0.0), ("resid", 0.1)]);
            {
                let mut m = span(Stage::Mpi, "mpi:allreduce");
                m.arg("bytes", 36.0);
            }
        }
        disable();
        take_trace()
    }

    #[test]
    fn rollup_charges_exclusive_time() {
        let _g = testutil::exclusive();
        let t = record_demo();
        t.validate().expect("valid nesting");
        let s = t.stage_seconds_for_rank(0);
        let diag = s[Stage::Diag.index()];
        let mpi = s[Stage::Mpi.index()];
        assert!(diag > 0.0 && mpi > 0.0);
        // diag excludes its mpi children: both positive, total consistent.
        let total = t.wall_seconds();
        assert!(diag + mpi <= total + 1e-9);
    }

    #[test]
    fn sum_arg_and_instants() {
        let _g = testutil::exclusive();
        let t = record_demo();
        assert_eq!(t.sum_arg(0, "mpi:", "bytes"), 100.0);
        let it = t.instants(0, "lobpcg.iter");
        assert_eq!(it.len(), 1);
        assert_eq!(it[0].1[0], ("iter", 0.0));
    }

    #[test]
    fn summary_tree_lists_nested_paths() {
        let _g = testutil::exclusive();
        let t = record_demo();
        let tree = t.summary_tree();
        assert!(tree.contains("diag"), "{tree}");
        assert!(tree.contains("mpi:allreduce"), "{tree}");
    }

    #[test]
    fn validate_rejects_orphan_close() {
        let t = Trace {
            ranks: vec![RankTrace {
                rank: 0,
                tid: 1,
                label: "rank 0".to_string(),
                events: vec![Event {
                    kind: EventKind::End { aborted: false },
                    name: "x",
                    stage: Stage::Other,
                    ts_ns: 1,
                    args: vec![],
                }],
            }],
            counters: CounterSnapshot::default(),
        };
        assert!(t.validate().unwrap_err().contains("orphan close"));
    }

    #[test]
    fn validate_rejects_unclosed_span() {
        let t = Trace {
            ranks: vec![RankTrace {
                rank: 1,
                tid: 2,
                label: "rank 1".to_string(),
                events: vec![Event {
                    kind: EventKind::Begin,
                    name: "open",
                    stage: Stage::Other,
                    ts_ns: 1,
                    args: vec![],
                }],
            }],
            counters: CounterSnapshot::default(),
        };
        assert!(t.validate().unwrap_err().contains("never closed"));
    }

    #[test]
    fn multirank_totals_sum() {
        let _g = testutil::exclusive();
        enable();
        std::thread::scope(|s| {
            for rank in 0..3 {
                s.spawn(move || {
                    crate::set_rank(rank);
                    let _sp = span(Stage::Gemm, "g");
                    std::hint::black_box(0u64);
                });
            }
        });
        disable();
        let t = take_trace();
        t.validate().unwrap();
        assert_eq!(t.ranks.len(), 3);
        let total = t.stage_seconds_total();
        let per: f64 = (0..3).map(|r| t.stage_seconds_for_rank(r)[Stage::Gemm.index()]).sum();
        assert!((total[Stage::Gemm.index()] - per).abs() < 1e-12);
    }
}
