//! Span self-time arithmetic: turn one traced unit's `obskit::Trace` into a
//! ledger whose entries partition the unit's wall time.
//!
//! A span's self time is its duration minus the interval its child spans
//! cover. Children on one lane (thread) are sequential, so that interval is
//! the sum of the direct children's durations.

use obskit::{Event, EventKind, Stage, Trace};

/// Root span the harness opens around every unit; marks the harness lane.
pub const UNIT_SPAN: &str = "bench.unit";
/// Harness spans around the calls into `pwdft`. Everything beneath them is
/// charged to the pwdft layer, whatever stage it is tagged with.
pub const PWDFT_SPANS: [&str; 2] = ["bench.scf", "bench.from_ground_state"];

const N_STAGES: usize = Stage::ALL.len();

/// Self-time totals of one lane.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LaneTimes {
    /// Self seconds by `Stage::index`, outside the pwdft scope.
    pub stage_self_s: [f64; N_STAGES],
    /// Self seconds of every span at or beneath a pwdft scope span.
    pub pwdft_s: f64,
    /// Self seconds of spans whose name starts with `diag.syev`.
    pub syev_s: f64,
    /// `lobpcg.iter` instants inside / outside the pwdft scope.
    pub band_iterations: u64,
    pub lobpcg_iterations: u64,
    /// Collective calls (`mpi:*` spans other than `mpi:wait`) and the bytes
    /// they carried.
    pub mpi_calls: u64,
    pub mpi_bytes: f64,
    pub events: usize,
}

/// Walk one lane's well-nested event stream.
pub fn lane_times(events: &[Event]) -> LaneTimes {
    struct Open {
        name: &'static str,
        stage: Stage,
        t0: u64,
        child_ns: u64,
    }
    let mut out = LaneTimes {
        events: events.len(),
        ..Default::default()
    };
    let mut stack: Vec<Open> = Vec::new();
    let mut pwdft_depth = 0usize;
    for ev in events {
        match ev.kind {
            EventKind::Begin => {
                if PWDFT_SPANS.contains(&ev.name) {
                    pwdft_depth += 1;
                }
                stack.push(Open {
                    name: ev.name,
                    stage: ev.stage,
                    t0: ev.ts_ns,
                    child_ns: 0,
                });
            }
            EventKind::End { .. } => {
                let Some(open) = stack.pop() else { continue };
                let dur = ev.ts_ns.saturating_sub(open.t0);
                let self_s = dur.saturating_sub(open.child_ns) as f64 * 1e-9;
                if pwdft_depth > 0 {
                    out.pwdft_s += self_s;
                } else {
                    out.stage_self_s[open.stage.index()] += self_s;
                    if open.name.starts_with("diag.syev") {
                        out.syev_s += self_s;
                    }
                }
                if PWDFT_SPANS.contains(&open.name) {
                    pwdft_depth -= 1;
                }
                if open.name.starts_with("mpi:") && open.name != "mpi:wait" {
                    out.mpi_calls += 1;
                    out.mpi_bytes += ev
                        .args
                        .iter()
                        .filter(|(k, _)| *k == "bytes")
                        .map(|(_, v)| v)
                        .sum::<f64>();
                }
                if let Some(parent) = stack.last_mut() {
                    parent.child_ns += dur;
                }
            }
            EventKind::Instant => {
                if ev.name == "lobpcg.iter" {
                    if pwdft_depth > 0 {
                        out.band_iterations += 1;
                    } else {
                        out.lobpcg_iterations += 1;
                    }
                }
            }
        }
    }
    out
}

/// One unit's wall time, partitioned.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct UnitLedger {
    pub wall_s: f64,
    /// Attributed seconds by `Stage::index` (`Stage::Other` stays 0: harness
    /// and untagged self time is part of `other_s`).
    pub stage_s: [f64; N_STAGES],
    pub pwdft_s: f64,
    /// `wall_s` minus the attributed stages and `pwdft_s`.
    pub other_s: f64,
    pub syev_s: f64,
    /// Collective seconds of the rank that spent longest in them.
    pub mpi_max_s: f64,
    pub band_iterations: f64,
    pub lobpcg_iterations: f64,
    pub mpi_calls: f64,
    pub mpi_bytes: f64,
    pub events: f64,
}

impl UnitLedger {
    pub fn stage(&self, s: Stage) -> f64 {
        self.stage_s[s.index()]
    }
}

fn is_worker_lane(label: &str) -> bool {
    label.starts_with("rank ") || label.starts_with("serve ")
}

/// Ledger of a traced window of `wall_s` seconds holding `units` units.
///
/// The window's wall is partitioned along the lanes that did the work: the
/// mean over rank lanes when ranks ran (each rank's timeline partitions the
/// same wall, so their mean does too), else the harness lane. Every entry
/// is then divided by `units`.
pub fn unit_ledger(trace: &Trace, wall_s: f64, units: f64) -> UnitLedger {
    let lanes: Vec<(&str, LaneTimes)> = trace
        .ranks
        .iter()
        .map(|r| (r.label.as_str(), lane_times(&r.events)))
        .collect();
    let workers: Vec<&LaneTimes> = lanes
        .iter()
        .filter(|(l, _)| is_worker_lane(l))
        .map(|(_, t)| t)
        .collect();
    let harness: Vec<&LaneTimes> = trace
        .ranks
        .iter()
        .zip(&lanes)
        .filter(|(r, _)| r.events.iter().any(|e| e.name == UNIT_SPAN))
        .map(|(_, (_, t))| t)
        .collect();
    let busy = if workers.is_empty() {
        &harness
    } else {
        &workers
    };
    let n = busy.len().max(1) as f64;

    let mut out = UnitLedger {
        wall_s: wall_s / units,
        ..Default::default()
    };
    for t in busy.iter() {
        for s in Stage::ALL {
            if s != Stage::Other {
                out.stage_s[s.index()] += t.stage_self_s[s.index()] / n / units;
            }
        }
        out.pwdft_s += t.pwdft_s / n / units;
        out.syev_s += t.syev_s / n / units;
        out.mpi_max_s = out
            .mpi_max_s
            .max(t.stage_self_s[Stage::Mpi.index()] / units);
        out.band_iterations += t.band_iterations as f64 / n / units;
        out.lobpcg_iterations += t.lobpcg_iterations as f64 / n / units;
        out.mpi_calls += t.mpi_calls as f64 / n / units;
        out.mpi_bytes += t.mpi_bytes / n / units;
    }
    out.other_s = out.wall_s - out.stage_s.iter().sum::<f64>() - out.pwdft_s;
    out.events = lanes.iter().map(|(_, t)| t.events).sum::<usize>() as f64 / units;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use obskit::RankTrace;

    fn ev(kind: EventKind, name: &'static str, stage: Stage, ts_ns: u64) -> Event {
        Event {
            kind,
            name,
            stage,
            ts_ns,
            args: Vec::new(),
        }
    }
    fn b(name: &'static str, stage: Stage, ts: u64) -> Event {
        ev(EventKind::Begin, name, stage, ts)
    }
    fn e(name: &'static str, stage: Stage, ts: u64) -> Event {
        ev(EventKind::End { aborted: false }, name, stage, ts)
    }
    fn i(name: &'static str, ts: u64) -> Event {
        ev(EventKind::Instant, name, Stage::Diag, ts)
    }
    const S: u64 = 1_000_000_000;

    /// unit [0,10s] > scf [0,4] (with a gemm [1,2] inside, and 2 band
    /// iterations) ; solve [4,10] > theta [4,7] > mpi [5,6] ; syev [7,9].
    fn serial_lane() -> Vec<Event> {
        vec![
            b(UNIT_SPAN, Stage::Other, 0),
            b("bench.scf", Stage::Other, 0),
            b("inner.gemm", Stage::Gemm, S),
            e("inner.gemm", Stage::Gemm, 2 * S),
            i("lobpcg.iter", 3 * S),
            i("lobpcg.iter", 3 * S),
            e("bench.scf", Stage::Other, 4 * S),
            b("bench.solve", Stage::Other, 4 * S),
            b("isdf.theta", Stage::Theta, 4 * S),
            b("mpi:allreduce", Stage::Mpi, 5 * S),
            Event {
                args: vec![("bytes", 64.0)],
                ..e("mpi:allreduce", Stage::Mpi, 6 * S)
            },
            e("isdf.theta", Stage::Theta, 7 * S),
            b("diag.syev", Stage::Diag, 7 * S),
            i("lobpcg.iter", 8 * S),
            e("diag.syev", Stage::Diag, 9 * S),
            e("bench.solve", Stage::Other, 10 * S),
            e(UNIT_SPAN, Stage::Other, 10 * S),
        ]
    }

    #[test]
    fn self_time_is_duration_minus_children_and_pwdft_scope_is_inclusive() {
        let t = lane_times(&serial_lane());
        assert!(
            (t.stage_self_s[Stage::Theta.index()] - 2.0).abs() < 1e-9,
            "3 s minus 1 s child"
        );
        assert!((t.stage_self_s[Stage::Mpi.index()] - 1.0).abs() < 1e-9);
        assert!((t.stage_self_s[Stage::Diag.index()] - 2.0).abs() < 1e-9);
        assert!((t.syev_s - 2.0).abs() < 1e-9);
        // The gemm inside scf is charged to pwdft, not to the gemm stage.
        assert_eq!(t.stage_self_s[Stage::Gemm.index()], 0.0);
        assert!((t.pwdft_s - 4.0).abs() < 1e-9);
        // bench.solve self = 6 - (3 + 2) = 1; bench.unit self = 0.
        assert!((t.stage_self_s[Stage::Other.index()] - 1.0).abs() < 1e-9);
        assert_eq!((t.band_iterations, t.lobpcg_iterations), (2, 1));
        assert_eq!((t.mpi_calls, t.mpi_bytes), (1, 64.0));
        let total: f64 = t.stage_self_s.iter().sum::<f64>() + t.pwdft_s;
        assert!(
            (total - 10.0).abs() < 1e-9,
            "self times partition the root span"
        );
    }

    #[test]
    fn serial_unit_ledger_partitions_the_wall() {
        let trace = Trace {
            ranks: vec![RankTrace {
                rank: 0,
                tid: 1,
                label: "main".into(),
                events: serial_lane(),
            }],
            counters: Default::default(),
        };
        let l = unit_ledger(&trace, 10.0, 1.0);
        assert!((l.pwdft_s - 4.0).abs() < 1e-9);
        assert!((l.stage(Stage::Theta) - 2.0).abs() < 1e-9);
        assert!((l.other_s - 1.0).abs() < 1e-9);
        let sum = l.stage_s.iter().sum::<f64>() + l.pwdft_s + l.other_s;
        assert!((sum - l.wall_s).abs() < 1e-12);
        assert_eq!(l.events, 17.0);
    }

    #[test]
    fn rank_lanes_are_averaged_and_the_harness_lane_is_left_out() {
        // Harness waits 10 s; rank 0: 6 s theta + 2 s mpi; rank 1: 2 s theta
        // + 6 s mpi (it waits for rank 0).
        let harness = vec![
            b(UNIT_SPAN, Stage::Other, 0),
            e(UNIT_SPAN, Stage::Other, 10 * S),
        ];
        let rank = |theta: u64| {
            vec![
                b("theta.solve", Stage::Theta, S),
                e("theta.solve", Stage::Theta, (1 + theta) * S),
                b("mpi:allreduce", Stage::Mpi, (1 + theta) * S),
                e("mpi:allreduce", Stage::Mpi, 9 * S),
            ]
        };
        let trace = Trace {
            ranks: vec![
                RankTrace {
                    rank: 0,
                    tid: 1,
                    label: "main".into(),
                    events: harness,
                },
                RankTrace {
                    rank: 0,
                    tid: 2,
                    label: "rank 0".into(),
                    events: rank(6),
                },
                RankTrace {
                    rank: 1,
                    tid: 3,
                    label: "rank 1".into(),
                    events: rank(2),
                },
            ],
            counters: Default::default(),
        };
        let l = unit_ledger(&trace, 10.0, 1.0);
        assert!((l.stage(Stage::Theta) - 4.0).abs() < 1e-9);
        assert!((l.stage(Stage::Mpi) - 4.0).abs() < 1e-9);
        assert!((l.mpi_max_s - 6.0).abs() < 1e-9);
        assert!((l.other_s - 2.0).abs() < 1e-9);
        // Two units in the window halve every entry.
        let half = unit_ledger(&trace, 10.0, 2.0);
        assert!((half.stage(Stage::Theta) - 2.0).abs() < 1e-9);
        assert!((half.wall_s - 5.0).abs() < 1e-12);
        assert!((half.other_s - 1.0).abs() < 1e-9);
    }
}
