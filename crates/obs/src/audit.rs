//! Prediction-accuracy attribution: *where* does the model's error
//! come from?
//!
//! The accuracy experiments (§5.2) report a single percentage per
//! (application, distribution) — useful as a scoreboard, useless for
//! diagnosis. This module aligns the model's per-term prediction
//! ([`mheta_core::Prediction::terms`]) with the simulator's actual
//! timeline and attributes the total residual to individual model
//! terms, so "the prediction is 7% low" becomes "the neighbor-wait
//! term under-predicts by 5.9% and the disk term by 1.1%".
//!
//! Both sides are reduced to the same twelve-term vocabulary:
//!
//! | term               | predicted (per iteration × iters)        | actual (trace partition)                       |
//! |--------------------|------------------------------------------|------------------------------------------------|
//! | `compute`          | compute term                             | `Compute` intervals                            |
//! | `disk`             | seek + synchronous transfer terms        | `DiskRead`/`DiskWrite`/`PrefetchIssue`, plus the non-blocked part of `PrefetchWait` |
//! | `prefetch_exposed` | exposed (non-overlapped) prefetch term   | blocked portion of `PrefetchWait`              |
//! | `comm_overhead`    | send/receive overhead term               | `Send` + non-blocked `Recv`, point-to-point tags |
//! | `neighbor_wait`    | Eq. 3/5 wait term                        | blocked portion of point-to-point `Recv`       |
//! | `collective`       | reduction-schedule term                  | any `Send`/`Recv` with a tag ≥ [`TAG_COLLECTIVE_BASE`] |
//! | `fault`            | — (the model does not predict faults)    | `Fault` intervals                              |
//! | `checkpoint`       | —                                        | time inside `Checkpoint` recovery spans        |
//! | `rollback`         | —                                        | time inside `Rollback` recovery spans          |
//! | `redistribution`   | —                                        | time inside `Redistribution` recovery spans    |
//! | `reprediction`     | —                                        | time inside `Reprediction` recovery spans      |
//! | `other`            | —                                        | untraced gaps (retry backoff, loop scaffolding) |
//!
//! The actual column is the workspace's one classification of traced
//! time: [`Metrics`](crate::Metrics) reports each rank's time in these
//! terms and [`CriticalPath`](crate::CriticalPath) labels each of its
//! segments with one, both through the same event → term decision.
//!
//! The four recovery terms attribute **wholesale**: any window time
//! inside a [`RecoverySpan`] belongs to that span's term, and events
//! overlapping a span are clipped to its complement — the disk write of
//! a checkpoint counts as `checkpoint`, not `disk`. Runs without
//! recovery spans leave those terms at 0 and reduce to the classic
//! eight-term audit.
//!
//! **Exactness contract.** Per rank, the twelve *actual* terms are
//! integer nanoseconds that partition the rank's timed window
//! `[t0, t1)` exactly (events straddling a window edge are clipped to
//! it). The *residual* of each term is `predicted − actual`, and the
//! report's per-rank and total residuals are defined as the fixed-order
//! fold of those term residuals — so the terms partition the residual
//! *by construction*, bitwise, with no epsilon. The integration tests
//! assert both invariants.

use std::fmt::Write as _;

use crate::json::Value;
use mheta_core::Prediction;
use mheta_mpi::TAG_COLLECTIVE_BASE;
use mheta_sim::{EventKind, RankTrace, RecoveryKind, RecoverySpan};

/// The number of audit terms.
pub const TERM_COUNT: usize = 12;

/// The twelve audit terms, in the canonical fold order.
pub const TERM_NAMES: [&str; TERM_COUNT] = [
    "compute",
    "disk",
    "prefetch_exposed",
    "comm_overhead",
    "neighbor_wait",
    "collective",
    "fault",
    "checkpoint",
    "rollback",
    "redistribution",
    "reprediction",
    "other",
];

pub(crate) const COMPUTE: usize = 0;
pub(crate) const DISK: usize = 1;
pub(crate) const PREFETCH_EXPOSED: usize = 2;
pub(crate) const COMM_OVERHEAD: usize = 3;
pub(crate) const NEIGHBOR_WAIT: usize = 4;
pub(crate) const COLLECTIVE: usize = 5;
const FAULT: usize = 6;
const CHECKPOINT: usize = 7;
const ROLLBACK: usize = 8;
const REDISTRIBUTION: usize = 9;
const REPREDICTION: usize = 10;
pub(crate) const OTHER: usize = 11;

/// The one classification of traced time: the term (an index into
/// [`TERM_NAMES`]) that an event's time belongs to. `blocked` selects
/// the blocked prefix of a receive or prefetch wait; for every other
/// kind it is ignored. `actual_terms` (and through it `Metrics`) and
/// `CriticalPath::compute` sort time with this function and no other.
pub(crate) fn term_of(kind: &EventKind, blocked: bool) -> usize {
    match kind {
        EventKind::Compute { .. } => COMPUTE,
        EventKind::DiskRead { .. }
        | EventKind::DiskWrite { .. }
        | EventKind::PrefetchIssue { .. } => DISK,
        EventKind::PrefetchWait { .. } if blocked => PREFETCH_EXPOSED,
        EventKind::PrefetchWait { .. } => DISK,
        EventKind::Send { tag, .. } | EventKind::Recv { tag, .. }
            if *tag >= TAG_COLLECTIVE_BASE =>
        {
            COLLECTIVE
        }
        EventKind::Recv { .. } if blocked => NEIGHBOR_WAIT,
        EventKind::Send { .. } | EventKind::Recv { .. } => COMM_OVERHEAD,
        EventKind::Fault { .. } => FAULT,
        // A zero-length gauge sample: it holds no time.
        EventKind::MemLevel { .. } => OTHER,
    }
}

fn recovery_slot(kind: RecoveryKind) -> usize {
    match kind {
        RecoveryKind::Checkpoint => CHECKPOINT,
        RecoveryKind::Rollback => ROLLBACK,
        RecoveryKind::Redistribution => REDISTRIBUTION,
        RecoveryKind::Reprediction => REPREDICTION,
        // Mid-run rebalancing moves rows between live ranks — the same
        // physical work as post-crash redistribution — so it shares the
        // slot and the audit schema stays at twelve terms.
        RecoveryKind::Rebalance => REDISTRIBUTION,
    }
}

/// One aligned term on one rank: what the model charged, what the
/// simulator spent, and the signed difference.
#[derive(Debug, Clone, PartialEq)]
pub struct TermLine {
    /// Term name (one of [`TERM_NAMES`]).
    pub term: &'static str,
    /// Model-side charge over the audited window, ns.
    pub predicted_ns: f64,
    /// Simulator-side time in the audited window, ns.
    pub actual_ns: u64,
    /// `predicted_ns − actual_ns`: positive means the model
    /// over-predicts this term.
    pub residual_ns: f64,
}

/// The audit of one rank's timed window.
#[derive(Debug, Clone, PartialEq)]
pub struct RankAudit {
    /// Rank index.
    pub rank: usize,
    /// Length of the audited window `t1 − t0`, ns.
    pub window_ns: u64,
    /// The twelve aligned terms, in [`TERM_NAMES`] order.
    pub lines: Vec<TermLine>,
}

impl RankAudit {
    /// Model-side total: fixed-order fold of the predicted terms.
    #[must_use]
    pub fn predicted_total_ns(&self) -> f64 {
        self.lines.iter().fold(0.0, |a, l| a + l.predicted_ns)
    }

    /// Simulator-side total. Equals [`RankAudit::window_ns`] exactly —
    /// the actual terms partition the window.
    #[must_use]
    pub fn actual_total_ns(&self) -> u64 {
        self.lines.iter().map(|l| l.actual_ns).sum()
    }

    /// The rank's total residual: fixed-order fold of the per-term
    /// residuals, so the terms partition it exactly by construction.
    #[must_use]
    pub fn residual_ns(&self) -> f64 {
        self.lines.iter().fold(0.0, |a, l| a + l.residual_ns)
    }
}

/// A full error-attribution report for one (prediction, run) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// Iterations the actual run executed (the per-iteration prediction
    /// is scaled by this factor before alignment).
    pub iters: u32,
    /// One audit per rank, in rank order.
    pub ranks: Vec<RankAudit>,
}

impl AuditReport {
    /// Align `prediction` (per-iteration terms, scaled by `iters`)
    /// against the traced run: `traces[i]` is rank *i*'s operational
    /// trace and `windows[i]` its timed loop window `(t0, t1)` in ns
    /// (`Observed::windows` in `mheta-apps`).
    ///
    /// # Panics
    /// If the rank counts of the three views disagree.
    #[must_use]
    pub fn audit(
        prediction: &Prediction,
        iters: u32,
        traces: &[RankTrace],
        windows: &[(u64, u64)],
    ) -> AuditReport {
        Self::audit_with_recovery(prediction, iters, traces, windows, &[])
    }

    /// [`AuditReport::audit`] for a fault-tolerant run: `spans[i]` is
    /// rank *i*'s recovery-span list (`AdaptiveOutcome::spans` in
    /// `mheta-apps`). Window time inside a span is attributed wholesale
    /// to the span's term (`checkpoint` / `rollback` /
    /// `redistribution` / `reprediction`); events overlapping a span
    /// are clipped to its complement, so the exact-partition invariant
    /// still holds. An empty `spans` slice means no rank has any.
    ///
    /// # Panics
    /// If the rank counts of the views disagree.
    #[must_use]
    pub fn audit_with_recovery(
        prediction: &Prediction,
        iters: u32,
        traces: &[RankTrace],
        windows: &[(u64, u64)],
        spans: &[Vec<RecoverySpan>],
    ) -> AuditReport {
        assert_eq!(prediction.terms.len(), traces.len(), "rank count mismatch");
        assert_eq!(traces.len(), windows.len(), "rank count mismatch");
        assert!(
            spans.is_empty() || spans.len() == traces.len(),
            "rank count mismatch"
        );
        static NO_SPANS: Vec<RecoverySpan> = Vec::new();
        let ranks = traces
            .iter()
            .zip(windows)
            .enumerate()
            .map(|(rank, (trace, &(t0, t1)))| {
                let rank_spans = spans.get(rank).unwrap_or(&NO_SPANS);
                let predicted = predicted_terms(prediction, rank, iters);
                let actual = actual_terms(trace, t0, t1, rank_spans);
                let lines = TERM_NAMES
                    .iter()
                    .enumerate()
                    .map(|(i, &term)| TermLine {
                        term,
                        predicted_ns: predicted[i],
                        actual_ns: actual[i],
                        residual_ns: predicted[i] - actual[i] as f64,
                    })
                    .collect();
                RankAudit {
                    rank,
                    window_ns: t1.saturating_sub(t0),
                    lines,
                }
            })
            .collect();
        AuditReport { iters, ranks }
    }

    /// Total residual across ranks: fixed-order fold of the per-rank
    /// residuals (each itself a fold of term residuals).
    #[must_use]
    pub fn total_residual_ns(&self) -> f64 {
        self.ranks.iter().fold(0.0, |a, r| a + r.residual_ns())
    }

    /// Per-term residual summed across ranks, in [`TERM_NAMES`] order.
    #[must_use]
    pub fn residual_by_term(&self) -> [(&'static str, f64); TERM_COUNT] {
        let mut out = TERM_NAMES.map(|t| (t, 0.0));
        for r in &self.ranks {
            for (i, l) in r.lines.iter().enumerate() {
                out[i].1 += l.residual_ns;
            }
        }
        out
    }

    /// The `k` terms with the largest absolute cross-rank residual,
    /// most blameworthy first (ties keep [`TERM_NAMES`] order).
    #[must_use]
    pub fn top_terms(&self, k: usize) -> Vec<(&'static str, f64)> {
        let mut terms: Vec<_> = self.residual_by_term().into_iter().collect();
        terms.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()));
        terms.truncate(k);
        terms
    }

    /// Human-readable per-rank attribution table.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::from(
            "rank  term               predicted_ms    actual_ms  residual_ms  res/window\n",
        );
        for r in &self.ranks {
            for l in &r.lines {
                let share = if r.window_ns > 0 {
                    100.0 * l.residual_ns / r.window_ns as f64
                } else {
                    0.0
                };
                let _ = writeln!(
                    out,
                    "{:>4}  {:<16} {:>13.4} {:>12.4} {:>12.4} {:>+9.2}%",
                    r.rank,
                    l.term,
                    l.predicted_ns / 1e6,
                    l.actual_ns as f64 / 1e6,
                    l.residual_ns / 1e6,
                    share,
                );
            }
            let _ = writeln!(
                out,
                "{:>4}  {:<16} {:>13.4} {:>12.4} {:>12.4}",
                r.rank,
                "TOTAL",
                r.predicted_total_ns() / 1e6,
                r.window_ns as f64 / 1e6,
                r.residual_ns() / 1e6,
            );
        }
        let _ = writeln!(
            out,
            "total residual {:.4} ms over {} rank(s), {} iteration(s)",
            self.total_residual_ns() / 1e6,
            self.ranks.len(),
            self.iters,
        );
        out
    }

    /// The report as a deterministic JSON value
    /// (schema `mheta-audit/v2`).
    #[must_use]
    pub fn to_value(&self) -> Value {
        let ranks = self
            .ranks
            .iter()
            .map(|r| {
                let terms = r
                    .lines
                    .iter()
                    .map(|l| {
                        Value::object(vec![
                            ("term", Value::Str(l.term.to_string())),
                            ("predicted_ns", Value::Float(l.predicted_ns)),
                            ("actual_ns", Value::UInt(l.actual_ns)),
                            ("residual_ns", Value::Float(l.residual_ns)),
                        ])
                    })
                    .collect();
                Value::object(vec![
                    ("rank", Value::UInt(r.rank as u64)),
                    ("window_ns", Value::UInt(r.window_ns)),
                    ("predicted_total_ns", Value::Float(r.predicted_total_ns())),
                    ("residual_ns", Value::Float(r.residual_ns())),
                    ("terms", Value::Array(terms)),
                ])
            })
            .collect();
        Value::object(vec![
            ("schema", Value::Str("mheta-audit/v2".into())),
            ("iters", Value::UInt(u64::from(self.iters))),
            ("total_residual_ns", Value::Float(self.total_residual_ns())),
            ("ranks", Value::Array(ranks)),
        ])
    }

    /// [`AuditReport::to_value`] rendered as pretty JSON.
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        self.to_value().to_json_pretty()
    }
}

/// Model-side term vector for one rank: the per-iteration term
/// breakdown grouped into the audit vocabulary and scaled by `iters`.
fn predicted_terms(prediction: &Prediction, rank: usize, iters: u32) -> [f64; TERM_COUNT] {
    let t = prediction.rank_terms(rank);
    let it = f64::from(iters);
    let mut p = [0.0f64; TERM_COUNT];
    p[COMPUTE] = t.compute_ns * it;
    p[DISK] = (t.disk_seek_ns + t.disk_transfer_ns) * it;
    p[PREFETCH_EXPOSED] = t.prefetch_exposed_ns * it;
    p[COMM_OVERHEAD] = t.comm_overhead_ns * it;
    p[NEIGHBOR_WAIT] = t.neighbor_wait_ns * it;
    p[COLLECTIVE] = t.collective_ns * it;
    // FAULT, the recovery terms, and OTHER stay 0: the model predicts
    // neither injected faults, nor recovery machinery, nor untraced
    // scaffolding.
    p
}

/// Simulator-side term vector: an exact integer partition of the
/// window `[t0, t1)`. Events are clipped to the window; the blocked
/// prefix of a wait (`[start, start+blocked)`) is clipped with it, so
/// overhead/blocked splits stay exact under clipping. Recovery spans
/// claim their window time wholesale; events are clipped to the
/// complement of the spans.
pub(crate) fn actual_terms(
    trace: &RankTrace,
    t0: u64,
    t1: u64,
    spans: &[RecoverySpan],
) -> [u64; TERM_COUNT] {
    let mut acc = [0u64; TERM_COUNT];
    let window = t1.saturating_sub(t0);
    let mut covered = 0u64;
    // Clip the spans to the window and force them disjoint (the
    // resilient driver records them sequential already; clamping makes
    // the partition invariant unconditional).
    let mut cuts: Vec<(u64, u64, usize)> = spans
        .iter()
        .map(|sp| {
            (
                sp.start_ns.max(t0),
                sp.end_ns.min(t1),
                recovery_slot(sp.kind),
            )
        })
        .filter(|&(a, b, _)| b > a)
        .collect();
    cuts.sort_unstable_by_key(|&(a, b, _)| (a, b));
    let mut prev_end = 0u64;
    cuts.retain_mut(|(a, b, _)| {
        *a = (*a).max(prev_end);
        prev_end = prev_end.max(*b);
        b > a
    });
    for &(a, b, slot) in &cuts {
        acc[slot] += b - a;
        covered += b - a;
    }
    for ev in &trace.events {
        let s = ev.start.as_nanos();
        let cs = s.max(t0);
        let ce = ev.end.as_nanos().min(t1);
        if ce <= cs {
            continue;
        }
        // Split the clipped interval [cs, ce) on the recovery cuts,
        // keeping only the parts outside every span.
        let mut segments: Vec<(u64, u64)> = Vec::new();
        let mut cur = cs;
        for &(a, b, _) in &cuts {
            if b <= cur {
                continue;
            }
            if a >= ce {
                break;
            }
            if a > cur {
                segments.push((cur, a.min(ce)));
            }
            cur = cur.max(b);
            if cur >= ce {
                break;
            }
        }
        if cur < ce {
            segments.push((cur, ce));
        }
        for (a, b) in segments {
            let olen = b - a;
            covered += olen;
            // Blocked time occupies the event's prefix [s, s+blocked);
            // intersect it with this segment [a, b).
            let blocked = match ev.kind {
                EventKind::PrefetchWait { blocked_ns, .. } | EventKind::Recv { blocked_ns, .. } => {
                    (s + blocked_ns).min(b).saturating_sub(a)
                }
                _ => 0,
            };
            acc[term_of(&ev.kind, true)] += blocked;
            acc[term_of(&ev.kind, false)] += olen - blocked;
        }
    }
    // Traces are monotone (non-overlapping), so coverage cannot exceed
    // the window; the remainder is untraced clock advancement.
    acc[OTHER] += window.saturating_sub(covered);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use mheta_core::{RankTerms, SectionTerms, StageTerms, TermBreakdown};
    use mheta_sim::{Event, SimTime};

    fn ev(s: u64, e: u64, kind: EventKind) -> Event {
        Event {
            start: SimTime(s),
            end: SimTime(e),
            kind,
        }
    }

    /// A prediction whose single rank charges the given terms once per
    /// iteration.
    fn prediction(ranks: Vec<TermBreakdown>) -> Prediction {
        let terms: Vec<RankTerms> = ranks
            .iter()
            .enumerate()
            .map(|(rank, t)| RankTerms {
                rank,
                sections: vec![SectionTerms {
                    section: 0,
                    stages: vec![StageTerms {
                        stage: 0,
                        terms: *t,
                    }],
                    comm: TermBreakdown::default(),
                }],
            })
            .collect();
        let per_node_ns: Vec<f64> = ranks.iter().map(TermBreakdown::total_ns).collect();
        let iteration_ns = per_node_ns.iter().fold(0.0f64, |a, &b| a.max(b));
        Prediction {
            breakdown: ranks
                .iter()
                .map(|t| mheta_core::NodeBreakdown {
                    compute_ns: t.compute_ns,
                    io_ns: t.io_ns(),
                    comm_ns: t.comm_ns(),
                })
                .collect(),
            per_node_ns,
            iteration_ns,
            terms,
        }
    }

    #[test]
    fn actual_terms_partition_the_window_exactly() {
        let trace = RankTrace {
            rank: 0,
            events: vec![
                ev(0, 10, EventKind::Compute { work_units: 1.0 }), // before window
                ev(10, 30, EventKind::Compute { work_units: 1.0 }),
                ev(30, 45, EventKind::DiskRead { var: 1, bytes: 64 }),
                // Gap [45, 50): retry backoff -> other.
                ev(
                    50,
                    70,
                    EventKind::Recv {
                        from: 1,
                        tag: 3,
                        bytes: 8,
                        blocked_ns: 12,
                    },
                ),
                ev(
                    70,
                    75,
                    EventKind::Send {
                        to: 1,
                        tag: mheta_mpi::TAG_REDUCE,
                        bytes: 8,
                    },
                ),
                ev(
                    75,
                    75,
                    EventKind::MemLevel {
                        in_use: 0,
                        high_water: 64,
                    },
                ),
            ],
            finish: SimTime(80),
        };
        let acc = actual_terms(&trace, 10, 80, &[]);
        assert_eq!(acc[COMPUTE], 20, "pre-window compute is clipped away");
        assert_eq!(acc[DISK], 15);
        assert_eq!(acc[NEIGHBOR_WAIT], 12);
        assert_eq!(acc[COMM_OVERHEAD], 8);
        assert_eq!(acc[COLLECTIVE], 5, "reduce-tagged send is collective");
        assert_eq!(acc[OTHER], 5 + 5, "backoff gap + tail after the send");
        assert_eq!(acc.iter().sum::<u64>(), 70, "terms partition [t0, t1)");
    }

    #[test]
    fn clipping_splits_a_straddling_blocked_recv_exactly() {
        // Recv [0, 100), blocked prefix [0, 80). Window starts at 50:
        // 30 ns of the wait and all 20 ns of overhead are inside.
        let trace = RankTrace {
            rank: 0,
            events: vec![ev(
                0,
                100,
                EventKind::Recv {
                    from: 1,
                    tag: 0,
                    bytes: 8,
                    blocked_ns: 80,
                },
            )],
            finish: SimTime(100),
        };
        let acc = actual_terms(&trace, 50, 100, &[]);
        assert_eq!(acc[NEIGHBOR_WAIT], 30);
        assert_eq!(acc[COMM_OVERHEAD], 20);
        assert_eq!(acc.iter().sum::<u64>(), 50);
        // Window ending inside the blocked prefix: wait only.
        let acc = actual_terms(&trace, 0, 60, &[]);
        assert_eq!(acc[NEIGHBOR_WAIT], 60);
        assert_eq!(acc[COMM_OVERHEAD], 0);
        assert_eq!(acc.iter().sum::<u64>(), 60);
    }

    #[test]
    fn residual_terms_partition_the_total_residual_bitwise() {
        let pred = prediction(vec![TermBreakdown {
            compute_ns: 950.0,
            disk_seek_ns: 40.0,
            disk_transfer_ns: 100.0,
            neighbor_wait_ns: 33.3,
            ..TermBreakdown::default()
        }]);
        let trace = RankTrace {
            rank: 0,
            events: vec![
                ev(0, 1000, EventKind::Compute { work_units: 1.0 }),
                ev(1000, 1120, EventKind::DiskRead { var: 1, bytes: 64 }),
            ],
            finish: SimTime(1200),
        };
        let report = AuditReport::audit(&pred, 1, &[trace], &[(0, 1200)]);
        let r = &report.ranks[0];
        assert_eq!(r.actual_total_ns(), r.window_ns);
        // The defining identity: folding the term residuals in order
        // IS the total residual — bitwise, no epsilon.
        let fold = r.lines.iter().fold(0.0, |a, l| a + l.residual_ns);
        assert_eq!(fold.to_bits(), r.residual_ns().to_bits());
        assert_eq!(
            report.total_residual_ns().to_bits(),
            fold.to_bits(),
            "single-rank total is the rank fold"
        );
        // Spot-check a couple of lines.
        assert_eq!(r.lines[COMPUTE].residual_ns, -50.0);
        assert_eq!(
            r.lines[OTHER].residual_ns, -80.0,
            "untraced tail blamed on other"
        );
    }

    #[test]
    fn top_terms_rank_by_absolute_residual() {
        let pred = prediction(vec![TermBreakdown {
            compute_ns: 900.0,
            comm_overhead_ns: 10.0,
            ..TermBreakdown::default()
        }]);
        let trace = RankTrace {
            rank: 0,
            events: vec![ev(0, 1000, EventKind::Compute { work_units: 1.0 })],
            finish: SimTime(1000),
        };
        let report = AuditReport::audit(&pred, 1, &[trace], &[(0, 1000)]);
        let top = report.top_terms(3);
        assert_eq!(top[0].0, "compute");
        assert_eq!(top[0].1, -100.0);
        assert_eq!(top[1].0, "comm_overhead");
        assert_eq!(top.len(), 3);
        let table = report.table();
        assert!(table.contains("TOTAL"));
        assert!(table.contains("compute"));
        let json = report.to_json_pretty();
        assert!(json.contains("mheta-audit/v2"));
    }

    #[test]
    fn recovery_spans_claim_their_window_time_wholesale() {
        // Checkpoint span [25, 55) swallows the disk write entirely and
        // the compute's tail; the recv after it splits normally.
        let trace = RankTrace {
            rank: 0,
            events: vec![
                ev(0, 30, EventKind::Compute { work_units: 1.0 }),
                ev(30, 50, EventKind::DiskWrite { var: 1, bytes: 64 }),
                ev(
                    50,
                    90,
                    EventKind::Recv {
                        from: 1,
                        tag: 3,
                        bytes: 8,
                        blocked_ns: 30,
                    },
                ),
            ],
            finish: SimTime(100),
        };
        let spans = vec![RecoverySpan {
            start_ns: 25,
            end_ns: 55,
            kind: RecoveryKind::Checkpoint,
        }];
        let acc = actual_terms(&trace, 0, 100, &spans);
        assert_eq!(acc[CHECKPOINT], 30, "span time is the span's, wholesale");
        assert_eq!(acc[COMPUTE], 25, "compute clipped at the span edge");
        assert_eq!(acc[DISK], 0, "the checkpoint write is not 'disk'");
        assert_eq!(acc[NEIGHBOR_WAIT], 25, "blocked prefix [50,80) minus span");
        assert_eq!(acc[COMM_OVERHEAD], 10);
        assert_eq!(acc[OTHER], 10, "tail [90,100)");
        assert_eq!(acc.iter().sum::<u64>(), 100, "still an exact partition");
    }

    #[test]
    fn audit_with_recovery_reports_negative_recovery_residuals() {
        let pred = prediction(vec![TermBreakdown {
            compute_ns: 70.0,
            ..TermBreakdown::default()
        }]);
        let trace = RankTrace {
            rank: 0,
            events: vec![ev(0, 100, EventKind::Compute { work_units: 1.0 })],
            finish: SimTime(100),
        };
        let spans = vec![vec![
            RecoverySpan {
                start_ns: 20,
                end_ns: 30,
                kind: RecoveryKind::Rollback,
            },
            RecoverySpan {
                start_ns: 30,
                end_ns: 45,
                kind: RecoveryKind::Redistribution,
            },
        ]];
        let report = AuditReport::audit_with_recovery(&pred, 1, &[trace], &[(0, 100)], &spans);
        let r = &report.ranks[0];
        assert_eq!(r.actual_total_ns(), r.window_ns);
        assert_eq!(r.lines[ROLLBACK].actual_ns, 10);
        assert_eq!(r.lines[ROLLBACK].residual_ns, -10.0, "predicted is zero");
        assert_eq!(r.lines[REDISTRIBUTION].actual_ns, 15);
        assert_eq!(r.lines[COMPUTE].actual_ns, 75);
        let fold = r.lines.iter().fold(0.0, |a, l| a + l.residual_ns);
        assert_eq!(fold.to_bits(), r.residual_ns().to_bits());
    }

    #[test]
    fn iters_scale_the_predicted_side() {
        let pred = prediction(vec![TermBreakdown {
            compute_ns: 100.0,
            ..TermBreakdown::default()
        }]);
        let trace = RankTrace {
            rank: 0,
            events: vec![ev(0, 290, EventKind::Compute { work_units: 1.0 })],
            finish: SimTime(290),
        };
        let report = AuditReport::audit(&pred, 3, &[trace], &[(0, 290)]);
        assert_eq!(report.ranks[0].lines[COMPUTE].predicted_ns, 300.0);
        assert_eq!(report.ranks[0].lines[COMPUTE].residual_ns, 10.0);
    }
}
