//! Cross-rank critical-path analysis.
//!
//! The makespan of a run is decided by one *chain* of operations: the
//! slowest rank's finish depends on its last compute/disk interval,
//! which may depend on a message whose sender was itself stalled on a
//! prefetch, and so on back to t = 0. This module reconstructs that
//! chain from the per-rank [`RankTrace`]s by walking the happens-before
//! edges the simulator's rendezvous semantics imply:
//!
//! * a receive that *blocked* was waiting for the matching send — the
//!   path jumps to the sender rank at the moment the send completed
//!   (FIFO channels make the match the k-th send for the k-th receive
//!   per `(src, dst, tag)`);
//! * a prefetch wait that *blocked* was waiting for the disk — the path
//!   follows the transfer back to the issue that started it (FIFO per
//!   `(rank, var)`);
//! * everything else (compute, synchronous I/O, overheads, faults,
//!   idle gaps) simply extends the chain backward on the same rank.
//!
//! The resulting segments form a contiguous partition of
//! `[0, makespan]` in virtual time, so their durations sum to the
//! makespan *exactly* — an invariant the integration tests assert to
//! the nanosecond. Each segment carries the audit term ([`TERM_NAMES`])
//! that the audit's classifier gives its event, so the path says in the
//! model's own vocabulary what the run's end-to-end time was spent on —
//! the question the paper's heterogeneous-redistribution argument (§5)
//! turns on: moving rows helps only if the critical path is compute- or
//! disk-dominated on the loaded node.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt::Write as _;

use crate::audit::{term_of, OTHER, TERM_COUNT, TERM_NAMES};
use crate::json::Serialize;
use mheta_sim::{EventKind, RankTrace, SimDur, SimTime};

/// One span of the critical path: `[start, end]` on `rank`'s virtual
/// clock, spent on audit term `term`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct PathSegment {
    /// Rank the span is attributed to.
    pub rank: usize,
    /// Span start (virtual time).
    pub start: SimTime,
    /// Span end (virtual time).
    pub end: SimTime,
    /// Attribution: an index into [`TERM_NAMES`].
    pub term: usize,
}

impl PathSegment {
    /// Span length.
    #[must_use]
    pub fn dur(&self) -> SimDur {
        self.end - self.start
    }
}

/// The reconstructed critical path of one run.
#[derive(Debug, Clone, Serialize)]
pub struct CriticalPath {
    /// Path segments in forward virtual-time order; contiguous from
    /// `SimTime::ZERO` to the makespan.
    pub segments: Vec<PathSegment>,
    /// The run's makespan (max rank finish time).
    pub makespan: SimDur,
    /// The rank whose finish time set the makespan (the walk's origin).
    pub slowest_rank: usize,
}

/// Per-send bookkeeping: completion time of the k-th send on a
/// `(src, dst, tag)` channel, in program order.
type SendLog = HashMap<(usize, usize, u32), Vec<SimTime>>;
/// Completion time of the k-th prefetch issue per `(rank, var)`.
type IssueLog = HashMap<(usize, u32), Vec<SimTime>>;

impl CriticalPath {
    /// Reconstruct the critical path from a run's per-rank traces
    /// (tracing must have been enabled on the run).
    ///
    /// Returns an empty path for an empty trace set.
    #[must_use]
    pub fn compute(traces: &[RankTrace]) -> CriticalPath {
        let Some(slowest) = traces.iter().max_by_key(|t| (t.finish, t.rank)) else {
            return CriticalPath {
                segments: Vec::new(),
                makespan: SimDur::ZERO,
                slowest_rank: 0,
            };
        };
        let makespan = slowest.finish - SimTime::ZERO;

        let by_rank: BTreeMap<usize, &RankTrace> = traces.iter().map(|t| (t.rank, t)).collect();

        // FIFO match tables, built forward so the backward walk can
        // resolve ordinal k in O(1).
        let mut sends: SendLog = HashMap::new();
        let mut issues: IssueLog = HashMap::new();
        // events[i]'s FIFO ordinal on its channel (receives and waits).
        let mut ordinals: HashMap<usize, Vec<usize>> = HashMap::new();
        for t in traces {
            let mut recv_seen: HashMap<(usize, u32), usize> = HashMap::new();
            let mut wait_seen: HashMap<u32, usize> = HashMap::new();
            let ords = ordinals
                .entry(t.rank)
                .or_insert_with(|| vec![0; t.events.len()]);
            for (i, ev) in t.events.iter().enumerate() {
                match ev.kind {
                    EventKind::Send { to, tag, .. } => {
                        sends.entry((t.rank, to, tag)).or_default().push(ev.end);
                    }
                    EventKind::PrefetchIssue {
                        var, latency_ns, ..
                    } => {
                        issues
                            .entry((t.rank, var))
                            .or_default()
                            .push(ev.end + SimDur::from_nanos(latency_ns));
                    }
                    EventKind::Recv { from, tag, .. } => {
                        let k = recv_seen.entry((from, tag)).or_insert(0);
                        ords[i] = *k;
                        *k += 1;
                    }
                    EventKind::PrefetchWait { var, .. } => {
                        let k = wait_seen.entry(var).or_insert(0);
                        ords[i] = *k;
                        *k += 1;
                    }
                    _ => {}
                }
            }
        }

        let mut segments = Vec::new();
        let mut rank = slowest.rank;
        let mut t = slowest.finish;
        // Each step either moves `t` strictly backward or hops ranks at
        // the same instant; the budget bounds pathological zero-cost
        // configurations (all overheads zero) that could hop in place.
        let mut budget =
            4 * traces.iter().map(|tr| tr.events.len() + 1).sum::<usize>() + 4 * traces.len();

        while t > SimTime::ZERO && budget > 0 {
            budget -= 1;
            let trace = by_rank[&rank];
            // Latest non-zero-length event ending at or before `t`.
            let upto = trace.events.partition_point(|e| e.end <= t);
            let found = trace.events[..upto]
                .iter()
                .enumerate()
                .rev()
                .find(|(_, e)| e.end > e.start);
            let Some((idx, ev)) = found else {
                // Nothing earlier on this rank: idle back to the epoch.
                push(&mut segments, rank, SimTime::ZERO, t, OTHER);
                break;
            };
            if ev.end < t {
                // Gap: the clock advanced without a traced interval
                // (charge() / retry backoff) or the rank just finished
                // earlier than `t`.
                push(&mut segments, rank, ev.end, t, OTHER);
                t = ev.end;
                continue;
            }
            // `ev` ends exactly at `t`.
            let (waited, overhead) = (term_of(&ev.kind, true), term_of(&ev.kind, false));
            match ev.kind {
                EventKind::Recv {
                    from,
                    tag,
                    blocked_ns,
                    ..
                } if blocked_ns > 0 => {
                    // end = arrival + o_r, blocked = arrival - start.
                    let arrival = ev.start + SimDur::from_nanos(blocked_ns);
                    let k = ordinals[&rank][idx];
                    let matched = sends
                        .get(&(from, rank, tag))
                        .and_then(|v| v.get(k))
                        .copied()
                        .filter(|_| by_rank.contains_key(&from));
                    match matched {
                        Some(send_end) if send_end <= arrival => {
                            push(&mut segments, rank, arrival, ev.end, overhead);
                            // The message in flight.
                            push(&mut segments, from, send_end, arrival, waited);
                            rank = from;
                            t = send_end;
                        }
                        _ => {
                            // Unmatched (truncated trace): account the
                            // stall without crossing ranks.
                            push(&mut segments, rank, ev.start, ev.end, waited);
                            t = ev.start;
                        }
                    }
                }
                EventKind::PrefetchWait { var, blocked_ns } if blocked_ns > 0 => {
                    // The wait ended when the transfer completed; the
                    // transfer window is [end - latency, end], i.e. it
                    // started the instant the k-th matching issue
                    // returned. Verify the FIFO match by completion
                    // time before following it; unmatched (truncated
                    // trace), account the stall without leaving the
                    // wait interval.
                    let k = ordinals[&rank][idx];
                    let matched =
                        issues.get(&(rank, var)).and_then(|v| v.get(k)).copied() == Some(ev.end);
                    let latency = issues_latency(trace, k, var);
                    let xfer_start = SimTime(ev.end.as_nanos().saturating_sub(latency));
                    let start = if matched && xfer_start < ev.end {
                        xfer_start
                    } else {
                        ev.start
                    };
                    push(&mut segments, rank, start, ev.end, waited);
                    t = start;
                }
                _ => {
                    // Everything else (including a receive whose
                    // message had already arrived) extends the chain on
                    // this rank.
                    push(&mut segments, rank, ev.start, ev.end, overhead);
                    t = ev.start;
                }
            }
        }
        if t > SimTime::ZERO && budget == 0 {
            // Budget exhausted (degenerate zero-cost configuration):
            // close the partition so the sum invariant still holds.
            push(&mut segments, rank, SimTime::ZERO, t, OTHER);
        }

        segments.reverse();
        CriticalPath {
            segments,
            makespan,
            slowest_rank: slowest.rank,
        }
    }

    /// Sum of all segment durations. Equals [`CriticalPath::makespan`]
    /// exactly (the segments partition `[0, makespan]`).
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.segments.iter().map(|s| s.dur().as_nanos()).sum()
    }

    /// Total path time per audit term, in ns, in [`TERM_NAMES`] order.
    #[must_use]
    pub fn by_term(&self) -> [u64; TERM_COUNT] {
        let mut out = [0; TERM_COUNT];
        for s in &self.segments {
            out[s.term] += s.dur().as_nanos();
        }
        out
    }

    /// The term the path spends the most time on (ties go to the
    /// earlier term in [`TERM_NAMES`]). `None` for an empty path.
    #[must_use]
    pub fn dominant_term(&self) -> Option<&'static str> {
        if self.segments.is_empty() {
            return None;
        }
        let by_term = self.by_term();
        let best = (0..TERM_COUNT).rev().max_by_key(|&i| by_term[i])?;
        Some(TERM_NAMES[best])
    }

    /// Total path time attributed to `rank`, in ns.
    #[must_use]
    pub fn rank_share_ns(&self, rank: usize) -> u64 {
        self.segments
            .iter()
            .filter(|s| s.rank == rank)
            .map(|s| s.dur().as_nanos())
            .sum()
    }

    /// Number of times the path crosses from one rank to another.
    #[must_use]
    pub fn rank_hops(&self) -> usize {
        self.segments
            .windows(2)
            .filter(|w| w[0].rank != w[1].rank)
            .count()
    }

    /// Human-readable summary: makespan, per-term attribution with
    /// percentages, and path shape.
    #[must_use]
    pub fn report(&self) -> String {
        let mut out = String::new();
        let total = self.makespan.as_nanos();
        let _ = writeln!(
            out,
            "critical path: {} segments, {} rank hop(s), makespan {:.6} s (rank {})",
            self.segments.len(),
            self.rank_hops(),
            self.makespan.as_secs_f64(),
            self.slowest_rank,
        );
        let mut terms: Vec<(&str, u64)> = TERM_NAMES
            .into_iter()
            .zip(self.by_term())
            .filter(|&(_, ns)| ns > 0)
            .collect();
        // Stable: equal times keep TERM_NAMES order.
        terms.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
        for (term, ns) in terms {
            let pct = if total > 0 {
                100.0 * ns as f64 / total as f64
            } else {
                0.0
            };
            let _ = writeln!(out, "  {term:<16} {ns:>14} ns  {pct:>5.1}%");
        }
        if let Some(dom) = self.dominant_term() {
            let _ = writeln!(out, "  dominant: {dom}");
        }
        out
    }
}

/// Latency of the k-th prefetch issue of `var` on `trace`, in ns.
fn issues_latency(trace: &RankTrace, k: usize, var: u32) -> u64 {
    trace
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::PrefetchIssue {
                var: v, latency_ns, ..
            } if v == var => Some(latency_ns),
            _ => None,
        })
        .nth(k)
        .unwrap_or(0)
}

fn push(segments: &mut Vec<PathSegment>, rank: usize, start: SimTime, end: SimTime, term: usize) {
    if end > start {
        segments.push(PathSegment {
            rank,
            start,
            end,
            term,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{COLLECTIVE, COMM_OVERHEAD, COMPUTE, DISK, NEIGHBOR_WAIT, PREFETCH_EXPOSED};
    use mheta_mpi::TAG_COLLECTIVE_BASE;
    use mheta_sim::Event;

    fn ev(s: u64, e: u64, kind: EventKind) -> Event {
        Event {
            start: SimTime(s),
            end: SimTime(e),
            kind,
        }
    }

    fn assert_partition(path: &CriticalPath) {
        assert_eq!(path.total_ns(), path.makespan.as_nanos());
        let mut t = SimTime::ZERO;
        for s in &path.segments {
            assert_eq!(s.start, t, "segments are contiguous");
            assert!(s.end > s.start);
            t = s.end;
        }
        assert_eq!(t.as_nanos(), path.makespan.as_nanos());
    }

    #[test]
    fn single_rank_compute_path() {
        let traces = vec![RankTrace {
            rank: 0,
            events: vec![
                ev(0, 70, EventKind::Compute { work_units: 1.0 }),
                ev(70, 100, EventKind::DiskRead { var: 0, bytes: 8 }),
            ],
            finish: SimTime(100),
        }];
        let path = CriticalPath::compute(&traces);
        assert_partition(&path);
        assert_eq!(path.slowest_rank, 0);
        assert_eq!(path.dominant_term(), Some("compute"));
        assert_eq!(path.by_term()[DISK], 30);
    }

    /// Rank 0 computes 100 then sends on `tag` (overhead 10); latency
    /// 5. Rank 1 computes 20 then blocks in the receive until arrival
    /// at 115; receive overhead 10 -> end 125.
    fn send_then_blocked_recv(tag: u32) -> Vec<RankTrace> {
        vec![
            RankTrace {
                rank: 0,
                events: vec![
                    ev(0, 100, EventKind::Compute { work_units: 1.0 }),
                    ev(
                        100,
                        110,
                        EventKind::Send {
                            to: 1,
                            tag,
                            bytes: 64,
                        },
                    ),
                ],
                finish: SimTime(110),
            },
            RankTrace {
                rank: 1,
                events: vec![
                    ev(0, 20, EventKind::Compute { work_units: 1.0 }),
                    ev(
                        20,
                        125,
                        EventKind::Recv {
                            from: 0,
                            tag,
                            bytes: 64,
                            blocked_ns: 95, // arrival at 115
                        },
                    ),
                ],
                finish: SimTime(125),
            },
        ]
    }

    #[test]
    fn blocked_recv_jumps_to_sender() {
        let path = CriticalPath::compute(&send_then_blocked_recv(3));
        assert_partition(&path);
        assert_eq!(path.slowest_rank, 1);
        assert_eq!(path.rank_hops(), 1);
        let terms = path.by_term();
        // Sender compute 100 + send overhead 10, in flight 5, receive
        // overhead 10.
        assert_eq!(terms[COMPUTE], 100);
        assert_eq!(terms[COMM_OVERHEAD], 20);
        assert_eq!(terms[NEIGHBOR_WAIT], 5, "the message in flight");
        assert_eq!(terms[COLLECTIVE], 0);
        assert_eq!(path.dominant_term(), Some("compute"));
        // The receiver's own 20 ns of compute is NOT on the path.
        assert_eq!(path.rank_share_ns(0), 115);

        // The same exchange on a collective tag is all `collective`.
        let path = CriticalPath::compute(&send_then_blocked_recv(TAG_COLLECTIVE_BASE | 1));
        assert_partition(&path);
        assert_eq!(path.rank_hops(), 1);
        let terms = path.by_term();
        assert_eq!(terms[COMPUTE], 100);
        assert_eq!(terms[COLLECTIVE], 25);
        assert_eq!(terms[COMM_OVERHEAD] + terms[NEIGHBOR_WAIT], 0);
    }

    #[test]
    fn blocked_prefetch_wait_follows_the_transfer() {
        // Issue at [10, 15] (seek), latency 85 -> completes at 100.
        // Compute 40 overlaps; wait blocks from 55 to 100.
        let issue = ev(
            10,
            15,
            EventKind::PrefetchIssue {
                var: 7,
                bytes: 4096,
                latency_ns: 85,
            },
        );
        let wait = ev(
            55,
            100,
            EventKind::PrefetchWait {
                var: 7,
                blocked_ns: 45,
            },
        );
        let traces = vec![RankTrace {
            rank: 0,
            events: vec![
                ev(0, 10, EventKind::Compute { work_units: 1.0 }),
                issue,
                ev(15, 55, EventKind::Compute { work_units: 1.0 }),
                wait.clone(),
            ],
            finish: SimTime(100),
        }];
        let path = CriticalPath::compute(&traces);
        assert_partition(&path);
        let terms = path.by_term();
        // Transfer window [15, 100] dominates; before it: compute 10 +
        // issue seek 5.
        assert_eq!(terms[PREFETCH_EXPOSED], 85);
        assert_eq!(terms[COMPUTE], 10);
        assert_eq!(terms[DISK], 5);
        assert_eq!(path.dominant_term(), Some("prefetch_exposed"));

        // Without its issue the wait cannot be followed: the stall
        // itself is the exposed prefetch time.
        let traces = vec![RankTrace {
            rank: 0,
            events: vec![ev(0, 55, EventKind::Compute { work_units: 1.0 }), wait],
            finish: SimTime(100),
        }];
        let path = CriticalPath::compute(&traces);
        assert_partition(&path);
        assert_eq!(path.by_term()[PREFETCH_EXPOSED], 45);
        assert_eq!(path.by_term()[COMPUTE], 55);
    }

    #[test]
    fn clock_gaps_become_idle() {
        let traces = vec![RankTrace {
            rank: 0,
            events: vec![ev(0, 30, EventKind::Compute { work_units: 1.0 })],
            // charge() advanced the clock to 50 with no trace event.
            finish: SimTime(50),
        }];
        let path = CriticalPath::compute(&traces);
        assert_partition(&path);
        assert_eq!(path.by_term()[OTHER], 20);
    }

    #[test]
    fn empty_traces_yield_empty_path() {
        let path = CriticalPath::compute(&[]);
        assert_eq!(path.total_ns(), 0);
        assert!(path.segments.is_empty());
        assert_eq!(path.dominant_term(), None);
    }

    #[test]
    fn report_mentions_dominant_kind() {
        let traces = vec![RankTrace {
            rank: 2,
            events: vec![ev(0, 10, EventKind::Compute { work_units: 1.0 })],
            finish: SimTime(10),
        }];
        let path = CriticalPath::compute(&traces);
        let report = path.report();
        assert!(report.contains("dominant: compute"));
        assert!(report.contains("rank 2"));
    }
}
