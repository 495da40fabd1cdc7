//! Per-rank execution traces.
//!
//! Traces record what each simulated rank did and when, on its virtual
//! clock. The MPI layer's interposition hooks provide the *semantic*
//! attribution (which parallel section / tile / stage an operation
//! belongs to); this trace is the raw operational record used by tests
//! and debugging output.

use crate::fault::FaultKind;
use crate::time::SimTime;

/// What a traced interval was spent doing.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum EventKind {
    /// Local computation of `work_units` units of application work.
    Compute { work_units: f64 },
    /// Synchronous disk read of `bytes` of variable `var`.
    DiskRead { var: u32, bytes: u64 },
    /// Synchronous disk write of `bytes` of variable `var`.
    DiskWrite { var: u32, bytes: u64 },
    /// Asynchronous (prefetch) read issue. `latency_ns` is the full
    /// disk-transfer latency of the request: the prefetch completes at
    /// `end + latency_ns` on the issuing rank's clock, so the portion
    /// not covered by a later blocked wait was overlapped with other
    /// work.
    PrefetchIssue {
        var: u32,
        bytes: u64,
        latency_ns: u64,
    },
    /// Blocking wait for a previously issued prefetch; `blocked_ns` is
    /// the portion of the interval actually spent stalled on the disk.
    PrefetchWait { var: u32, blocked_ns: u64 },
    /// Message send; the interval covers the sender-side overhead only.
    Send { to: usize, tag: u32, bytes: u64 },
    /// Message receive; `blocked_ns` is the time spent waiting for the
    /// message to arrive before the receive overhead was charged.
    Recv {
        from: usize,
        tag: u32,
        bytes: u64,
        blocked_ns: u64,
    },
    /// An injected fault (see [`crate::fault`]). The interval covers
    /// any virtual time the fault itself consumed (e.g. the wasted seek
    /// of a failed disk attempt); instantaneous faults such as degrade
    /// transitions are recorded as zero-length events.
    Fault { fault: FaultKind },
    /// Memory-in-use level change on this rank's [`MemTracker`]
    /// (I/O staging buffers entering or leaving use). Zero-length
    /// sample: the level holds from this instant until the next
    /// `MemLevel` event. Exporters render these as counter tracks.
    ///
    /// [`MemTracker`]: crate::disk::MemTracker
    MemLevel { in_use: u64, high_water: u64 },
}

/// One traced interval on a rank's virtual timeline.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Event {
    /// Virtual time at which the operation began.
    pub start: SimTime,
    /// Virtual time at which the operation completed.
    pub end: SimTime,
    /// What happened.
    pub kind: EventKind,
}

/// Which phase of crash recovery a [`RecoverySpan`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum RecoveryKind {
    /// Periodic checkpoint write of local application state.
    Checkpoint,
    /// Post-crash rollback: dead-set agreement plus reloading the last
    /// checkpoint from local disk.
    Rollback,
    /// Re-spreading the dead ranks' rows over the survivors (disk
    /// fetches of orphaned state plus survivor-to-survivor transfers).
    Redistribution,
    /// Re-running the MHETA prediction on the shrunken cluster.
    Reprediction,
    /// Proactive mid-run GEN_BLOCK rebalancing: applying a new
    /// distribution at an iteration boundary after the failure detector
    /// confirmed a degrade, rejoin, or hot-spare enlistment (no
    /// rollback — live state is transferred in place).
    Rebalance,
}

impl RecoveryKind {
    /// Stable lower-case name used in metrics counters, audit terms and
    /// Perfetto slice labels.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RecoveryKind::Checkpoint => "checkpoint",
            RecoveryKind::Rollback => "rollback",
            RecoveryKind::Redistribution => "redistribution",
            RecoveryKind::Reprediction => "reprediction",
            RecoveryKind::Rebalance => "rebalance",
        }
    }
}

/// A half-open interval `[start_ns, end_ns)` of one rank's virtual
/// timeline spent on crash-recovery machinery rather than application
/// work. Spans on a rank are non-overlapping and ordered; observability
/// consumers (audit, Perfetto) attribute the covered trace events to the
/// span's [`RecoveryKind`] instead of their natural cost category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct RecoverySpan {
    /// Virtual time at which the recovery phase began on this rank.
    pub start_ns: u64,
    /// Virtual time at which the recovery phase ended on this rank.
    pub end_ns: u64,
    /// Which recovery phase the interval covers.
    pub kind: RecoveryKind,
}

impl RecoverySpan {
    /// Length of the span in nanoseconds (0 for malformed spans).
    #[must_use]
    pub fn len_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The complete trace of one rank for one run.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct RankTrace {
    /// Rank index.
    pub rank: usize,
    /// Events in program order (which is also virtual-time order).
    pub events: Vec<Event>,
    /// The rank's virtual clock when it finished.
    pub finish: SimTime,
}

impl RankTrace {
    /// Number of injected-fault events recorded on this rank.
    #[must_use]
    pub fn fault_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Fault { .. }))
            .count()
    }

    /// The injected faults recorded on this rank, in program order.
    #[must_use]
    pub fn faults(&self) -> Vec<FaultKind> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Fault { fault } => Some(fault),
                _ => None,
            })
            .collect()
    }

    /// Peak memory-in-use observed on this rank (the final high-water
    /// mark among [`EventKind::MemLevel`] samples); 0 when memory
    /// tracking produced no samples (tracing off or no I/O staging).
    #[must_use]
    pub fn peak_mem_bytes(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e.kind {
                EventKind::MemLevel { high_water, .. } => high_water,
                _ => 0,
            })
            .max()
            .unwrap_or(0)
    }

    /// Check the internal consistency of the trace: events must be
    /// non-overlapping and ordered on the virtual clock.
    #[must_use]
    pub fn is_monotone(&self) -> bool {
        let mut prev_end = SimTime::ZERO;
        for e in &self.events {
            if e.start < prev_end || e.end < e.start {
                return false;
            }
            prev_end = e.end;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(s: u64, e: u64, kind: EventKind) -> Event {
        Event {
            start: SimTime(s),
            end: SimTime(e),
            kind,
        }
    }

    #[test]
    fn monotone_trace_accepted() {
        let t = RankTrace {
            rank: 0,
            events: vec![
                ev(0, 5, EventKind::Compute { work_units: 1.0 }),
                ev(5, 9, EventKind::DiskRead { var: 1, bytes: 64 }),
            ],
            finish: SimTime(9),
        };
        assert!(t.is_monotone());
    }

    #[test]
    fn overlapping_trace_rejected() {
        let t = RankTrace {
            rank: 0,
            events: vec![
                ev(0, 5, EventKind::Compute { work_units: 1.0 }),
                ev(4, 9, EventKind::Compute { work_units: 1.0 }),
            ],
            finish: SimTime(9),
        };
        assert!(!t.is_monotone());
    }

    #[test]
    fn fault_events_are_counted_and_listed() {
        let t = RankTrace {
            rank: 0,
            events: vec![
                ev(0, 5, EventKind::Compute { work_units: 1.0 }),
                ev(
                    5,
                    5,
                    EventKind::Fault {
                        fault: FaultKind::Degrade { factor: 1.5 },
                    },
                ),
                ev(
                    5,
                    9,
                    EventKind::Fault {
                        fault: FaultKind::ReadFault { var: 2, attempt: 1 },
                    },
                ),
            ],
            finish: SimTime(9),
        };
        assert!(t.is_monotone(), "zero-length fault events stay monotone");
        assert_eq!(t.fault_count(), 2);
        assert_eq!(
            t.faults(),
            vec![
                FaultKind::Degrade { factor: 1.5 },
                FaultKind::ReadFault { var: 2, attempt: 1 },
            ]
        );
    }
}
