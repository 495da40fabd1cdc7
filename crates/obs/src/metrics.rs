//! Per-rank virtual-time metrics.
//!
//! A [`Metrics`] registry digests the raw [`RankTrace`]s of one run
//! into where each rank's virtual time went, event/byte counters, and
//! latency histograms. The per-rank breakdown is the audit's term
//! vector ([`TERM_NAMES`]) over `[0, finish)`: the same twelve terms
//! the model predicts, summing to the rank's finish time to the
//! nanosecond.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::audit::{actual_terms, TERM_COUNT, TERM_NAMES};
use crate::json::{Serialize, Value};
use mheta_mpi::Transition;
use mheta_sim::{EventKind, RankTrace, RecoverySpan};

/// Where one rank's virtual time went, in integer nanoseconds.
///
/// `terms` sums to `finish_ns`, exactly.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct RankBreakdown {
    /// Rank index.
    pub rank: usize,
    /// The rank's virtual clock when it finished.
    pub finish_ns: u64,
    /// The rank's time per audit term, in [`TERM_NAMES`] order.
    pub terms: [u64; TERM_COUNT],
}

/// The workspace's one log₂-bucketed latency histogram (nanoseconds):
/// the type of [`Metrics::histograms`] (virtual time) and of the
/// serving layer's per-stage latencies (wall clock).
///
/// Bucket `i` counts samples in `[2^(i-1), 2^i)` ns, with bucket 0
/// counting zero-valued samples; 65 buckets cover the full `u64`
/// range. Quantiles are bucket-resolution approximations (upper bucket
/// bound), which is plenty for an order-of-magnitude latency claim.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Histogram {
    /// Per-bucket sample counts (65 buckets).
    pub buckets: Vec<u64>,
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples, ns.
    pub sum_ns: u64,
    /// Smallest sample, ns (0 when empty).
    pub min_ns: u64,
    /// Largest sample, ns (0 when empty).
    pub max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; 65],
            count: 0,
            sum_ns: 0,
            min_ns: 0,
            max_ns: 0,
        }
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, ns: u64) {
        let idx = if ns == 0 {
            0
        } else {
            64 - ns.leading_zeros() as usize
        };
        self.buckets[idx] += 1;
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }

    /// Mean sample, ns (0 when empty).
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0.0 ≤ q ≤ 1.0`, the top bucket's bound saturating at
    /// `u64::MAX`); 0 when empty.
    #[must_use]
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return match i {
                    0 => 0,
                    64 => u64::MAX,
                    _ => 1u64 << i,
                };
            }
        }
        self.max_ns
    }

    /// Median latency, ns.
    #[must_use]
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 95th-percentile latency, ns.
    #[must_use]
    pub fn p95_ns(&self) -> u64 {
        self.quantile_ns(0.95)
    }

    /// 99th-percentile latency, ns.
    #[must_use]
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// Fold `other` into `self`, bucket-wise. Because the buckets are
    /// plain counts, merging per-worker histograms is *exact*: the
    /// merged histogram is bitwise-identical to one histogram that had
    /// recorded every sample itself, so quantiles aggregate without
    /// approximation.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        if self.count == 0 {
            self.min_ns = other.min_ns;
            self.max_ns = other.max_ns;
        } else {
            self.min_ns = self.min_ns.min(other.min_ns);
            self.max_ns = self.max_ns.max(other.max_ns);
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
    }
}

/// The metrics registry for one run: per-rank breakdowns, named
/// counters, and named latency histograms. Keys are sorted (`BTreeMap`)
/// so the JSON rendering is deterministic.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Metrics {
    /// One breakdown per rank, in rank order.
    pub breakdowns: Vec<RankBreakdown>,
    /// Monotonic counters: event counts, byte totals, fault tallies.
    pub counters: BTreeMap<String, u64>,
    /// Latency histograms: operation durations and stall times.
    pub histograms: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// Digest the per-rank traces of one run. `spans[i]` is rank *i*'s
    /// recovery-span list (`AdaptiveOutcome::spans` in `mheta-apps`), as
    /// [`crate::AuditReport::audit_with_recovery`] takes it: time inside
    /// a span is the span's term (`checkpoint` / `rollback` /
    /// `redistribution` / `reprediction`). An empty `spans` slice, as
    /// for a plain run, means no rank has any.
    ///
    /// # Panics
    /// If `spans` is neither empty nor one list per trace.
    #[must_use]
    pub fn from_traces(traces: &[RankTrace], spans: &[Vec<RecoverySpan>]) -> Metrics {
        assert!(
            spans.is_empty() || spans.len() == traces.len(),
            "rank count mismatch"
        );
        let mut m = Metrics::default();
        for (i, trace) in traces.iter().enumerate() {
            digest_rank(trace, &mut m.counters, &mut m.histograms);
            let finish_ns = trace.finish.as_nanos();
            let rank_spans = spans.get(i).map_or(&[][..], Vec::as_slice);
            m.breakdowns.push(RankBreakdown {
                rank: trace.rank,
                finish_ns,
                terms: actual_terms(trace, 0, finish_ns, rank_spans),
            });
        }
        m
    }

    /// Bump a counter by `delta`, creating it at zero if absent.
    pub fn incr(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Record a sample into a named histogram, creating it if absent.
    pub fn observe(&mut self, name: &str, ns: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(ns);
    }

    /// Fold a fault-tolerant run's recovery record into the registry:
    /// bumps `events.crash` by the number of dead ranks, accumulates a
    /// `recovery.<kind>_ns` counter per recovery-span kind (checkpoint /
    /// rollback / redistribution / reprediction) across all ranks, and
    /// records each span's length into a `recovery.<kind>` histogram.
    /// The per-rank terms take the same spans through
    /// [`Metrics::from_traces`].
    pub fn record_recovery(&mut self, dead: &[usize], spans: &[Vec<RecoverySpan>]) {
        self.incr("events.crash", dead.len() as u64);
        for rank_spans in spans {
            for sp in rank_spans {
                self.incr(&format!("recovery.{}_ns", sp.kind.name()), sp.len_ns());
                self.observe(&format!("recovery.{}", sp.kind.name()), sp.len_ns());
            }
        }
    }

    /// Fold an adaptive run's failure-detector record into the
    /// registry: bumps a `detector.to_<state>` counter per health-state
    /// transition (e.g. `detector.to_suspected`, `detector.to_degraded`)
    /// plus a `detector.transitions` total, and records every
    /// degradation's detection latency — fault onset to confirmed
    /// `Degraded` — into the `detector.detection_latency` histogram.
    ///
    /// Detector decisions are deterministic replicas across ranks, so
    /// pass ONE rank's view (e.g. the first survivor's
    /// `AdaptiveOutcome`), not every rank's.
    pub fn record_detector(&mut self, transitions: &[Transition], detection_latencies_ns: &[u64]) {
        self.incr("detector.transitions", transitions.len() as u64);
        for t in transitions {
            self.incr(&format!("detector.to_{}", t.to.name()), 1);
        }
        for &ns in detection_latencies_ns {
            self.observe("detector.detection_latency", ns);
        }
    }

    /// Fold one committed mid-run rebalance into the registry: bumps
    /// `rebalance.events`, and accumulates the rows transferred and the
    /// search evaluations spent into `rebalance.rows_moved` /
    /// `rebalance.evals`. Like [`Metrics::record_detector`], call this
    /// once per event from one rank's view.
    pub fn record_rebalance(&mut self, rows_moved: u64, evals: u64) {
        self.incr("rebalance.events", 1);
        self.incr("rebalance.rows_moved", rows_moved);
        self.incr("rebalance.evals", evals);
    }

    /// The run's makespan: the latest rank finish, ns.
    #[must_use]
    pub fn makespan_ns(&self) -> u64 {
        self.breakdowns
            .iter()
            .map(|b| b.finish_ns)
            .max()
            .unwrap_or(0)
    }

    /// Render the whole registry as pretty JSON, led by `term_names`:
    /// [`TERM_NAMES`], which names each rank's `terms` entry by position.
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        let mut doc = self.to_value();
        if let Value::Object(fields) = &mut doc {
            fields.insert(0, ("term_names".into(), TERM_NAMES.to_value()));
        }
        doc.to_json_pretty()
    }

    /// A compact human-readable table: each rank's share of its finish
    /// time per audit term.
    #[must_use]
    pub fn utilization_table(&self) -> String {
        let mut out = String::from("rank     finish_ms");
        for name in TERM_NAMES {
            let _ = write!(out, "  {name:>7}");
        }
        out.push('\n');
        for b in &self.breakdowns {
            let _ = write!(out, "{:>4} {:>13.3}", b.rank, b.finish_ns as f64 / 1e6);
            for (name, ns) in TERM_NAMES.iter().zip(b.terms) {
                let pct = if b.finish_ns > 0 {
                    100.0 * ns as f64 / b.finish_ns as f64
                } else {
                    0.0
                };
                let _ = write!(out, "  {:>w$.1}%", pct, w = name.len().max(7) - 1);
            }
            out.push('\n');
        }
        out
    }
}

/// Feed one rank's events into the shared counters and histograms.
fn digest_rank(
    trace: &RankTrace,
    counters: &mut BTreeMap<String, u64>,
    histograms: &mut BTreeMap<String, Histogram>,
) {
    let mut incr = |name: &str, delta: u64| {
        *counters.entry(name.to_string()).or_insert(0) += delta;
    };
    for ev in &trace.events {
        let len = (ev.end - ev.start).as_nanos();
        match &ev.kind {
            EventKind::Compute { .. } => {
                incr("events.compute", 1);
                histograms
                    .entry("latency.compute".into())
                    .or_default()
                    .record(len);
            }
            EventKind::DiskRead { bytes, .. } => {
                incr("events.disk_read", 1);
                incr("bytes.disk_read", *bytes);
                histograms
                    .entry("latency.disk_read".into())
                    .or_default()
                    .record(len);
            }
            EventKind::DiskWrite { bytes, .. } => {
                incr("events.disk_write", 1);
                incr("bytes.disk_write", *bytes);
                histograms
                    .entry("latency.disk_write".into())
                    .or_default()
                    .record(len);
            }
            EventKind::PrefetchIssue { bytes, .. } => {
                incr("events.prefetch_issue", 1);
                incr("bytes.prefetch", *bytes);
            }
            EventKind::PrefetchWait { blocked_ns, .. } => {
                incr("events.prefetch_wait", 1);
                histograms
                    .entry("stall.prefetch_wait".into())
                    .or_default()
                    .record(*blocked_ns);
            }
            EventKind::Send { bytes, .. } => {
                incr("events.send", 1);
                incr("bytes.sent", *bytes);
                histograms
                    .entry("latency.send".into())
                    .or_default()
                    .record(len);
            }
            EventKind::Recv {
                bytes, blocked_ns, ..
            } => {
                incr("events.recv", 1);
                incr("bytes.received", *bytes);
                histograms
                    .entry("stall.recv".into())
                    .or_default()
                    .record(*blocked_ns);
            }
            EventKind::Fault { .. } => incr("events.fault", 1),
            EventKind::MemLevel { .. } => incr("events.mem_level", 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{COMM_OVERHEAD, COMPUTE, DISK, NEIGHBOR_WAIT, OTHER, PREFETCH_EXPOSED};
    use mheta_sim::{Event, SimTime};

    fn ev(s: u64, e: u64, kind: EventKind) -> Event {
        Event {
            start: SimTime(s),
            end: SimTime(e),
            kind,
        }
    }

    fn trace(events: Vec<Event>, finish: u64) -> RankTrace {
        RankTrace {
            rank: 0,
            events,
            finish: SimTime(finish),
        }
    }

    #[test]
    fn breakdown_partitions_timeline_exactly() {
        let t = trace(
            vec![
                ev(0, 10, EventKind::Compute { work_units: 1.0 }),
                ev(10, 14, EventKind::DiskRead { var: 1, bytes: 32 }),
                // Gap [14, 16): retry backoff — becomes `other`.
                ev(
                    16,
                    22,
                    EventKind::Recv {
                        from: 1,
                        tag: 0,
                        bytes: 8,
                        blocked_ns: 4,
                    },
                ),
                ev(
                    22,
                    23,
                    EventKind::Send {
                        to: 1,
                        tag: 1,
                        bytes: 8,
                    },
                ),
                ev(
                    23,
                    25,
                    EventKind::PrefetchIssue {
                        var: 3,
                        bytes: 64,
                        latency_ns: 10,
                    },
                ),
                ev(
                    25,
                    37,
                    EventKind::PrefetchWait {
                        var: 3,
                        blocked_ns: 10,
                    },
                ),
            ],
            40,
        );
        let m = Metrics::from_traces(std::slice::from_ref(&t), &[]);
        let b = &m.breakdowns[0];
        assert_eq!(b.terms, actual_terms(&t, 0, 40, &[]), "the audit's terms");
        assert_eq!(b.terms[COMPUTE], 10);
        assert_eq!(b.terms[DISK], 4 + 2 + 2); // read + issue + unblocked wait
        assert_eq!(b.terms[PREFETCH_EXPOSED], 10);
        assert_eq!(b.terms[NEIGHBOR_WAIT], 4);
        assert_eq!(b.terms[COMM_OVERHEAD], 2 + 1); // recv overhead + send
        assert_eq!(b.terms[OTHER], 2 + 3); // backoff gap + tail after the wait
        assert_eq!(
            b.terms.iter().sum::<u64>(),
            b.finish_ns,
            "terms must partition the timeline"
        );
        assert_eq!(m.makespan_ns(), 40);
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let t = trace(
            vec![
                ev(0, 4, EventKind::DiskRead { var: 1, bytes: 10 }),
                ev(4, 9, EventKind::DiskRead { var: 1, bytes: 20 }),
            ],
            9,
        );
        let m = Metrics::from_traces(std::slice::from_ref(&t), &[]);
        assert_eq!(m.counters["events.disk_read"], 2);
        assert_eq!(m.counters["bytes.disk_read"], 30);
        let h = &m.histograms["latency.disk_read"];
        assert_eq!(h.count, 2);
        assert_eq!(h.sum_ns, 9);
        assert_eq!(h.min_ns, 4);
        assert_eq!(h.max_ns, 5);
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.quantile_ns(0.0), 0);
        assert!(h.quantile_ns(0.5) >= 2);
        assert!(h.quantile_ns(1.0) >= 1000);
        assert!(h.mean_ns() > 0.0);
    }

    #[test]
    fn histogram_saturates_instead_of_overflowing() {
        let mut h = Histogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.count, 2);
        assert_eq!(h.sum_ns, u64::MAX, "the sum saturates");
        assert_eq!(h.quantile_ns(1.0), u64::MAX, "the top bucket's bound");
        assert!(h.mean_ns().is_finite());
    }

    #[test]
    fn merged_histograms_match_recording_into_one() {
        // Split one sample stream across three per-worker histograms,
        // merge, and require bitwise equality with a single histogram
        // that recorded every sample — quantiles included.
        let samples: Vec<u64> = (0..200u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9) % 1_000_000)
            .collect();
        let mut whole = Histogram::default();
        let mut parts = [
            Histogram::default(),
            Histogram::default(),
            Histogram::default(),
        ];
        for (i, &s) in samples.iter().enumerate() {
            whole.record(s);
            parts[i % 3].record(s);
        }
        let mut merged = Histogram::default();
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged, whole, "bucket-wise sum is exact");
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(merged.quantile_ns(q), whole.quantile_ns(q), "q = {q}");
        }
        assert_eq!(merged.mean_ns(), whole.mean_ns());

        // Merging an empty histogram is the identity; merging into an
        // empty histogram copies.
        let before = merged.clone();
        merged.merge(&Histogram::default());
        assert_eq!(merged, before);
        let mut empty = Histogram::default();
        empty.merge(&whole);
        assert_eq!(empty, whole);
    }

    #[test]
    fn recovery_record_feeds_counters_and_histograms() {
        use mheta_sim::RecoveryKind;
        let mut m = Metrics::default();
        m.record_recovery(
            &[2],
            &[
                vec![
                    RecoverySpan {
                        start_ns: 0,
                        end_ns: 100,
                        kind: RecoveryKind::Checkpoint,
                    },
                    RecoverySpan {
                        start_ns: 200,
                        end_ns: 250,
                        kind: RecoveryKind::Rollback,
                    },
                ],
                vec![RecoverySpan {
                    start_ns: 0,
                    end_ns: 40,
                    kind: RecoveryKind::Checkpoint,
                }],
            ],
        );
        assert_eq!(m.counters["events.crash"], 1);
        assert_eq!(m.counters["recovery.checkpoint_ns"], 140);
        assert_eq!(m.counters["recovery.rollback_ns"], 50);
        assert_eq!(m.histograms["recovery.checkpoint"].count, 2);
        assert_eq!(m.histograms["recovery.rollback"].sum_ns, 50);
    }

    #[test]
    fn detector_and_rebalance_records_feed_registry() {
        use mheta_mpi::{HealthState, Transition};
        let mut m = Metrics::default();
        m.record_detector(
            &[
                Transition {
                    member: 1,
                    from: HealthState::Healthy,
                    to: HealthState::Suspected,
                    at_iteration: 5,
                    at_ns: 1000,
                },
                Transition {
                    member: 1,
                    from: HealthState::Suspected,
                    to: HealthState::Degraded,
                    at_iteration: 7,
                    at_ns: 2400,
                },
            ],
            &[1400],
        );
        m.record_rebalance(12, 33);
        m.record_rebalance(4, 10);
        assert_eq!(m.counters["detector.transitions"], 2);
        assert_eq!(m.counters["detector.to_suspected"], 1);
        assert_eq!(m.counters["detector.to_degraded"], 1);
        assert_eq!(m.histograms["detector.detection_latency"].count, 1);
        assert_eq!(m.histograms["detector.detection_latency"].sum_ns, 1400);
        assert_eq!(m.counters["rebalance.events"], 2);
        assert_eq!(m.counters["rebalance.rows_moved"], 16);
        assert_eq!(m.counters["rebalance.evals"], 43);
    }

    #[test]
    fn json_rendering_is_deterministic() {
        let t = trace(vec![ev(0, 5, EventKind::Compute { work_units: 2.0 })], 5);
        let a = Metrics::from_traces(std::slice::from_ref(&t), &[]).to_json_pretty();
        let b = Metrics::from_traces(std::slice::from_ref(&t), &[]).to_json_pretty();
        assert_eq!(a, b);
        let doc = crate::json::from_str(&a).unwrap();
        let terms = doc.get("breakdowns").unwrap().as_array().unwrap()[0]
            .get("terms")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(terms.len(), TERM_COUNT);
        assert_eq!(terms[COMPUTE].as_u64(), Some(5));
    }

    #[test]
    fn json_names_every_term() {
        let t = trace(
            vec![
                ev(0, 10, EventKind::Compute { work_units: 1.0 }),
                ev(10, 14, EventKind::DiskRead { var: 1, bytes: 32 }),
            ],
            16,
        );
        let m = Metrics::from_traces(std::slice::from_ref(&t), &[]);
        let doc = crate::json::from_str(&m.to_json_pretty()).unwrap();
        let names = doc.get("term_names").unwrap().as_array().unwrap();
        let terms = doc.get("breakdowns").unwrap().as_array().unwrap()[0]
            .get("terms")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(names.len(), terms.len());
        let named: BTreeMap<&str, u64> = names
            .iter()
            .zip(terms)
            .map(|(n, ns)| (n.as_str().unwrap(), ns.as_u64().unwrap()))
            .collect();
        let want: BTreeMap<&str, u64> = TERM_NAMES.into_iter().zip(m.breakdowns[0].terms).collect();
        assert_eq!(named, want);
        assert_eq!(
            (named["compute"], named["disk"], named["other"]),
            (10, 4, 2)
        );
    }
}
