//! Request-lifecycle instrumentation for the serving layer.
//!
//! The planning service (`mheta-serve`) drives a [`ServiceMetrics`]
//! registry: lock-free atomic counters for the request-mix tallies
//! (cache hits, coalesced waits, searches, sheds), per-stage
//! [`Histogram`]s (queued / search / total), and a bounded ring
//! of [`RequestSpan`]s that exports as a Perfetto request track via
//! [`ServiceMetrics::perfetto_json`].
//!
//! Everything is `&self` and thread-safe: counters are atomics, the
//! histograms and span ring sit behind plain mutexes that are touched
//! once per request.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use mheta_dist::DeltaStats;

use crate::json::Value;
use crate::metrics::Histogram;
use crate::telemetry::latency_value;

/// How a planning request was ultimately answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestSource {
    /// A search ran for this request.
    Fresh,
    /// Served from the plan cache.
    Cache,
    /// Waited on another in-flight identical request (single-flight).
    Coalesced,
    /// Rejected at admission with a retry-after (queue full).
    Shed,
    /// The search itself failed.
    Failed,
}

impl RequestSource {
    /// Stable lowercase name, used in wire responses and trace args.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RequestSource::Fresh => "fresh",
            RequestSource::Cache => "cache",
            RequestSource::Coalesced => "coalesced",
            RequestSource::Shed => "shed",
            RequestSource::Failed => "failed",
        }
    }
}

/// One portfolio strategy's contribution to a request's search stage,
/// on the owning [`ServiceMetrics`] clock. The strategies run one after
/// another on the search's thread, so these never overlap.
#[derive(Debug, Clone)]
pub struct StrategySpan {
    /// Strategy name (`"gbs"`, `"genetic"`, `"annealing"`, `"random"`).
    pub name: &'static str,
    /// When the strategy started, ns since metrics creation.
    pub start_ns: u64,
    /// How long it ran.
    pub dur_ns: u64,
}

/// One finished request's lifecycle timings, on the wall clock of the
/// owning [`ServiceMetrics`] (offsets from its creation; see
/// [`ServiceMetrics::now_ns`]).
#[derive(Debug, Clone)]
pub struct RequestSpan {
    /// Human-readable request label (e.g. `"jacobi/small@DC"`).
    pub label: String,
    /// How the request was answered.
    pub source: RequestSource,
    /// The request's trace (0 when tracing was disabled).
    pub trace_id: u64,
    /// This request's span within the trace.
    pub span_id: u64,
    /// The span this one nests under (0 for a root span, i.e. a
    /// request whose trace was minted by the client or daemon itself).
    pub parent_span_id: u64,
    /// For coalesced followers (and followers of a shed leader): the
    /// *leader's* trace this request piggybacked on (0 = none). The
    /// Perfetto export renders this as a flow arrow.
    pub link_trace_id: u64,
    /// When the request arrived, ns since metrics creation.
    pub start_ns: u64,
    /// Time from arrival to leaving the queue (admission + queueing).
    pub queued_ns: u64,
    /// Time spent in portfolio search (0 for cache/coalesced/shed).
    pub search_ns: u64,
    /// Total time from arrival to response.
    pub total_ns: u64,
    /// Per-strategy sub-spans of the search stage (fresh requests
    /// only; empty otherwise).
    pub strategies: Vec<StrategySpan>,
}

impl RequestSpan {
    /// An untraced span with the given lifecycle timings — trace
    /// identity zeroed, no strategy sub-spans.
    #[must_use]
    pub fn untraced(
        label: String,
        source: RequestSource,
        start_ns: u64,
        queued_ns: u64,
        search_ns: u64,
        total_ns: u64,
    ) -> Self {
        RequestSpan {
            label,
            source,
            trace_id: 0,
            span_id: 0,
            parent_span_id: 0,
            link_trace_id: 0,
            start_ns,
            queued_ns,
            search_ns,
            total_ns,
            strategies: Vec::new(),
        }
    }
}

/// At most this many spans are retained for trace export: a ring of
/// the newest. Older requests keep counting in the histograms but drop
/// off the track.
const SPAN_CAP: usize = 4096;

#[derive(Debug, Default)]
struct Stages {
    queued: Histogram,
    search: Histogram,
    total: Histogram,
}

/// Thread-safe metrics registry for one planning service instance.
#[derive(Debug)]
pub struct ServiceMetrics {
    epoch: Instant,
    requests: AtomicU64,
    cache_hits: AtomicU64,
    coalesced: AtomicU64,
    searches: AtomicU64,
    shed: AtomicU64,
    failures: AtomicU64,
    degraded: AtomicU64,
    deadline_exceeded: AtomicU64,
    cache_invalidations: AtomicU64,
    delta_hits: AtomicU64,
    delta_full_evals: AtomicU64,
    delta_terms_reused: AtomicU64,
    delta_fallbacks: AtomicU64,
    delta_fallback_errors: AtomicU64,
    stages: Mutex<Stages>,
    spans: Mutex<VecDeque<RequestSpan>>,
    spans_dropped: AtomicU64,
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        ServiceMetrics::new()
    }
}

impl ServiceMetrics {
    /// A fresh registry; its creation instant is the trace epoch.
    #[must_use]
    pub fn new() -> Self {
        ServiceMetrics {
            epoch: Instant::now(),
            requests: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            searches: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            cache_invalidations: AtomicU64::new(0),
            delta_hits: AtomicU64::new(0),
            delta_full_evals: AtomicU64::new(0),
            delta_terms_reused: AtomicU64::new(0),
            delta_fallbacks: AtomicU64::new(0),
            delta_fallback_errors: AtomicU64::new(0),
            stages: Mutex::new(Stages::default()),
            spans: Mutex::new(VecDeque::new()),
            spans_dropped: AtomicU64::new(0),
        }
    }

    /// Nanoseconds elapsed since this registry was created — the
    /// timestamp base for [`RequestSpan`] fields.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record one finished request: bumps the per-source counters and
    /// stage histograms, and retains the span for the request track.
    pub fn record_request(&self, span: RequestSpan) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        match span.source {
            RequestSource::Fresh => {}
            RequestSource::Cache => {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
            }
            RequestSource::Coalesced => {
                self.coalesced.fetch_add(1, Ordering::Relaxed);
            }
            RequestSource::Shed => {
                self.shed.fetch_add(1, Ordering::Relaxed);
            }
            RequestSource::Failed => {
                self.failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let mut stages = self.stages.lock().expect("stage lock poisoned");
            stages.queued.record(span.queued_ns);
            if span.search_ns > 0 {
                stages.search.record(span.search_ns);
            }
            stages.total.record(span.total_ns);
        }
        let mut spans = self.spans.lock().expect("span lock poisoned");
        if spans.len() == SPAN_CAP {
            spans.pop_front();
            self.spans_dropped.fetch_add(1, Ordering::Relaxed);
        }
        spans.push_back(span);
    }

    /// Count one portfolio search actually starting (coalesced and
    /// cached requests never reach this).
    pub fn on_search_started(&self) {
        self.searches.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one request answered with a *degraded* plan: its deadline
    /// expired mid-search and the incumbent-best was returned instead
    /// of a fully searched plan.
    pub fn on_degraded(&self) {
        self.degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one request whose deadline expired with no incumbent plan
    /// available at all (`DeadlineExceeded`).
    pub fn on_deadline_exceeded(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// Fold one finished search's incremental-evaluation tallies into
    /// the service-wide delta counters (structural fallbacks — cold,
    /// shape, all-dirty — aggregate into one counter; error fallbacks
    /// stay separate because they indicate model trouble, not cache
    /// geometry).
    pub fn on_delta(&self, d: &DeltaStats) {
        self.delta_hits.fetch_add(d.delta_hits, Ordering::Relaxed);
        self.delta_full_evals
            .fetch_add(d.full_evals, Ordering::Relaxed);
        self.delta_terms_reused
            .fetch_add(d.terms_reused, Ordering::Relaxed);
        self.delta_fallbacks
            .fetch_add(d.fallbacks(), Ordering::Relaxed);
        self.delta_fallback_errors
            .fetch_add(d.fallback_error, Ordering::Relaxed);
    }

    /// Count entries dropped by explicit invalidation.
    pub fn on_cache_invalidations(&self, n: u64) {
        self.cache_invalidations.fetch_add(n, Ordering::Relaxed);
    }

    /// Total requests recorded so far.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Requests answered from the plan cache.
    #[must_use]
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Requests that piggybacked on an identical in-flight search.
    #[must_use]
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Portfolio searches started.
    #[must_use]
    pub fn searches(&self) -> u64 {
        self.searches.load(Ordering::Relaxed)
    }

    /// Requests shed at admission.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Requests whose search failed.
    #[must_use]
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// Requests answered with a degraded (deadline-truncated) plan.
    #[must_use]
    pub fn degraded(&self) -> u64 {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Requests whose deadline expired with no incumbent available.
    #[must_use]
    pub fn deadline_exceeded(&self) -> u64 {
        self.deadline_exceeded.load(Ordering::Relaxed)
    }

    /// Evaluations answered from cached delta leaves, service-wide.
    #[must_use]
    pub fn delta_hits(&self) -> u64 {
        self.delta_hits.load(Ordering::Relaxed)
    }

    /// Evaluations that recomputed every rank's leaves, service-wide.
    #[must_use]
    pub fn delta_full_evals(&self) -> u64 {
        self.delta_full_evals.load(Ordering::Relaxed)
    }

    /// Cost leaves reused from delta caches instead of recomputed.
    #[must_use]
    pub fn delta_terms_reused(&self) -> u64 {
        self.delta_terms_reused.load(Ordering::Relaxed)
    }

    /// Structural delta fallbacks (cold cache, shape change, all ranks
    /// dirty).
    #[must_use]
    pub fn delta_fallbacks(&self) -> u64 {
        self.delta_fallbacks.load(Ordering::Relaxed)
    }

    /// Delta fallbacks caused by evaluation errors (cache poisoned).
    #[must_use]
    pub fn delta_fallback_errors(&self) -> u64 {
        self.delta_fallback_errors.load(Ordering::Relaxed)
    }

    /// Spans evicted from the bounded trace ring (only the newest
    /// `SPAN_CAP` requests keep their span; every request keeps
    /// counting).
    #[must_use]
    pub fn spans_dropped(&self) -> u64 {
        self.spans_dropped.load(Ordering::Relaxed)
    }

    /// Clones of the three stage histograms, labeled — the Prometheus
    /// renderer's view (`queued` / `search` / `total`).
    #[must_use]
    pub fn stage_histograms(&self) -> [(&'static str, Histogram); 3] {
        let stages = self.stages.lock().expect("stage lock poisoned");
        [
            ("queued", stages.queued.clone()),
            ("search", stages.search.clone()),
            ("total", stages.total.clone()),
        ]
    }

    /// Counters plus per-stage latency digests as a JSON value.
    #[must_use]
    pub fn snapshot(&self) -> Value {
        let stages = self.stages.lock().expect("stage lock poisoned");
        Value::object(vec![
            (
                "counters",
                Value::object(vec![
                    ("requests", Value::UInt(self.requests())),
                    ("cache_hits", Value::UInt(self.cache_hits())),
                    ("coalesced", Value::UInt(self.coalesced())),
                    ("searches", Value::UInt(self.searches())),
                    ("shed", Value::UInt(self.shed())),
                    ("failures", Value::UInt(self.failures())),
                    ("degraded", Value::UInt(self.degraded())),
                    ("deadline_exceeded", Value::UInt(self.deadline_exceeded())),
                    (
                        "cache_invalidations",
                        Value::UInt(self.cache_invalidations.load(Ordering::Relaxed)),
                    ),
                    ("delta_hits", Value::UInt(self.delta_hits())),
                    ("delta_full_evals", Value::UInt(self.delta_full_evals())),
                    ("delta_terms_reused", Value::UInt(self.delta_terms_reused())),
                    ("delta_fallbacks", Value::UInt(self.delta_fallbacks())),
                    (
                        "delta_fallback_errors",
                        Value::UInt(self.delta_fallback_errors()),
                    ),
                    ("spans_dropped", Value::UInt(self.spans_dropped())),
                ]),
            ),
            (
                "stages",
                Value::object(vec![
                    ("queued", latency_value(&stages.queued)),
                    ("search", latency_value(&stages.search)),
                    ("total", latency_value(&stages.total)),
                ]),
            ),
        ])
    }

    /// The retained request spans, in completion order.
    #[must_use]
    pub fn spans(&self) -> Vec<RequestSpan> {
        let spans = self.spans.lock().expect("span lock poisoned");
        spans.iter().cloned().collect()
    }

    /// Chrome trace-event JSON of the request track: one "requests"
    /// track with a slice per request (args: source and stage split)
    /// and one "search" track with the search-stage slices. Loads
    /// directly in `ui.perfetto.dev` alongside the simulator traces.
    #[must_use]
    pub fn perfetto_json(&self) -> String {
        fn us(ns: u64) -> Value {
            Value::Float(ns as f64 / 1000.0)
        }
        fn meta(what: &str, tid: Option<u64>, name: &str) -> Value {
            let mut pairs = vec![
                ("name", Value::Str(what.to_string())),
                ("ph", Value::Str("M".into())),
                ("pid", Value::UInt(0)),
            ];
            if let Some(tid) = tid {
                pairs.push(("tid", Value::UInt(tid)));
            }
            pairs.push((
                "args",
                Value::object(vec![("name", Value::Str(name.to_string()))]),
            ));
            Value::object(pairs)
        }
        fn flow_event(ph: &str, id: u64, at_ns: u64) -> Value {
            Value::object(vec![
                ("name", Value::Str("coalesce".into())),
                ("cat", Value::Str("serve".into())),
                ("ph", Value::Str(ph.to_string())),
                ("id", Value::UInt(id)),
                ("ts", Value::Float(at_ns as f64 / 1000.0)),
                ("pid", Value::UInt(0)),
                ("tid", Value::UInt(0)),
                ("bp", Value::Str("e".into())),
            ])
        }
        let mut events = vec![
            meta("process_name", None, "mheta-serve"),
            meta("thread_name", Some(0), "requests"),
            meta("thread_name", Some(1), "search"),
        ];
        let spans = self.spans.lock().expect("span lock poisoned");
        // Traces that some follower links to get a flow arrow from the
        // leader's slice to each follower's.
        let linked: std::collections::BTreeSet<u64> = spans
            .iter()
            .filter(|s| s.link_trace_id != 0)
            .map(|s| s.link_trace_id)
            .collect();
        for span in spans.iter() {
            let mut args = vec![
                ("source", Value::Str(span.source.name().to_string())),
                ("queued_us", us(span.queued_ns)),
                ("search_us", us(span.search_ns)),
            ];
            if span.trace_id != 0 {
                args.push(("trace_id", Value::Str(crate::trace::id_hex(span.trace_id))));
                args.push(("span_id", Value::Str(crate::trace::id_hex(span.span_id))));
            }
            if span.link_trace_id != 0 {
                args.push((
                    "links_to_trace",
                    Value::Str(crate::trace::id_hex(span.link_trace_id)),
                ));
            }
            events.push(Value::object(vec![
                ("name", Value::Str(span.label.clone())),
                ("cat", Value::Str("serve".into())),
                ("ph", Value::Str("X".into())),
                ("ts", us(span.start_ns)),
                ("dur", us(span.total_ns)),
                ("pid", Value::UInt(0)),
                ("tid", Value::UInt(0)),
                ("args", Value::object(args)),
            ]));
            // Flow arrows bind leader and followers of one coalition:
            // a flow starts at the leader's slice (id = its trace) and
            // finishes at every follower slice that links to it.
            if span.trace_id != 0 && linked.contains(&span.trace_id) {
                events.push(flow_event("s", span.trace_id, span.start_ns));
            }
            if span.link_trace_id != 0 {
                events.push(flow_event("f", span.link_trace_id, span.start_ns));
            }
            if span.search_ns > 0 {
                let mut args = Vec::new();
                if span.trace_id != 0 {
                    args.push(("trace_id", Value::Str(crate::trace::id_hex(span.trace_id))));
                }
                events.push(Value::object(vec![
                    ("name", Value::Str(span.label.clone())),
                    ("cat", Value::Str("serve".into())),
                    ("ph", Value::Str("X".into())),
                    ("ts", us(span.start_ns + span.queued_ns)),
                    ("dur", us(span.search_ns)),
                    ("pid", Value::UInt(0)),
                    ("tid", Value::UInt(1)),
                    ("args", Value::object(args)),
                ]));
            }
            for strat in &span.strategies {
                let mut args = vec![("strategy", Value::Str(strat.name.to_string()))];
                if span.trace_id != 0 {
                    args.push(("trace_id", Value::Str(crate::trace::id_hex(span.trace_id))));
                }
                events.push(Value::object(vec![
                    ("name", Value::Str(format!("{}:{}", span.label, strat.name))),
                    ("cat", Value::Str("serve.search".into())),
                    ("ph", Value::Str("X".into())),
                    ("ts", us(strat.start_ns)),
                    ("dur", us(strat.dur_ns)),
                    ("pid", Value::UInt(0)),
                    ("tid", Value::UInt(1)),
                    ("args", Value::object(args)),
                ]));
            }
        }
        drop(spans);
        Value::object(vec![
            ("traceEvents", Value::Array(events)),
            ("displayTimeUnit", Value::Str("ms".into())),
        ])
        .to_json_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(source: RequestSource, start: u64, queued: u64, search: u64) -> RequestSpan {
        RequestSpan::untraced(
            "jacobi/small@DC".into(),
            source,
            start,
            queued,
            search,
            queued + search,
        )
    }

    #[test]
    fn counters_follow_sources() {
        let m = ServiceMetrics::new();
        m.on_search_started();
        m.record_request(span(RequestSource::Fresh, 0, 10, 90));
        m.record_request(span(RequestSource::Cache, 100, 5, 0));
        m.record_request(span(RequestSource::Coalesced, 100, 80, 0));
        m.record_request(span(RequestSource::Shed, 200, 1, 0));
        m.record_request(span(RequestSource::Failed, 300, 1, 0));
        assert_eq!(m.requests(), 5);
        assert_eq!(m.searches(), 1);
        assert_eq!(m.cache_hits(), 1);
        assert_eq!(m.coalesced(), 1);
        assert_eq!(m.shed(), 1);
        assert_eq!(m.failures(), 1);
    }

    #[test]
    fn span_ring_keeps_the_newest_requests() {
        // Spans are told apart by their start time, 0, 1, 2, ...
        let m = ServiceMetrics::new();
        let recorded = SPAN_CAP as u64 + 10;
        for start in 0..recorded {
            m.record_request(span(RequestSource::Cache, start, 1, 0));
        }
        let kept = m.spans();
        assert_eq!(kept.len(), SPAN_CAP, "same capacity as before");
        assert_eq!(m.spans_dropped(), 10, "one eviction per span past the cap");
        assert_eq!(m.requests(), recorded, "every request still counts");
        let starts: Vec<u64> = kept.iter().map(|s| s.start_ns).collect();
        let newest: Vec<u64> = (10..recorded).collect();
        assert_eq!(starts, newest, "the oldest ten went; completion order kept");
    }

    #[test]
    fn snapshot_reports_stage_histograms() {
        let m = ServiceMetrics::new();
        m.record_request(span(RequestSource::Fresh, 0, 10, 90));
        m.record_request(span(RequestSource::Cache, 50, 4, 0));
        let snap = m.snapshot();
        let stages = snap.get("stages").unwrap();
        assert_eq!(
            stages.get("total").unwrap().get("count").unwrap().as_u64(),
            Some(2)
        );
        // Cache hits skip the search stage entirely.
        assert_eq!(
            stages.get("search").unwrap().get("count").unwrap().as_u64(),
            Some(1)
        );
        let counters = snap.get("counters").unwrap();
        assert_eq!(counters.get("cache_hits").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn delta_tallies_accumulate_and_snapshot() {
        let m = ServiceMetrics::new();
        m.on_delta(&DeltaStats {
            delta_hits: 10,
            full_evals: 3,
            terms_reused: 200,
            fallback_cold: 2,
            fallback_all_dirty: 1,
            fallback_error: 1,
            ..DeltaStats::default()
        });
        m.on_delta(&DeltaStats {
            delta_hits: 5,
            fallback_shape: 1,
            ..DeltaStats::default()
        });
        assert_eq!(m.delta_hits(), 15);
        assert_eq!(m.delta_full_evals(), 3);
        assert_eq!(m.delta_terms_reused(), 200);
        assert_eq!(m.delta_fallbacks(), 4, "cold+all_dirty+shape aggregate");
        assert_eq!(m.delta_fallback_errors(), 1);
        let counters = m.snapshot();
        let counters = counters.get("counters").unwrap();
        assert_eq!(counters.get("delta_hits").unwrap().as_u64(), Some(15));
        assert_eq!(
            counters.get("delta_terms_reused").unwrap().as_u64(),
            Some(200)
        );
    }

    #[test]
    fn perfetto_links_followers_and_nests_strategy_spans() {
        let m = ServiceMetrics::new();
        let mut leader = span(RequestSource::Fresh, 0, 10, 90);
        leader.trace_id = 0xAA;
        leader.span_id = 1;
        leader.strategies = vec![StrategySpan {
            name: "gbs",
            start_ns: 10,
            dur_ns: 80,
        }];
        let mut follower = span(RequestSource::Coalesced, 5, 95, 0);
        follower.trace_id = 0xBB;
        follower.span_id = 2;
        follower.link_trace_id = 0xAA;
        m.record_request(leader);
        m.record_request(follower);
        let json = m.perfetto_json();
        let v = crate::json::from_str(&json).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let phs = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").unwrap().as_str() == Some(ph))
                .count()
        };
        assert_eq!(phs("s"), 1, "one flow start at the leader");
        assert_eq!(phs("f"), 1, "one flow finish at the follower");
        assert!(json.contains("\"links_to_trace\""));
        assert!(
            json.contains("\"jacobi/small@DC:gbs\""),
            "strategy sub-slice present"
        );
        assert!(json.contains(&crate::trace::id_hex(0xAA)));
        assert!(json.contains(&crate::trace::id_hex(0xBB)));
    }

    #[test]
    fn perfetto_track_contains_request_and_search_slices() {
        let m = ServiceMetrics::new();
        m.record_request(span(RequestSource::Fresh, 1000, 10, 90));
        m.record_request(span(RequestSource::Cache, 2000, 5, 0));
        let json = m.perfetto_json();
        let v = crate::json::from_str(&json).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        // 3 metadata + 1 request slice with search + 1 search slice + 1
        // cached request slice (no search stage).
        assert_eq!(events.len(), 6);
        assert!(json.contains("\"source\": \"cache\"") || json.contains("\"cache\""));
    }
}
