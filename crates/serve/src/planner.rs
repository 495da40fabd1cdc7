//! The in-process planning front end.
//!
//! [`Planner::plan`] takes a request through the full lifecycle:
//!
//! ```text
//! request ── cache probe ──hit──────────────────────────▶ reply (cache):
//!               │ miss                                    plan or Err(Search)
//!               ▼
//!          single-flight ──follower── wait ─────────────▶ reply (coalesced)
//!               │ leader
//!               ▼
//!          admission gate ──queue full── shed ──────────▶ Err(Overloaded)
//!               │ admitted
//!               ▼
//!          portfolio search ── cache insert ── publish ─▶ reply (fresh)
//!                                                         or Err(Search)
//! ```
//!
//! ## One lifecycle, two guards
//!
//! Every request takes that path: there is no switch that skips the
//! cache or the coalescing, and the only setting is
//! [`PlannerConfig::workers`]. The queue holds [`QUEUE_CAPACITY`]
//! waiting leaders, the cache [`CACHE_CAPACITY`] answers over
//! [`CACHE_SHARDS`] stripes, and a shed tells the client to come back
//! in [`RETRY_AFTER_MS`].
//!
//! The pipeline is one linear function (`Planner::serve`); what a
//! request owes on the way out is discharged once, by a value — never
//! by each exit remembering:
//!
//! * `Request` (identity + outcome): the path only *sets* the outcome;
//!   `Drop` emits the one [`RequestSpan`] and the degraded /
//!   deadline-exceeded counters, for shed and failed requests too.
//! * `Lead` (the flight): `finish` does cache-fill → publish → recorder
//!   events; `Drop` publishes an error if `finish` never ran. Followers
//!   never hang — a shed or failed leader sheds/fails them too.
//!
//! ## Admission
//!
//! A leader searches on its own thread — a `pland` connection thread,
//! or whoever called [`Planner::plan`] — once the admission gate lets
//! it: at most [`PlannerConfig::workers`] searches run at once, up to
//! [`QUEUE_CAPACITY`] more leaders wait for a slot and are let in
//! oldest first, and the next is shed at once, without blocking. A
//! `Permit` holds the slot; its `Drop` hands the slot to the oldest
//! waiter or frees it, on every exit.
//!
//! ## Deadlines
//!
//! [`Planner::plan_opts`] accepts an optional end-to-end budget. The
//! deadline is computed once at arrival, rides on the `Request`, and
//! bounds every stage: a follower's wait (`Flight::wait_until`),
//! admission (a leader that waited past it never starts searching), and
//! the search itself (the portfolio polls it after every evaluation).
//! The portfolio runs its strategies in order on the leader's thread, so
//! an interrupted search still returns its best incumbent — of GBS
//! first, then as much of genetic, annealing and random as fit —
//! flagged [`PlanReply::degraded`];
//! [`PlanError::DeadlineExceeded`] is reserved for the case where no
//! incumbent exists at all. A degraded plan is never cached
//! (`Lead::finish`) and never handed to a follower that set no
//! deadline of its own (`Planner::follow`); the reasons sit there.
//!
//! ## Failures are cached answers
//!
//! A plan is a pure function of its canonical request, and so is a
//! search failure that `run_search` returns: a model that cannot be
//! built, or candidates that never score finite, fail the same way every
//! time. `Lead::finish` stores such a failure in the [`PlanCache`]
//! beside the plans, and a later request for the key gets it straight
//! back from the probe — the original message, span source `cache`, no
//! flight and no search. Nothing else is stored: a panicking search, an
//! abandoned flight, a shed and a deadline expiry say nothing about the
//! next attempt.
//!
//! ## Telemetry
//!
//! Every request carries a [`TraceContext`] ([`Planner::plan`] mints a
//! root; [`Planner::plan_opts`] accepts one propagated over the
//! wire). The context is stamped on the request's [`RequestSpan`]
//! (including one sub-span per portfolio strategy, back to back), on
//! every [`FlightRecorder`] event the request emits, and on the wire
//! reply — so one `trace_id` connects the client call, the span track,
//! the flight-recorder dump, and the Perfetto flame. Coalesced
//! followers keep their own trace but **link** to the leader's
//! (`RequestSpan::link_trace_id`), so a coalition is navigable from
//! any member.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use mheta_apps::{anchor_inputs, build_model};
use mheta_dist::{portfolio_search, DeltaStats, SpectrumPath, Strategy};
use mheta_obs::json::Value;
use mheta_obs::trace::id_hex;
use mheta_obs::{
    FlightRecorder, RequestSource, RequestSpan, ServiceMetrics, StrategySpan, TraceContext,
};

use crate::cache::{Answer, PlanCache};
use crate::request::{fnv1a64, PlanRequest};
use crate::singleflight::{Entry, Flight, SingleFlight};

/// Leaders that may wait for a search slot; one more is shed. A plan
/// search takes milliseconds, so a full queue is tens of milliseconds
/// of work for the default four slots.
pub const QUEUE_CAPACITY: usize = 64;

/// Plan-cache lock stripes.
pub const CACHE_SHARDS: usize = 8;

/// Plan-cache capacity: plans and stored search failures, in total.
pub const CACHE_CAPACITY: usize = 256;

/// The backoff a shed request is told to wait before it retries,
/// milliseconds.
pub const RETRY_AFTER_MS: u64 = 50;

/// A finished distribution plan: the service's product.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The best `GEN_BLOCK` layout found (rows per node).
    pub rows: Vec<usize>,
    /// Its predicted iteration time, ns.
    pub predicted_ns: f64,
    /// Which portfolio strategy produced it.
    pub winner: Strategy,
    /// Combined evaluator calls the portfolio spent.
    pub total_evals: usize,
}

/// Why a request did not produce a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// Admission control shed the request: every search slot was busy
    /// and the queue for them full. Retry after the suggested backoff.
    Overloaded {
        /// Suggested client backoff, milliseconds.
        retry_after_ms: u64,
    },
    /// Model construction or the search itself failed. When the failure
    /// is a pure function of the request, the cache answers every later
    /// request for it with the same message.
    Search(String),
    /// The request's end-to-end deadline expired before any usable
    /// incumbent plan existed. (A deadline that expires *mid-search*
    /// returns the incumbent flagged [`PlanReply::degraded`] instead.)
    DeadlineExceeded {
        /// The budget the request arrived with, milliseconds.
        budget_ms: u64,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Overloaded { retry_after_ms } => {
                write!(f, "overloaded; retry after {retry_after_ms} ms")
            }
            PlanError::Search(msg) => write!(f, "search failed: {msg}"),
            PlanError::DeadlineExceeded { budget_ms } => {
                write!(
                    f,
                    "deadline exceeded: {budget_ms} ms budget, no incumbent plan"
                )
            }
        }
    }
}

impl std::error::Error for PlanError {}

impl PlanError {
    /// The backoff a *shed* carries (admission refused the request:
    /// queue full); `None` for a genuine failure. The one place that
    /// says which errors are sheds.
    #[must_use]
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            PlanError::Overloaded { retry_after_ms } => Some(*retry_after_ms),
            PlanError::Search(_) | PlanError::DeadlineExceeded { .. } => None,
        }
    }
}

/// A successful reply: the plan plus provenance.
#[derive(Debug, Clone)]
pub struct PlanReply {
    /// The plan.
    pub plan: Plan,
    /// How it was produced (`Fresh`, `Cache`, or `Coalesced`).
    pub source: RequestSource,
    /// The request's canonical content hash (the cache key).
    pub key: u64,
    /// The trace this request was served under.
    pub trace: TraceContext,
    /// The deadline expired mid-search: this is the best incumbent at
    /// expiry, not the full-budget answer. Degraded plans are valid
    /// (every incumbent passed the evaluator) but never cached.
    pub degraded: bool,
}

/// The planner's one setting: the rest are the constants above.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Searches that may run at once (at least 1); each runs on the
    /// thread of the request that leads it.
    pub workers: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig { workers: 4 }
    }
}

/// What a leader publishes to its flight: the outcome every coalesced
/// follower inherits, plus the leader's trace so followers can link to
/// it (on the error paths too).
#[derive(Clone)]
struct FlightOutput {
    /// The plan and its degraded flag — or the error. Deadlined
    /// followers inherit degradation (bounded latency is what they
    /// asked for); deadline-free followers of a degraded flight retry
    /// instead of accepting the partial answer.
    result: Result<(Plan, bool), PlanError>,
    /// The leader's trace ID (never 0).
    leader_trace_id: u64,
}

/// How a request ends: `(plan, how produced, degraded)`, or the error.
type Outcome = Result<(Plan, RequestSource, bool), PlanError>;
type SearchResult = Result<(Plan, SearchAux), Failure>;

/// How a leader's search ended without a plan (module header).
enum Failure {
    /// A pure function of the request: every recomputation fails with
    /// this message, so `Lead::finish` caches it.
    Pure(String),
    /// Says nothing about the next attempt: a shed, a deadline expiry,
    /// a panicking search.
    Impure(PlanError),
}

impl From<Failure> for PlanError {
    fn from(failure: Failure) -> Self {
        match failure {
            Failure::Pure(msg) => PlanError::Search(msg),
            Failure::Impure(e) => e,
        }
    }
}

/// What an admitted leader runs: [`run_search`], except in the
/// lifecycle tests, which script it.
type SearchFn = dyn Fn(&PlanRequest, Option<Instant>, u64) -> SearchResult + Send + Sync;

/// Observability side-channel of one portfolio run.
struct SearchAux {
    /// Per-strategy spans, offsets relative to the portfolio launch.
    strategies: Vec<StrategySpan>,
    /// Whether the deadline passed mid-search (the plan is the
    /// incumbent at expiry, not the full-budget answer).
    degraded: bool,
    /// Incremental-evaluation tallies merged across the portfolio's
    /// strategies.
    delta: DeltaStats,
}

/// The resident planning service (in-process front end).
pub struct Planner {
    cache: PlanCache,
    flights: SingleFlight<FlightOutput>,
    gate: Gate,
    metrics: Arc<ServiceMetrics>,
    recorder: Arc<FlightRecorder>,
    search: Box<SearchFn>,
}

/// Admission control (module header): `slots` searches at once, then a
/// FIFO queue of at most [`QUEUE_CAPACITY`] waiting leaders.
struct Gate {
    slots: usize,
    tally: Mutex<Tally>,
    /// Signalled when a slot is handed to the oldest waiter.
    turn: Condvar,
}

/// The gate's counters. Every waiter draws a ticket; the tickets in
/// `admitted..drawn` are the queue, oldest first. While anyone waits
/// every slot is busy, and a freed slot goes to the next ticket.
#[derive(Default)]
struct Tally {
    /// Slots held, handed-over ones included.
    running: usize,
    drawn: u64,
    admitted: u64,
    /// Slots given back so far.
    executed: u64,
    /// Leaders refused because the queue was full.
    rejected: u64,
}

/// One held search slot; `Drop` passes it on, unwinding included.
struct Permit<'g>(&'g Gate);

impl Gate {
    fn new(slots: usize) -> Self {
        Gate {
            slots: slots.max(1),
            tally: Mutex::default(),
            turn: Condvar::new(),
        }
    }

    fn tally(&self) -> MutexGuard<'_, Tally> {
        self.tally.lock().expect("admission gate poisoned")
    }

    /// A slot, after every earlier waiter has had one; `None`, at once,
    /// when the queue is full.
    fn enter(&self) -> Option<Permit<'_>> {
        let mut t = self.tally();
        if t.running < self.slots {
            t.running += 1;
            return Some(Permit(self));
        }
        if t.drawn - t.admitted >= QUEUE_CAPACITY as u64 {
            t.rejected += 1;
            return None;
        }
        let ticket = t.drawn;
        t.drawn += 1;
        while t.admitted <= ticket {
            t = self.turn.wait(t).expect("admission gate poisoned");
        }
        Some(Permit(self))
    }

    /// `(executed, rejected, queued)`, read at one instant.
    fn counts(&self) -> (u64, u64, usize) {
        let t = self.tally();
        (t.executed, t.rejected, (t.drawn - t.admitted) as usize)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut t = self.0.tally();
        t.executed += 1;
        if t.admitted < t.drawn {
            t.admitted += 1;
            // Every waiter wakes; only the next ticket proceeds.
            self.0.turn.notify_all();
        } else {
            t.running -= 1;
        }
    }
}

/// One request, from arrival to its terminal span (module header). Every
/// exit — unwinding included — is accounted for once, in `Drop`.
struct Request<'p> {
    planner: &'p Planner,
    ctx: TraceContext,
    label: String,
    /// The canonical request text (the flight key) and its FNV-1a hash.
    canon: String,
    key: u64,
    /// Arrival, on the metrics clock.
    t0: u64,
    deadline_at: Option<Instant>,
    budget_ms: u64,
    /// `Failed` until [`Request::settle`]: a path that never got there
    /// did not serve its caller.
    source: RequestSource,
    /// The leader this request waited on (0 = none).
    link_trace_id: u64,
    degraded: bool,
    deadline_exceeded: bool,
    /// `(started_ns, search_ns)` of this request's own admission, if it
    /// was admitted.
    ran: Option<(u64, u64)>,
    strategies: Vec<StrategySpan>,
}

impl Request<'_> {
    /// Record one event under this request's trace; `key` leads.
    fn rec(&self, kind: &'static str, mut detail: Vec<(&str, Value)>) {
        detail.insert(0, ("key", Value::Str(id_hex(self.key))));
        self.planner.rec(Some(&self.ctx), kind, detail);
    }

    /// A cached answer as this request's outcome: the plan, or the
    /// stored failure, which the cache served too.
    fn hit(&mut self, answer: Answer) -> Outcome {
        self.source = RequestSource::Cache;
        let plan = answer.map_err(PlanError::Search)?;
        Ok((plan, RequestSource::Cache, false))
    }

    /// Note how the request ended and build its reply; `Drop` accounts.
    /// An error comes back with how it was answered: `Shed`, `Failed`,
    /// or `Cache` for a stored failure.
    fn settle(mut self, outcome: Outcome) -> Result<PlanReply, (PlanError, RequestSource)> {
        match outcome {
            Ok((plan, source, degraded)) => {
                (self.source, self.degraded) = (source, degraded);
                Ok(PlanReply {
                    plan,
                    source,
                    key: self.key,
                    trace: self.ctx,
                    degraded,
                })
            }
            Err(e) => {
                if e.retry_after_ms().is_some() {
                    self.source = RequestSource::Shed;
                }
                self.deadline_exceeded = matches!(e, PlanError::DeadlineExceeded { .. });
                Err((e, self.source))
            }
        }
    }
}

impl Drop for Request<'_> {
    fn drop(&mut self) {
        let metrics = &self.planner.metrics;
        if self.degraded {
            metrics.on_degraded();
        }
        if self.deadline_exceeded {
            metrics.on_deadline_exceeded();
        }
        let total_ns = metrics.now_ns().saturating_sub(self.t0);
        // One rule: queued until admitted, or — never admitted (hit,
        // follower, refused leader) — for the request's whole life.
        let (queued_ns, search_ns) = match self.ran {
            Some((started_ns, search_ns)) => {
                // Strategy offsets are relative to the portfolio launch;
                // rebase them onto the metrics clock.
                for s in &mut self.strategies {
                    s.start_ns += started_ns;
                }
                (started_ns.saturating_sub(self.t0), search_ns)
            }
            None => (total_ns, 0),
        };
        metrics.record_request(RequestSpan {
            label: std::mem::take(&mut self.label),
            source: self.source,
            trace_id: self.ctx.trace_id,
            span_id: self.ctx.span_id,
            parent_span_id: self.ctx.parent_span_id,
            link_trace_id: self.link_trace_id,
            start_ns: self.t0,
            queued_ns,
            search_ns,
            total_ns,
            strategies: std::mem::take(&mut self.strategies),
        });
    }
}

/// A request responsible for a search (module header). Its debt —
/// followers hang until the flight is published — cannot be skipped by
/// any exit.
struct Lead<'a, 'p> {
    rq: &'a mut Request<'p>,
    /// What the followers wait on (`None` once published).
    flight: Option<Arc<Flight<FlightOutput>>>,
}

impl Lead<'_, '_> {
    /// Publish to the followers and retire the flight, once.
    fn publish(&mut self, result: Result<(Plan, bool), PlanError>) {
        if let Some(flight) = self.flight.take() {
            let output = FlightOutput {
                result,
                leader_trace_id: self.rq.ctx.trace_id,
            };
            let flights = &self.rq.planner.flights;
            flights.complete(&self.rq.canon, &flight, output);
        }
    }

    /// The one way a leader ends: cache-fill → flight publish →
    /// recorder events. `ran`: `None` = refused at admission.
    fn finish(mut self, result: SearchResult, ran: Option<(u64, u64)>) -> Outcome {
        let planner = self.rq.planner;
        let (key, canon, cache) = (self.rq.key, &self.rq.canon, &planner.cache);
        if let Ok((_, aux)) = &result {
            planner.metrics.on_delta(&aux.delta);
        }
        match &result {
            // Degraded plans are partial-budget incumbents; caching them
            // would poison the key for full-budget requests.
            Ok((plan, aux)) if !aux.degraded => cache.insert(key, canon, plan.clone()),
            Err(Failure::Pure(msg)) => cache.insert_failure(key, canon, msg.clone()),
            _ => {}
        }
        let result = result.map_err(PlanError::from);
        self.publish(match &result {
            Ok((plan, aux)) => Ok((plan.clone(), aux.degraded)),
            Err(e) => Err(e.clone()),
        });

        let rq = &mut *self.rq;
        rq.ran = ran;
        let budget_ms = ("budget_ms", Value::UInt(rq.budget_ms));
        let (plan, aux) = match result {
            Ok(found) => found,
            Err(e) => {
                let (kind, rest) = match &e {
                    PlanError::Search(_) => {
                        ("search.fail", vec![("error", Value::Str(e.to_string()))])
                    }
                    PlanError::DeadlineExceeded { .. } => (
                        "deadline.exceeded",
                        vec![budget_ms, ("stage", Value::Str("search".into()))],
                    ),
                    PlanError::Overloaded { retry_after_ms } => {
                        let depth = Value::UInt(planner.queue_depth() as u64);
                        let retry = Value::UInt(*retry_after_ms);
                        let rest = vec![("queue_depth", depth), ("retry_after_ms", retry)];
                        ("request.shed", rest)
                    }
                };
                rq.rec(kind, rest);
                return Err(e);
            }
        };
        let total_evals = ("total_evals", Value::UInt(plan.total_evals as u64));
        if aux.degraded {
            rq.rec("deadline.degraded", vec![budget_ms, total_evals.clone()]);
        }
        let winner = ("winner", Value::Str(plan.winner.name().to_string()));
        rq.rec("search.done", vec![winner, total_evals]);
        rq.strategies = aux.strategies;
        Ok((plan, RequestSource::Fresh, aux.degraded))
    }
}

impl Drop for Lead<'_, '_> {
    /// No-ops after `finish`; otherwise the leader is unwinding: fail
    /// the followers rather than strand them.
    fn drop(&mut self) {
        self.publish(Err(PlanError::Search("leader abandoned its flight".into())));
    }
}

impl Planner {
    /// Build a planner. It starts no thread: each search runs on the
    /// thread of the request that leads it.
    #[must_use]
    pub fn new(cfg: PlannerConfig) -> Self {
        Planner {
            cache: PlanCache::new(CACHE_SHARDS, CACHE_CAPACITY),
            flights: SingleFlight::new(),
            gate: Gate::new(cfg.workers),
            metrics: Arc::new(ServiceMetrics::new()),
            recorder: Arc::new(FlightRecorder::new(
                FlightRecorder::DEFAULT_CAPACITY,
                FlightRecorder::DEFAULT_STRIPES,
            )),
            search: Box::new(run_search),
        }
    }

    /// Record one flight-recorder event.
    fn rec(&self, ctx: Option<&TraceContext>, kind: &'static str, detail: Vec<(&str, Value)>) {
        self.recorder.record_kv(ctx, kind, detail);
    }

    /// Plan `req` under a freshly minted root trace, with no deadline.
    /// See [`Planner::plan_opts`].
    pub fn plan(&self, req: &PlanRequest) -> Result<PlanReply, PlanError> {
        self.plan_opts(req, TraceContext::root(), None)
    }

    /// Plan `req` under `ctx` with an optional end-to-end `deadline`
    /// budget, going through cache → single-flight → admission →
    /// portfolio search. Never blocks on a full queue: overload is a
    /// structured [`PlanError::Overloaded`]. The deadline is operational
    /// state, not request content — it does not affect the cache key,
    /// and two requests differing only in deadline still coalesce.
    pub fn plan_opts(
        &self,
        req: &PlanRequest,
        ctx: TraceContext,
        deadline: Option<Duration>,
    ) -> Result<PlanReply, PlanError> {
        self.answer(req, ctx, deadline).map_err(|(e, _)| e)
    }

    /// [`Planner::plan_opts`], saying also how a request without a plan
    /// was answered: `Cache` when its failure was stored, `Shed`, or
    /// `Failed` (the wire reply carries it as `source`).
    pub(crate) fn answer(
        &self,
        req: &PlanRequest,
        ctx: TraceContext,
        deadline: Option<Duration>,
    ) -> Result<PlanReply, (PlanError, RequestSource)> {
        let t0 = self.metrics.now_ns();
        let deadline_at = deadline.map(|d| Instant::now() + d);
        let canon = req.canonical_json();
        let mut rq = Request {
            planner: self,
            ctx,
            label: req.label(),
            key: fnv1a64(canon.as_bytes()),
            canon,
            t0,
            deadline_at,
            budget_ms: deadline.map_or(0, |d| d.as_millis() as u64),
            source: RequestSource::Failed,
            link_trace_id: 0,
            degraded: false,
            deadline_exceeded: false,
            ran: None,
            strategies: Vec::new(),
        };
        let outcome = self.serve(&mut rq, req);
        rq.settle(outcome)
    }

    /// The one path: probe → follow-or-lead loop → admission → search →
    /// finish. `rq` and the [`Lead`] do the accounting, on drop.
    fn serve(&self, rq: &mut Request<'_>, req: &PlanRequest) -> Outcome {
        let hit = self.cache.answer(rq.key, &rq.canon);
        // One event on the serving fast path: `cache.hit` doubles as
        // the arrival record for cache-served requests (same trace,
        // timestamp, and key a separate received event would carry).
        let arrival = if hit.is_some() {
            "cache.hit"
        } else {
            "request.received"
        };
        let label = ("label", Value::Str(rq.label.clone()));
        let key = ("key", Value::Str(id_hex(rq.key)));
        self.rec(Some(&rq.ctx), arrival, vec![label, key]);
        if let Some(answer) = hit {
            return rq.hit(answer);
        }
        rq.rec("cache.miss", vec![]);

        let flight = loop {
            match self.flights.enter(&rq.canon) {
                Entry::Leader(flight) => break Some(flight),
                Entry::Follower(flight) => {
                    if let Some(outcome) = self.follow(rq, &flight) {
                        return outcome;
                    }
                }
            }
        };
        let lead = Lead { rq, flight };

        let Some(slot) = self.gate.enter() else {
            let shed = PlanError::Overloaded {
                retry_after_ms: RETRY_AFTER_MS,
            };
            return lead.finish(Err(Failure::Impure(shed)), None);
        };
        let started_ns = self.metrics.now_ns();
        let (deadline_at, budget_ms) = (lead.rq.deadline_at, lead.rq.budget_ms);
        // Expired while queued: don't spend a slot on a search whose
        // client already gave up. No incumbent exists yet, so this is a
        // true DeadlineExceeded, not a degraded plan.
        if deadline_at.is_some_and(|d| Instant::now() >= d) {
            drop(slot);
            let expired = PlanError::DeadlineExceeded { budget_ms };
            return lead.finish(Err(Failure::Impure(expired)), Some((started_ns, 0)));
        }
        self.metrics.on_search_started();
        let searched = catch_unwind(AssertUnwindSafe(|| {
            (self.search)(req, deadline_at, budget_ms)
        }));
        let search_ns = self.metrics.now_ns().saturating_sub(started_ns);
        drop(slot);
        let result = searched.unwrap_or_else(|_| {
            let panicked = PlanError::Search("search worker panicked".into());
            Err(Failure::Impure(panicked))
        });
        lead.finish(result, Some((started_ns, search_ns)))
    }

    /// Wait on another request's flight and inherit what its leader
    /// published. `None` means go around the follow-or-lead loop again.
    fn follow(&self, rq: &mut Request<'_>, flight: &Flight<FlightOutput>) -> Option<Outcome> {
        let budget_ms = rq.budget_ms;
        let Some(out) = flight.wait_until(rq.deadline_at) else {
            // Our own deadline expired while the leader was still
            // searching. Give up quietly; the leader keeps working for
            // the rest of the coalition.
            let stage = ("stage", Value::Str("coalesced".into()));
            let budget = ("budget_ms", Value::UInt(budget_ms));
            rq.rec("deadline.exceeded", vec![budget, stage]);
            return Some(Err(PlanError::DeadlineExceeded { budget_ms }));
        };
        rq.link_trace_id = out.leader_trace_id;
        let leader = ("leader_trace_id", Value::Str(id_hex(out.leader_trace_id)));
        rq.rec("coalesce.follow", vec![leader.clone()]);
        match out.result {
            Ok((_, true)) if rq.deadline_at.is_none() => {
                // This caller asked for the full-budget answer; the
                // leader's own deadline cut the search short.
                // Inheriting the incumbent would silently hand a
                // partial-budget plan to a request that never opted
                // into one — go around again instead (cache first: a
                // full-budget leader may have finished while we
                // waited; otherwise re-enter the flight, leading it
                // ourselves if nobody else is searching).
                rq.rec("coalesce.degraded_retry", vec![leader]);
                let answer = self.cache.answer(rq.key, &rq.canon)?;
                Some(rq.hit(answer))
            }
            Ok((plan, degraded)) => Some(Ok((plan, RequestSource::Coalesced, degraded))),
            Err(e) => Some(Err(e)),
        }
    }

    /// Drop every cached plan and failure; returns how many were
    /// invalidated.
    pub fn invalidate_cache(&self) -> usize {
        let n = self.cache.invalidate_all();
        self.metrics.on_cache_invalidations(n as u64);
        self.rec(
            None,
            "cache.invalidate",
            vec![("entries", Value::UInt(n as u64))],
        );
        n
    }

    /// The service metrics registry (counters, stage histograms, and
    /// the Perfetto request track).
    #[must_use]
    pub fn metrics(&self) -> &Arc<ServiceMetrics> {
        &self.metrics
    }

    /// The plan cache (counters and explicit invalidation).
    #[must_use]
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// The always-on flight recorder.
    #[must_use]
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Leaders currently waiting for a search slot.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.gate.counts().2
    }

    /// The flight-recorder dump document (`mheta-flight/v1`).
    #[must_use]
    pub fn flight_dump(&self) -> Value {
        self.recorder.dump_value()
    }

    /// The full Prometheus text-format exposition for this planner:
    /// the service registry (request/stage series) plus cache,
    /// admission (`executor`), and flight-recorder series. See DESIGN.md
    /// §12 for the naming scheme.
    #[must_use]
    pub fn prometheus(&self) -> String {
        let mut out = mheta_obs::service_text(&self.metrics);
        let (executed, rejected, queued) = self.gate.counts();
        let mut p = mheta_obs::PromText::new();
        p.counter(
            "mheta_serve_cache_hits_total",
            "Plan-cache hits.",
            &[],
            self.cache.hits(),
        );
        p.counter(
            "mheta_serve_cache_misses_total",
            "Plan-cache misses.",
            &[],
            self.cache.misses(),
        );
        p.counter(
            "mheta_serve_cache_evictions_total",
            "Plan-cache capacity evictions.",
            &[],
            self.cache.evictions(),
        );
        p.gauge(
            "mheta_serve_cache_entries",
            "Plans and search failures currently cached.",
            &[],
            self.cache.len() as f64,
        );
        p.counter(
            "mheta_serve_executor_executed_total",
            "Search jobs fully executed.",
            &[],
            executed,
        );
        p.counter(
            "mheta_serve_executor_rejected_total",
            "Search jobs shed at admission.",
            &[],
            rejected,
        );
        p.gauge(
            "mheta_serve_executor_queue_depth",
            "Jobs currently queued.",
            &[],
            queued as f64,
        );
        p.counter(
            "mheta_serve_flight_written_total",
            "Flight-recorder events written.",
            &[],
            self.recorder.written(),
        );
        p.counter(
            "mheta_serve_flight_dropped_total",
            "Flight-recorder events dropped from the ring.",
            &[],
            self.recorder.dropped(),
        );
        p.gauge(
            "mheta_serve_flight_retained",
            "Flight-recorder events currently retained.",
            &[],
            self.recorder.retained() as f64,
        );
        out.push_str(&p.finish());
        out
    }

    /// Full service statistics: request counters and stage latencies,
    /// cache counters, executor admission tallies, and flight-recorder
    /// occupancy.
    #[must_use]
    pub fn stats(&self) -> Value {
        let r = &self.recorder;
        let recorder = Value::object(vec![
            ("capacity", Value::UInt(r.capacity() as u64)),
            ("written", Value::UInt(r.written())),
            ("dropped", Value::UInt(r.dropped())),
            ("retained", Value::UInt(r.retained())),
        ]);
        let (executed, rejected, queued) = self.gate.counts();
        let executor = Value::object(vec![
            ("executed", Value::UInt(executed)),
            ("rejected", Value::UInt(rejected)),
            ("queue_depth", Value::UInt(queued as u64)),
        ]);
        Value::object(vec![
            ("service", self.metrics.snapshot()),
            ("cache", self.cache.stats()),
            ("executor", executor),
            ("recorder", recorder),
        ])
    }
}

/// Build the MHETA model for the request and run the portfolio search,
/// with the request deadline (if any) as the one thing that stops it
/// early.
fn run_search(req: &PlanRequest, deadline: Option<Instant>, budget_ms: u64) -> SearchResult {
    let model = build_model(&req.bench, &req.spec, req.prefetch)
        .map_err(|e| Failure::Pure(e.to_string()))?;
    let inputs = anchor_inputs(&model);
    let path = SpectrumPath::new(&inputs);
    let mut cfg = req.search.to_portfolio();
    cfg.deadline = deadline;
    let out = portfolio_search(&path, &model, cfg);
    if !out.best.score_ns.is_finite() {
        // The deadline fired before ANY candidate finished evaluating:
        // nothing to degrade to.
        if out.deadline_hit {
            return Err(Failure::Impure(PlanError::DeadlineExceeded { budget_ms }));
        }
        return Err(Failure::Pure(
            "no candidate evaluated to a finite score".into(),
        ));
    }
    let strategies = out
        .runs
        .iter()
        .map(|r| StrategySpan {
            name: r.strategy.name(),
            start_ns: r.started_ns,
            dur_ns: r.elapsed_ns,
        })
        .collect();
    Ok((
        Plan {
            rows: out.best.best.rows().to_vec(),
            predicted_ns: out.best.score_ns,
            winner: out.winner,
            total_evals: out.total_evals,
        },
        SearchAux {
            strategies,
            degraded: out.deadline_hit,
            delta: out.delta,
        },
    ))
}

#[cfg(test)]
mod tests {
    //! Lifecycle conservation laws. `run_search` is swapped for a
    //! scripted stub (the `search` field is the seam), every
    //! interleaving is forced by a channel, by counting the holders of
    //! a flight or by the queue depth — no sleeps — and a full queue is
    //! reached as load reaches it (`Rig::over_full_queue`); after each
    //! script `Rig::settled`
    //! checks what must hold however a request left the pipeline.
    //!
    //! Mutation-checked: deleting any one obligation fails a law —
    //! `Request::drop`'s `record_request` ("one terminal record per
    //! request", every script), its `on_degraded` / `on_deadline_exceeded`
    //! (the counter laws); `Lead::finish`'s cache-fill (the repeat misses),
    //! its failure fill (the repeated `Fail` searches again), publish
    //! (followers end `Failed`, not `Coalesced`), events (the recorder
    //! law); `Lead::drop`'s publish (stranded follower). Storing an
    //! impure `Search` error too fails the panic script, and a gate that
    //! never sheds fails the three shed tests (within `HANG`).

    use super::*;
    use crate::request::{benchmark_by_name, SearchParams};
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;

    /// How one scripted search ends.
    #[derive(Clone, Copy)]
    enum End {
        Ok,
        Fail,
        Panic,
        Degraded,
    }
    use End::{Degraded, Fail, Ok as Found, Panic};

    /// One scripted search: how it ends, and whether it first blocks
    /// until the test releases it.
    #[derive(Clone, Copy)]
    struct Step {
        end: End,
        gated: bool,
    }

    fn now(end: End) -> Step {
        Step { end, gated: false }
    }

    fn gated(end: End) -> Step {
        Step { end, gated: true }
    }

    /// The full-budget plan evaluates twice as much as the degraded one,
    /// which is how the cache law tells them apart.
    const FULL_EVALS: usize = 2;

    /// What a scripted `Fail` returns: the one error the cache may hold.
    const SCRIPTED_FAILURE: &str = "scripted failure";

    /// The seed of a request over a full queue: `Rig::over_full_queue`
    /// fills the slot and the queue with seeds `0..=QUEUE_CAPACITY`.
    const OVERFLOW: u64 = QUEUE_CAPACITY as u64 + 1;

    /// What every shed request gets.
    const OVERLOADED: PlanError = PlanError::Overloaded {
        retry_after_ms: RETRY_AFTER_MS,
    };

    /// How long a request over a full queue may take before the test
    /// calls it a hang: a shed answers at once.
    const HANG: Duration = Duration::from_secs(10);

    /// The script `Rig::over_full_queue` runs: the held search, then one
    /// per queued request.
    fn full_queue_script() -> Vec<Step> {
        let mut steps = vec![gated(Found)];
        steps.resize(QUEUE_CAPACITY + 1, now(Found));
        steps
    }

    /// How the requests of `Rig::over_full_queue` are accounted, and the
    /// recorder events they leave.
    fn full_queue_ends() -> (Vec<RequestSource>, Vec<&'static str>) {
        let kinds = ["request.received", "cache.miss", "search.done"];
        let n = QUEUE_CAPACITY + 1;
        (vec![RequestSource::Fresh; n], kinds.repeat(n))
    }

    /// Opens one gated search when dropped, so a test that fails while
    /// a search is held unwinds instead of hanging.
    struct Open<'a>(&'a mpsc::Sender<()>);

    impl Drop for Open<'_> {
        fn drop(&mut self) {
            let _ = self.0.send(());
        }
    }

    struct Rig {
        planner: Planner,
        /// One message lets one gated search finish.
        release: mpsc::Sender<()>,
        calls: AtomicU64,
        degraded_replies: AtomicU64,
        deadline_errors: AtomicU64,
    }

    fn request(seed: u64) -> PlanRequest {
        PlanRequest {
            bench: benchmark_by_name("jacobi", "small").unwrap(),
            prefetch: false,
            spec: mheta_sim::presets::dc(),
            search: SearchParams {
                seed,
                ..SearchParams::default()
            },
        }
    }

    /// A planner whose searches follow `steps`, one per search started,
    /// plus the channel that reports each search's seed as it starts.
    fn rig(cfg: PlannerConfig, steps: &[Step]) -> (Rig, mpsc::Receiver<u64>) {
        let steps = Mutex::new(steps.iter().copied().collect::<VecDeque<_>>());
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let release_rx = Mutex::new(release_rx);
        let search = move |req: &PlanRequest, _: Option<Instant>, _: u64| -> SearchResult {
            let step = steps.lock().unwrap().pop_front();
            let step = step.expect("the script has a step for every search");
            entered_tx.send(req.search.seed).unwrap();
            if step.gated {
                release_rx.lock().unwrap().recv().unwrap();
            }
            let found = |degraded: bool| {
                let plan = Plan {
                    rows: vec![3, 2, 1],
                    predicted_ns: 1.0,
                    winner: Strategy::Gbs,
                    total_evals: if degraded { 1 } else { FULL_EVALS },
                };
                let aux = SearchAux {
                    strategies: Vec::new(),
                    degraded,
                    delta: DeltaStats::default(),
                };
                Ok((plan, aux))
            };
            match step.end {
                Found => found(false),
                Degraded => found(true),
                Fail => Err(Failure::Pure(SCRIPTED_FAILURE.into())),
                Panic => panic!("scripted panic"),
            }
        };
        let planner = Planner {
            search: Box::new(search),
            ..Planner::new(cfg)
        };
        let rig = Rig {
            planner,
            release,
            calls: AtomicU64::new(0),
            degraded_replies: AtomicU64::new(0),
            deadline_errors: AtomicU64::new(0),
        };
        (rig, entered)
    }

    impl Rig {
        fn call(&self, seed: u64, deadline: Option<Duration>) -> Result<PlanReply, PlanError> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            let ctx = TraceContext::root();
            let out = self.planner.plan_opts(&request(seed), ctx, deadline);
            match &out {
                Ok(reply) if reply.degraded => &self.degraded_replies,
                Err(PlanError::DeadlineExceeded { .. }) => &self.deadline_errors,
                _ => return out,
            }
            .fetch_add(1, Ordering::SeqCst);
            out
        }

        /// Block until `n` requests (the leader included) hold the
        /// flight for `seed`. Call only while its leader is gated: a
        /// holder has already taken its place in the flight, so whatever
        /// the leader publishes next reaches it.
        fn flight_holds(&self, seed: u64, n: usize) {
            let canon = request(seed).canonical_json();
            let Entry::Follower(flight) = self.planner.flights.enter(&canon) else {
                panic!("no flight to join for seed {seed}")
            };
            // The registry and this probe hold one reference each.
            while Arc::strong_count(&flight) < n + 2 {
                std::thread::yield_now();
            }
        }

        /// With one slot and `full_queue_script()`: hold the slot on a
        /// gated search (seed 0), queue `QUEUE_CAPACITY` requests
        /// behind it (seeds 1..), and run `overflow` on a thread of its
        /// own while the queue is full; then let every held request
        /// finish, fresh. `overflow` must return within `HANG`.
        fn over_full_queue<T: Send>(
            &self,
            entered: &mpsc::Receiver<u64>,
            overflow: impl FnOnce() -> T + Send,
        ) -> T {
            std::thread::scope(|s| {
                let open = Open(&self.release);
                let held = s.spawn(|| self.call(0, None));
                entered.recv().unwrap();
                let queued: Vec<_> = (1..=QUEUE_CAPACITY as u64)
                    .map(|seed| s.spawn(move || self.call(seed, None)))
                    .collect();
                while self.planner.queue_depth() < QUEUE_CAPACITY {
                    std::thread::yield_now();
                }
                let (tx, rx) = mpsc::channel();
                s.spawn(move || tx.send(overflow()));
                let out = rx.recv_timeout(HANG);
                drop(open);
                for call in std::iter::once(held).chain(queued) {
                    let served = call.join().unwrap().map(|r| r.source);
                    assert_eq!(served, Ok(RequestSource::Fresh));
                }
                out.expect("a request over a full queue waited")
            })
        }

        fn cached(&self, seed: u64) -> Option<Answer> {
            let req = request(seed);
            self.planner.cache.answer(req.key(), &req.canonical_json())
        }

        fn kinds(&self) -> Vec<String> {
            let dump = self.planner.flight_dump();
            let events = dump.get("events").unwrap().as_array().unwrap();
            let kind = |e: &Value| e.get("kind").unwrap().as_str().unwrap().to_string();
            let mut kinds: Vec<String> = events.iter().map(kind).collect();
            kinds.sort();
            kinds
        }

        /// The conservation laws. `sources` is how the script's
        /// requests must have been accounted, `kinds` the recorder
        /// events they must have left (both as multisets).
        fn settled(&self, sources: &[RequestSource], kinds: &[&str]) {
            let planner = &self.planner;
            let (m, spans) = (planner.metrics(), planner.metrics().spans());
            let calls = self.calls.load(Ordering::SeqCst);

            // Exactly one terminal span per request, of the right kind.
            assert_eq!(m.requests(), calls, "one terminal record per request");
            let names = |s: &[RequestSource]| {
                let mut names: Vec<_> = s.iter().map(|s| s.name()).collect();
                names.sort_unstable();
                names
            };
            let got: Vec<_> = spans.iter().map(|s| s.source).collect();
            assert_eq!(names(&got), names(sources));
            let fresh = got.iter().filter(|&&s| s == RequestSource::Fresh).count() as u64;
            assert_eq!(
                m.requests(),
                m.cache_hits() + m.coalesced() + m.shed() + m.failures() + fresh
            );
            // Every coalesced request links a leader, and every link
            // names another request of this run.
            for s in &spans {
                let coalesced = s.source == RequestSource::Coalesced;
                assert!(!coalesced || s.link_trace_id != 0, "unlinked follower");
                let leader = |l: &&RequestSpan| l.trace_id == s.link_trace_id;
                let linked = spans.iter().find(leader).map(|l| l.span_id);
                assert!(s.link_trace_id == 0 || linked.is_some_and(|id| id != s.span_id));
            }
            // The outcome counters count replies, nothing else.
            let degraded = self.degraded_replies.load(Ordering::SeqCst);
            assert_eq!(m.degraded(), degraded, "degraded counter");
            let expired = self.deadline_errors.load(Ordering::SeqCst);
            assert_eq!(m.deadline_exceeded(), expired, "deadline counter");
            let mut want: Vec<_> = kinds.iter().map(|k| k.to_string()).collect();
            want.sort();
            assert_eq!(self.kinds(), want, "recorder events");

            // Nothing is left in flight or queued.
            assert_eq!(
                planner.flights.in_flight(),
                0,
                "a flight outlived its leader"
            );
            assert_eq!(planner.queue_depth(), 0);
            assert_eq!(
                planner.gate.tally().running,
                0,
                "a slot outlived its search"
            );
            // The cache holds full-budget plans and the scripted failure,
            // nothing else: no degraded plan, no panic, no abandoned
            // flight.
            for seed in 0..8 {
                match self.cached(seed) {
                    None => {}
                    Some(Ok(plan)) => {
                        assert_eq!(plan.total_evals, FULL_EVALS, "degraded plan cached")
                    }
                    Some(Err(msg)) => assert_eq!(msg, SCRIPTED_FAILURE, "impure failure cached"),
                }
            }
        }
    }

    use RequestSource::{Cache, Coalesced, Failed, Fresh, Shed};

    #[test]
    fn a_miss_leads_and_the_repeat_hits() {
        let (rig, _entered) = rig(PlannerConfig::default(), &[now(Found)]);
        assert_eq!(rig.call(1, None).unwrap().source, Fresh);
        assert_eq!(rig.call(1, None).unwrap().source, Cache);
        assert!(rig.cached(1).is_some_and(|a| a.is_ok()));
        let kinds = ["request.received", "cache.miss", "search.done", "cache.hit"];
        rig.settled(&[Fresh, Cache], &kinds);
    }

    #[test]
    fn followers_share_the_leaders_outcome() {
        for (end, leader, follower) in [(Found, Fresh, Coalesced), (Fail, Failed, Failed)] {
            let (rig, entered) = rig(PlannerConfig::default(), &[gated(end)]);
            let outcomes: Vec<_> = std::thread::scope(|s| {
                let calls: Vec<_> = (0..3).map(|_| s.spawn(|| rig.call(1, None))).collect();
                entered.recv().unwrap();
                rig.flight_holds(1, 3);
                rig.release.send(()).unwrap();
                calls.into_iter().map(|c| c.join().unwrap()).collect()
            });
            let ok = outcomes.iter().filter(|o| o.is_ok()).count();
            assert_eq!(ok, if leader == Fresh { 3 } else { 0 });
            assert_eq!(rig.planner.metrics().searches(), 1);
            let done = if leader == Fresh {
                "search.done"
            } else {
                "search.fail"
            };
            let kinds = [
                ["request.received", "cache.miss"].repeat(3),
                vec![done, "coalesce.follow", "coalesce.follow"],
            ]
            .concat();
            rig.settled(&[leader, follower, follower], &kinds);
            let spans = rig.planner.metrics().spans();
            let linked = spans.iter().filter(|s| s.link_trace_id != 0).count();
            assert_eq!(linked, 2, "both followers link the leader, failed or not");
        }
    }

    #[test]
    fn a_followers_own_deadline_does_not_disturb_the_leader() {
        let (rig, entered) = rig(PlannerConfig::default(), &[gated(Found)]);
        std::thread::scope(|s| {
            let leader = s.spawn(|| rig.call(1, None));
            entered.recv().unwrap();
            let err = rig.call(1, Some(Duration::from_millis(5))).unwrap_err();
            assert_eq!(err, PlanError::DeadlineExceeded { budget_ms: 5 });
            rig.release.send(()).unwrap();
            assert_eq!(leader.join().unwrap().unwrap().source, Fresh);
        });
        let kinds = [
            ["request.received", "cache.miss"].repeat(2),
            vec!["deadline.exceeded", "search.done"],
        ]
        .concat();
        rig.settled(&[Fresh, Failed], &kinds);
    }

    #[test]
    fn degraded_plans_reach_only_callers_with_a_deadline() {
        let minute = Some(Duration::from_secs(60));
        let steps = [gated(Degraded), now(Found)];
        let (rig, entered) = rig(PlannerConfig::default(), &steps);
        std::thread::scope(|s| {
            let leader = s.spawn(|| rig.call(1, minute));
            entered.recv().unwrap();
            let bounded = s.spawn(|| rig.call(1, minute));
            let unbounded = s.spawn(|| rig.call(1, None));
            rig.flight_holds(1, 3);
            rig.release.send(()).unwrap();
            let leader = leader.join().unwrap().unwrap();
            assert!(leader.degraded && leader.source == Fresh);
            // Bounded latency is what the deadlined follower asked for.
            let bounded = bounded.join().unwrap().unwrap();
            assert!(bounded.degraded && bounded.source == Coalesced);
            // The deadline-free one goes around again and leads the
            // full-budget search itself.
            let unbounded = unbounded.join().unwrap().unwrap();
            assert!(!unbounded.degraded && unbounded.source == Fresh);
            assert_eq!(unbounded.plan.total_evals, FULL_EVALS);
        });
        let cached = rig.cached(1).map(|a| a.map(|p| p.total_evals));
        assert_eq!(cached, Some(Ok(FULL_EVALS)));
        let kinds = [
            ["request.received", "cache.miss", "search.done"].repeat(2),
            vec!["request.received", "cache.miss"],
            vec!["deadline.degraded"],
            vec![
                "coalesce.follow",
                "coalesce.follow",
                "coalesce.degraded_retry",
            ],
        ]
        .concat();
        rig.settled(&[Fresh, Coalesced, Fresh], &kinds);
    }

    #[test]
    fn a_search_failure_is_a_cached_answer_and_a_panic_is_not() {
        let steps = [now(Fail), now(Panic), now(Found)];
        // One slot, so a panic that kept it would stall the last call.
        let (rig, _entered) = rig(PlannerConfig { workers: 1 }, &steps);
        let failed = Err(PlanError::Search(SCRIPTED_FAILURE.into()));
        assert_eq!(rig.call(1, None).map(|r| r.plan), failed);
        // The repeat is the same answer, from the cache, with no search.
        assert_eq!(rig.call(1, None).map(|r| r.plan), failed);
        assert_eq!(rig.planner.metrics().searches(), 1);
        let panicked = PlanError::Search("search worker panicked".into());
        assert_eq!(rig.call(2, None).unwrap_err(), panicked);
        // A panic says nothing about the next attempt: it searches, in
        // the slot the panic gave back. Leaked, so a call stuck at the
        // gate fails the test instead of hanging it.
        let rig: &'static Rig = Box::leak(Box::new(rig));
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(rig.call(2, None)));
        let retried = rx.recv_timeout(HANG).expect("the panic kept its slot");
        assert_eq!(retried.unwrap().source, Fresh);
        assert_eq!(rig.planner.metrics().searches(), 3);
        let kinds = [
            ["request.received", "cache.miss", "search.fail"].repeat(2),
            vec!["cache.hit", "request.received", "cache.miss", "search.done"],
        ]
        .concat();
        rig.settled(&[Failed, Cache, Failed, Fresh], &kinds);
    }

    #[test]
    fn waiters_are_admitted_in_arrival_order() {
        const WAITERS: u64 = 4;
        let mut steps = vec![gated(Found)];
        steps.resize(WAITERS as usize + 1, now(Found));
        let (rig, entered) = rig(PlannerConfig { workers: 1 }, &steps);
        let rig = &rig;
        std::thread::scope(|s| {
            let open = Open(&rig.release);
            let held = s.spawn(|| rig.call(0, None));
            assert_eq!(entered.recv().unwrap(), 0);
            // Each waiter joins the queue before the next one arrives.
            let waiters: Vec<_> = (1..=WAITERS)
                .map(|seed| {
                    let call = s.spawn(move || rig.call(seed, None));
                    while rig.planner.queue_depth() < seed as usize {
                        std::thread::yield_now();
                    }
                    call
                })
                .collect();
            drop(open);
            let order: Vec<u64> = entered.iter().take(WAITERS as usize).collect();
            assert_eq!(order, (1..=WAITERS).collect::<Vec<_>>(), "admission order");
            for call in std::iter::once(held).chain(waiters) {
                assert_eq!(call.join().unwrap().map(|r| r.source), Ok(Fresh));
            }
        });
        let n = WAITERS as usize + 1;
        let kinds = ["request.received", "cache.miss", "search.done"].repeat(n);
        rig.settled(&vec![Fresh; n], &kinds);
    }

    #[test]
    fn a_probe_with_no_verdict_gives_its_slot_back() {
        // Shed on a full queue, then expired in the queue: neither ran a
        // search, so neither is an answer — the key's slot stays empty
        // and its repeat goes through admission again.
        let twice = |rig: &Rig, deadline: Option<Duration>| {
            let err = rig.call(OVERFLOW, deadline).unwrap_err();
            assert!(rig.cached(OVERFLOW).is_none(), "{err} was cached");
            assert_eq!(rig.call(OVERFLOW, deadline).unwrap_err(), err);
            err
        };

        let (full, entered) = rig(PlannerConfig { workers: 1 }, &full_queue_script());
        let shed = full.over_full_queue(&entered, || twice(&full, None));
        assert_eq!(shed, OVERLOADED);
        let (mut sources, mut kinds) = full_queue_ends();
        sources.extend([Shed, Shed]);
        kinds.extend(["request.received", "cache.miss", "request.shed"].repeat(2));
        full.settled(&sources, &kinds);

        let (idle, _entered) = rig(PlannerConfig::default(), &[]);
        let expired = twice(&idle, Some(Duration::ZERO));
        assert_eq!(expired, PlanError::DeadlineExceeded { budget_ms: 0 });
        assert_eq!(idle.planner.metrics().searches(), 0);
        let kinds = ["request.received", "cache.miss", "deadline.exceeded"].repeat(2);
        idle.settled(&[Failed, Failed], &kinds);
    }

    #[test]
    fn queue_full_requests_get_structured_shed_errors_not_hangs() {
        let (rig, entered) = rig(PlannerConfig { workers: 1 }, &full_queue_script());
        let shed = rig.over_full_queue(&entered, || rig.call(OVERFLOW, None));
        assert_eq!(shed.unwrap_err(), OVERLOADED);
        // Every request the queue admitted was served.
        let m = rig.planner.metrics();
        assert_eq!((m.searches(), m.shed()), (QUEUE_CAPACITY as u64 + 1, 1));
        let (mut sources, mut kinds) = full_queue_ends();
        sources.push(Shed);
        kinds.extend(["request.received", "cache.miss", "request.shed"]);
        rig.settled(&sources, &kinds);
    }

    #[test]
    fn shed_followers_of_a_shed_leader_are_not_stranded() {
        // Identical requests over a full queue: whichever leads is shed,
        // and sheds whoever followed it rather than leaving them waiting.
        let (rig, entered) = rig(PlannerConfig { workers: 1 }, &full_queue_script());
        let outcomes = rig.over_full_queue(&entered, || {
            std::thread::scope(|s| {
                let calls: Vec<_> = (0..4)
                    .map(|_| s.spawn(|| rig.call(OVERFLOW, None)))
                    .collect();
                let calls = calls.into_iter().map(|c| c.join().unwrap());
                calls.collect::<Vec<_>>()
            })
        });
        for outcome in outcomes {
            assert_eq!(outcome.unwrap_err(), OVERLOADED);
        }
        assert_eq!(rig.planner.metrics().shed(), 4);
        assert_eq!(rig.planner.flights.in_flight(), 0);
    }

    #[test]
    fn a_leader_that_never_finishes_still_pays_its_debts() {
        let (rig, _entered) = rig(PlannerConfig::default(), &[]);
        let planner = &rig.planner;
        let follower = std::thread::scope(|s| {
            let req = request(1);
            let canon = req.canonical_json();
            let Entry::Leader(flight) = planner.flights.enter(&canon) else {
                panic!("first entrant leads")
            };
            // Bounded, so a follower left stranded fails the test
            // instead of hanging it.
            let follower = s.spawn(|| rig.call(1, Some(Duration::from_secs(5))));
            rig.flight_holds(1, 2);
            // A request that became the leader, and then unwound before
            // `finish`.
            rig.calls.fetch_add(1, Ordering::SeqCst);
            let mut rq = Request {
                planner,
                ctx: TraceContext::root(),
                label: req.label(),
                key: req.key(),
                canon,
                t0: planner.metrics.now_ns(),
                deadline_at: None,
                budget_ms: 0,
                source: Failed,
                link_trace_id: 0,
                degraded: false,
                deadline_exceeded: false,
                ran: None,
                strategies: Vec::new(),
            };
            drop(Lead {
                rq: &mut rq,
                flight: Some(flight),
            });
            drop(rq);
            follower.join().unwrap()
        });
        assert!(
            matches!(follower, Err(PlanError::Search(_))),
            "{follower:?}"
        );
        // The abandoned flight is not an answer.
        assert!(rig.cached(1).is_none());
        let kinds = ["request.received", "cache.miss", "coalesce.follow"];
        rig.settled(&[Failed, Failed], &kinds);
    }
}
