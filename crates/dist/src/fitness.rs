//! Evaluation functions for distribution search.
//!
//! MHETA is the evaluation function (§5.3: "MHETA is used as part of
//! four different algorithms … to determine an effective distribution
//! \[26\]"); the trait indirection lets tests plug in synthetic
//! fitness landscapes.
//!
//! Evaluation is *fallible*: when the model (or a measured run behind
//! it) fails — bad profile data, an injected fault, a crashed rank —
//! the search must not abort. [`Evaluator::try_eval_ns`] surfaces the
//! error; the provided [`Evaluator::eval_ns`] converts it into an
//! infinite penalty score so every search simply never selects the
//! failed candidate. [`CountingEvaluator`] additionally retries failed
//! evaluations and keeps failure/retry tallies for [`SearchOutcome`].
//!
//! [`SearchOutcome`]: crate::search::SearchOutcome

use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mheta_core::Mheta;

use crate::delta::{DeltaEvaluator, DeltaSession, DeltaStats};

/// Log₂-bucketed histogram of per-evaluation *wall-clock* latencies —
/// the cost axis of the paper's §5.1 claim that one MHETA evaluation
/// takes milliseconds where a measured run takes minutes.
///
/// Bucket `i` counts samples in `[2^(i-1), 2^i)` ns, with bucket 0
/// counting zero-valued samples; 65 buckets cover the full `u64`
/// range. Quantiles are bucket-resolution approximations (upper bucket
/// bound), which is plenty for an order-of-magnitude latency claim.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct LatencyHistogram {
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

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: vec![0; 65],
            count: 0,
            sum_ns: 0,
            min_ns: 0,
            max_ns: 0,
        }
    }
}

impl LatencyHistogram {
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
    /// recorded every sample itself, so quantiles over a portfolio of
    /// concurrent searches aggregate without approximation.
    pub fn merge(&mut self, other: &LatencyHistogram) {
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

/// Shared control block for concurrent (portfolio) searches: an atomic
/// incumbent-best score, a cross-worker evaluation tally, and a
/// cooperative cancellation flag.
///
/// Every search wired to the same `SearchCtl` (via the `ctl` field of
/// its config) publishes each evaluation through [`SearchCtl::observe`]
/// and polls [`SearchCtl::is_cancelled`] between evaluations. The
/// control block cancels all attached searches once any of its
/// criteria is met:
///
/// * **budget** — the *combined* evaluation count reaches
///   `max_total_evals`;
/// * **convergence** — no search improved the incumbent for
///   `stall_evals` combined evaluations;
/// * **target** — the incumbent reached `target_ns`;
/// * **deadline** — the wall clock passed a configured [`Instant`]
///   (see [`SearchCtl::with_deadline`]). Deadline trips are flagged
///   separately ([`SearchCtl::deadline_hit`]) so a caller can tell a
///   time-bounded *degraded* result from an ordinary early stop.
///
/// All state is atomic; `observe` is lock-free and safe from any number
/// of worker threads. Scores are nonnegative nanoseconds, so the
/// incumbent is maintained by a CAS-min on the raw IEEE-754 bits
/// (order-preserving for nonnegative floats, `INFINITY` included).
#[derive(Debug)]
pub struct SearchCtl {
    best_bits: AtomicU64,
    evals: AtomicUsize,
    last_improve: AtomicUsize,
    cancelled: AtomicBool,
    deadline_hit: AtomicBool,
    max_total_evals: usize,
    stall_evals: usize,
    target_ns: f64,
    deadline: Option<Instant>,
}

impl Default for SearchCtl {
    fn default() -> Self {
        SearchCtl::unlimited()
    }
}

impl SearchCtl {
    /// A control block with every cancellation criterion disabled:
    /// pure incumbent sharing and manual [`SearchCtl::cancel`].
    #[must_use]
    pub fn unlimited() -> Self {
        SearchCtl {
            best_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            evals: AtomicUsize::new(0),
            last_improve: AtomicUsize::new(0),
            cancelled: AtomicBool::new(false),
            deadline_hit: AtomicBool::new(false),
            max_total_evals: 0,
            stall_evals: 0,
            target_ns: 0.0,
            deadline: None,
        }
    }

    /// Cancel all attached searches once the combined evaluation count
    /// reaches `max_total_evals` (0 disables the criterion).
    #[must_use]
    pub fn with_budget(mut self, max_total_evals: usize) -> Self {
        self.max_total_evals = max_total_evals;
        self
    }

    /// Cancel once `stall_evals` combined evaluations pass without an
    /// incumbent improvement (0 disables the criterion).
    #[must_use]
    pub fn with_stall(mut self, stall_evals: usize) -> Self {
        self.stall_evals = stall_evals;
        self
    }

    /// Cancel once the incumbent is at or below `target_ns`
    /// (nonpositive disables the criterion).
    #[must_use]
    pub fn with_target_ns(mut self, target_ns: f64) -> Self {
        self.target_ns = target_ns;
        self
    }

    /// Cancel once the wall clock reaches `deadline`. The criterion is
    /// polled on every [`SearchCtl::observe`] (evaluations are the unit
    /// of cooperative cancellation), so an expired deadline stops the
    /// attached searches after at most one in-flight evaluation each —
    /// the incumbent found so far stays available through
    /// [`SearchCtl::best_ns`].
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Publish one completed evaluation's score (failed evaluations
    /// publish their `INFINITY` penalty). Updates the incumbent and
    /// trips cancellation when a criterion is met.
    pub fn observe(&self, score_ns: f64) {
        let n = self.evals.fetch_add(1, Ordering::Relaxed) + 1;
        let bits = score_ns.max(0.0).to_bits();
        let mut cur = self.best_bits.load(Ordering::Relaxed);
        let mut improved = false;
        while bits < cur {
            match self.best_bits.compare_exchange_weak(
                cur,
                bits,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    improved = true;
                    break;
                }
                Err(seen) => cur = seen,
            }
        }
        if improved {
            self.last_improve.store(n, Ordering::Relaxed);
        }
        if self.max_total_evals > 0 && n >= self.max_total_evals {
            self.cancel();
        }
        if self.stall_evals > 0
            && n.saturating_sub(self.last_improve.load(Ordering::Relaxed)) >= self.stall_evals
        {
            self.cancel();
        }
        if self.target_ns > 0.0 && self.best_ns() <= self.target_ns {
            self.cancel();
        }
        self.poll_deadline();
    }

    /// Trip cancellation if a configured deadline has passed. Called
    /// from [`SearchCtl::observe`]; long-running searches may also poll
    /// it directly between coarser phases.
    pub fn poll_deadline(&self) {
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                self.deadline_hit.store(true, Ordering::Relaxed);
                self.cancel();
            }
        }
    }

    /// True once the deadline criterion (and not merely another
    /// criterion or a manual [`SearchCtl::cancel`]) has tripped.
    #[must_use]
    pub fn deadline_hit(&self) -> bool {
        self.deadline_hit.load(Ordering::Relaxed)
    }

    /// Request cooperative cancellation of every attached search.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// True once cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// The incumbent-best score across all attached searches
    /// (`INFINITY` until the first finite observation).
    #[must_use]
    pub fn best_ns(&self) -> f64 {
        f64::from_bits(self.best_bits.load(Ordering::Relaxed))
    }

    /// Combined evaluations observed across all attached searches.
    #[must_use]
    pub fn evals(&self) -> usize {
        self.evals.load(Ordering::Relaxed)
    }
}

/// Why one evaluation failed. Carries a human-readable message from
/// the underlying model or measurement machinery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError(pub String);

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "evaluation failed: {}", self.0)
    }
}

impl std::error::Error for EvalError {}

/// Anything that can score a distribution; lower is better.
pub trait Evaluator {
    /// Predicted (or measured) iteration time for `rows`, ns, or why
    /// the evaluation could not produce one.
    fn try_eval_ns(&self, rows: &[usize]) -> Result<f64, EvalError>;

    /// Infallible view: failed evaluations score `f64::INFINITY`, the
    /// penalty fitness that keeps a search moving past faulty
    /// candidates without ever selecting them.
    fn eval_ns(&self, rows: &[usize]) -> f64 {
        self.try_eval_ns(rows).unwrap_or(f64::INFINITY)
    }

    /// Open an evaluation session over this evaluator — the seam every
    /// search scores through. A session may cache the per-rank cost
    /// leaves of the last accepted distribution and answer near-miss
    /// candidates by recomputing only the touched ranks —
    /// bitwise-identical to [`Evaluator::try_eval_ns`], just cheaper.
    /// The default is the degenerate session of an evaluator with no
    /// incremental support: every evaluation is a plain `try_eval_ns`
    /// call and the [`DeltaStats`] stay all-zero. [`Mheta`] overrides it
    /// with a caching [`DeltaEvaluator`].
    fn delta_session(&self) -> Box<dyn DeltaSession + '_> {
        Box::new(FullSession(self))
    }
}

/// The session of an evaluator with no incremental support (closures,
/// [`FallibleFn`]): stateless, always evaluating in full.
struct FullSession<'a, E: Evaluator + ?Sized>(&'a E);

impl<E: Evaluator + ?Sized> DeltaSession for FullSession<'_, E> {
    fn try_eval_ns(&mut self, rows: &[usize]) -> Result<f64, EvalError> {
        self.0.try_eval_ns(rows)
    }

    fn note_accept(&mut self, _rows: &[usize]) {}

    fn stats(&self) -> DeltaStats {
        DeltaStats::default()
    }
}

impl Evaluator for Mheta {
    fn try_eval_ns(&self, rows: &[usize]) -> Result<f64, EvalError> {
        self.predict(rows)
            .map(|p| p.iteration_ns)
            .map_err(|e| EvalError(e.to_string()))
    }

    fn delta_session(&self) -> Box<dyn DeltaSession + '_> {
        Box::new(DeltaEvaluator::new(self))
    }
}

impl<F> Evaluator for F
where
    F: Fn(&[usize]) -> f64,
{
    fn try_eval_ns(&self, rows: &[usize]) -> Result<f64, EvalError> {
        Ok(self(rows))
    }
}

/// Adapter turning a `Result`-returning closure into an [`Evaluator`];
/// the natural way to plug a fallible measured run (or a fault-
/// injecting test fixture) into a search.
pub struct FallibleFn<F>(pub F);

impl<F> Evaluator for FallibleFn<F>
where
    F: Fn(&[usize]) -> Result<f64, EvalError>,
{
    fn try_eval_ns(&self, rows: &[usize]) -> Result<f64, EvalError> {
        (self.0)(rows)
    }
}

/// Wraps an evaluator and counts calls — the "number of MHETA
/// evaluations" axis of the search-algorithm comparison — and
/// transparently retries failed evaluations (up to `attempts` tries)
/// before letting the penalty score through.
///
/// Every attempt — first try or retry — goes through the one
/// [`DeltaSession`] opened on the wrapped evaluator, which is what
/// keeps count/latency/ctl at exactly one observation per logical
/// candidate whether the session answered incrementally or in full.
pub struct CountingEvaluator<'a> {
    session: RefCell<Box<dyn DeltaSession + 'a>>,
    count: Cell<usize>,
    failed: Cell<usize>,
    retried: Cell<usize>,
    last_error: RefCell<Option<EvalError>>,
    latency: RefCell<LatencyHistogram>,
    /// Attempts per logical evaluation (1 = no retry).
    attempts: u32,
    /// Optional shared portfolio control: every evaluation is published
    /// to it, and the owning search polls [`CountingEvaluator::cancelled`].
    ctl: Option<Arc<SearchCtl>>,
}

impl<'a> CountingEvaluator<'a> {
    /// Wrap a session over `inner`, allowing up to `attempts` tries per
    /// evaluation (clamped to at least one; 1 = fail fast) and
    /// publishing every evaluation to `ctl` when one is shared
    /// (portfolio search).
    pub fn new<E: Evaluator + ?Sized>(
        inner: &'a E,
        attempts: u32,
        ctl: Option<Arc<SearchCtl>>,
    ) -> Self {
        CountingEvaluator {
            session: RefCell::new(inner.delta_session()),
            count: Cell::new(0),
            failed: Cell::new(0),
            retried: Cell::new(0),
            last_error: RefCell::new(None),
            latency: RefCell::new(LatencyHistogram::default()),
            attempts: attempts.max(1),
            ctl,
        }
    }

    /// True when an attached [`SearchCtl`] has requested cancellation;
    /// searches poll this between evaluations and stop early, keeping
    /// their best-so-far outcome.
    #[must_use]
    pub fn cancelled(&self) -> bool {
        self.ctl.as_ref().is_some_and(|c| c.is_cancelled())
    }

    /// Logical evaluations performed so far (retries of the same
    /// candidate count once — they spend wall-clock, not budget).
    #[must_use]
    pub fn count(&self) -> usize {
        self.count.get()
    }

    /// Evaluations that still failed after all retry attempts.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.failed.get()
    }

    /// Failed attempts that were absorbed by a retry.
    #[must_use]
    pub fn retries(&self) -> usize {
        self.retried.get()
    }

    /// The most recent failure observed, if any.
    #[must_use]
    pub fn last_error(&self) -> Option<EvalError> {
        self.last_error.borrow().clone()
    }

    /// Wall-clock latency histogram of the logical evaluations so far
    /// (a retried evaluation's attempts are timed as one sample — they
    /// spend the caller's wall-clock together).
    #[must_use]
    pub fn eval_latency(&self) -> LatencyHistogram {
        self.latency.borrow().clone()
    }

    /// Snapshot of the session's counters (all-zero when the wrapped
    /// evaluator has no incremental support).
    #[must_use]
    pub fn delta_stats(&self) -> DeltaStats {
        self.session.borrow().stats()
    }

    /// Tell the session `rows` is the new accepted base, so future
    /// candidates diff against it.
    pub fn note_accept(&self, rows: &[usize]) {
        self.session.borrow_mut().note_accept(rows);
    }
}

impl Evaluator for CountingEvaluator<'_> {
    fn try_eval_ns(&self, rows: &[usize]) -> Result<f64, EvalError> {
        let started = Instant::now();
        let mut attempt = 1;
        let result = loop {
            let tried = self.session.borrow_mut().try_eval_ns(rows);
            match tried {
                Ok(score) => break Ok(score),
                Err(e) if attempt < self.attempts => {
                    self.retried.set(self.retried.get() + 1);
                    *self.last_error.borrow_mut() = Some(e);
                    attempt += 1;
                }
                Err(e) => break Err(e),
            }
        };
        // Settle the logical evaluation: exactly one count, one latency
        // sample, and one `SearchCtl::observe`, regardless of retries or
        // the delta/full path the session took — the invariant `tests`
        // pin as the double-count fix.
        let elapsed = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.count.set(self.count.get() + 1);
        self.latency.borrow_mut().record(elapsed);
        if let Err(e) = &result {
            self.failed.set(self.failed.get() + 1);
            *self.last_error.borrow_mut() = Some(e.clone());
        }
        if let Some(ctl) = &self.ctl {
            ctl.observe(result.as_ref().map_or(f64::INFINITY, |score| *score));
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closures_are_evaluators() {
        let f = |rows: &[usize]| rows[0] as f64;
        assert_eq!(f.eval_ns(&[7, 1]), 7.0);
        assert_eq!(f.try_eval_ns(&[7, 1]), Ok(7.0));
    }

    #[test]
    fn counting_wrapper_counts() {
        let f = |_: &[usize]| 1.0;
        let c = CountingEvaluator::new(&f, 1, None);
        for _ in 0..5 {
            c.eval_ns(&[1]);
        }
        assert_eq!(c.count(), 5);
        assert_eq!(c.failed(), 0);
        assert_eq!(c.retries(), 0);
        assert!(c.last_error().is_none());
    }

    #[test]
    fn failures_become_infinite_penalty() {
        let f = FallibleFn(|_: &[usize]| Err(EvalError("rank 2 died".into())));
        let c = CountingEvaluator::new(&f, 1, None);
        assert_eq!(c.eval_ns(&[1, 2]), f64::INFINITY);
        assert_eq!(c.failed(), 1);
        assert_eq!(c.retries(), 0);
        assert_eq!(c.last_error().unwrap().0, "rank 2 died");
    }

    #[test]
    fn retries_absorb_intermittent_failures() {
        // Fails on every odd-numbered attempt.
        let calls = Cell::new(0u32);
        let f = FallibleFn(|rows: &[usize]| {
            calls.set(calls.get() + 1);
            if calls.get() % 2 == 1 {
                Err(EvalError("transient".into()))
            } else {
                Ok(rows[0] as f64)
            }
        });
        let c = CountingEvaluator::new(&f, 2, None);
        assert_eq!(c.try_eval_ns(&[9]), Ok(9.0));
        assert_eq!(c.count(), 1, "retry does not spend budget");
        assert_eq!(c.retries(), 1);
        assert_eq!(c.failed(), 0);
        assert_eq!(c.last_error().unwrap().0, "transient");
    }

    #[test]
    fn exhausted_retries_count_as_failed() {
        let f = FallibleFn(|_: &[usize]| Err(EvalError("persistent".into())));
        let c = CountingEvaluator::new(&f, 3, None);
        assert!(c.try_eval_ns(&[1]).is_err());
        assert_eq!(c.count(), 1);
        assert_eq!(c.retries(), 2, "two absorbed attempts");
        assert_eq!(c.failed(), 1, "one final failure");
    }

    #[test]
    fn zero_attempts_clamps_to_one() {
        let f = |_: &[usize]| 4.0;
        let c = CountingEvaluator::new(&f, 0, None);
        assert_eq!(c.eval_ns(&[1]), 4.0);
        assert_eq!(c.count(), 1);
    }

    #[test]
    fn eval_error_displays_message() {
        let e = EvalError("profile missing".into());
        assert_eq!(e.to_string(), "evaluation failed: profile missing");
    }

    #[test]
    fn merged_histograms_match_recording_into_one() {
        // Split one sample stream across three per-worker histograms,
        // merge, and require bitwise equality with a single histogram
        // that recorded every sample — quantiles included.
        let samples: Vec<u64> = (0..200u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9) % 1_000_000)
            .collect();
        let mut whole = LatencyHistogram::default();
        let mut parts = [
            LatencyHistogram::default(),
            LatencyHistogram::default(),
            LatencyHistogram::default(),
        ];
        for (i, &s) in samples.iter().enumerate() {
            whole.record(s);
            parts[i % 3].record(s);
        }
        let mut merged = LatencyHistogram::default();
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
        merged.merge(&LatencyHistogram::default());
        assert_eq!(merged, before);
        let mut empty = LatencyHistogram::default();
        empty.merge(&whole);
        assert_eq!(empty, whole);
    }

    #[test]
    fn search_ctl_tracks_incumbent_and_budget() {
        let ctl = SearchCtl::unlimited().with_budget(3);
        ctl.observe(10.0);
        ctl.observe(7.0);
        assert_eq!(ctl.best_ns(), 7.0);
        assert!(!ctl.is_cancelled());
        ctl.observe(9.0);
        assert!(ctl.is_cancelled(), "budget of 3 reached");
        assert_eq!(ctl.evals(), 3);
        assert_eq!(ctl.best_ns(), 7.0);
    }

    #[test]
    fn search_ctl_stall_and_target_criteria() {
        let ctl = SearchCtl::unlimited().with_stall(2);
        ctl.observe(5.0);
        ctl.observe(6.0);
        assert!(!ctl.is_cancelled(), "one eval since improvement");
        ctl.observe(6.0);
        assert!(ctl.is_cancelled(), "two evals without improvement");

        let ctl = SearchCtl::unlimited().with_target_ns(4.0);
        ctl.observe(5.0);
        assert!(!ctl.is_cancelled());
        ctl.observe(3.5);
        assert!(ctl.is_cancelled(), "target reached");
    }

    #[test]
    fn counting_evaluator_publishes_to_ctl() {
        let ctl = Arc::new(SearchCtl::unlimited());
        let f = |rows: &[usize]| rows[0] as f64;
        let c = CountingEvaluator::new(&f, 1, Some(Arc::clone(&ctl)));
        c.eval_ns(&[8]);
        c.eval_ns(&[3]);
        assert_eq!(ctl.best_ns(), 3.0);
        assert_eq!(ctl.evals(), 2);
        assert!(!c.cancelled());
        ctl.cancel();
        assert!(c.cancelled());

        // Failures publish the penalty score without improving the best.
        let failing = FallibleFn(|_: &[usize]| Err(EvalError("down".into())));
        let c = CountingEvaluator::new(&failing, 1, Some(Arc::clone(&ctl)));
        let _ = c.try_eval_ns(&[1]);
        assert_eq!(ctl.evals(), 3);
        assert_eq!(ctl.best_ns(), 3.0);
    }

    /// Synthetic delta-evaluable model: per-rank leaf cost is
    /// `rows · weight[rank]`, the score is the (fixed-order) sum.
    /// `fail_every` > 0 makes every Nth `rank_cost` call fail, for
    /// pinning the retry/poison seams.
    struct SyntheticModel {
        weights: Vec<f64>,
        rank_cost_calls: AtomicUsize,
        fail_every: usize,
    }

    impl SyntheticModel {
        fn new(weights: Vec<f64>) -> Self {
            SyntheticModel {
                weights,
                rank_cost_calls: AtomicUsize::new(0),
                fail_every: 0,
            }
        }

        fn leaf(&self, rank: usize, rows: usize) -> f64 {
            rows as f64 * self.weights[rank]
        }
    }

    impl Evaluator for SyntheticModel {
        fn try_eval_ns(&self, rows: &[usize]) -> Result<f64, EvalError> {
            let mut total = 0.0;
            for (i, &r) in rows.iter().enumerate() {
                total += self.leaf(i, r);
            }
            Ok(total)
        }

        fn delta_session(&self) -> Box<dyn DeltaSession + '_> {
            Box::new(DeltaEvaluator::new(self))
        }
    }

    impl crate::delta::DeltaModel for SyntheticModel {
        fn leaf_len(&self) -> usize {
            1
        }

        fn leaf_terms(&self) -> usize {
            1
        }

        fn rank_cost(&self, rank: usize, rows: usize, out: &mut [f64]) -> Result<(), EvalError> {
            let n = self.rank_cost_calls.fetch_add(1, Ordering::Relaxed) + 1;
            if self.fail_every > 0 && n.is_multiple_of(self.fail_every) {
                return Err(EvalError("injected leaf fault".into()));
            }
            out[0] = self.leaf(rank, rows);
            Ok(())
        }

        fn assemble(
            &self,
            _rows: &[usize],
            leaves: &[f64],
            _scratch: &mut Vec<f64>,
        ) -> Result<f64, EvalError> {
            let mut total = 0.0;
            for leaf in leaves {
                total += leaf;
            }
            Ok(total)
        }
    }

    #[test]
    fn delta_paths_count_once_per_logical_candidate() {
        // The double-count seam fix, pinned: cold full evals, delta
        // fast paths, and memo hits each settle exactly one count, one
        // latency sample, and one ctl observation.
        let model = SyntheticModel::new(vec![1.0, 2.0, 3.0, 4.0]);
        let ctl = Arc::new(SearchCtl::unlimited());
        let c = CountingEvaluator::new(&model, 1, Some(Arc::clone(&ctl)));

        let base = [10usize, 10, 10, 10];
        let a = c.try_eval_ns(&base).unwrap();
        assert_eq!(a.to_bits(), model.try_eval_ns(&base).unwrap().to_bits());
        let shifted = [9usize, 11, 10, 10];
        let b = c.try_eval_ns(&shifted).unwrap();
        assert_eq!(b.to_bits(), model.try_eval_ns(&shifted).unwrap().to_bits());
        c.note_accept(&shifted);
        let b2 = c.try_eval_ns(&shifted).unwrap();
        assert_eq!(b2.to_bits(), b.to_bits());

        assert_eq!(c.count(), 3, "three logical candidates");
        assert_eq!(c.eval_latency().count, 3, "one latency sample each");
        assert_eq!(ctl.evals(), 3, "one ctl observation each");
        let d = c.delta_stats();
        assert_eq!(d.full_evals, 1, "only the cold start was full");
        assert_eq!(d.delta_hits, 2, "partial reuse + memo hit");
        assert_eq!(d.fallback_cold, 1);
        // Cold: 4 rank_cost calls; shifted: 2 dirty ranks; memo: 0.
        assert_eq!(model.rank_cost_calls.load(Ordering::Relaxed), 6);
        // Partial eval reused 2 of 4 leaves; memo hit reused all 4.
        assert_eq!(d.terms_reused, 2 + 4);
    }

    #[test]
    fn delta_retries_count_once_and_errors_poison() {
        // rank_cost fails on its 3rd call: the cold eval of a 2-rank
        // distribution survives, the next candidate's first attempt
        // dies mid-leaf (poisoning the cache), and the retry — now
        // cold again — succeeds. Still exactly one count, one latency
        // sample, and one ctl observation per logical candidate.
        let model = SyntheticModel {
            fail_every: 3,
            ..SyntheticModel::new(vec![1.0, 2.0])
        };
        let ctl = Arc::new(SearchCtl::unlimited());
        let c = CountingEvaluator::new(&model, 2, Some(Arc::clone(&ctl)));

        let base = [8usize, 8];
        assert!(c.try_eval_ns(&base).is_ok());
        let shifted = [7usize, 9];
        let s = c.try_eval_ns(&shifted).unwrap();
        assert_eq!(s.to_bits(), model.try_eval_ns(&shifted).unwrap().to_bits());

        assert_eq!(c.count(), 2, "retry spends no budget");
        assert_eq!(c.retries(), 1);
        assert_eq!(c.failed(), 0);
        assert_eq!(c.eval_latency().count, 2);
        assert_eq!(ctl.evals(), 2);
        let d = c.delta_stats();
        assert_eq!(d.fallback_error, 1, "the poisoned attempt");
        assert_eq!(d.full_evals, 2, "cold start + post-poison retry");
        assert_eq!(d.delta_hits, 0, "the poisoned delta path never answered");
        assert_eq!(d.fallback_cold, 2, "cache was cold again after poisoning");
        assert_eq!(c.last_error().unwrap().0, "injected leaf fault");
    }
}
