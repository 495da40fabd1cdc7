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
//! failed candidate. Every search additionally retries failed
//! evaluations (`eval_retries` in its config) and keeps failure/retry
//! tallies for its [`SearchOutcome`].
//!
//! [`SearchOutcome`]: crate::search::SearchOutcome

use std::cell::{Cell, RefCell};
use std::fmt;
use std::time::Instant;

use mheta_core::Mheta;

use crate::delta::{DeltaEvaluator, DeltaSession, DeltaStats};

/// Control block of one portfolio search: the incumbent-best score,
/// the evaluation tally across the strategies run so far, and a
/// cooperative cancellation flag.
///
/// The portfolio runs its strategies one after another on the caller's
/// thread, each scoring through a [`CountingEvaluator`] that borrows
/// the same `SearchCtl`: every evaluation is published through
/// [`SearchCtl::observe`], and the running search polls
/// [`SearchCtl::is_cancelled`] between evaluations. The incumbent is
/// read by the stall and target tests only, never by a strategy. The
/// control block cancels the search once any of its criteria is met:
///
/// * **budget** — the *combined* evaluation count reaches
///   `max_total_evals`;
/// * **convergence** — the incumbent did not improve for `stall_evals`
///   combined evaluations;
/// * **target** — the incumbent reached `target_ns`;
/// * **deadline** — the wall clock passed a configured [`Instant`]
///   (see [`SearchCtl::with_deadline`]). Deadline trips are flagged
///   separately ([`SearchCtl::deadline_hit`]) so a caller can tell a
///   time-bounded *degraded* result from an ordinary early stop.
///
/// The first three count evaluations, so what they cut off is a pure
/// function of the search's inputs; only the deadline reads a clock.
#[derive(Debug)]
pub(crate) struct SearchCtl {
    best_ns: Cell<f64>,
    evals: Cell<usize>,
    last_improve: Cell<usize>,
    cancelled: Cell<bool>,
    deadline_hit: Cell<bool>,
    max_total_evals: usize,
    stall_evals: usize,
    target_ns: f64,
    deadline: Option<Instant>,
}

impl SearchCtl {
    /// A control block with every cancellation criterion disabled.
    pub(crate) fn unlimited() -> Self {
        SearchCtl {
            best_ns: Cell::new(f64::INFINITY),
            evals: Cell::new(0),
            last_improve: Cell::new(0),
            cancelled: Cell::new(false),
            deadline_hit: Cell::new(false),
            max_total_evals: 0,
            stall_evals: 0,
            target_ns: 0.0,
            deadline: None,
        }
    }

    /// Cancel once the combined evaluation count reaches
    /// `max_total_evals` (0 disables the criterion).
    pub(crate) fn with_budget(mut self, max_total_evals: usize) -> Self {
        self.max_total_evals = max_total_evals;
        self
    }

    /// Cancel once `stall_evals` combined evaluations pass without an
    /// incumbent improvement (0 disables the criterion).
    pub(crate) fn with_stall(mut self, stall_evals: usize) -> Self {
        self.stall_evals = stall_evals;
        self
    }

    /// Cancel once the incumbent is at or below `target_ns`
    /// (nonpositive disables the criterion).
    pub(crate) fn with_target_ns(mut self, target_ns: f64) -> Self {
        self.target_ns = target_ns;
        self
    }

    /// Cancel once the wall clock reaches `deadline` (`None` disables
    /// the criterion, and with it every clock read). The criterion is
    /// polled on every [`SearchCtl::observe`] (evaluations are the unit
    /// of cooperative cancellation), so an expired deadline stops the
    /// running search after at most one more evaluation — the incumbent
    /// found so far stays available through [`SearchCtl::best_ns`].
    pub(crate) fn with_deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Publish one completed evaluation's score (failed evaluations
    /// publish their `INFINITY` penalty). Updates the incumbent and
    /// trips cancellation when a criterion is met.
    pub(crate) fn observe(&self, score_ns: f64) {
        let n = self.evals.get() + 1;
        self.evals.set(n);
        // A NaN score compares false here: like a failed evaluation's
        // `INFINITY`, it is never an incumbent.
        if score_ns < self.best_ns.get() {
            self.best_ns.set(score_ns);
            self.last_improve.set(n);
        }
        if self.max_total_evals > 0 && n >= self.max_total_evals {
            self.cancel();
        }
        if self.stall_evals > 0 && n - self.last_improve.get() >= self.stall_evals {
            self.cancel();
        }
        if self.target_ns > 0.0 && self.best_ns() <= self.target_ns {
            self.cancel();
        }
        self.poll_deadline();
    }

    /// Trip cancellation if a configured deadline has passed. Called
    /// from [`SearchCtl::observe`], and once by the portfolio before
    /// its first evaluation.
    pub(crate) fn poll_deadline(&self) {
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            self.deadline_hit.set(true);
            self.cancel();
        }
    }

    /// True once the deadline criterion (and not merely another
    /// criterion) has tripped.
    pub(crate) fn deadline_hit(&self) -> bool {
        self.deadline_hit.get()
    }

    /// Request cooperative cancellation of the running search and of
    /// every strategy still to run.
    pub(crate) fn cancel(&self) {
        self.cancelled.set(true);
    }

    /// True once cancellation has been requested.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancelled.get()
    }

    /// The incumbent-best score across the strategies run so far
    /// (`INFINITY` until the first finite observation).
    pub(crate) fn best_ns(&self) -> f64 {
        self.best_ns.get()
    }

    /// Combined evaluations observed so far.
    #[cfg(test)]
    pub(crate) fn evals(&self) -> usize {
        self.evals.get()
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

/// A model's score, or the error a non-finite one is: a NaN or infinite
/// prediction comes from a non-finite model input, not from the
/// distribution, and must never compete with a real time.
pub(crate) fn finite_score(ns: f64) -> Result<f64, EvalError> {
    if ns.is_finite() {
        Ok(ns)
    } else {
        Err(EvalError(format!("non-finite predicted time {ns}")))
    }
}

impl Evaluator for Mheta {
    /// [`Mheta::predict`]'s iteration time; a non-finite one is an
    /// [`EvalError`], exactly as a session's
    /// [`DeltaModel::assemble`](crate::DeltaModel::assemble) reports it.
    fn try_eval_ns(&self, rows: &[usize]) -> Result<f64, EvalError> {
        let prediction = self.predict(rows).map_err(|e| EvalError(e.to_string()))?;
        finite_score(prediction.iteration_ns)
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
/// keeps the count and the control block at exactly one observation
/// per logical candidate whether the session answered incrementally or
/// in full.
pub(crate) struct CountingEvaluator<'a> {
    session: RefCell<Box<dyn DeltaSession + 'a>>,
    count: Cell<usize>,
    failed: Cell<usize>,
    retried: Cell<usize>,
    last_error: RefCell<Option<EvalError>>,
    /// Attempts per logical evaluation (1 = no retry).
    attempts: u32,
    /// The portfolio's control block, when a portfolio is running this
    /// search: every evaluation is published to it, and the search
    /// polls [`CountingEvaluator::cancelled`].
    ctl: Option<&'a SearchCtl>,
}

impl<'a> CountingEvaluator<'a> {
    /// Wrap a session over `inner`, allowing up to `attempts` tries per
    /// evaluation (clamped to at least one; 1 = fail fast) and
    /// publishing every evaluation to `ctl` when there is one
    /// (portfolio search).
    pub(crate) fn new<E: Evaluator + ?Sized>(
        inner: &'a E,
        attempts: u32,
        ctl: Option<&'a SearchCtl>,
    ) -> Self {
        CountingEvaluator {
            session: RefCell::new(inner.delta_session()),
            count: Cell::new(0),
            failed: Cell::new(0),
            retried: Cell::new(0),
            last_error: RefCell::new(None),
            attempts: attempts.max(1),
            ctl,
        }
    }

    /// True when the portfolio's [`SearchCtl`] has requested
    /// cancellation; searches poll this between evaluations and stop
    /// early, keeping their best-so-far outcome.
    pub(crate) fn cancelled(&self) -> bool {
        self.ctl.is_some_and(SearchCtl::is_cancelled)
    }

    /// Logical evaluations performed so far (retries of the same
    /// candidate count once — they spend wall-clock, not budget).
    pub(crate) fn count(&self) -> usize {
        self.count.get()
    }

    /// Evaluations that still failed after all retry attempts.
    pub(crate) fn failed(&self) -> usize {
        self.failed.get()
    }

    /// Failed attempts that were absorbed by a retry.
    pub(crate) fn retries(&self) -> usize {
        self.retried.get()
    }

    /// The most recent failure observed, if any.
    pub(crate) fn last_error(&self) -> Option<EvalError> {
        self.last_error.borrow().clone()
    }

    /// Snapshot of the session's counters (all-zero when the wrapped
    /// evaluator has no incremental support).
    pub(crate) fn delta_stats(&self) -> DeltaStats {
        self.session.borrow().stats()
    }

    /// Tell the session `rows` is the new accepted base, so future
    /// candidates diff against it.
    pub(crate) fn note_accept(&self, rows: &[usize]) {
        self.session.borrow_mut().note_accept(rows);
    }
}

impl Evaluator for CountingEvaluator<'_> {
    fn try_eval_ns(&self, rows: &[usize]) -> Result<f64, EvalError> {
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
        // Settle the logical evaluation: exactly one count and one
        // `SearchCtl::observe`, regardless of retries or the delta/full
        // path the session took — the invariant `tests` pin as the
        // double-count fix.
        self.count.set(self.count.get() + 1);
        if let Err(e) = &result {
            self.failed.set(self.failed.get() + 1);
            *self.last_error.borrow_mut() = Some(e.clone());
        }
        if let Some(ctl) = self.ctl {
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
    fn a_nan_score_is_a_failed_observation_not_a_perfect_one() {
        let ctl = SearchCtl::unlimited().with_target_ns(1.0);
        ctl.observe(f64::NAN);
        assert!(!ctl.is_cancelled(), "NaN is not a reached target");
        assert_eq!(ctl.best_ns(), f64::INFINITY, "nor an incumbent");
        assert_eq!(ctl.evals(), 1, "but it is an evaluation spent");

        // Nor does it reset the stall counter.
        let ctl = SearchCtl::unlimited().with_stall(2);
        ctl.observe(5.0);
        ctl.observe(f64::NAN);
        assert!(!ctl.is_cancelled());
        ctl.observe(6.0);
        assert!(ctl.is_cancelled(), "two evals without improvement");
    }

    #[test]
    fn counting_evaluator_publishes_to_ctl() {
        let ctl = SearchCtl::unlimited();
        let f = |rows: &[usize]| rows[0] as f64;
        let c = CountingEvaluator::new(&f, 1, Some(&ctl));
        c.eval_ns(&[8]);
        c.eval_ns(&[3]);
        assert_eq!(ctl.best_ns(), 3.0);
        assert_eq!(ctl.evals(), 2);
        assert!(!c.cancelled());
        ctl.cancel();
        assert!(c.cancelled());

        // Failures publish the penalty score without improving the best.
        let failing = FallibleFn(|_: &[usize]| Err(EvalError("down".into())));
        let c = CountingEvaluator::new(&failing, 1, Some(&ctl));
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
        rank_cost_calls: Cell<usize>,
        fail_every: usize,
    }

    impl SyntheticModel {
        fn new(weights: Vec<f64>) -> Self {
            SyntheticModel {
                weights,
                rank_cost_calls: Cell::new(0),
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
            let n = self.rank_cost_calls.get() + 1;
            self.rank_cost_calls.set(n);
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
        // fast paths, and memo hits each settle exactly one count and
        // one ctl observation.
        let model = SyntheticModel::new(vec![1.0, 2.0, 3.0, 4.0]);
        let ctl = SearchCtl::unlimited();
        let c = CountingEvaluator::new(&model, 1, Some(&ctl));

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
        assert_eq!(ctl.evals(), 3, "one ctl observation each");
        let d = c.delta_stats();
        assert_eq!(d.full_evals, 1, "only the cold start was full");
        assert_eq!(d.delta_hits, 2, "partial reuse + memo hit");
        assert_eq!(d.fallback_cold, 1);
        // Cold: 4 rank_cost calls; shifted: 2 dirty ranks; memo: 0.
        assert_eq!(model.rank_cost_calls.get(), 6);
        // Partial eval reused 2 of 4 leaves; memo hit reused all 4.
        assert_eq!(d.terms_reused, 2 + 4);
    }

    #[test]
    fn delta_retries_count_once_and_errors_poison() {
        // rank_cost fails on its 3rd call: the cold eval of a 2-rank
        // distribution survives, the next candidate's first attempt
        // dies mid-leaf (poisoning the cache), and the retry — now
        // cold again — succeeds. Still exactly one count and one ctl
        // observation per logical candidate.
        let model = SyntheticModel {
            fail_every: 3,
            ..SyntheticModel::new(vec![1.0, 2.0])
        };
        let ctl = SearchCtl::unlimited();
        let c = CountingEvaluator::new(&model, 2, Some(&ctl));

        let base = [8usize, 8];
        assert!(c.try_eval_ns(&base).is_ok());
        let shifted = [7usize, 9];
        let s = c.try_eval_ns(&shifted).unwrap();
        assert_eq!(s.to_bits(), model.try_eval_ns(&shifted).unwrap().to_bits());

        assert_eq!(c.count(), 2, "retry spends no budget");
        assert_eq!(c.retries(), 1);
        assert_eq!(c.failed(), 0);
        assert_eq!(ctl.evals(), 2);
        let d = c.delta_stats();
        assert_eq!(d.fallback_error, 1, "the poisoned attempt");
        assert_eq!(d.full_evals, 2, "cold start + post-poison retry");
        assert_eq!(d.delta_hits, 0, "the poisoned delta path never answered");
        assert_eq!(d.fallback_cold, 2, "cache was cold again after poisoning");
        assert_eq!(c.last_error().unwrap().0, "injected leaf fault");
    }
}
