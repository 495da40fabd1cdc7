//! Evaluation functions for distribution search.
//!
//! MHETA is the evaluation function (§5.3: "MHETA is used as part of
//! four different algorithms … to determine an effective distribution
//! \[26\]"); the trait indirection lets tests plug in synthetic
//! fitness landscapes.
//!
//! Evaluation is *fallible* but pure: when the model fails — bad
//! profile data, a non-finite prediction — the search must not abort.
//! [`Evaluator::try_eval_ns`] surfaces the error; the provided
//! [`Evaluator::eval_ns`] converts it into an infinite penalty score so
//! every search simply never selects the failed candidate. A model
//! evaluation is a function of the rows alone, so asking again would
//! only repeat the error: nothing is retried, and every search counts
//! its failures into its [`SearchOutcome`].
//!
//! [`SearchOutcome`]: crate::search::SearchOutcome

use std::cell::{Cell, RefCell};
use std::fmt;
use std::time::Instant;

use mheta_core::Mheta;

use crate::delta::{DeltaEvaluator, DeltaSession, DeltaStats};

/// The deadline of one portfolio search, and whether it has passed.
///
/// The portfolio runs its strategies one after another on the caller's
/// thread, each scoring through a [`CountingEvaluator`] that borrows
/// the same `SearchCtl`: every evaluation polls the deadline, and the
/// running search checks [`SearchCtl::expired`] between evaluations.
/// Once the wall clock passes the deadline, the running strategy and
/// every one still to run stop early, each keeping its best so far: a
/// time-bounded *degraded* result. It is the one thing that stops a
/// search before its budget, and the one clock read on the evaluation
/// path; without a deadline nothing reads the clock.
#[derive(Debug)]
pub(crate) struct SearchCtl {
    deadline: Option<Instant>,
    expired: Cell<bool>,
}

impl SearchCtl {
    /// A control block that expires once the wall clock reaches
    /// `deadline` (`None`: never).
    pub(crate) fn new(deadline: Option<Instant>) -> Self {
        SearchCtl {
            deadline,
            expired: Cell::new(false),
        }
    }

    /// Mark the search expired if the deadline has passed. Called after
    /// every evaluation (evaluations are the unit of cooperative
    /// cancellation, so an expired deadline stops the running search
    /// after at most one more), and once by the portfolio before its
    /// first.
    pub(crate) fn poll(&self) {
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            self.expired.set(true);
        }
    }

    /// True once a poll has found the deadline passed.
    pub(crate) fn expired(&self) -> bool {
        self.expired.get()
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
/// evaluations" axis of the search-algorithm comparison — and the
/// failures among them.
///
/// Every evaluation goes through the one [`DeltaSession`] opened on the
/// wrapped evaluator, which is what keeps the count at exactly one per
/// logical candidate whether the session answered incrementally or in
/// full.
pub(crate) struct CountingEvaluator<'a> {
    session: RefCell<Box<dyn DeltaSession + 'a>>,
    count: Cell<usize>,
    failed: Cell<usize>,
    last_error: RefCell<Option<EvalError>>,
    /// The portfolio's control block, when a portfolio is running this
    /// search: every evaluation polls its deadline, and the search
    /// checks [`CountingEvaluator::cancelled`].
    ctl: Option<&'a SearchCtl>,
}

impl<'a> CountingEvaluator<'a> {
    /// Wrap a session over `inner`, polling `ctl`'s deadline after every
    /// evaluation when there is one (portfolio search).
    pub(crate) fn new<E: Evaluator + ?Sized>(inner: &'a E, ctl: Option<&'a SearchCtl>) -> Self {
        CountingEvaluator {
            session: RefCell::new(inner.delta_session()),
            count: Cell::new(0),
            failed: Cell::new(0),
            last_error: RefCell::new(None),
            ctl,
        }
    }

    /// True once the portfolio's deadline has passed; searches check
    /// this between evaluations and stop early, keeping their
    /// best-so-far outcome.
    pub(crate) fn cancelled(&self) -> bool {
        self.ctl.is_some_and(SearchCtl::expired)
    }

    /// Evaluations performed so far.
    pub(crate) fn count(&self) -> usize {
        self.count.get()
    }

    /// Evaluations that failed.
    pub(crate) fn failed(&self) -> usize {
        self.failed.get()
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
        let result = self.session.borrow_mut().try_eval_ns(rows);
        // Exactly one count per candidate, whichever path the session
        // took — the invariant `tests` pin as the double-count fix.
        self.count.set(self.count.get() + 1);
        if let Err(e) = &result {
            self.failed.set(self.failed.get() + 1);
            *self.last_error.borrow_mut() = Some(e.clone());
        }
        if let Some(ctl) = self.ctl {
            ctl.poll();
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
        let c = CountingEvaluator::new(&f, None);
        for _ in 0..5 {
            c.eval_ns(&[1]);
        }
        assert_eq!(c.count(), 5);
        assert_eq!(c.failed(), 0);
        assert!(c.last_error().is_none());
    }

    #[test]
    fn failures_become_infinite_penalty() {
        let f = FallibleFn(|_: &[usize]| Err(EvalError("rank 2 died".into())));
        let c = CountingEvaluator::new(&f, None);
        assert_eq!(c.eval_ns(&[1, 2]), f64::INFINITY);
        assert_eq!(c.count(), 1);
        assert_eq!(c.failed(), 1);
        assert_eq!(c.last_error().unwrap().0, "rank 2 died");
    }

    #[test]
    fn eval_error_displays_message() {
        let e = EvalError("profile missing".into());
        assert_eq!(e.to_string(), "evaluation failed: profile missing");
    }

    #[test]
    fn a_nan_score_is_a_failed_observation_not_a_perfect_one() {
        // A model's non-finite prediction is an error: the candidate
        // counts as one failed evaluation and scores the +inf penalty,
        // never a NaN that every `<` against the best would skip.
        let f = FallibleFn(|_: &[usize]| finite_score(f64::NAN));
        let c = CountingEvaluator::new(&f, None);
        assert_eq!(c.eval_ns(&[1]), f64::INFINITY);
        assert_eq!((c.count(), c.failed()), (1, 1));
        assert!(finite_score(f64::NEG_INFINITY).is_err());
        assert_eq!(finite_score(2.5), Ok(2.5));
    }

    #[test]
    fn counting_evaluator_publishes_to_ctl() {
        // No deadline: evaluations never expire the search.
        let ctl = SearchCtl::new(None);
        let f = |rows: &[usize]| rows[0] as f64;
        let c = CountingEvaluator::new(&f, Some(&ctl));
        c.eval_ns(&[8]);
        c.eval_ns(&[3]);
        assert!(!c.cancelled());

        // A passed deadline is found by the next evaluation, failed or
        // not, and every search sharing the block sees it.
        let ctl = SearchCtl::new(Some(Instant::now()));
        let failing = FallibleFn(|_: &[usize]| Err(EvalError("down".into())));
        let c = CountingEvaluator::new(&failing, Some(&ctl));
        assert!(!c.cancelled(), "nothing polled yet");
        let _ = c.try_eval_ns(&[1]);
        assert!(c.cancelled());
        assert_eq!((c.count(), c.failed()), (1, 1));
        assert!(CountingEvaluator::new(&f, Some(&ctl)).cancelled());
    }

    /// Synthetic delta-evaluable model: per-rank leaf cost is
    /// `rows · weight[rank]`, the score is the (fixed-order) sum.
    /// `fail_every` > 0 makes every Nth `rank_cost` call fail, for
    /// pinning the poison seam.
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
        // fast paths, and memo hits each settle exactly one count.
        let model = SyntheticModel::new(vec![1.0, 2.0, 3.0, 4.0]);
        let c = CountingEvaluator::new(&model, None);

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
    fn delta_errors_count_once_and_poison() {
        // rank_cost fails on its 3rd call: the cold eval of a 2-rank
        // distribution survives, the next candidate dies mid-leaf
        // (poisoning the cache) and counts one failed evaluation, and
        // the same candidate asked again — now cold — succeeds.
        let model = SyntheticModel {
            fail_every: 3,
            ..SyntheticModel::new(vec![1.0, 2.0])
        };
        let c = CountingEvaluator::new(&model, None);

        let base = [8usize, 8];
        assert!(c.try_eval_ns(&base).is_ok());
        let shifted = [7usize, 9];
        let err = c.try_eval_ns(&shifted).unwrap_err();
        assert_eq!(err.0, "injected leaf fault");
        assert_eq!((c.count(), c.failed()), (2, 1));
        let s = c.try_eval_ns(&shifted).unwrap();
        assert_eq!(s.to_bits(), model.try_eval_ns(&shifted).unwrap().to_bits());

        assert_eq!((c.count(), c.failed()), (3, 1));
        let d = c.delta_stats();
        assert_eq!(d.fallback_error, 1, "the poisoned evaluation");
        assert_eq!(d.full_evals, 2, "cold start + post-poison evaluation");
        assert_eq!(d.delta_hits, 0, "the poisoned delta path never answered");
        assert_eq!(d.fallback_cold, 2, "cache was cold again after poisoning");
        assert_eq!(c.last_error().unwrap().0, "injected leaf fault");
    }
}
