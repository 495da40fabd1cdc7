//! Distribution search algorithms.
//!
//! The companion paper \[26\] evaluates four strategies that use MHETA as
//! their fitness function: Generalized Binary Search over the
//! distribution spectrum, a genetic algorithm, simulated annealing, and
//! random search. All four are implemented here behind a common
//! [`SearchOutcome`] result type, with deterministic seeded randomness.

mod annealing;
mod gbs;
mod genetic;
mod portfolio;
mod random;

pub use annealing::{simulated_annealing, AnnealingConfig};
pub use gbs::{gbs_search, GbsConfig};
pub use genetic::{genetic_search, GeneticConfig};
pub use portfolio::{portfolio_search, PortfolioConfig, PortfolioOutcome, Strategy, StrategyRun};
pub use random::{random_search, RandomConfig};

use crate::delta::DeltaStats;
use crate::fitness::{CountingEvaluator, EvalError};
use crate::genblock::GenBlock;

/// One point on a search's convergence curve, recorded after every
/// logical evaluation. The sequence of points is the raw material for
/// the convergence plots the search-comparison paper \[26\] reports.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct IterPoint {
    /// Evaluator calls spent when this point was recorded (1-based).
    pub evals: usize,
    /// Best finite score seen so far, ns (`INFINITY` until the first
    /// finite evaluation).
    pub best_ns: f64,
    /// Running mean over the finite scores seen so far, ns
    /// (`INFINITY` until the first finite evaluation).
    pub mean_ns: f64,
    /// Evaluations that had failed by this point.
    pub failed: usize,
}

/// What a search run produced.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Best distribution found.
    pub best: GenBlock,
    /// Its score (predicted iteration time, ns).
    pub score_ns: f64,
    /// How many evaluator calls were spent.
    pub evaluations: usize,
    /// Evaluations that failed (the candidate got an infinite penalty
    /// score and the search moved on).
    pub failed_evals: usize,
    /// The most recent evaluation failure, if any occurred.
    pub last_failure: Option<EvalError>,
    /// Convergence curve: one [`IterPoint`] per evaluation, in order.
    pub history: Vec<IterPoint>,
    /// Incremental-evaluation tallies (all zero when the evaluator has
    /// no incremental support).
    pub delta: DeltaStats,
}

/// Accumulates the per-evaluation convergence curve during a search.
/// Each search calls [`History::observe`] right after every evaluator
/// call, so the tallies snapshot the counting evaluator at that moment.
pub(crate) struct History {
    points: Vec<IterPoint>,
    best: f64,
    finite_sum: f64,
    finite_n: usize,
}

impl History {
    pub(crate) fn new() -> Self {
        History {
            points: Vec::new(),
            best: f64::INFINITY,
            finite_sum: 0.0,
            finite_n: 0,
        }
    }

    /// Record the outcome of one evaluation that just completed on
    /// `counter` with penalty-converted `score`.
    pub(crate) fn observe(&mut self, counter: &CountingEvaluator<'_>, score: f64) {
        if score.is_finite() {
            self.best = self.best.min(score);
            self.finite_sum += score;
            self.finite_n += 1;
        }
        let mean = if self.finite_n > 0 {
            self.finite_sum / self.finite_n as f64
        } else {
            f64::INFINITY
        };
        self.points.push(IterPoint {
            evals: counter.count(),
            best_ns: self.best,
            mean_ns: mean,
            failed: counter.failed(),
        });
    }
}

/// Assemble a [`SearchOutcome`] from a finished search's counting
/// evaluator plus the best candidate it found. Shared by all four
/// search algorithms so the failure tallies can never drift apart.
pub(crate) fn outcome(
    counter: &CountingEvaluator<'_>,
    history: History,
    best: GenBlock,
    score_ns: f64,
) -> SearchOutcome {
    SearchOutcome {
        best,
        score_ns,
        evaluations: counter.count(),
        failed_evals: counter.failed(),
        last_failure: counter.last_error(),
        history: history.points,
        delta: counter.delta_stats(),
    }
}

/// Mutate `rows` by moving up to `max_move` rows from one node to
/// another, respecting the one-row minimum. Shared by the annealing
/// and genetic searches.
pub(crate) fn move_rows(rows: &mut [usize], from: usize, to: usize, amount: usize) -> bool {
    if from == to || rows[from] <= 1 {
        return false;
    }
    let amount = amount.min(rows[from] - 1);
    if amount == 0 {
        return false;
    }
    rows[from] -= amount;
    rows[to] += amount;
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitness::Evaluator;

    #[test]
    fn history_tracks_best_mean_and_tallies() {
        let f = |rows: &[usize]| rows[0] as f64;
        let counter = CountingEvaluator::new(&f, None);
        let mut h = History::new();
        for rows in [[4usize], [2], [6]] {
            let s = counter.eval_ns(&rows);
            h.observe(&counter, s);
        }
        let pts = h.points;
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].evals, 1);
        assert_eq!(pts[2].evals, 3);
        assert_eq!(pts[1].best_ns, 2.0);
        assert_eq!(pts[2].best_ns, 2.0);
        assert_eq!(pts[2].mean_ns, 4.0);
        assert_eq!(pts[2].failed, 0);
    }

    #[test]
    fn history_mean_ignores_penalty_scores() {
        let mut h = History::new();
        let f = |_: &[usize]| 1.0;
        let counter = CountingEvaluator::new(&f, None);
        counter.eval_ns(&[1]);
        h.observe(&counter, f64::INFINITY);
        assert_eq!(h.points[0].best_ns, f64::INFINITY);
        assert_eq!(h.points[0].mean_ns, f64::INFINITY);
        counter.eval_ns(&[1]);
        h.observe(&counter, 5.0);
        assert_eq!(h.points[1].best_ns, 5.0);
        assert_eq!(h.points[1].mean_ns, 5.0, "penalty scores excluded");
    }

    #[test]
    fn every_search_produces_a_full_history() {
        use crate::anchors::AnchorInputs;
        use crate::spectrum::SpectrumPath;

        let f = |rows: &[usize]| rows[0] as f64;
        let path = SpectrumPath::new(&AnchorInputs {
            total_rows: 64,
            ns_per_row: vec![1.0, 2.0, 1.0, 0.5],
            capacity_rows: vec![16, 32, 32, 32],
        });
        let outs = [
            gbs_search(&path, &f, GbsConfig::default()),
            genetic_search(64, 4, &[], &f, GeneticConfig::default()),
            simulated_annealing(&GenBlock::block(64, 4), &f, AnnealingConfig::default()),
            random_search(64, 4, &f, RandomConfig::default()),
        ];
        for out in &outs {
            assert_eq!(
                out.history.len(),
                out.evaluations,
                "one history point per evaluation"
            );
            let last = out.history.last().unwrap();
            assert_eq!(last.evals, out.evaluations);
            assert_eq!(last.best_ns, out.score_ns, "history best matches outcome");
            assert!(
                out.history.windows(2).all(|w| w[0].best_ns >= w[1].best_ns),
                "best is monotone nonincreasing"
            );
        }
    }

    #[test]
    fn move_rows_preserves_total_and_minimum() {
        let mut rows = vec![5, 1, 3];
        assert!(move_rows(&mut rows, 0, 1, 10));
        assert_eq!(rows.iter().sum::<usize>(), 9);
        assert_eq!(rows, vec![1, 5, 3]);
        // Node with a single row cannot give any away.
        assert!(!move_rows(&mut rows, 0, 2, 1));
        // Self-moves are rejected.
        assert!(!move_rows(&mut rows, 1, 1, 1));
    }
}
