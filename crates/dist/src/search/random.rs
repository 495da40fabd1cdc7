//! Random search baseline: sample distributions from a Dirichlet-like
//! prior (exponential weights, apportioned) and keep the best.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::fitness::{CountingEvaluator, Evaluator, SearchCtl};
use crate::genblock::{Apportion, GenBlock};
use crate::search::{outcome, History, SearchOutcome};

/// Tuning for [`random_search`].
#[derive(Debug, Clone)]
pub struct RandomConfig {
    /// Evaluator budget.
    pub max_evals: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomConfig {
    fn default() -> Self {
        RandomConfig {
            max_evals: 200,
            seed: 0x7A9D0,
        }
    }
}

/// Sample random distributions of `total` rows over `n` nodes.
pub fn random_search<E: Evaluator + ?Sized>(
    total: usize,
    n: usize,
    eval: &E,
    cfg: RandomConfig,
) -> SearchOutcome {
    run(total, n, eval, &cfg, None)
}

/// [`random_search`], publishing every evaluation to the portfolio's
/// control block when one is running it.
pub(crate) fn run<E: Evaluator + ?Sized>(
    total: usize,
    n: usize,
    eval: &E,
    cfg: &RandomConfig,
    ctl: Option<&SearchCtl>,
) -> SearchOutcome {
    assert!(total >= n, "need at least one row per node");
    let counter = CountingEvaluator::new(eval, ctl);
    let mut history = History::new();
    let mut rng = SmallRng::seed_from_u64(cfg.seed);

    // Always include Blk as the first sample: it is the obvious default.
    let mut best = GenBlock::block(total, n).rows().to_vec();
    let mut best_score = counter.eval_ns(&best);
    history.observe(&counter, best_score);

    // One set of buffers for every sample: the loop allocates only
    // when a sample becomes the new best.
    let mut weights = Vec::with_capacity(n);
    let mut apportion = Apportion::default();
    let mut rows = Vec::with_capacity(n);
    while counter.count() < cfg.max_evals && !counter.cancelled() {
        weights.clear();
        weights.extend((0..n).map(|_| -rng.gen::<f64>().max(1e-12).ln()));
        apportion.rows_into(total, &weights, &mut rows);
        let score = counter.eval_ns(&rows);
        history.observe(&counter, score);
        if score < best_score {
            best_score = score;
            best.clone_from(&rows);
        }
    }

    outcome(
        &counter,
        history,
        GenBlock::new(best).expect("apportionment keeps a row per node"),
        best_score,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_best_sample() {
        // Fitness favors node 0 holding many rows.
        let f = |rows: &[usize]| -(rows[0] as f64);
        let out = random_search(64, 4, &f, RandomConfig::default());
        let blk = GenBlock::block(64, 4);
        assert!(out.score_ns <= f(blk.rows()));
        assert_eq!(out.best.total(), 64);
    }

    #[test]
    fn respects_budget_and_determinism() {
        let f = |rows: &[usize]| rows[1] as f64;
        let a = random_search(
            64,
            4,
            &f,
            RandomConfig {
                max_evals: 30,
                seed: 1,
            },
        );
        let b = random_search(
            64,
            4,
            &f,
            RandomConfig {
                max_evals: 30,
                seed: 1,
            },
        );
        assert!(a.evaluations <= 30);
        assert_eq!(a.best, b.best);
    }

    #[test]
    fn survives_failing_evaluations() {
        use crate::fitness::{EvalError, FallibleFn};
        use std::cell::Cell;

        // Every third evaluation fails; the search must finish, report
        // the failures, and still return a finite best score.
        let calls = Cell::new(0usize);
        let f = FallibleFn(|rows: &[usize]| {
            calls.set(calls.get() + 1);
            if calls.get().is_multiple_of(3) {
                Err(EvalError("injected".into()))
            } else {
                Ok(rows[0] as f64)
            }
        });
        let out = random_search(
            64,
            4,
            &f,
            RandomConfig {
                max_evals: 30,
                ..Default::default()
            },
        );
        assert!(out.failed_evals > 0);
        assert_eq!(out.last_failure.unwrap().0, "injected");
        assert!(out.score_ns.is_finite());
        assert_eq!(out.best.total(), 64);
    }
}
