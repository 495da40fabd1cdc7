//! Simulated annealing over raw `GEN_BLOCK` vectors.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::fitness::{CountingEvaluator, Evaluator, SearchCtl};
use crate::genblock::GenBlock;
use crate::search::{move_rows, outcome, History, SearchOutcome};

/// Initial temperature as a fraction of the starting score.
const INITIAL_TEMP_FRAC: f64 = 0.1;
/// Geometric cooling factor per step.
const COOLING: f64 = 0.97;

/// Tuning for [`simulated_annealing`].
#[derive(Debug, Clone)]
pub struct AnnealingConfig {
    /// Evaluator budget.
    pub max_evals: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AnnealingConfig {
    fn default() -> Self {
        AnnealingConfig {
            max_evals: 200,
            seed: 0xA11EA1,
        }
    }
}

/// Anneal starting from `start` (typically `Blk`).
pub fn simulated_annealing<E: Evaluator + ?Sized>(
    start: &GenBlock,
    eval: &E,
    cfg: AnnealingConfig,
) -> SearchOutcome {
    run(start, eval, &cfg, None)
}

/// [`simulated_annealing`], publishing every evaluation to the
/// portfolio's control block when one is running it.
pub(crate) fn run<E: Evaluator + ?Sized>(
    start: &GenBlock,
    eval: &E,
    cfg: &AnnealingConfig,
    ctl: Option<&SearchCtl>,
) -> SearchOutcome {
    let counter = CountingEvaluator::new(eval, ctl);
    let mut history = History::new();
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let n = start.len();
    let total = start.total();

    let mut current = start.rows().to_vec();
    let mut current_score = counter.eval_ns(&current);
    history.observe(&counter, current_score);
    let mut best = current.clone();
    let mut best_score = current_score;
    let mut temp = (current_score * INITIAL_TEMP_FRAC).max(1.0);
    // With one node, or one row on every node, `move_rows` refuses every
    // draw and no draw counts an evaluation. `n` and `total` never
    // change, so one check up front keeps the loop from spinning.
    let movable = n > 1 && total > n;

    while movable && counter.count() < cfg.max_evals && !counter.cancelled() {
        let mut cand = current.clone();
        let from = rng.gen_range(0..n);
        let to = rng.gen_range(0..n);
        let amount = rng.gen_range(1..=(total / (4 * n)).max(1));
        if !move_rows(&mut cand, from, to, amount) {
            continue;
        }
        let score = counter.eval_ns(&cand);
        history.observe(&counter, score);
        let accept = score <= current_score || {
            let p = (-(score - current_score) / temp).exp();
            rng.gen::<f64>() < p
        };
        if accept {
            // A failed (infinite-penalty) start leaves `temp` infinite;
            // rescale it from the first finite score we accept so the
            // Metropolis criterion regains its intended selectivity.
            if !temp.is_finite() && score.is_finite() {
                temp = (score * INITIAL_TEMP_FRAC).max(1.0);
            }
            current = cand;
            current_score = score;
            if score.is_finite() {
                counter.note_accept(&current);
            }
            if score < best_score {
                best_score = score;
                best = current.clone();
            }
        }
        temp *= COOLING;
    }

    outcome(
        &counter,
        history,
        GenBlock::new(best).expect("moves preserve the invariant"),
        best_score,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Landscape: cost = sum of squared differences from a target.
    fn quadratic(target: Vec<usize>) -> impl Fn(&[usize]) -> f64 {
        move |rows: &[usize]| {
            rows.iter()
                .zip(&target)
                .map(|(&a, &b)| {
                    let d = a as f64 - b as f64;
                    d * d
                })
                .sum()
        }
    }

    #[test]
    fn improves_on_block_start() {
        let start = GenBlock::block(64, 4);
        let f = quadratic(vec![40, 8, 8, 8]);
        let start_score = f(start.rows());
        let out = simulated_annealing(&start, &f, AnnealingConfig::default());
        assert!(out.score_ns < start_score, "no improvement");
        assert_eq!(out.best.total(), 64);
    }

    #[test]
    fn respects_budget() {
        let start = GenBlock::block(64, 4);
        let f = |_: &[usize]| 1.0;
        let out = simulated_annealing(
            &start,
            &f,
            AnnealingConfig {
                max_evals: 10,
                ..Default::default()
            },
        );
        assert!(out.evaluations <= 10);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let start = GenBlock::block(64, 4);
        let f = quadratic(vec![40, 8, 8, 8]);
        let a = simulated_annealing(&start, &f, AnnealingConfig::default());
        let b = simulated_annealing(&start, &f, AnnealingConfig::default());
        assert_eq!(a.best, b.best);
        assert_eq!(a.score_ns, b.score_ns);
    }

    #[test]
    fn returns_when_no_row_can_move() {
        // Every node at its last row, and a single node: no draw is a
        // legal move. The search runs on a spawned thread so that a
        // hang fails the test instead of stalling the suite.
        for start in [GenBlock::block(4, 4), GenBlock::block(64, 1)] {
            let (tx, rx) = std::sync::mpsc::channel();
            let rows = start.rows().to_vec();
            let search = std::thread::spawn(move || {
                let f = |rows: &[usize]| rows[0] as f64;
                let _ = tx.send(simulated_annealing(&start, &f, AnnealingConfig::default()));
            });
            let out = rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("annealing from {rows:?} did not return"));
            search.join().unwrap();
            assert_eq!(out.best.rows(), rows.as_slice());
            assert_eq!(out.evaluations, 1, "the start is scored once");
        }
    }

    #[test]
    fn survives_failing_evaluations_even_at_the_start() {
        use crate::fitness::{EvalError, FallibleFn};
        use std::cell::Cell;

        // The very first evaluation fails (infinite initial
        // temperature), then every fourth: annealing must recover,
        // rescale its temperature, and still improve on a late score.
        let target = quadratic(vec![40, 8, 8, 8]);
        let calls = Cell::new(0usize);
        let f = FallibleFn(|rows: &[usize]| {
            calls.set(calls.get() + 1);
            if calls.get() % 4 == 1 {
                Err(EvalError("injected".into()))
            } else {
                Ok(target(rows))
            }
        });
        let out = simulated_annealing(&GenBlock::block(64, 4), &f, AnnealingConfig::default());
        assert!(out.failed_evals > 0);
        assert!(out.score_ns.is_finite(), "never recovered from faults");
        assert_eq!(out.best.total(), 64);
        assert_eq!(out.last_failure.unwrap().0, "injected");
    }
}
