//! Genetic search over `GEN_BLOCK` vectors.
//!
//! Individuals are row-count vectors; crossover blends two parents'
//! row counts and re-apportions to restore the exact total; mutation
//! moves rows between nodes. Tournament selection with elitism.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::fitness::{CountingEvaluator, Evaluator, SearchCtl};
use crate::genblock::{Apportion, GenBlock};
use crate::search::{move_rows, outcome, History, SearchOutcome};

/// Population size.
const POPULATION: usize = 16;
/// Per-child mutation probability.
const MUTATION_RATE: f64 = 0.4;

/// Tuning for [`genetic_search`].
#[derive(Debug, Clone)]
pub struct GeneticConfig {
    /// Evaluator budget.
    pub max_evals: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GeneticConfig {
    fn default() -> Self {
        GeneticConfig {
            max_evals: 200,
            seed: 0x6E6E6E,
        }
    }
}

/// Evolve distributions of `total` rows over `n` nodes, seeded with
/// `seeds` (e.g. the anchor distributions) plus random individuals.
pub fn genetic_search<E: Evaluator + ?Sized>(
    total: usize,
    n: usize,
    seeds: &[GenBlock],
    eval: &E,
    cfg: GeneticConfig,
) -> SearchOutcome {
    run(total, n, seeds, eval, &cfg, None)
}

/// [`genetic_search`], publishing every evaluation to the portfolio's
/// control block when one is running it.
pub(crate) fn run<E: Evaluator + ?Sized>(
    total: usize,
    n: usize,
    seeds: &[GenBlock],
    eval: &E,
    cfg: &GeneticConfig,
    ctl: Option<&SearchCtl>,
) -> SearchOutcome {
    assert!(total >= n, "need at least one row per node");
    let counter = CountingEvaluator::new(eval, ctl);
    let mut history = History::new();
    let mut rng = SmallRng::seed_from_u64(cfg.seed);

    // One set of buffers for every candidate: after the population is
    // seeded, the loop allocates nothing.
    let mut weights = Vec::with_capacity(n);
    let mut apportion = Apportion::default();
    let mut child = Vec::with_capacity(n);

    let mut pop: Vec<(Vec<usize>, f64)> = Vec::with_capacity(POPULATION);
    for s in seeds.iter().take(POPULATION) {
        let rows = s.rows().to_vec();
        let score = counter.eval_ns(&rows);
        history.observe(&counter, score);
        pop.push((rows, score));
    }
    // Always seed at least one individual, even under cancellation,
    // so there is a best to return.
    while pop.len() < POPULATION && (pop.is_empty() || !counter.cancelled()) {
        weights.clear();
        weights.extend((0..n).map(|_| -rng.gen::<f64>().max(1e-12).ln()));
        apportion.rows_into(total, &weights, &mut child);
        let score = counter.eval_ns(&child);
        history.observe(&counter, score);
        pop.push((child.clone(), score));
    }

    let mut best = pop
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("population nonempty")
        .clone();

    while counter.count() + 1 < cfg.max_evals && !counter.cancelled() {
        // Tournament-select two parents.
        let pick = |rng: &mut SmallRng, pop: &[(Vec<usize>, f64)]| {
            let a = rng.gen_range(0..pop.len());
            let b = rng.gen_range(0..pop.len());
            if pop[a].1 <= pop[b].1 {
                a
            } else {
                b
            }
        };
        let pa = pick(&mut rng, &pop);
        let pb = pick(&mut rng, &pop);

        // Blend crossover: per-node weights from a random mix.
        let mix: f64 = rng.gen();
        weights.clear();
        weights.extend(
            pop[pa]
                .0
                .iter()
                .zip(&pop[pb].0)
                .map(|(&x, &y)| mix * x as f64 + (1.0 - mix) * y as f64),
        );
        apportion.rows_into(total, &weights, &mut child);

        if rng.gen::<f64>() < MUTATION_RATE {
            let from = rng.gen_range(0..n);
            let to = rng.gen_range(0..n);
            let amount = rng.gen_range(1..=(total / (4 * n)).max(1));
            move_rows(&mut child, from, to, amount);
        }

        let score = counter.eval_ns(&child);
        history.observe(&counter, score);
        // Rebase the delta session on each child: at convergence
        // successive children differ in a handful of boundary rows, so
        // most leaves carry over. Promotion of the child's fresh
        // leaves is free. (A failed eval poisons the session; don't
        // ask it to rebase on a candidate it could not score.)
        if score.is_finite() {
            counter.note_accept(&child);
        }
        if score < best.1 {
            best.0.clone_from(&child);
            best.1 = score;
        }
        // Replace the worst individual (elitism by construction); its
        // storage becomes the next child's.
        let worst = pop
            .iter()
            .enumerate()
            .max_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
            .map(|(i, _)| i)
            .expect("population nonempty");
        if score < pop[worst].1 {
            std::mem::swap(&mut pop[worst].0, &mut child);
            pop[worst].1 = score;
        }
    }

    outcome(
        &counter,
        history,
        GenBlock::new(best.0).expect("apportion/moves preserve invariant"),
        best.1,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn converges_toward_target() {
        let f = quadratic(vec![40, 8, 8, 8]);
        let out = genetic_search(
            64,
            4,
            &[GenBlock::block(64, 4)],
            &f,
            GeneticConfig::default(),
        );
        let blk_score = f(GenBlock::block(64, 4).rows());
        assert!(out.score_ns < blk_score);
        assert_eq!(out.best.total(), 64);
        assert!(out.best.rows().iter().all(|&r| r >= 1));
    }

    #[test]
    fn respects_budget() {
        let f = |_: &[usize]| 1.0;
        let out = genetic_search(
            64,
            4,
            &[],
            &f,
            GeneticConfig {
                max_evals: 20,
                ..Default::default()
            },
        );
        assert!(out.evaluations <= 20);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let f = quadratic(vec![20, 20, 12, 12]);
        let a = genetic_search(64, 4, &[], &f, GeneticConfig::default());
        let b = genetic_search(64, 4, &[], &f, GeneticConfig::default());
        assert_eq!(a.best, b.best);
    }

    #[test]
    fn seeds_are_used() {
        // A fitness that only the seed minimizes, with everything else
        // flat: the seed must be the winner.
        let seed = GenBlock::new(vec![61, 1, 1, 1]).unwrap();
        let target = seed.clone();
        let f = move |rows: &[usize]| {
            if rows == target.rows() {
                0.0
            } else {
                1.0
            }
        };
        let out = genetic_search(
            64,
            4,
            std::slice::from_ref(&seed),
            &f,
            GeneticConfig::default(),
        );
        assert_eq!(out.best, seed);
    }

    #[test]
    fn survives_failing_evaluations() {
        use crate::fitness::{EvalError, FallibleFn};
        use std::cell::Cell;

        // Failures hit the initial population as well as children;
        // penalized individuals must be bred out, not crash the search.
        let target = quadratic(vec![40, 8, 8, 8]);
        let calls = Cell::new(0usize);
        let f = FallibleFn(|rows: &[usize]| {
            calls.set(calls.get() + 1);
            if calls.get().is_multiple_of(3) {
                Err(EvalError("injected".into()))
            } else {
                Ok(target(rows))
            }
        });
        let out = genetic_search(
            64,
            4,
            &[GenBlock::block(64, 4)],
            &f,
            GeneticConfig::default(),
        );
        assert!(out.failed_evals > 0);
        assert!(out.score_ns.is_finite());
        assert_eq!(out.best.total(), 64);
        assert_eq!(out.last_failure.unwrap().0, "injected");
    }
}
