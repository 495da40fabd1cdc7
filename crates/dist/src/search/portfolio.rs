//! Portfolio search: all four strategies, one after another on the
//! caller's thread.
//!
//! Each strategy gets the same per-strategy evaluation budget and runs
//! to it exactly as it would standalone, so the portfolio result is
//! never worse than the best single strategy at the same per-strategy
//! budget, and is a pure function of the budget, the seed and the
//! evaluator. Only an optional wall-clock deadline stops it early: the
//! control block (`SearchCtl`) polls it after every evaluation and, once
//! it has passed, stops the running strategy and the ones still to run.
//! GBS spends first, then genetic, annealing and random
//! ([`Strategy::ALL`] order), so a search cut short is GBS first — the
//! strategy that finds the best-known point soonest — plus what fit of
//! the others; a strategy reached after the cut still scores its
//! starting candidates.
//!
//! An evaluation costs about a microsecond, which is why there are no
//! threads here: spawning four costs more than they save.

use std::time::Instant;

use crate::delta::DeltaStats;
use crate::fitness::{Evaluator, SearchCtl};
use crate::genblock::GenBlock;
use crate::search::{
    annealing, gbs, genetic, random, AnnealingConfig, GbsConfig, GeneticConfig, RandomConfig,
    SearchOutcome,
};
use crate::spectrum::SpectrumPath;

/// One of the four search strategies in the portfolio.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Generalized Binary Search over the spectrum path.
    Gbs,
    /// Genetic search seeded with the anchor distributions.
    Genetic,
    /// Simulated annealing from the `Blk` start.
    Annealing,
    /// Random (Dirichlet-prior) sampling baseline.
    Random,
}

impl Strategy {
    /// Every strategy, in the portfolio's deterministic tie-break order.
    pub const ALL: [Strategy; 4] = [
        Strategy::Gbs,
        Strategy::Genetic,
        Strategy::Annealing,
        Strategy::Random,
    ];

    /// Stable lowercase name, used in reports and wire responses.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Gbs => "gbs",
            Strategy::Genetic => "genetic",
            Strategy::Annealing => "annealing",
            Strategy::Random => "random",
        }
    }
}

/// Tuning for [`portfolio_search`].
#[derive(Debug, Clone)]
pub struct PortfolioConfig {
    /// Evaluation budget granted to *each* strategy.
    pub max_evals_per_strategy: usize,
    /// Base RNG seed; each stochastic strategy derives its own from it.
    pub seed: u64,
    /// Stop once the wall clock reaches this instant (`None`: run every
    /// strategy to its budget). The only setting that makes a result
    /// timing-dependent. The portfolio still returns its best so far,
    /// so an expired deadline degrades the answer instead of
    /// discarding it.
    pub deadline: Option<Instant>,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig {
            max_evals_per_strategy: 64,
            seed: 0x9047F0,
            deadline: None,
        }
    }
}

/// What one strategy contributed to the portfolio.
#[derive(Debug, Clone)]
pub struct StrategyRun {
    /// Which strategy ran.
    pub strategy: Strategy,
    /// Its full standalone outcome (possibly cut short by the deadline).
    pub outcome: SearchOutcome,
    /// When this strategy started, wall-clock ns after the portfolio
    /// launched — where the previous one ended (observability only;
    /// not deterministic).
    pub started_ns: u64,
    /// How long it ran, wall-clock ns.
    pub elapsed_ns: u64,
}

/// The combined result of a portfolio run.
#[derive(Debug, Clone)]
pub struct PortfolioOutcome {
    /// The strategy that produced the best score (ties broken in
    /// [`Strategy::ALL`] order).
    pub winner: Strategy,
    /// The winner's outcome — the portfolio's answer.
    pub best: SearchOutcome,
    /// Every strategy's run, in [`Strategy::ALL`] order.
    pub runs: Vec<StrategyRun>,
    /// Combined evaluator calls across all strategies.
    pub total_evals: usize,
    /// Exact sum of every strategy's incremental-evaluation tallies
    /// (random's samples share nothing with a base, so they land in
    /// `fallback_all_dirty`).
    pub delta: DeltaStats,
    /// Whether the deadline passed before every strategy spent its
    /// budget — the result is the best found by then, not a full
    /// search.
    pub deadline_hit: bool,
}

/// Run GBS, genetic, annealing, and random search over `path` against
/// `eval`, in that order on the caller's thread, and return the best
/// of them; `cfg.deadline`, if any, cuts the search short.
pub fn portfolio_search<E: Evaluator + ?Sized>(
    path: &SpectrumPath,
    eval: &E,
    cfg: PortfolioConfig,
) -> PortfolioOutcome {
    let blk = path.at(0.0);
    let total = blk.total();
    let n = blk.rows().len();
    let seeds: Vec<GenBlock> = path.anchors().iter().map(|(_, g)| g.clone()).collect();

    let ctl = SearchCtl::new(cfg.deadline);
    // An already-expired deadline stops the search before the first
    // evaluation: each strategy still contributes its cheap starting
    // candidates, so even a zero-budget call returns a usable (if
    // degraded) incumbent.
    ctl.poll();

    let max_evals = cfg.max_evals_per_strategy;
    let run = |strategy: Strategy| -> SearchOutcome {
        let ctl = Some(&ctl);
        match strategy {
            Strategy::Gbs => gbs::run(
                path,
                eval,
                &GbsConfig {
                    max_evals,
                    ..GbsConfig::default()
                },
                ctl,
            ),
            Strategy::Genetic => genetic::run(
                total,
                n,
                &seeds,
                eval,
                &GeneticConfig {
                    max_evals,
                    seed: cfg.seed ^ 0x6E6E,
                },
                ctl,
            ),
            Strategy::Annealing => annealing::run(
                &blk,
                eval,
                &AnnealingConfig {
                    max_evals,
                    seed: cfg.seed ^ 0xA11E,
                },
                ctl,
            ),
            Strategy::Random => random::run(
                total,
                n,
                eval,
                &RandomConfig {
                    max_evals,
                    seed: cfg.seed ^ 0x7A9D,
                },
                ctl,
            ),
        }
    };

    // Wall-clock span of each strategy, for the serving layer's trace
    // export. Purely observational: nothing downstream of the outcome
    // depends on these.
    let t0 = Instant::now();
    let mut now_ns = 0;
    let runs: Vec<StrategyRun> = Strategy::ALL
        .iter()
        .map(|&strategy| {
            let started_ns = now_ns;
            let outcome = run(strategy);
            now_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            StrategyRun {
                strategy,
                outcome,
                started_ns,
                elapsed_ns: now_ns - started_ns,
            }
        })
        .collect();

    // Strict `<` keeps the earliest strategy on ties.
    let mut winner = 0;
    for (i, r) in runs.iter().enumerate().skip(1) {
        if r.outcome.score_ns < runs[winner].outcome.score_ns {
            winner = i;
        }
    }

    let mut total_evals = 0;
    let mut delta = DeltaStats::default();
    for r in &runs {
        total_evals += r.outcome.evaluations;
        delta.merge(&r.outcome.delta);
    }

    PortfolioOutcome {
        winner: runs[winner].strategy,
        best: runs[winner].outcome.clone(),
        runs,
        total_evals,
        delta,
        deadline_hit: ctl.expired(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anchors::AnchorInputs;
    use crate::search::{gbs_search, genetic_search, random_search, simulated_annealing};

    fn path() -> SpectrumPath {
        SpectrumPath::new(&AnchorInputs {
            total_rows: 256,
            ns_per_row: vec![1.0, 2.0, 1.0, 0.5],
            capacity_rows: vec![32, 128, 128, 128],
        })
    }

    /// Smooth landscape with a unique minimum away from `Blk`.
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
    fn never_worse_than_best_single_strategy_at_same_budget() {
        let p = path();
        let f = quadratic(vec![120, 60, 44, 32]);
        let budget = 48;
        let cfg = PortfolioConfig {
            max_evals_per_strategy: budget,
            ..PortfolioConfig::default()
        };
        let out = portfolio_search(&p, &f, cfg.clone());

        let blk = p.at(0.0);
        let seeds: Vec<GenBlock> = p.anchors().iter().map(|(_, g)| g.clone()).collect();
        let singles = [
            gbs_search(
                &p,
                &f,
                GbsConfig {
                    max_evals: budget,
                    ..GbsConfig::default()
                },
            ),
            genetic_search(
                256,
                4,
                &seeds,
                &f,
                GeneticConfig {
                    max_evals: budget,
                    seed: cfg.seed ^ 0x6E6E,
                },
            ),
            simulated_annealing(
                &blk,
                &f,
                AnnealingConfig {
                    max_evals: budget,
                    seed: cfg.seed ^ 0xA11E,
                },
            ),
            random_search(
                256,
                4,
                &f,
                RandomConfig {
                    max_evals: budget,
                    seed: cfg.seed ^ 0x7A9D,
                },
            ),
        ];
        let best_single = singles
            .iter()
            .map(|s| s.score_ns)
            .fold(f64::INFINITY, f64::min);
        assert!(
            out.best.score_ns <= best_single,
            "portfolio {} worse than best single {}",
            out.best.score_ns,
            best_single
        );
        assert!(!out.deadline_hit);
        assert_eq!(out.runs.len(), 4);
        assert_eq!(
            out.total_evals,
            out.runs
                .iter()
                .map(|r| r.outcome.evaluations)
                .sum::<usize>()
        );
    }

    #[test]
    fn deterministic_without_cancellation() {
        let p = path();
        let f = quadratic(vec![120, 60, 44, 32]);
        let a = portfolio_search(&p, &f, PortfolioConfig::default());
        let b = portfolio_search(&p, &f, PortfolioConfig::default());
        assert_eq!(a.winner, b.winner);
        assert_eq!(a.best.best, b.best.best);
        assert_eq!(a.best.score_ns.to_bits(), b.best.score_ns.to_bits());
        assert_eq!(a.total_evals, b.total_evals);
    }

    #[test]
    fn a_portfolio_under_any_evaluation_criterion_is_a_pure_function() {
        let p = path();
        let f = quadratic(vec![120, 60, 44, 32]);
        let base = PortfolioConfig {
            max_evals_per_strategy: 200,
            ..PortfolioConfig::default()
        };
        // Without a deadline, and with one that has already passed: the
        // strategies reached after it still score their starting
        // candidates, and nothing else.
        let cases = [
            base.clone(),
            PortfolioConfig {
                deadline: Some(Instant::now()),
                ..base
            },
        ];
        /// Every history point of a run, by bit pattern.
        fn bits(o: &SearchOutcome) -> Vec<(usize, u64, u64)> {
            o.history
                .iter()
                .map(|h| (h.evals, h.best_ns.to_bits(), h.mean_ns.to_bits()))
                .collect()
        }
        for cfg in cases {
            let first = portfolio_search(&p, &f, cfg.clone());
            assert_eq!(first.deadline_hit, cfg.deadline.is_some(), "{cfg:?}");
            let order: Vec<Strategy> = first.runs.iter().map(|r| r.strategy).collect();
            assert_eq!(order, Strategy::ALL);
            for pair in first.runs.windows(2) {
                assert_eq!(
                    pair[1].started_ns,
                    pair[0].started_ns + pair[0].elapsed_ns,
                    "the strategies run back to back"
                );
            }
            for _ in 1..16 {
                let again = portfolio_search(&p, &f, cfg.clone());
                assert_eq!(again.winner, first.winner, "{cfg:?}");
                assert_eq!(again.best.best, first.best.best, "{cfg:?}");
                assert_eq!(
                    again.best.score_ns.to_bits(),
                    first.best.score_ns.to_bits(),
                    "{cfg:?}"
                );
                assert_eq!(again.total_evals, first.total_evals, "{cfg:?}");
                assert_eq!(again.deadline_hit, first.deadline_hit, "{cfg:?}");
                for (a, b) in again.runs.iter().zip(&first.runs) {
                    assert_eq!(a.outcome.evaluations, b.outcome.evaluations, "{cfg:?}");
                    assert_eq!(bits(&a.outcome), bits(&b.outcome), "{cfg:?}");
                }
            }
        }
    }
}
