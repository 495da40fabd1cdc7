//! Portfolio search: all four strategies racing on worker threads.
//!
//! Each strategy gets the same per-strategy evaluation budget and a
//! shared [`SearchCtl`] through which every evaluation publishes its
//! score. The control block maintains the atomic incumbent-best across
//! the whole portfolio and — when a budget, stall, or target criterion
//! is configured — cancels the straggler strategies cooperatively.
//!
//! With every cancellation criterion disabled (the default), each
//! strategy runs to its own budget exactly as it would standalone, so
//! the portfolio result is deterministic and never worse than the best
//! single strategy at the same per-strategy budget.

use std::sync::Arc;
use std::thread;

use crate::delta::DeltaStats;
use crate::fitness::{Evaluator, LatencyHistogram, SearchCtl};
use crate::genblock::GenBlock;
use crate::search::{
    gbs_search, genetic_search, random_search, simulated_annealing, AnnealingConfig, GbsConfig,
    GeneticConfig, RandomConfig, SearchOutcome,
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
    /// Attempts per evaluation (see
    /// [`CountingEvaluator::new`](crate::fitness::CountingEvaluator::new)).
    pub eval_retries: u32,
    /// Base RNG seed; each stochastic strategy derives its own from it.
    pub seed: u64,
    /// Cancel everything once the *combined* evaluation count reaches
    /// this (0 disables; disabling keeps the portfolio deterministic).
    pub max_total_evals: usize,
    /// Cancel once this many combined evaluations pass without an
    /// incumbent improvement (0 disables).
    pub stall_evals: usize,
    /// Cancel once the incumbent reaches this score (nonpositive
    /// disables).
    pub target_ns: f64,
    /// Cancel once the wall clock reaches this instant (`None`
    /// disables; a set deadline makes results timing-dependent, like
    /// the other cancellation criteria). The portfolio still returns
    /// its incumbent-best, so an expired deadline degrades the answer
    /// instead of discarding it.
    pub deadline: Option<std::time::Instant>,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig {
            max_evals_per_strategy: 64,
            eval_retries: 1,
            seed: 0x9047F0,
            max_total_evals: 0,
            stall_evals: 0,
            target_ns: 0.0,
            deadline: None,
        }
    }
}

/// What one strategy contributed to the portfolio.
#[derive(Debug, Clone)]
pub struct StrategyRun {
    /// Which strategy ran.
    pub strategy: Strategy,
    /// Its full standalone outcome (possibly truncated by cancellation).
    pub outcome: SearchOutcome,
    /// When this strategy's thread started, wall-clock ns after the
    /// portfolio launched (observability only; not deterministic).
    pub started_ns: u64,
    /// How long the thread ran, wall-clock ns.
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
    /// Bucket-exact merge of every strategy's evaluation latency.
    pub eval_latency: LatencyHistogram,
    /// Exact sum of every strategy's incremental-evaluation tallies
    /// (random's samples share nothing with a base, so they land in
    /// `fallback_all_dirty`).
    pub delta: DeltaStats,
    /// Whether a cancellation criterion tripped before all strategies
    /// exhausted their budgets.
    pub cancelled: bool,
    /// Whether the *deadline* criterion specifically tripped — the
    /// result is the best incumbent at the deadline, not a full search.
    pub deadline_hit: bool,
}

/// Run GBS, genetic, annealing, and random search concurrently over
/// `path` against `eval`, sharing an incumbent-best through a
/// [`SearchCtl`] and cancelling stragglers per `cfg`.
pub fn portfolio_search<E: Evaluator + Sync + ?Sized>(
    path: &SpectrumPath,
    eval: &E,
    cfg: PortfolioConfig,
) -> PortfolioOutcome {
    let blk = path.at(0.0);
    let total = blk.total();
    let n = blk.rows().len();
    let seeds: Vec<GenBlock> = path.anchors().iter().map(|(_, g)| g.clone()).collect();

    let mut ctl = SearchCtl::unlimited();
    if cfg.max_total_evals > 0 {
        ctl = ctl.with_budget(cfg.max_total_evals);
    }
    if cfg.stall_evals > 0 {
        ctl = ctl.with_stall(cfg.stall_evals);
    }
    if cfg.target_ns > 0.0 {
        ctl = ctl.with_target_ns(cfg.target_ns);
    }
    if let Some(deadline) = cfg.deadline {
        ctl = ctl.with_deadline(deadline);
    }
    let ctl = Arc::new(ctl);
    // An already-expired deadline cancels before the first evaluation:
    // each strategy still contributes its cheap starting candidate, so
    // even a zero-budget call returns a usable (if degraded) incumbent.
    ctl.poll_deadline();

    let run = |strategy: Strategy| -> SearchOutcome {
        let ctl = Some(Arc::clone(&ctl));
        match strategy {
            Strategy::Gbs => gbs_search(
                path,
                eval,
                GbsConfig {
                    max_evals: cfg.max_evals_per_strategy,
                    eval_retries: cfg.eval_retries,
                    ctl,
                    ..GbsConfig::default()
                },
            ),
            Strategy::Genetic => genetic_search(
                total,
                n,
                &seeds,
                eval,
                GeneticConfig {
                    max_evals: cfg.max_evals_per_strategy,
                    eval_retries: cfg.eval_retries,
                    seed: cfg.seed ^ 0x6E6E,
                    ctl,
                    ..GeneticConfig::default()
                },
            ),
            Strategy::Annealing => simulated_annealing(
                &blk,
                eval,
                AnnealingConfig {
                    max_evals: cfg.max_evals_per_strategy,
                    eval_retries: cfg.eval_retries,
                    seed: cfg.seed ^ 0xA11E,
                    ctl,
                    ..AnnealingConfig::default()
                },
            ),
            Strategy::Random => random_search(
                total,
                n,
                eval,
                RandomConfig {
                    max_evals: cfg.max_evals_per_strategy,
                    eval_retries: cfg.eval_retries,
                    seed: cfg.seed ^ 0x7A9D,
                    ctl,
                },
            ),
        }
    };

    // Wall-clock span of each strategy thread, for the serving layer's
    // trace export. Purely observational: nothing downstream of the
    // outcome depends on these.
    let t0 = std::time::Instant::now();
    let outcomes: Vec<(SearchOutcome, u64, u64)> = thread::scope(|scope| {
        let handles: Vec<_> = Strategy::ALL
            .iter()
            .map(|&s| {
                scope.spawn(move || {
                    let started_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    let out = run(s);
                    let ended_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    (out, started_ns, ended_ns.saturating_sub(started_ns))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("search worker panicked"))
            .collect()
    });

    let runs: Vec<StrategyRun> = Strategy::ALL
        .iter()
        .zip(outcomes)
        .map(
            |(&strategy, (outcome, started_ns, elapsed_ns))| StrategyRun {
                strategy,
                outcome,
                started_ns,
                elapsed_ns,
            },
        )
        .collect();

    // Strict `<` keeps the earliest strategy on ties, so the winner is
    // deterministic regardless of thread scheduling.
    let mut winner = 0;
    for (i, r) in runs.iter().enumerate().skip(1) {
        if r.outcome.score_ns < runs[winner].outcome.score_ns {
            winner = i;
        }
    }

    let mut eval_latency = LatencyHistogram::default();
    let mut total_evals = 0;
    let mut delta = DeltaStats::default();
    for r in &runs {
        eval_latency.merge(&r.outcome.eval_latency);
        total_evals += r.outcome.evaluations;
        delta.merge(&r.outcome.delta);
    }

    PortfolioOutcome {
        winner: runs[winner].strategy,
        best: runs[winner].outcome.clone(),
        runs,
        total_evals,
        eval_latency,
        delta,
        cancelled: ctl.is_cancelled(),
        deadline_hit: ctl.deadline_hit(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anchors::AnchorInputs;

    fn path() -> SpectrumPath {
        SpectrumPath::new(&AnchorInputs {
            total_rows: 256,
            ns_per_row: vec![1.0, 2.0, 1.0, 0.5],
            capacity_rows: vec![32, 128, 128, 128],
        })
    }

    /// Smooth landscape with a unique minimum away from `Blk`.
    fn quadratic(target: Vec<usize>) -> impl Fn(&[usize]) -> f64 + Sync {
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
                    ..GeneticConfig::default()
                },
            ),
            simulated_annealing(
                &blk,
                &f,
                AnnealingConfig {
                    max_evals: budget,
                    seed: cfg.seed ^ 0xA11E,
                    ..AnnealingConfig::default()
                },
            ),
            random_search(
                256,
                4,
                &f,
                RandomConfig {
                    max_evals: budget,
                    seed: cfg.seed ^ 0x7A9D,
                    ..RandomConfig::default()
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
        assert!(!out.cancelled);
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
    fn budget_cancellation_bounds_total_evals() {
        let p = path();
        let f = quadratic(vec![120, 60, 44, 32]);
        let out = portfolio_search(
            &p,
            &f,
            PortfolioConfig {
                max_evals_per_strategy: 10_000,
                max_total_evals: 64,
                ..PortfolioConfig::default()
            },
        );
        assert!(out.cancelled);
        // Each of the four workers may overshoot by at most the one
        // evaluation in flight when the flag trips.
        assert!(
            out.total_evals <= 64 + 2 * Strategy::ALL.len(),
            "total {}",
            out.total_evals
        );
        assert!(out.best.score_ns.is_finite());
    }

    #[test]
    fn merged_latency_counts_every_evaluation() {
        let p = path();
        let f = quadratic(vec![120, 60, 44, 32]);
        let out = portfolio_search(&p, &f, PortfolioConfig::default());
        assert_eq!(out.eval_latency.count, out.total_evals as u64);
    }
}
