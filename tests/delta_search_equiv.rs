//! Search-equivalence regressions for delta evaluation: scoring through
//! the model's caching session must not change *anything* a search does
//! — not the best distribution, not its score bits, and not even the
//! sequence of candidates visited. The control arm is the *reference*
//! kept for exactly this purpose: the same model behind a wrapper with
//! no session of its own, so every candidate is a from-scratch
//! `Mheta::try_eval_ns`. Recording evaluators log the visited-candidate
//! sequence at the same seam on both arms; the portfolio test
//! additionally checks that delta evaluation actually engages
//! (`delta_hits > 0`) while leaving the incumbent unchanged. The last
//! test pins the portfolio itself: without a deadline it is its four
//! strategies run alone, to the bit.

use std::cell::RefCell;

use mheta::dist::{
    gbs_search, genetic_search, portfolio_search, random_search, simulated_annealing,
    AnnealingConfig, DeltaSession, EvalError, Evaluator, FallibleFn, GbsConfig, GenBlock,
    GeneticConfig, PortfolioConfig, RandomConfig, SearchOutcome,
};
use mheta::prelude::*;

/// The session-less reference arm: logs every candidate and scores it
/// with a from-scratch `Mheta::try_eval_ns`. It inherits the default
/// session — stateless, full evaluation, all-zero stats.
struct Reference<'a> {
    model: &'a Mheta,
    log: RefCell<Vec<Vec<usize>>>,
}

impl<'a> Reference<'a> {
    fn new(model: &'a Mheta) -> Self {
        Reference {
            model,
            log: RefCell::new(Vec::new()),
        }
    }
}

impl Evaluator for Reference<'_> {
    fn try_eval_ns(&self, rows: &[usize]) -> Result<f64, EvalError> {
        self.log.borrow_mut().push(rows.to_vec());
        self.model.try_eval_ns(rows)
    }
}

/// The session-backed arm: the same log, but candidates reach the model
/// through its caching session. Either way, one log entry per logical
/// candidate, in visit order.
struct Recorder<'a>(Reference<'a>);

impl Evaluator for Recorder<'_> {
    fn try_eval_ns(&self, rows: &[usize]) -> Result<f64, EvalError> {
        self.0.try_eval_ns(rows)
    }

    fn delta_session(&self) -> Box<dyn DeltaSession + '_> {
        Box::new(RecordingSession {
            inner: self.0.model.delta_session(),
            log: &self.0.log,
        })
    }
}

/// Logs every candidate an inner delta session is asked to evaluate.
struct RecordingSession<'a> {
    inner: Box<dyn DeltaSession + 'a>,
    log: &'a RefCell<Vec<Vec<usize>>>,
}

impl DeltaSession for RecordingSession<'_> {
    fn try_eval_ns(&mut self, rows: &[usize]) -> Result<f64, EvalError> {
        self.log.borrow_mut().push(rows.to_vec());
        self.inner.try_eval_ns(rows)
    }

    fn note_accept(&mut self, rows: &[usize]) {
        self.inner.note_accept(rows);
    }

    fn stats(&self) -> mheta::dist::DeltaStats {
        self.inner.stats()
    }
}

/// Run `search` on both arms and require indistinguishable outcomes and
/// identical visited-candidate sequences; returns the session-backed
/// and reference outcomes for arm-specific assertions.
fn run_both(
    model: &Mheta,
    what: &str,
    search: impl Fn(&dyn Evaluator) -> SearchOutcome,
) -> (SearchOutcome, SearchOutcome) {
    let rec = Recorder(Reference::new(model));
    let on = search(&rec);
    let reference = Reference::new(model);
    let off = search(&reference);
    assert_equivalent(&on, &off, what);
    assert_eq!(
        rec.0.log, reference.log,
        "{what}: visited-candidate sequences differ"
    );
    assert_eq!(
        off.delta.total(),
        0,
        "{what}: the reference tallies nothing"
    );
    (on, off)
}

fn model() -> (Mheta, usize, usize) {
    let spec = presets::dc();
    let bench = Benchmark::Jacobi(Jacobi::small());
    let model = build_model(&bench, &spec, false).expect("model builds");
    let n = spec.len();
    (model, bench.total_rows(), n)
}

/// Assert two outcomes are indistinguishable where determinism is
/// promised: best distribution, exact score bits, evaluation count,
/// and the full convergence curve.
fn assert_equivalent(on: &SearchOutcome, off: &SearchOutcome, what: &str) {
    assert_eq!(on.best.rows(), off.best.rows(), "{what}: best differs");
    assert_eq!(
        on.score_ns.to_bits(),
        off.score_ns.to_bits(),
        "{what}: score bits differ"
    );
    assert_eq!(
        on.evaluations, off.evaluations,
        "{what}: evaluation counts differ"
    );
    assert_eq!(
        on.history.len(),
        off.history.len(),
        "{what}: history lengths differ"
    );
    for (i, (a, b)) in on.history.iter().zip(&off.history).enumerate() {
        assert_eq!(a.evals, b.evals, "{what}: history[{i}].evals differs");
        assert_eq!(
            a.best_ns.to_bits(),
            b.best_ns.to_bits(),
            "{what}: history[{i}].best_ns differs"
        );
        assert_eq!(
            a.mean_ns.to_bits(),
            b.mean_ns.to_bits(),
            "{what}: history[{i}].mean_ns differs"
        );
    }
}

#[test]
fn gbs_delta_on_off_equivalent() {
    let (model, _, _) = model();
    let path = SpectrumPath::new(&mheta::apps::anchor_inputs(&model));
    let (on, _) = run_both(&model, "gbs", |eval| {
        gbs_search(
            &path,
            eval,
            GbsConfig {
                max_evals: 48,
                ..GbsConfig::default()
            },
        )
    });
    assert!(on.delta.delta_hits > 0, "gbs never hit the delta path");
}

#[test]
fn genetic_delta_on_off_equivalent() {
    let (model, total, n) = model();
    let (on, _) = run_both(&model, "genetic", |eval| {
        genetic_search(
            total,
            n,
            &[],
            eval,
            GeneticConfig {
                max_evals: 64,
                ..GeneticConfig::default()
            },
        )
    });
    assert!(on.delta.total() > 0, "delta session never engaged");
}

#[test]
fn annealing_delta_on_off_equivalent() {
    let (model, total, n) = model();
    let start = GenBlock::block(total, n);
    let (on, _) = run_both(&model, "annealing", |eval| {
        simulated_annealing(
            &start,
            eval,
            AnnealingConfig {
                max_evals: 64,
                ..AnnealingConfig::default()
            },
        )
    });
    // SA perturbs single boundaries against an accepted base: the
    // delta fast path must actually fire.
    assert!(
        on.delta.delta_hits > 0,
        "annealing never hit the delta path"
    );
}

/// Random search goes through the same seam as the other three: its
/// samples share (almost) nothing with a base, so the session answers
/// them in full — every evaluation tallied, none of them changed.
#[test]
fn random_search_is_unchanged_by_the_session() {
    let (model, total, n) = model();
    let (on, _) = run_both(&model, "random", |eval| {
        random_search(
            total,
            n,
            eval,
            RandomConfig {
                max_evals: 64,
                ..RandomConfig::default()
            },
        )
    });
    assert_eq!(
        on.delta.total(),
        on.evaluations as u64,
        "every random sample is tallied by the session"
    );
    assert!(
        on.delta.full_evals > on.delta.delta_hits,
        "random samples are mostly all-dirty: {:?}",
        on.delta
    );
}

#[test]
fn portfolio_delta_engages_without_changing_the_incumbent() {
    let (model, _, _) = model();
    let path = SpectrumPath::new(&mheta::apps::anchor_inputs(&model));
    let cfg = PortfolioConfig {
        max_evals_per_strategy: 40,
        ..PortfolioConfig::default()
    };
    let on = portfolio_search(&path, &model, cfg.clone());
    let reference = FallibleFn(|rows: &[usize]| model.try_eval_ns(rows));
    let off = portfolio_search(&path, &reference, cfg);
    assert_eq!(
        on.best.best.rows(),
        off.best.best.rows(),
        "portfolio incumbent changed"
    );
    assert_eq!(
        on.best.score_ns.to_bits(),
        off.best.score_ns.to_bits(),
        "portfolio incumbent score changed"
    );
    assert_eq!(on.winner, off.winner, "portfolio winner changed");
    assert_eq!(
        on.total_evals, off.total_evals,
        "portfolio evaluation count"
    );
    assert!(
        on.delta.delta_hits > 0,
        "portfolio never hit the delta path"
    );
    assert_eq!(off.delta.total(), 0, "the reference tallies nothing");
}

/// Without a deadline the portfolio adds nothing to and takes
/// nothing from its strategies: each run equals the standalone search at
/// the seed the portfolio derives for it.
#[test]
fn the_portfolio_is_its_four_strategies_run_alone() {
    let (model, total, n) = model();
    let path = SpectrumPath::new(&mheta::apps::anchor_inputs(&model));
    let cfg = PortfolioConfig {
        max_evals_per_strategy: 96,
        ..PortfolioConfig::default()
    };
    let budget = cfg.max_evals_per_strategy;
    let out = portfolio_search(&path, &model, cfg.clone());
    assert!(!out.deadline_hit);

    let blk = path.at(0.0);
    let seeds: Vec<GenBlock> = path.anchors().iter().map(|(_, g)| g.clone()).collect();
    let alone = [
        gbs_search(
            &path,
            &model,
            GbsConfig {
                max_evals: budget,
                ..GbsConfig::default()
            },
        ),
        genetic_search(
            total,
            n,
            &seeds,
            &model,
            GeneticConfig {
                max_evals: budget,
                seed: cfg.seed ^ 0x6E6E,
            },
        ),
        simulated_annealing(
            &blk,
            &model,
            AnnealingConfig {
                max_evals: budget,
                seed: cfg.seed ^ 0xA11E,
            },
        ),
        random_search(
            total,
            n,
            &model,
            RandomConfig {
                max_evals: budget,
                seed: cfg.seed ^ 0x7A9D,
            },
        ),
    ];
    assert_eq!(out.runs.len(), alone.len());
    for (run, single) in out.runs.iter().zip(&alone) {
        let what = run.strategy.name();
        assert_equivalent(&run.outcome, single, what);
        assert_eq!(run.outcome.delta, single.delta, "{what}: delta tallies");
    }
    assert_eq!(
        out.total_evals,
        alone.iter().map(|s| s.evaluations).sum::<usize>()
    );
}
