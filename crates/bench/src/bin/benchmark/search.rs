//! `search_deep`: re-search with a model in hand — the paper's "on the
//! fly" use. All `mheta-dist` and `core::model`; no simulator on the
//! measured path, no serving shell.

use std::time::Duration;

use mheta_apps::{anchor_inputs, run_measured};
use mheta_dist::{
    gbs_search, genetic_search, portfolio_search, random_search, simulated_annealing,
    AnnealingConfig, Evaluator, GbsConfig, GenBlock, GeneticConfig, PortfolioConfig,
    PortfolioOutcome, RandomConfig, SpectrumPath, Strategy,
};

use crate::cases::{Case, GRID};
use crate::golden::{bits, Golden, Tally};
use crate::run::{sample, sample_arms, timed, Ledger, Workload};
use crate::spans::{layer_self_per_request, Tracer};
use crate::stats::median_ns;

/// Evaluations granted to each strategy.
const BUDGET: usize = 512;
/// Iterations of the simulated runs behind `plan_speedup_vs_block`.
const SPEEDUP_ITERS: u32 = 3;

/// `portfolio_search` inside the innermost open span, with each
/// strategy thread's reported interval recorded as a child on its own
/// track.
pub fn portfolio_traced(
    tr: &mut Tracer,
    path: &SpectrumPath,
    eval: &(impl Evaluator + Sync),
    cfg: PortfolioConfig,
) -> PortfolioOutcome {
    let launched_ns = tr.open_start_ns();
    let out = portfolio_search(path, eval, cfg);
    for (track, run) in (1..).zip(&out.runs) {
        let name = match run.strategy {
            Strategy::Gbs => "dist.strategy.gbs",
            Strategy::Genetic => "dist.strategy.genetic",
            Strategy::Annealing => "dist.strategy.annealing",
            Strategy::Random => "dist.strategy.random",
        };
        let start_ns = launched_ns + run.started_ns;
        tr.child(name, start_ns, start_ns + run.elapsed_ns, track);
    }
    out
}

/// Cancellation criteria off (deterministic), delta evaluation on.
fn config(seed: u64) -> PortfolioConfig {
    PortfolioConfig {
        max_evals_per_strategy: BUDGET,
        seed,
        ..PortfolioConfig::default()
    }
}

struct Model {
    case: Case,
    path: SpectrumPath,
    /// Predicted iteration time under Block: no search may do worse,
    /// since every strategy starts from or includes it.
    blk_score_ns: f64,
}

pub struct SearchDeep {
    models: Vec<Model>,
    seed: u64,
}

impl SearchDeep {
    /// A search is correct when it returns a finite score no worse
    /// than Block's for a distribution of the right size.
    fn check(m: &Model, out: &PortfolioOutcome) -> Result<(), String> {
        let (best, score) = (&out.best.best, out.best.score_ns);
        if !score.is_finite() || score > m.blk_score_ns {
            return Err(format!(
                "{}: score {score} against Block's {}",
                m.case.label, m.blk_score_ns
            ));
        }
        if best.total() != m.case.blk.total() || best.len() != m.case.blk.len() {
            return Err(format!(
                "{}: malformed plan {:?}",
                m.case.label,
                best.rows()
            ));
        }
        Ok(())
    }
}

impl Workload for SearchDeep {
    const NAME: &'static str = "search_deep";
    const CALLS_PER_SWEEP: usize = GRID;
    const P50_PER_CALL: bool = false;
    const P50_NAME: &'static str = "search_sweep_ms_p50";
    const P95_NAME: &'static str = "search_ms_p95";

    fn set_up(seed: u64) -> Self {
        let models = Case::grid()
            .into_iter()
            .map(|case| Model {
                path: SpectrumPath::new(&anchor_inputs(&case.model)),
                blk_score_ns: case.model.eval_ns(case.blk.rows()),
                case,
            })
            .collect();
        SearchDeep { models, seed }
    }

    fn verify(&mut self, golden: &mut Golden, tally: &mut Tally, ledger: &mut Ledger) {
        let mut log_speedup = 0.0;
        for m in &self.models {
            let out = portfolio_search(&m.path, &m.case.model, config(1));
            let best = &out.best.best;
            golden.check(
                format!("search/{}", m.case.label),
                format!("rows={:?} score={}", best.rows(), bits(out.best.score_ns)),
                tally,
            );
            let secs = |dist: &GenBlock| {
                let c = &m.case;
                run_measured(&c.bench, &c.spec, dist, SPEEDUP_ITERS, c.prefetch)
                    .expect("the simulated run completes")
                    .secs
            };
            log_speedup += (secs(&m.case.blk) / secs(best)).ln();
        }
        let speedup = (log_speedup / self.models.len() as f64).exp();
        golden.check("search/plan_speedup_vs_block".into(), bits(speedup), tally);
        ledger.set("plan_speedup_vs_block", speedup, self.models.len());
    }

    fn call(&mut self, i: u64) -> (u64, Result<(), String>) {
        let m = &self.models[i as usize % GRID];
        let cfg = config(self.seed.wrapping_add(i / GRID as u64));
        let (ns, out) = timed(|| portfolio_search(&m.path, &m.case.model, cfg));
        (ns, Self::check(m, &out))
    }

    fn layers(
        &mut self,
        budget: Duration,
        tracer: &mut Tracer,
        ledger: &mut Ledger,
        tally: &mut Tally,
    ) {
        let slice = budget / 9;
        let (models, seed) = (&self.models, self.seed);
        let sweeps = 40 * GRID;

        let mut off = Tracer::new(false);
        let (mut evals, mut first_sweep_evals) = (0, 0);
        let (mut delta_hits, mut full_evals) = (0, 0);
        let [untraced, traced] = sample_arms(2 * slice, GRID, sweeps, |i, arm| {
            let m = &models[i % GRID];
            let cfg = config(seed.wrapping_add((i / GRID) as u64));
            if arm == 0 {
                portfolio_traced(&mut off, &m.path, &m.case.model, cfg);
                return;
            }
            let out = tracer.request("dist.portfolio", i as u64, |tr| {
                portfolio_traced(tr, &m.path, &m.case.model, cfg)
            });
            evals += out.total_evals;
            if i < GRID {
                first_sweep_evals += out.total_evals;
            }
            delta_hits += out.delta.delta_hits;
            full_evals += out.delta.full_evals;
            tally.record(Self::check(m, &out));
        });
        ledger.calls += (untraced.len() + traced.len()) as u64;
        ledger.set_median("dist.portfolio_ms", &traced, 1e6);
        ledger.set("dist.evals_per_sweep", first_sweep_evals as f64, GRID);
        ledger.set(
            "dist.ns_per_eval",
            traced.iter().sum::<u64>() as f64 / evals as f64,
            evals,
        );
        ledger.set(
            "dist.delta_hit_ratio",
            delta_hits as f64 / (delta_hits + full_evals).max(1) as f64,
            evals,
        );
        let (traced_ns, untraced_ns) = (median_ns(&traced, 1.0), median_ns(&untraced, 1.0));
        ledger.set(
            "trace.overhead_pct",
            100.0 * (traced_ns - untraced_ns) / untraced_ns,
            traced.len(),
        );
        let layers = layer_self_per_request(&tracer.spans, |name| name.contains('.'));
        ledger.set(
            "trace.coverage_pct",
            100.0 * median_ns(&layers, 1.0) / untraced_ns,
            layers.len(),
        );

        // Each strategy alone: the portfolio waits for the slowest.
        type Alone = (&'static str, fn(&Model));
        let strategies: [Alone; 4] = [
            ("dist.gbs_ms", |m| {
                let cfg = GbsConfig {
                    max_evals: BUDGET,
                    ..GbsConfig::default()
                };
                std::hint::black_box(gbs_search(&m.path, &m.case.model, cfg));
            }),
            ("dist.ga_ms", |m| {
                let seeds: Vec<GenBlock> = m.path.anchors().iter().map(|a| a.1.clone()).collect();
                let (blk, cfg) = (
                    &m.case.blk,
                    GeneticConfig {
                        max_evals: BUDGET,
                        ..GeneticConfig::default()
                    },
                );
                std::hint::black_box(genetic_search(
                    blk.total(),
                    blk.len(),
                    &seeds,
                    &m.case.model,
                    cfg,
                ));
            }),
            ("dist.sa_ms", |m| {
                let cfg = AnnealingConfig {
                    max_evals: BUDGET,
                    ..AnnealingConfig::default()
                };
                std::hint::black_box(simulated_annealing(&m.case.blk, &m.case.model, cfg));
            }),
            ("dist.random_ms", |m| {
                let (blk, cfg) = (
                    &m.case.blk,
                    RandomConfig {
                        max_evals: BUDGET,
                        ..RandomConfig::default()
                    },
                );
                std::hint::black_box(random_search(blk.total(), blk.len(), &m.case.model, cfg));
            }),
        ];
        for (name, run) in strategies {
            let ns = sample(slice, GRID, 13 * GRID, |i| run(&models[i % GRID]));
            ledger.set_median(name, &ns, 1e6);
        }

        // The evaluation kernel on the Block rows of each model.
        let micro = 250 * GRID;
        let eval_full = sample(slice / 3, GRID, micro, |i| {
            let m = &models[i % GRID];
            std::hint::black_box(m.case.model.eval_ns(m.case.blk.rows()));
        });
        ledger.set_median("core.eval_full_ns", &eval_full, 1.0);
        let rank_cost = sample(slice / 3, GRID, micro, |i| {
            let (m, rows) = (
                &models[i % GRID].case.model,
                models[i % GRID].case.blk.rows(),
            );
            let rank = i / GRID % rows.len();
            std::hint::black_box(m.rank_cost(rank, rows[rank]));
        });
        ledger.set_median("core.rank_cost_ns", &rank_cost, 1.0);
        let predict = sample(slice / 3, GRID, micro, |i| {
            let m = &models[i % GRID];
            std::hint::black_box(m.case.model.predict(m.case.blk.rows())).expect("Block predicts");
        });
        ledger.set_median("core.predict_us", &predict, 1e3);
    }
}
