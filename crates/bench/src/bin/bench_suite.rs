//! The paper's evaluation as one machine-checkable JSON document, and
//! the continuous gate over it.
//!
//! ```text
//! cargo run --release -p mheta-bench --bin bench_suite -- --check
//! ```
//!
//! One run measures everything once and records it raw (schema
//! `mheta-bench/v3`): `spectrum` — the canonical 13-point sweep,
//! predicted and actual seconds, of the paper's four applications on
//! the seventeen emulated architectures and of Jacobi with prefetching
//! on the twelve memory-restricted ones (80 series, 1,040 points, each
//! simulated once, one model build per series); `entries` — accuracy,
//! makespan and error attribution under Blk on the four Table 1 presets
//! (the same models, one traced run each); `ablation` — what each model
//! ingredient and each unmodelled simulator effect is worth; `table1`,
//! `adaptive`, `portfolio`.
//!
//! Everything else is a **view**. The `figures` block (Figure 9's
//! accuracy summaries, Figures 10/11's and §5.3's picks, Eq. 2 against
//! Eq. 1) is [`figures`], a pure function of the `spectrum` block; what
//! this binary prints is [`render`], a pure function of the document,
//! and EXPERIMENTS.md carries its blocks verbatim between markers (a
//! tier-1 test re-renders the committed document and compares;
//! `BLESS=1` rewrites the blocks).
//!
//! Every field is simulated (virtual time) or model arithmetic, so two
//! runs at one commit are byte-identical. Nothing here reads a wall
//! clock — what an evaluation, a search or a served request *costs* is
//! `benchmark`'s ledger (see `crates/bench/src/bin/benchmark`).
//!
//! Run from the repo root; any other argument is rejected (exit 2):
//!
//! * no argument — write `BENCH_full.json`, the committed baseline;
//! * `--check [path]` — write the fresh document to
//!   `target/bench/BENCH_full.json` (the baseline is never touched, so
//!   a failed gate still fails when rerun) and compare it against the
//!   baseline (`path`, default `BENCH_full.json`): the `table1`,
//!   `spectrum`, `ablation` and `figures` blocks must equal the
//!   baseline's (the first difference is printed); entries'
//!   predicted/actual seconds, makespans, the adaptive seconds and the
//!   portfolio scores ±10 % relative; accuracy (`pct_diff`) worse by
//!   more than 2 points; the adaptive block's counts and the
//!   portfolio's winner and evaluation count exactly.
//!
//! Either way the document's own rules run ([`gate`]). The document is
//! always written; every problem is printed, then the exit status is 1
//! if there was any.

use std::fmt::Write as _;

use mheta_apps::{build_model, percent_difference, run_adaptive, run_observed, Benchmark, Jacobi};
use mheta_bench::{
    canonical_labels, canonical_predictions, canonical_sweep, experiment_iters, Stats, SweepPoint,
};
use mheta_core::{Mheta, PredictOptions, ReductionModel};
use mheta_dist::{
    gbs_search, genetic_search, portfolio_search, random_search, simulated_annealing,
    AnnealingConfig, GbsConfig, GenBlock, GeneticConfig, PortfolioConfig, RandomConfig,
    SpectrumPath,
};
use mheta_obs::AuditReport;
use mheta_serve::benchmark_by_name;
use mheta_sim::{presets, ClusterSpec};
use serde::Value;

const SCHEMA: &str = "mheta-bench/v3";

/// The committed baseline document.
const COMMITTED: &str = "BENCH_full.json";

/// Samples per leg of the canonical spectrum: the paper-like 13 points.
const STEPS_PER_LEG: usize = 3;

/// Table 1's configurations: the `table1` and `entries` blocks and the
/// `picks` view cover these, by name.
const TABLE1: [&str; 4] = ["DC", "IO", "HY1", "HY2"];

/// The architecture the model ablations run on.
const ABLATION_ARCH: &str = "HY1";

fn ok<T, E: std::fmt::Display>(result: Result<T, E>, bench: &Benchmark, spec: &ClusterSpec) -> T {
    result.unwrap_or_else(|e| panic!("{} on {}: {e}", bench.name(), spec.name))
}

fn floats(values: impl IntoIterator<Item = f64>) -> Value {
    Value::Array(values.into_iter().map(Value::Float).collect())
}

/// One (architecture, application) `entries` element: accuracy under
/// Blk, the traced run's makespan and its error-attribution audit.
fn measure(model: &Mheta, bench: &Benchmark, spec: &ClusterSpec, iters: u32) -> Value {
    let blk = GenBlock::block(bench.total_rows(), spec.len());
    let pred = ok(model.predict(blk.rows()), bench, spec);
    let predicted_secs = pred.app_secs(iters);
    let obs = ok(run_observed(bench, spec, &blk, iters, false), bench, spec);
    let actual_secs = obs.measured.secs;
    let audit = AuditReport::audit(&pred, iters, &obs.traces, &obs.windows);
    let makespan_ns = obs
        .traces
        .iter()
        .map(|t| t.finish.as_nanos())
        .max()
        .unwrap_or(0);
    let top = audit
        .top_terms(3)
        .into_iter()
        .map(|(term, residual_ns)| {
            Value::object(vec![
                ("term", Value::Str(term.to_string())),
                ("residual_ns", Value::Float(residual_ns)),
            ])
        })
        .collect();
    Value::object(vec![
        ("arch", Value::Str(spec.name.to_string())),
        ("app", Value::Str(bench.name().to_string())),
        ("iters", Value::UInt(u64::from(iters))),
        ("predicted_secs", Value::Float(predicted_secs)),
        ("actual_secs", Value::Float(actual_secs)),
        (
            "pct_diff",
            Value::Float(percent_difference(predicted_secs, actual_secs)),
        ),
        ("makespan_ns", Value::UInt(makespan_ns)),
        (
            "audit",
            Value::object(vec![
                ("total_residual_ns", Value::Float(audit.total_residual_ns())),
                ("top_terms", Value::Array(top)),
            ]),
        ),
    ])
}

fn errors(points: &[SweepPoint]) -> Vec<f64> {
    points.iter().map(SweepPoint::percent_difference).collect()
}

/// One row of the model-ingredient ablation: mean error over the
/// spectrum with the full model, with blocking (Eq. 3/4) switched off,
/// and with a flat serialized reduction instead of the binomial tree
/// the collective executes — each against the actuals already swept.
fn ingredient_row(model: &Mheta, bench: &Benchmark, iters: u32, points: &[SweepPoint]) -> Value {
    let mean_error_with = |opts: PredictOptions| {
        let predicted = canonical_predictions(model, STEPS_PER_LEG, iters, opts)
            .unwrap_or_else(|e| panic!("{} ablation: {e}", bench.name()));
        let errors: Vec<f64> = predicted
            .iter()
            .zip(points)
            .map(|(&p, point)| percent_difference(p, point.act_secs))
            .collect();
        Value::Float(Stats::of(&errors).avg)
    };
    Value::object(vec![
        ("app", Value::Str(bench.name().to_string())),
        (
            "full_mean_error_pct",
            Value::Float(Stats::of(&errors(points)).avg),
        ),
        (
            "no_waits_mean_error_pct",
            mean_error_with(PredictOptions {
                model_waits: false,
                ..PredictOptions::default()
            }),
        ),
        (
            "flat_reduction_mean_error_pct",
            mean_error_with(PredictOptions {
                reduction: ReductionModel::Flat,
                ..PredictOptions::default()
            }),
        ),
    ])
}

/// The simulator-side ablations of `bench` on `base`: the full model's
/// error as the cost perturbation grows, and with the effects the model
/// cannot see (cache-tier speedup, warm re-reads) switched off. A
/// variant equal to `base` is the series already swept (`reference`);
/// every other one is its own model build and sweep.
fn simulator_rows(bench: &Benchmark, base: &ClusterSpec, reference: &[f64]) -> (Value, Value) {
    let variant = |amplitude: f64, cache_tier: bool, warm_reads: bool| {
        let mut spec = base.clone();
        spec.noise.amplitude = amplitude;
        for node in &mut spec.nodes {
            if !cache_tier {
                node.cache_speedup = 1.0;
            }
            if !warm_reads {
                node.warm_read_factor = 1.0;
            }
        }
        spec
    };
    let row = |key: &str, label: Value, spec: ClusterSpec| {
        let stats = if spec == *base {
            Stats::of(reference)
        } else {
            let iters = experiment_iters(bench);
            let model = ok(build_model(bench, &spec, false), bench, &spec);
            let sweep = canonical_sweep(&model, bench, &spec, STEPS_PER_LEG, iters, false);
            Stats::of(&errors(&ok(sweep, bench, &spec)))
        };
        Value::object(vec![
            (key, label),
            ("mean_error_pct", Value::Float(stats.avg)),
            ("max_error_pct", Value::Float(stats.max)),
        ])
    };
    let noise = [0.0, 0.01, 0.03, 0.05, 0.10]
        .into_iter()
        .map(|a| row("amplitude", Value::Float(a), variant(a, true, true)))
        .collect();
    let default = base.noise.amplitude;
    let unmodelled = [
        ("full simulator (default)", variant(default, true, true)),
        ("no cache-tier speedup", variant(default, false, true)),
        ("no warm re-reads", variant(default, true, false)),
        (
            "no noise, no cache, no warm reads",
            variant(0.0, false, false),
        ),
    ]
    .into_iter()
    .map(|(label, spec)| row("variant", Value::Str(label.into()), spec))
    .collect();
    (Value::Array(noise), Value::Array(unmodelled))
}

/// Everything that is measured on the emulated architectures, each
/// point once: the `entries`, `spectrum` and `ablation` blocks.
fn sweep_blocks() -> (Value, Value, Value) {
    let mut entries = Vec::new();
    let mut series = Vec::new();
    let mut ingredients = Vec::new();
    let mut simulator = None;
    let sweeps = [
        (presets::seventeen_architectures(), false),
        (presets::twelve_prefetch_architectures(), true),
    ];
    for (spec, prefetch) in sweeps
        .into_iter()
        .flat_map(|(archs, prefetch)| archs.into_iter().map(move |spec| (spec, prefetch)))
    {
        for bench in Benchmark::paper_four() {
            if prefetch && !bench.supports_prefetch() {
                continue;
            }
            let iters = experiment_iters(&bench);
            let model = ok(build_model(&bench, &spec, prefetch), &bench, &spec);
            let sweep = canonical_sweep(&model, &bench, &spec, STEPS_PER_LEG, iters, prefetch);
            let points = ok(sweep, &bench, &spec);
            if !prefetch && TABLE1.contains(&spec.name.as_str()) {
                entries.push(measure(&model, &bench, &spec, iters));
            }
            if !prefetch && spec.name == ABLATION_ARCH {
                ingredients.push(ingredient_row(&model, &bench, iters, &points));
                // Jacobi, the first of the paper's four.
                simulator.get_or_insert_with(|| simulator_rows(&bench, &spec, &errors(&points)));
            }
            series.push(Value::object(vec![
                ("arch", Value::Str(spec.name.to_string())),
                ("app", Value::Str(bench.name().to_string())),
                ("prefetch", Value::Bool(prefetch)),
                ("iters", Value::UInt(u64::from(iters))),
                ("predicted_secs", floats(points.iter().map(|p| p.pred_secs))),
                ("actual_secs", floats(points.iter().map(|p| p.act_secs))),
            ]));
        }
    }
    let labels = canonical_labels(STEPS_PER_LEG)
        .into_iter()
        .map(|(label, _)| Value::Str(label))
        .collect();
    let spectrum = Value::object(vec![
        ("labels", Value::Array(labels)),
        ("series", Value::Array(series)),
    ]);
    let (noise, unmodelled) = simulator.expect("the ablation architecture is one of the seventeen");
    let ablation = Value::object(vec![
        ("arch", Value::Str(ABLATION_ARCH.into())),
        ("model", Value::Array(ingredients)),
        ("noise", noise),
        ("unmodelled", unmodelled),
    ]);
    (Value::Array(entries), spectrum, ablation)
}

/// The `table1` block: the four presets' description and node
/// parameters.
fn table1_block(presets: &[ClusterSpec]) -> Value {
    let node = |(i, n): (usize, &mheta_sim::NodeSpec)| {
        Value::object(vec![
            ("node", Value::UInt(i as u64)),
            ("cpu_power", Value::Float(n.cpu_power)),
            ("memory_kib", Value::UInt(n.memory_bytes / 1024)),
            ("io_read_ns_per_byte", Value::Float(n.io_read_ns_per_byte)),
            ("io_read_seek_ms", Value::Float(n.io_read_seek_ns / 1e6)),
        ])
    };
    let presets = presets.iter().map(|spec| {
        Value::object(vec![
            ("arch", Value::Str(spec.name.clone())),
            (
                "description",
                Value::Str(presets::table1_description(&spec.name).into()),
            ),
            (
                "nodes",
                Value::Array(spec.nodes.iter().enumerate().map(node).collect()),
            ),
        ])
    });
    Value::Array(presets.collect())
}

/// The adaptive-resilience scenario behind two of [`gate`]'s rules:
///
/// 1. **Zero false positives** — an adaptive Jacobi run on every
///    fault-free preset in the suite must produce no detector
///    transitions and no rebalances;
/// 2. **Gap recovery** — under a persistent 4× slowdown of one
///    baseline node on DC, mid-run rebalancing must recover at least
///    60% of the makespan gap between the static CPU-power
///    distribution and the oracle (degraded-weight) distribution.
fn adaptive_entry(fault_free: &[ClusterSpec]) -> Value {
    let app = Jacobi {
        rows: 128,
        cols: 16,
        seed: 0x4a43,
    };
    let iters: u32 = 40;
    let mut false_positives = 0usize;
    for spec in fault_free {
        let powers: Vec<f64> = spec.nodes.iter().map(|n| n.cpu_power).collect();
        let layout = GenBlock::apportion(app.rows, &powers).rows().to_vec();
        let run = run_adaptive(&app, spec, &layout, iters, true)
            .unwrap_or_else(|e| panic!("adaptive Jacobi on {}: {e}", spec.name));
        false_positives += run
            .outcomes
            .iter()
            .map(|o| o.transitions.len() + o.rebalances.len())
            .sum::<usize>();
    }

    let (degraded_rank, factor) = (3usize, 4.0);
    let spec = presets::with_degrade(presets::dc(), degraded_rank, 6, factor);
    let powers: Vec<f64> = spec.nodes.iter().map(|n| n.cpu_power).collect();
    let layout0 = GenBlock::apportion(app.rows, &powers).rows().to_vec();

    let static_run =
        run_adaptive(&app, &spec, &layout0, iters, false).expect("static baseline run");
    let adaptive_run = run_adaptive(&app, &spec, &layout0, iters, true).expect("adaptive run");
    let mut oracle_w = powers.clone();
    oracle_w[degraded_rank] /= factor;
    let oracle_layout = GenBlock::apportion(app.rows, &oracle_w).rows().to_vec();
    let oracle_run = run_adaptive(&app, &spec, &oracle_layout, iters, false).expect("oracle run");

    let (s, a, o) = (
        static_run.measured.secs,
        adaptive_run.measured.secs,
        oracle_run.measured.secs,
    );
    let view = adaptive_run
        .outcomes
        .iter()
        .find(|out| out.alive)
        .expect("survivors exist");
    Value::object(vec![
        ("arch", Value::Str(spec.name.clone())),
        ("app", Value::Str("Jacobi".into())),
        ("iters", Value::UInt(u64::from(iters))),
        ("static_secs", Value::Float(s)),
        ("adaptive_secs", Value::Float(a)),
        ("oracle_secs", Value::Float(o)),
        ("gap_recovered", Value::Float((s - a) / (s - o))),
        ("rebalances", Value::UInt(view.rebalances.len() as u64)),
        (
            "rows_moved",
            Value::UInt(view.rebalances.iter().map(|r| r.rows_moved as u64).sum()),
        ),
        (
            "detection_latencies_ns",
            Value::Array(
                view.detection_latencies_ns
                    .iter()
                    .map(|&ns| Value::UInt(ns))
                    .collect(),
            ),
        ),
        (
            "fault_free_false_positives",
            Value::UInt(false_positives as u64),
        ),
    ])
}

/// Portfolio search against each single strategy on the real Jacobi@DC
/// model, at the same per-strategy budget and with the portfolio's own
/// derived per-strategy seeds: [`gate`] requires the portfolio's score
/// to be no worse than the best of the four.
fn portfolio_entry() -> Value {
    let bench = benchmark_by_name("jacobi", "small").expect("known app");
    let spec = presets::dc();
    let model = build_model(&bench, &spec, false).expect("model");
    let path = SpectrumPath::new(&mheta_apps::anchor_inputs(&model));
    let budget = 64;
    let cfg = PortfolioConfig {
        max_evals_per_strategy: budget,
        ..PortfolioConfig::default()
    };
    let out = portfolio_search(&path, &model, cfg.clone());
    let blk = path.at(0.0);
    let seeds: Vec<GenBlock> = path.anchors().iter().map(|(_, g)| g.clone()).collect();
    let singles = [
        gbs_search(
            &path,
            &model,
            GbsConfig {
                max_evals: budget,
                ..GbsConfig::default()
            },
        ),
        genetic_search(
            blk.total(),
            blk.rows().len(),
            &seeds,
            &model,
            GeneticConfig {
                max_evals: budget,
                seed: cfg.seed ^ 0x6E6E,
                ..GeneticConfig::default()
            },
        ),
        simulated_annealing(
            &blk,
            &model,
            AnnealingConfig {
                max_evals: budget,
                seed: cfg.seed ^ 0xA11E,
                ..AnnealingConfig::default()
            },
        ),
        random_search(
            blk.total(),
            blk.rows().len(),
            &model,
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
    Value::object(vec![
        ("budget", Value::UInt(budget as u64)),
        ("winner", Value::Str(out.winner.name().to_string())),
        ("portfolio_score_ns", Value::Float(out.best.score_ns)),
        ("best_single_score_ns", Value::Float(best_single)),
        ("total_evals", Value::UInt(out.total_evals as u64)),
    ])
}

fn at<'a>(doc: &'a Value, block: &str, field: &str) -> Option<&'a Value> {
    doc.get(block)?.get(field)
}

/// `obj[field]` as text; `?` when absent.
fn text<'a>(obj: &'a Value, field: &str) -> &'a str {
    obj.get(field).and_then(Value::as_str).unwrap_or("?")
}

/// `obj[field]` as a number; NaN when absent, which fails every rule
/// that reads it.
fn number(obj: &Value, field: &str) -> f64 {
    obj.get(field).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

/// `obj[field]` as an array; empty when absent.
fn list<'a>(obj: &'a Value, field: &str) -> &'a [Value] {
    obj.get(field).and_then(Value::as_array).unwrap_or(&[])
}

fn num(doc: &Value, block: &str, field: &str) -> f64 {
    doc.get(block).map_or(f64::NAN, |b| number(b, field))
}

/// One `spectrum.series` element, read back.
struct Series<'a> {
    arch: &'a str,
    app: &'a str,
    prefetch: bool,
    predicted: Vec<f64>,
    actual: Vec<f64>,
    /// Each point's §5.2.1 percent difference.
    errors: Vec<f64>,
}

fn series_of(spectrum: &Value) -> Vec<Series<'_>> {
    let secs = |s, field| -> Vec<f64> { list(s, field).iter().filter_map(Value::as_f64).collect() };
    let series = list(spectrum, "series").iter().map(|s| {
        let (predicted, actual) = (secs(s, "predicted_secs"), secs(s, "actual_secs"));
        let errors = predicted.iter().zip(&actual);
        Series {
            arch: text(s, "arch"),
            app: text(s, "app"),
            prefetch: s.get("prefetch") == Some(&Value::Bool(true)),
            errors: errors.map(|(&p, &a)| percent_difference(p, a)).collect(),
            predicted,
            actual,
        }
    });
    series.collect()
}

/// Index of the smallest value, the earlier one on a tie.
fn argmin(values: impl Iterator<Item = f64>) -> usize {
    let first_least = values.enumerate().min_by(|a, b| a.1.total_cmp(&b.1));
    first_least.map_or(0, |(i, _)| i)
}

/// Figure 9 for one group of series: the error's mean, maximum and
/// where the maximum is, overall and min/avg/max per spectrum label.
fn accuracy(labels: &[&str], group: &[&Series]) -> Value {
    // Label-major: sample `k` is series `k % n` at label `k / n`. A
    // series too short for a label reads NaN, which `gate` reports.
    let mut all = Vec::new();
    let per_label = labels
        .iter()
        .enumerate()
        .map(|(i, &label)| {
            let at_label = group
                .iter()
                .map(|s| s.errors.get(i).copied().unwrap_or(f64::NAN));
            all.extend(at_label);
            let stats = Stats::of(&all[all.len() - group.len()..]);
            Value::object(vec![
                ("label", Value::Str(label.into())),
                ("min", Value::Float(stats.min)),
                ("avg", Value::Float(stats.avg)),
                ("max", Value::Float(stats.max)),
            ])
        })
        .collect();
    let overall = Stats::of(&all);
    let worst = argmin(all.iter().map(|e| -e));
    let worst = group
        .get(worst % group.len().max(1))
        .map_or(Value::Null, |s| {
            Value::object(vec![
                ("arch", Value::Str(s.arch.into())),
                ("app", Value::Str(s.app.into())),
                ("label", Value::Str(labels[worst / group.len()].into())),
            ])
        });
    Value::object(vec![
        ("mean_error_pct", Value::Float(overall.avg)),
        ("accuracy_pct", Value::Float(100.0 - overall.avg)),
        ("max_error_pct", Value::Float(overall.max)),
        ("worst", worst),
        ("samples", Value::UInt(overall.n as u64)),
        ("per_label", Value::Array(per_label)),
    ])
}

/// Figures 10/11 and §5.3 for one series: the best and worst actual
/// points, the model's pick (its best predicted point), and what
/// trusting the pick costs (actual time at the pick over actual best;
/// 1.0 = optimal).
fn pick(labels: &[&str], s: &Series) -> Value {
    let best = argmin(s.actual.iter().copied());
    let worst = argmin(s.actual.iter().map(|a| -a));
    let picked = argmin(s.predicted.iter().copied());
    let actual = |i: usize| s.actual.get(i).copied().unwrap_or(f64::NAN);
    let point = |i: usize| {
        Value::object(vec![
            (
                "label",
                Value::Str(labels.get(i).copied().unwrap_or("?").into()),
            ),
            ("secs", Value::Float(actual(i))),
        ])
    };
    Value::object(vec![
        ("arch", Value::Str(s.arch.into())),
        ("app", Value::Str(s.app.into())),
        ("best", point(best)),
        ("worst", point(worst)),
        ("ratio", Value::Float(actual(worst) / actual(best))),
        ("pick", point(picked)),
        ("pick_cost", Value::Float(actual(picked) / actual(best))),
    ])
}

/// What modelling prefetching buys, under Blk: each prefetch series
/// against the synchronous series of the same architecture and
/// application — the prefetch run predicted by its own model (Eq. 2)
/// and by the synchronous one (Eq. 1, as if the unrolled loop were
/// ordinary reads).
fn prefetch_model(series: &[Series]) -> Value {
    let mut rows = Vec::new();
    let (mut eq2, mut eq1) = (Vec::new(), Vec::new());
    for pf in series.iter().filter(|s| s.prefetch) {
        let Some(sync) = series
            .iter()
            .find(|s| !s.prefetch && s.arch == pf.arch && s.app == pf.app)
        else {
            continue;
        };
        let first = |v: &[f64]| v.first().copied().unwrap_or(f64::NAN);
        let (act_sync, act_pf) = (first(&sync.actual), first(&pf.actual));
        let (pred_eq2, pred_eq1) = (first(&pf.predicted), first(&sync.predicted));
        eq2.push(percent_difference(pred_eq2, act_pf));
        eq1.push(percent_difference(pred_eq1, act_pf));
        rows.push(Value::object(vec![
            ("arch", Value::Str(pf.arch.into())),
            ("app", Value::Str(pf.app.into())),
            ("sync_secs", Value::Float(act_sync)),
            ("prefetch_secs", Value::Float(act_pf)),
            ("speedup", Value::Float(act_sync / act_pf)),
            ("eq2_predicted_secs", Value::Float(pred_eq2)),
            ("eq2_error_pct", Value::Float(eq2[eq2.len() - 1])),
            ("eq1_predicted_secs", Value::Float(pred_eq1)),
            ("eq1_error_pct", Value::Float(eq1[eq1.len() - 1])),
        ]));
    }
    Value::object(vec![
        ("rows", Value::Array(rows)),
        ("eq2_mean_error_pct", Value::Float(Stats::of(&eq2).avg)),
        ("eq1_mean_error_pct", Value::Float(Stats::of(&eq1).avg)),
    ])
}

/// The `figures` block: every figure of the evaluation as a view of the
/// `spectrum` block, and of nothing else.
fn figures(spectrum: &Value) -> Value {
    let labels: Vec<&str> = list(spectrum, "labels")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    let series = series_of(spectrum);
    let sync: Vec<&Series> = series.iter().filter(|s| !s.prefetch).collect();
    let prefetch: Vec<&Series> = series.iter().filter(|s| s.prefetch).collect();
    let mut apps: Vec<&str> = Vec::new();
    for s in &sync {
        if !apps.contains(&s.app) {
            apps.push(s.app);
        }
    }
    let per_app = apps
        .into_iter()
        .map(|app| {
            let of_app: Vec<&Series> = sync.iter().copied().filter(|s| s.app == app).collect();
            let Value::Object(mut fields) = accuracy(&labels, &of_app) else {
                unreachable!("accuracy returns an object");
            };
            fields.insert(0, ("app".into(), Value::Str(app.into())));
            Value::Object(fields)
        })
        .collect();
    let picks = sync
        .iter()
        .filter(|s| TABLE1.contains(&s.arch))
        .map(|s| pick(&labels, s))
        .collect();
    Value::object(vec![
        (
            "accuracy",
            Value::object(vec![
                ("all", accuracy(&labels, &sync)),
                ("per_app", Value::Array(per_app)),
                ("prefetch", accuracy(&labels, &prefetch)),
            ]),
        ),
        ("picks", Value::Array(picks)),
        ("prefetch_model", prefetch_model(&series)),
    ])
}

/// `value`'s scalars (and empty containers) in document order, each
/// under its path: `a.b` into an object, `a[i]` into an array.
fn leaves<'a>(path: String, value: &'a Value, out: &mut Vec<(String, &'a Value)>) {
    match value {
        Value::Object(pairs) if !pairs.is_empty() => {
            let dot = if path.is_empty() { "" } else { "." };
            for (key, v) in pairs {
                leaves(format!("{path}{dot}{key}"), v, out);
            }
        }
        Value::Array(items) if !items.is_empty() => {
            for (i, v) in items.iter().enumerate() {
                leaves(format!("{path}[{i}]"), v, out);
            }
        }
        scalar => out.push((path, scalar)),
    }
}

/// How a table shows one scalar: floats to three decimals.
fn cell(value: &Value) -> String {
    match value {
        Value::Float(x) => format!("{x:.3}"),
        Value::Str(s) => s.clone(),
        other => other.to_json(),
    }
}

/// `rows` as an aligned plain-text table whose column headers are the
/// document's own field names: one column per scalar (a nested object
/// flattens to `a.b`; an array is a table of its own).
fn table<'a>(rows: impl IntoIterator<Item = &'a Value>) -> String {
    let mut lines: Vec<Vec<String>> = Vec::new();
    for row in rows {
        let mut fields = Vec::new();
        leaves(String::new(), row, &mut fields);
        fields.retain(|(path, v)| !path.contains('[') && !matches!(v, Value::Array(_)));
        if lines.is_empty() {
            lines.push(fields.iter().map(|(path, _)| path.clone()).collect());
        }
        lines.push(fields.iter().map(|(_, v)| cell(v)).collect());
    }
    let width = |column: usize| {
        let cells = lines.iter().filter_map(|line| line.get(column));
        cells.map(|cell| cell.chars().count()).max().unwrap_or(0)
    };
    let columns = lines.iter().map(Vec::len).max().unwrap_or(0);
    let widths: Vec<usize> = (0..columns).map(width).collect();
    let mut out = String::new();
    for line in &lines {
        for (cell, width) in line.iter().zip(&widths) {
            let _ = write!(out, "{cell:>width$}  ");
        }
        out.truncate(out.trim_end().len());
        out.push('\n');
    }
    out
}

/// One [`accuracy`] object: its per-label table, then its summary.
fn accuracy_view(acc: &Value) -> String {
    table(list(acc, "per_label")) + "\n" + &table([acc])
}

/// The document as named blocks of plain text, in EXPERIMENTS.md's
/// order; the same pure function of the document whether it was just
/// measured or parsed from the committed file.
fn views(doc: &Value) -> Vec<(&'static str, String)> {
    let null = Value::Null;
    let block = |name: &str| doc.get(name).unwrap_or(&null);
    let figure = |name: &str| block("figures").get(name).unwrap_or(&null);
    let accuracy = |name: &str| figure("accuracy").get(name).unwrap_or(&null);
    let table1: Vec<String> = list(doc, "table1")
        .iter()
        .map(|preset| {
            let title = format!(
                "{}: {}\n",
                text(preset, "arch"),
                text(preset, "description")
            );
            title + &table(list(preset, "nodes"))
        })
        .collect();
    let ablation: Vec<String> = ["model", "noise", "unmodelled"]
        .iter()
        .map(|rows| table(list(block("ablation"), rows)))
        .collect();
    vec![
        ("table1", table1.join("\n")),
        ("accuracy", accuracy_view(accuracy("all"))),
        ("accuracy_prefetch", accuracy_view(accuracy("prefetch"))),
        (
            "accuracy_per_app",
            table(list(figure("accuracy"), "per_app")),
        ),
        ("picks", table(list(block("figures"), "picks"))),
        (
            "prefetch_model",
            table(list(figure("prefetch_model"), "rows"))
                + "\n"
                + &table([figure("prefetch_model")]),
        ),
        (
            "ablation",
            table([block("ablation")]) + "\n" + &ablation.join("\n"),
        ),
        ("entries", table(list(doc, "entries"))),
        ("adaptive", table([block("adaptive")])),
        ("portfolio", table([block("portfolio")])),
    ]
}

/// What `bench_suite` prints: every view under its name.
fn render(doc: &Value) -> String {
    views(doc)
        .iter()
        .map(|(name, body)| format!("== {name} ==\n{body}\n"))
        .collect()
}

/// The first place two documents differ: `path: first | second` where
/// a value differs, each side's own `path = value` where the shape does.
fn first_difference(root: &str, base: Option<&Value>, fresh: Option<&Value>) -> Option<String> {
    let (mut b, mut f) = (Vec::new(), Vec::new());
    leaves(root.to_string(), base.unwrap_or(&Value::Null), &mut b);
    leaves(root.to_string(), fresh.unwrap_or(&Value::Null), &mut f);
    let show = |leaf: Option<&(String, &Value)>| {
        leaf.map_or("nothing".into(), |(path, v)| {
            format!("{path} = {}", v.to_json())
        })
    };
    let differing = (0..b.len().max(f.len())).find(|&i| b.get(i) != f.get(i))?;
    Some(match (b.get(differing), f.get(differing)) {
        (Some((p, x)), Some((q, y))) if p == q => format!("{p}: {} | {}", x.to_json(), y.to_json()),
        (x, y) => format!("{} | {}", show(x), show(y)),
    })
}

/// The document's own rules, baseline or not; returns the list of
/// human-readable violations (empty = pass).
fn gate(doc: &Value) -> Vec<String> {
    let mut scalars = Vec::new();
    leaves(String::new(), doc, &mut scalars);
    // A non-finite float renders as `null`, so a `null` read back is one.
    let mut problems: Vec<String> = scalars
        .iter()
        .filter(|(_, v)| match v {
            Value::Float(x) => !x.is_finite(),
            other => **other == Value::Null,
        })
        .map(|(path, v)| format!("{path}: {} is not a finite number", cell(v)))
        .collect();
    let view = figures(doc.get("spectrum").unwrap_or(&Value::Null));
    if let Some(difference) = first_difference("figures", Some(&view), doc.get("figures")) {
        problems.push(format!(
            "figures is not the view of the spectrum block (view | document): {difference}"
        ));
    }
    let false_positives = num(doc, "adaptive", "fault_free_false_positives");
    if false_positives != 0.0 {
        problems.push(format!(
            "adaptive: detector raised {false_positives} false positive(s) on fault-free presets"
        ));
    }
    let gap = num(doc, "adaptive", "gap_recovered");
    if gap.is_nan() || gap < 0.6 {
        problems.push(format!(
            "adaptive: recovered only {:.1}% of the static-to-oracle gap",
            100.0 * gap
        ));
    }
    let score = num(doc, "portfolio", "portfolio_score_ns");
    let best_single = num(doc, "portfolio", "best_single_score_ns");
    if score.is_nan() || best_single.is_nan() || score > best_single {
        problems.push(format!(
            "portfolio: score {score} worse than best single strategy {best_single}"
        ));
    }
    problems
}

/// Blocks that must equal the baseline's: measured once, repeated to
/// the byte, and what EXPERIMENTS.md is rendered from.
const EQUAL_BLOCKS: [&str; 4] = ["table1", "spectrum", "ablation", "figures"];

/// Block fields compared under the entries' ±10 % rule.
const DRIFT_FIELDS: [(&str, &str); 5] = [
    ("adaptive", "static_secs"),
    ("adaptive", "adaptive_secs"),
    ("adaptive", "oracle_secs"),
    ("portfolio", "portfolio_score_ns"),
    ("portfolio", "best_single_score_ns"),
];

/// Block fields that must equal the baseline's.
const EXACT_FIELDS: [(&str, &str); 6] = [
    ("adaptive", "rebalances"),
    ("adaptive", "rows_moved"),
    ("adaptive", "fault_free_false_positives"),
    ("adaptive", "detection_latencies_ns"),
    ("portfolio", "winner"),
    ("portfolio", "total_evals"),
];

fn entries(doc: &Value) -> &[Value] {
    list(doc, "entries")
}

/// `arch/app`: what pairs a fresh entry with its baseline.
fn entry_id(entry: &Value) -> String {
    format!("{}/{}", text(entry, "arch"), text(entry, "app"))
}

/// The ±10 % relative rule on one numeric field of two objects.
fn drift(id: &str, field: &str, base: Option<&Value>, fresh: Option<&Value>) -> Option<String> {
    let num = |v: Option<&Value>| v.and_then(|v| v.get(field)).and_then(Value::as_f64);
    let (Some(old), Some(new)) = (num(base), num(fresh)) else {
        return Some(format!("{id}: {field} missing"));
    };
    let rel = if old.abs() > 0.0 {
        (new - old).abs() / old.abs()
    } else {
        new.abs()
    };
    // A NaN on either side must not pass.
    (rel.is_nan() || rel > 0.10).then(|| {
        format!(
            "{id}: {field} drifted {:.1}% (baseline {old}, now {new})",
            100.0 * rel
        )
    })
}

/// Compare a fresh suite document against a baseline; returns the list
/// of human-readable violations (empty = pass).
fn check_against(baseline: &Value, fresh: &Value) -> Vec<String> {
    let schema = baseline.get("schema").and_then(Value::as_str);
    if schema != Some(SCHEMA) {
        return vec![format!(
            "baseline schema is {}, not {SCHEMA}: regenerate with `bench_suite`",
            schema.unwrap_or("absent")
        )];
    }
    let mut problems = Vec::new();
    for block in EQUAL_BLOCKS {
        if let Some(difference) = first_difference(block, baseline.get(block), fresh.get(block)) {
            problems.push(format!(
                "{block} differs (baseline | now): {difference}: regenerate with `bench_suite`, then `BLESS=1`"
            ));
        }
    }
    for b in entries(baseline) {
        let id = entry_id(b);
        let Some(f) = entries(fresh).iter().find(|f| entry_id(f) == id) else {
            problems.push(format!("{id}: entry missing from fresh run"));
            continue;
        };
        for field in ["predicted_secs", "actual_secs", "makespan_ns"] {
            problems.extend(drift(&id, field, Some(b), Some(f)));
        }
        let pct = |e: &Value| e.get("pct_diff").and_then(Value::as_f64);
        match (pct(b), pct(f)) {
            (Some(old), Some(new)) => {
                // A NaN on either side must not pass.
                if new.is_nan() || old.is_nan() || new > old + 2.0 {
                    problems.push(format!("{id}: accuracy regressed {old:.2}% -> {new:.2}%"));
                }
            }
            _ => problems.push(format!("{id}: pct_diff missing")),
        }
    }
    for f in entries(fresh) {
        let id = entry_id(f);
        if !entries(baseline).iter().any(|b| entry_id(b) == id) {
            problems.push(format!(
                "{id}: entry missing from baseline: regenerate with `bench_suite`"
            ));
        }
    }
    for (block, field) in DRIFT_FIELDS {
        problems.extend(drift(block, field, baseline.get(block), fresh.get(block)));
    }
    for (block, field) in EXACT_FIELDS {
        let (old, new) = (at(baseline, block, field), at(fresh, block, field));
        if old.is_none() || old != new {
            let show = |v: Option<&Value>| v.map_or("missing".into(), Value::to_json);
            problems.push(format!(
                "{block}: {field} changed (baseline {}, now {})",
                show(old),
                show(new)
            ));
        }
    }
    problems
}

const USAGE: &str = "usage: bench_suite [--check [BASELINE.json]]";

/// The suite's command line.
#[derive(Debug, Default, PartialEq)]
struct Cli {
    /// `Some(None)` checks against the committed `BENCH_full.json`.
    check: Option<Option<String>>,
}

impl Cli {
    /// Unknown arguments are an error: a mistyped `--check` must not
    /// rewrite `BENCH_full.json`.
    fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--check" => cli.check = Some(args.next_if(|v| !v.starts_with("--"))),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(cli)
    }

    /// Where the fresh document goes: over the committed file, except
    /// under `--check`, which must leave what it compares against alone.
    fn out_path(&self) -> String {
        match self.check {
            Some(_) => format!("target/bench/{COMMITTED}"),
            None => COMMITTED.to_string(),
        }
    }
}

fn main() {
    let cli = Cli::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("bench_suite: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let (entries, spectrum, ablation) = sweep_blocks();
    let figures = figures(&spectrum);
    let table1 = [presets::dc(), presets::io(), presets::hy1(), presets::hy2()];
    let doc = Value::object(vec![
        ("schema", Value::Str(SCHEMA.into())),
        ("table1", table1_block(&table1)),
        ("entries", entries),
        ("adaptive", adaptive_entry(&table1)),
        ("portfolio", portfolio_entry()),
        ("spectrum", spectrum),
        ("ablation", ablation),
        ("figures", figures),
    ]);
    let out_path = cli.out_path();
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(&out_path, doc.to_json_pretty()).expect("write suite json");
    print!("{}", render(&doc));
    println!("wrote {out_path}");

    let mut problems = gate(&doc);
    if let Some(given) = &cli.check {
        let path = given.as_deref().unwrap_or(COMMITTED);
        let baseline = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| serde::from_str(&text).map_err(|e| e.to_string()));
        match baseline {
            Ok(baseline) => problems.extend(check_against(&baseline, &doc)),
            Err(e) => problems.push(format!(
                "baseline {path}: {e}; run `bench_suite` without --check to create it"
            )),
        }
        if problems.is_empty() {
            println!("check vs {path}: OK");
        }
    }
    if !problems.is_empty() {
        eprintln!("bench_suite: FAILED");
        for p in &problems {
            eprintln!("  {p}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(args.iter().map(ToString::to_string))
    }

    #[test]
    fn unknown_arguments_are_rejected() {
        assert!(parse(&["--quick"]).is_err());
        assert!(parse(&["--check", "--chekc"]).is_err());
        assert!(parse(&["BENCH_full.json"]).is_err());
        assert_eq!(parse(&[]).unwrap(), Cli::default());
        assert_eq!(parse(&["--check"]).unwrap().check, Some(None));
        let cli = parse(&["--check", "old.json"]).unwrap();
        assert_eq!(cli.check, Some(Some("old.json".into())));
    }

    #[test]
    fn check_never_writes_over_a_committed_baseline() {
        for args in [&["--check"][..], &["--check", "BENCH_full.json"]] {
            let cli = parse(args).unwrap();
            assert!(cli.out_path().starts_with("target/bench/"));
            assert_ne!(cli.out_path(), COMMITTED);
        }
        assert_eq!(parse(&[]).unwrap().out_path(), COMMITTED);
    }

    /// A minimal passing document, less its `figures` block (see
    /// [`doc_with`]): one entry, the committed adaptive and portfolio
    /// blocks, and a three-label, three-series spectrum whose errors
    /// are exact in binary — DC/Jacobi 25, 0, 0 %; DC/CG 50, 100, 0 %;
    /// DC/Jacobi with prefetching 0 %.
    const DOC: &str = r#"{
        "schema": "mheta-bench/v3",
        "table1": [{"arch": "DC", "description": "d", "nodes": [{"cpu_power": 0.25}]}],
        "entries": [{"arch": "DC", "app": "Jacobi", "predicted_secs": 1.0,
                     "actual_secs": 1.0, "pct_diff": 0.5, "makespan_ns": 1000}],
        "adaptive": {"static_secs": 0.2, "adaptive_secs": 0.18, "oracle_secs": 0.17,
                     "gap_recovered": 0.62, "rebalances": 2, "rows_moved": 29,
                     "detection_latencies_ns": [3364494], "fault_free_false_positives": 0},
        "portfolio": {"winner": "gbs", "portfolio_score_ns": 7.0,
                      "best_single_score_ns": 7.0, "total_evals": 206},
        "spectrum": {"labels": ["Blk", "I-C", "Bal"], "series": [
            {"arch": "DC", "app": "Jacobi", "prefetch": false, "iters": 10,
             "predicted_secs": [2.0, 1.0, 1.0], "actual_secs": [2.5, 1.0, 1.0]},
            {"arch": "DC", "app": "CG", "prefetch": false, "iters": 6,
             "predicted_secs": [1.0, 2.0, 3.0], "actual_secs": [1.5, 1.0, 3.0]},
            {"arch": "DC", "app": "Jacobi", "prefetch": true, "iters": 10,
             "predicted_secs": [1.0, 1.0, 1.0], "actual_secs": [1.0, 1.0, 1.0]}]},
        "ablation": {"arch": "HY1", "model": [], "noise": [], "unmodelled": []}
    }"#;

    /// `DOC` with the first occurrence of `from` replaced by `to`, and
    /// the `figures` block its own spectrum defines.
    fn doc_with(from: &str, to: &str) -> Value {
        assert!(DOC.contains(from), "{from}");
        let Value::Object(mut doc) = serde::from_str(&DOC.replacen(from, to, 1)).unwrap() else {
            panic!("DOC is an object");
        };
        let spectrum = doc.iter().find(|(k, _)| k == "spectrum");
        let view = figures(spectrum.map_or(&Value::Null, |(_, v)| v));
        doc.push(("figures".into(), view));
        Value::Object(doc)
    }

    /// `value` with every float equal to `from` replaced by `to` — how a
    /// NaN, which JSON cannot spell, gets into a document.
    fn with_float(value: Value, from: f64, to: f64) -> Value {
        match value {
            Value::Float(v) if v == from => Value::Float(to),
            Value::Array(items) => {
                Value::Array(items.into_iter().map(|v| with_float(v, from, to)).collect())
            }
            Value::Object(pairs) => Value::Object(
                pairs
                    .into_iter()
                    .map(|(k, v)| (k, with_float(v, from, to)))
                    .collect(),
            ),
            other => other,
        }
    }

    #[test]
    fn a_failed_gate_is_one_problem_and_the_document_still_renders() {
        // (text in `DOC`, its replacement, the one problem it raises)
        #[rustfmt::skip]
        let rows = [
            ("\"gap_recovered\": 0.62", "\"gap_recovered\": 0.6", None),
            ("\"gap_recovered\": 0.62", "\"gap_recovered\": 0.5", Some("only 50.0% of the static-to-oracle gap")),
            ("\"gap_recovered\": 0.62,", "", Some("static-to-oracle gap")),
            ("\"fault_free_false_positives\": 0", "\"fault_free_false_positives\": 3", Some("3 false positive(s)")),
            ("\"portfolio_score_ns\": 7.0", "\"portfolio_score_ns\": 7.5", Some("worse than best single")),
        ];
        for (from, to, expect) in rows {
            let doc = doc_with(from, to);
            let problems = gate(&doc);
            assert_eq!(
                problems.len(),
                usize::from(expect.is_some()),
                "{to}: {problems:?}"
            );
            assert!(
                problems.iter().all(|p| p.contains(expect.unwrap())),
                "{to}: {problems:?}"
            );
            assert_eq!(serde::from_str(&doc.to_json_pretty()), Ok(doc));
        }
    }

    #[test]
    fn every_non_finite_number_is_a_gate_problem_naming_its_path() {
        let passing = doc_with("gbs", "gbs");
        assert_eq!(gate(&passing), Vec::<String>::new());
        // A NaN or infinite accuracy entry, as measured and as read back
        // (a non-finite float renders as `null`).
        for bad in [f64::NAN, f64::INFINITY] {
            let doc = with_float(passing.clone(), 0.5, bad);
            let expect = format!("entries[0].pct_diff: {bad} is not a finite number");
            assert_eq!(gate(&doc), [expect]);
            let read_back = serde::from_str(&doc.to_json_pretty()).unwrap();
            let expect = "entries[0].pct_diff: null is not a finite number";
            assert_eq!(gate(&read_back), [expect]);
        }
        // A zero prediction is an infinite error, not a perfect one: it
        // surfaces in the view, and the gate names every place it reached.
        let doc = doc_with(
            "\"predicted_secs\": [1.0, 2.0, 3.0]",
            "\"predicted_secs\": [0.0, 2.0, 3.0]",
        );
        let problems = gate(&doc);
        for path in [
            "figures.accuracy.all.mean_error_pct: inf",
            "figures.accuracy.all.max_error_pct: inf",
            "figures.accuracy.all.per_label[0].max: inf",
            "figures.accuracy.per_app[1].mean_error_pct: inf",
        ] {
            assert!(
                problems.iter().any(|p| p.starts_with(path)),
                "{path}: {problems:?}"
            );
        }
        // A spectrum NaN is named where it is and wherever it flows.
        let doc = with_float(passing.clone(), 2.5, f64::NAN);
        let doc = doc_with_figures_of(doc);
        let problems = gate(&doc);
        assert!(problems[0].starts_with("spectrum.series[0].actual_secs[0]: NaN"));
        assert!(problems
            .iter()
            .any(|p| p.starts_with("figures.accuracy.all.mean_error_pct: NaN")));
    }

    /// `doc` with its `figures` block recomputed from its spectrum.
    fn doc_with_figures_of(doc: Value) -> Value {
        let Value::Object(mut pairs) = doc else {
            panic!("a document is an object");
        };
        pairs.retain(|(k, _)| k != "figures");
        let spectrum = pairs
            .iter()
            .find(|(k, _)| k == "spectrum")
            .unwrap()
            .1
            .clone();
        pairs.push(("figures".into(), figures(&spectrum)));
        Value::Object(pairs)
    }

    #[test]
    fn a_figures_block_that_is_not_the_view_fails_the_gate() {
        let doc = doc_with("gbs", "gbs");
        let edited = with_float(doc, 37.5, 3.75);
        let problems = gate(&edited);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(
            problems[0]
                .contains("(view | document): figures.accuracy.all.per_label[0].avg: 37.5 | 3.75"),
            "{problems:?}"
        );
    }

    #[test]
    fn figures_are_a_pure_view_of_the_spectrum() {
        let doc = doc_with("gbs", "gbs");
        let view = doc.get("figures").unwrap();
        assert_eq!(&figures(doc.get("spectrum").unwrap()), view);
        let object = |v: &Value, path: &[&str]| {
            path.iter()
                .fold(v.clone(), |v, key| v.get(key).unwrap().clone())
        };

        // Figure 9 over the two synchronous series: 25, 50 | 0, 100 | 0, 0.
        let all = object(view, &["accuracy", "all"]);
        assert_eq!(number(&all, "mean_error_pct"), 175.0 / 6.0);
        assert_eq!(number(&all, "accuracy_pct"), 100.0 - 175.0 / 6.0);
        assert_eq!(number(&all, "max_error_pct"), 100.0);
        assert_eq!(number(&all, "samples"), 6.0);
        let worst = object(&all, &["worst"]);
        assert_eq!(
            [
                text(&worst, "arch"),
                text(&worst, "app"),
                text(&worst, "label")
            ],
            ["DC", "CG", "I-C"]
        );
        let stats: Vec<[f64; 3]> = list(&all, "per_label")
            .iter()
            .map(|r| [number(r, "min"), number(r, "avg"), number(r, "max")])
            .collect();
        assert_eq!(
            stats,
            [[25.0, 37.5, 50.0], [0.0, 50.0, 100.0], [0.0, 0.0, 0.0]]
        );
        let per_app = object(view, &["accuracy"]);
        let per_app = list(&per_app, "per_app");
        assert_eq!(
            per_app.iter().map(|a| text(a, "app")).collect::<Vec<_>>(),
            ["Jacobi", "CG"]
        );
        assert_eq!(number(&per_app[0], "mean_error_pct"), 25.0 / 3.0);
        assert_eq!(number(&per_app[1], "mean_error_pct"), 50.0);
        let prefetch = object(view, &["accuracy", "prefetch"]);
        assert_eq!(number(&prefetch, "mean_error_pct"), 0.0);
        assert_eq!(number(&prefetch, "samples"), 3.0);

        // Picks: the prefetch series has none. Jacobi's best actual and
        // best predicted points tie between I-C and Bal: the earlier
        // label wins both, so the pick is optimal. CG's model picks Blk
        // (1.5 s actual) where I-C (1.0 s) is best.
        let picks = list(view, "picks");
        assert_eq!(picks.len(), 2);
        let label = |p: &Value, key| text(p.get(key).unwrap(), "label").to_string();
        assert_eq!(label(&picks[0], "best"), "I-C");
        assert_eq!(label(&picks[0], "pick"), "I-C");
        assert_eq!(label(&picks[0], "worst"), "Blk");
        assert_eq!(number(&picks[0], "ratio"), 2.5);
        assert_eq!(number(&picks[0], "pick_cost"), 1.0);
        assert_eq!(label(&picks[1], "best"), "I-C");
        assert_eq!(label(&picks[1], "pick"), "Blk");
        assert_eq!(number(&picks[1], "ratio"), 3.0);
        assert_eq!(number(&picks[1], "pick_cost"), 1.5);

        // Eq. 2 vs Eq. 1 under Blk: the prefetch run took 1.0 s; its own
        // model said 1.0 s, the synchronous model 2.0 s.
        let model = object(view, &["prefetch_model"]);
        let rows = list(&model, "rows");
        assert_eq!(rows.len(), 1);
        assert_eq!(number(&rows[0], "speedup"), 2.5);
        assert_eq!(number(&model, "eq2_mean_error_pct"), 0.0);
        assert_eq!(number(&model, "eq1_mean_error_pct"), 100.0);
    }

    #[test]
    fn render_prints_the_views_of_the_document() {
        let doc = doc_with("gbs", "gbs");
        let rendered = render(&doc);
        let names: Vec<&str> = views(&doc).iter().map(|(name, _)| *name).collect();
        for name in &names {
            assert!(rendered.contains(&format!("== {name} ==\n")), "{name}");
        }
        let view = |name: &str| {
            let found = views(&doc).into_iter().find(|(n, _)| *n == name);
            found.unwrap_or_else(|| panic!("no view {name}")).1
        };
        // Column headers are the document's field names; floats show
        // three decimals; a nested object flattens to `a.b`.
        assert_eq!(
            view("accuracy"),
            "label     min     avg      max\n\
             \x20 Blk  25.000  37.500   50.000\n\
             \x20 I-C   0.000  50.000  100.000\n\
             \x20 Bal   0.000   0.000    0.000\n\
             \n\
             mean_error_pct  accuracy_pct  max_error_pct  worst.arch  worst.app  worst.label  samples\n\
             \x20       29.167        70.833        100.000          DC         CG          I-C        6\n"
        );
        assert_eq!(
            view("picks"),
            "arch     app  best.label  best.secs  worst.label  worst.secs  ratio  pick.label  pick.secs  pick_cost\n\
             \x20 DC  Jacobi         I-C      1.000          Blk       2.500  2.500         I-C      1.000      1.000\n\
             \x20 DC      CG         I-C      1.000          Bal       3.000  3.000         Blk      1.500      1.500\n"
        );
        assert_eq!(view("table1"), "DC: d\ncpu_power\n\x20   0.250\n");
        for (name, line) in [
            ("accuracy_per_app", "    CG          50.000        50.000        100.000          DC         CG          I-C        3"),
            ("prefetch_model", "eq2_mean_error_pct  eq1_mean_error_pct\n             0.000             100.000"),
            ("entries", "  DC  Jacobi           1.000        1.000     0.500         1000"),
            ("adaptive", "0.620           2          29                           0"),
            ("portfolio", "   gbs               7.000                 7.000          206"),
        ] {
            assert!(view(name).contains(line), "{name}: {line}\n{}", view(name));
        }
        // Rendering reads the document and nothing else: the same text
        // from the document read back.
        let read_back = serde::from_str(&doc.to_json_pretty()).unwrap();
        assert_eq!(render(&read_back), rendered);
    }

    /// EXPERIMENTS.md carries every view of the committed document
    /// verbatim between `<!-- bench_suite:NAME -->` markers. When the
    /// numbers move on purpose: run `bench_suite`, then this test with
    /// `BLESS=1`, in that order.
    #[test]
    fn experiments_md_is_the_rendered_document() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
        let committed = std::fs::read_to_string(format!("{root}{COMMITTED}")).unwrap();
        let doc = serde::from_str(&committed).unwrap();
        assert_eq!(gate(&doc), Vec::<String>::new(), "the committed document");
        let path = format!("{root}EXPERIMENTS.md");
        let mut md = std::fs::read_to_string(&path).unwrap();
        let bless = std::env::var_os("BLESS").is_some();
        for (name, body) in views(&doc) {
            let open = format!("<!-- bench_suite:{name} -->\n```text\n");
            let close = format!("```\n<!-- /bench_suite:{name} -->");
            let start = md.find(&open).unwrap_or_else(|| panic!("no {open}")) + open.len();
            let end = start
                + md[start..]
                    .find(&close)
                    .unwrap_or_else(|| panic!("no {close}"));
            if bless {
                md.replace_range(start..end, &body);
            } else {
                assert_eq!(
                    &md[start..end],
                    body,
                    "EXPERIMENTS.md block `{name}` is not what {COMMITTED} renders to; \
                     rerun with BLESS=1 if the document moved on purpose"
                );
            }
        }
        if bless {
            std::fs::write(&path, md).unwrap();
        }
    }

    #[test]
    fn check_against_rules() {
        let same = doc_with("gbs", "gbs");
        assert!(check_against(&same, &same).is_empty());
        // (text in the fresh `DOC`, its replacement, the one problem it raises)
        #[rustfmt::skip]
        let rows = [
            ("\"static_secs\": 0.2", "\"static_secs\": 0.23", "adaptive: static_secs drifted 15.0%"),
            ("\"adaptive_secs\": 0.18", "\"adaptive_secs\": 0.1", "adaptive: adaptive_secs drifted"),
            ("\"oracle_secs\": 0.17,", "", "adaptive: oracle_secs missing"),
            ("\"portfolio_score_ns\": 7.0", "\"portfolio_score_ns\": 6.0", "portfolio: portfolio_score_ns drifted"),
            ("\"best_single_score_ns\": 7.0", "\"best_single_score_ns\": 8.0", "portfolio: best_single_score_ns drifted"),
            ("\"rebalances\": 2", "\"rebalances\": 3", "adaptive: rebalances changed (baseline 2, now 3)"),
            ("\"rows_moved\": 29", "\"rows_moved\": 30", "adaptive: rows_moved changed"),
            ("\"fault_free_false_positives\": 0", "\"fault_free_false_positives\": 1", "adaptive: fault_free_false_positives changed"),
            ("[3364494]", "[3364494, 5]", "adaptive: detection_latencies_ns changed"),
            ("\"gbs\"", "\"random\"", "portfolio: winner changed (baseline \"gbs\", now \"random\")"),
            ("\"total_evals\": 206", "\"total_evals\": 207", "portfolio: total_evals changed"),
            ("\"actual_secs\": 1.0,", "\"actual_secs\": 1.2,", "DC/Jacobi: actual_secs drifted 20.0%"),
            ("\"pct_diff\": 0.5", "\"pct_diff\": 2.6", "DC/Jacobi: accuracy regressed 0.50% -> 2.60%"),
            // An unmatched entry is reported from both sides, not skipped.
            ("\"arch\": \"DC\", \"app\": \"Jacobi\", \"predicted_secs\": 1.0", "\"arch\": \"IO\", \"app\": \"Jacobi\", \"predicted_secs\": 1.0", "DC/Jacobi: entry missing from fresh run"),
            ("\"arch\": \"DC\", \"app\": \"Jacobi\", \"predicted_secs\": 1.0", "\"arch\": \"IO\", \"app\": \"Jacobi\", \"predicted_secs\": 1.0", "IO/Jacobi: entry missing from baseline"),
            // The measured-once blocks must equal the baseline's; the
            // first differing path is named.
            ("[2.5, 1.0, 1.0]", "[2.5, 1.0, 1.0000000000000002]", "spectrum differs (baseline | now): spectrum.series[0].actual_secs[2]: 1.0 | 1.0000000000000002"),
            ("[2.5, 1.0, 1.0]", "[2.5, 1.0, 1.0000000000000002]", "figures differs (baseline | now): figures.accuracy.all."),
            ("{\"arch\": \"DC\", \"app\": \"CG\", \"prefetch\": false, \"iters\": 6,\n             \"predicted_secs\": [1.0, 2.0, 3.0], \"actual_secs\": [1.5, 1.0, 3.0]},", "", "spectrum differs (baseline | now): spectrum.series[1].app: \"CG\" | \"Jacobi\""),
            ("[\"Blk\", \"I-C\", \"Bal\"]", "[\"Blk\", \"Bal\", \"I-C\"]", "spectrum differs (baseline | now): spectrum.labels[1]: \"I-C\" | \"Bal\""),
            ("\"cpu_power\": 0.25", "\"cpu_power\": 0.6", "table1 differs (baseline | now): table1[0].nodes[0].cpu_power: 0.25 | 0.6"),
            ("\"noise\": []", "\"noise\": [{\"amplitude\": 0.0}]", "ablation differs (baseline | now): ablation.noise = [] | ablation.noise[0].amplitude = 0.0"),
            ("\"ablation\": {\"arch\": \"HY1\", \"model\": [], \"noise\": [], \"unmodelled\": []}", "\"ablation\": {\"arch\": \"HY1\", \"model\": [], \"unmodelled\": [], \"noise\": []}", "ablation differs (baseline | now): ablation.noise = [] | ablation.unmodelled = []"),
        ];
        for (from, to, expect) in rows {
            let problems = check_against(&same, &doc_with(from, to));
            assert!(
                problems.iter().any(|p| p.starts_with(expect)),
                "{to}: {problems:?}"
            );
        }
        // A NaN, which neither `>` nor `<` ever finds, does not pass.
        let nan_accuracy = with_float(same.clone(), 0.5, f64::NAN);
        for (baseline, fresh) in [(&same, &nan_accuracy), (&nan_accuracy, &same)] {
            let problems = check_against(baseline, fresh);
            assert!(
                problems
                    .iter()
                    .any(|p| p.starts_with("DC/Jacobi: accuracy regressed")),
                "{problems:?}"
            );
        }
        let nan_secs = with_float(same.clone(), 0.18, f64::NAN);
        let problems = check_against(&same, &nan_secs);
        assert!(
            problems
                .iter()
                .any(|p| p.starts_with("adaptive: adaptive_secs drifted NaN%")),
            "{problems:?}"
        );
        // A baseline of another schema is rejected whole.
        for old in ["mheta-bench/v1", "mheta-bench/v2"] {
            let problems = check_against(&doc_with(SCHEMA, old), &same);
            assert_eq!(problems.len(), 1, "{problems:?}");
            assert!(problems[0].contains("regenerate with `bench_suite`"));
        }
    }
}
