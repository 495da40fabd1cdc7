//! Continuous benchmark gate: accuracy, makespans and error attribution
//! for the paper's four applications across the four Table 1 presets,
//! the adaptive-resilience scenario, and the portfolio-vs-best-single
//! proof, in one machine-checkable JSON document.
//!
//! ```text
//! cargo run --release -p mheta-bench --bin bench_suite -- --check
//! ```
//!
//! Every field is simulated (virtual time) or model arithmetic, so the
//! document (schema `mheta-bench/v2`) is a pure function of the source:
//! two runs at one commit are byte-identical. Nothing here reads a wall
//! clock — what an evaluation, a search or a served request *costs* is
//! `benchmark`'s ledger (`core.predict_us`, `dist.ns_per_eval`,
//! `serve.planner_hit_us`, …; see `crates/bench/src/bin/benchmark`).
//!
//! Run from the repo root; any other argument is rejected (exit 2):
//!
//! * no argument — write `BENCH_full.json`, the committed baseline;
//! * `--check [path]` — write the fresh document to
//!   `target/bench/BENCH_full.json` (the baseline is never touched, so
//!   a failed gate still fails when rerun) and compare it against the
//!   baseline (`path`, default `BENCH_full.json`): predicted/actual
//!   seconds, makespans, the adaptive seconds and the portfolio scores
//!   ±10 % relative; accuracy (`pct_diff`) worse by more than 2 points;
//!   the adaptive block's counts and the portfolio's winner and
//!   evaluation count exactly.
//!
//! Either way the document's own rules run ([`gate`]). The document is
//! always written; every problem is printed, then the exit status is 1
//! if there was any.

use mheta_apps::{
    percent_difference, run_adaptive, run_observed, AdaptiveConfig, Benchmark, Jacobi,
};
use mheta_bench::experiment_iters;
use mheta_dist::{
    gbs_search, genetic_search, portfolio_search, random_search, simulated_annealing,
    AnnealingConfig, GbsConfig, GenBlock, GeneticConfig, PortfolioConfig, RandomConfig,
    SpectrumPath,
};
use mheta_obs::AuditReport;
use mheta_serve::benchmark_by_name;
use mheta_sim::{presets, ClusterSpec};
use serde::Value;

const SCHEMA: &str = "mheta-bench/v2";

/// The committed baseline document.
const COMMITTED: &str = "BENCH_full.json";

/// One (architecture, application) measurement: prints its table row,
/// returns its `entries` element.
fn measure(bench: &Benchmark, spec: &ClusterSpec, iters: u32) -> Value {
    let model = mheta_apps::build_model(bench, spec, false)
        .unwrap_or_else(|e| panic!("{} on {}: {e}", bench.name(), spec.name));
    let blk = GenBlock::block(bench.total_rows(), spec.len());
    let pred = model
        .predict(blk.rows())
        .unwrap_or_else(|e| panic!("{} on {}: {e}", bench.name(), spec.name));
    let predicted_secs = pred.app_secs(iters);
    let obs = run_observed(bench, spec, &blk, iters, false)
        .unwrap_or_else(|e| panic!("{} on {}: {e}", bench.name(), spec.name));
    let actual_secs = obs.measured.secs;
    let pct_diff = percent_difference(predicted_secs, actual_secs);
    let audit = AuditReport::audit(&pred, iters, &obs.traces, &obs.windows);
    let makespan_ns = obs
        .traces
        .iter()
        .map(|t| t.finish.as_nanos())
        .max()
        .unwrap_or(0);
    let top_terms = audit.top_terms(3);
    println!(
        "{:<5} {:<8} {iters:>6} {predicted_secs:>9.3}s {actual_secs:>9.3}s {pct_diff:>6.2}% \
         {:>12.3}  {}",
        spec.name,
        bench.name(),
        makespan_ns as f64 / 1e6,
        top_terms
            .first()
            .map(|(t, r)| format!("{t} ({:+.3} ms)", r / 1e6))
            .unwrap_or_default()
    );
    let top = top_terms
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
        ("pct_diff", Value::Float(pct_diff)),
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
        let run = run_adaptive(&app, spec, &layout, iters, AdaptiveConfig::default())
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
    let mut static_cfg = AdaptiveConfig::default();
    static_cfg.detector.phi_threshold = f64::INFINITY;

    let static_run =
        run_adaptive(&app, &spec, &layout0, iters, static_cfg).expect("static baseline run");
    let adaptive_run = run_adaptive(&app, &spec, &layout0, iters, AdaptiveConfig::default())
        .expect("adaptive run");
    let mut oracle_w = powers.clone();
    oracle_w[degraded_rank] /= factor;
    let oracle_layout = GenBlock::apportion(app.rows, &oracle_w).rows().to_vec();
    let oracle_run =
        run_adaptive(&app, &spec, &oracle_layout, iters, static_cfg).expect("oracle run");

    let (s, a, o) = (
        static_run.measured.secs,
        adaptive_run.measured.secs,
        oracle_run.measured.secs,
    );
    let gap_recovered = (s - a) / (s - o);
    let view = adaptive_run
        .outcomes
        .iter()
        .find(|out| out.alive)
        .expect("survivors exist");
    println!(
        "adaptive  DC+deg  {iters:>6} static {s:.3}s adaptive {a:.3}s oracle {o:.3}s \
         -> {:.0}% of gap recovered, {} rebalance(s), {false_positives} false positive(s)",
        100.0 * gap_recovered,
        view.rebalances.len()
    );
    Value::object(vec![
        ("arch", Value::Str(spec.name.clone())),
        ("app", Value::Str("Jacobi".into())),
        ("iters", Value::UInt(u64::from(iters))),
        ("static_secs", Value::Float(s)),
        ("adaptive_secs", Value::Float(a)),
        ("oracle_secs", Value::Float(o)),
        ("gap_recovered", Value::Float(gap_recovered)),
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
    let model = mheta_apps::build_model(&bench, &spec, false).expect("model");
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
    println!(
        "portfolio DC Jacobi budget {budget}: {} wins at {:.1} ns, best single {best_single:.1} ns, \
         {} evaluations",
        out.winner.name(),
        out.best.score_ns,
        out.total_evals
    );
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

/// `doc[block][field]` as a number; NaN when absent, which fails every
/// rule that reads it.
fn num(doc: &Value, block: &str, field: &str) -> f64 {
    at(doc, block, field)
        .and_then(Value::as_f64)
        .unwrap_or(f64::NAN)
}

/// The document's own rules, baseline or not; returns the list of
/// human-readable violations (empty = pass).
fn gate(doc: &Value) -> Vec<String> {
    let mut problems = Vec::new();
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
    doc.get("entries").and_then(Value::as_array).unwrap_or(&[])
}

/// `arch/app`: what pairs a fresh entry with its baseline.
fn entry_id(entry: &Value) -> String {
    let text = |key| entry.get(key).and_then(Value::as_str).unwrap_or("");
    format!("{}/{}", text("arch"), text("app"))
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
    (rel > 0.10).then(|| {
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
                if new > old + 2.0 {
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
    let specs = [presets::dc(), presets::io(), presets::hy1(), presets::hy2()];
    let benches = Benchmark::paper_four();
    println!("bench_suite: {} arch x {} apps", specs.len(), benches.len());
    println!(
        "{:<5} {:<8} {:>6} {:>10} {:>10} {:>7} {:>12}  top residual term",
        "arch", "app", "iters", "pred(s)", "actual(s)", "diff%", "makespan_ms"
    );
    let mut measured = Vec::new();
    for spec in &specs {
        for bench in &benches {
            measured.push(measure(bench, spec, experiment_iters(bench, false)));
        }
    }

    let doc = Value::object(vec![
        ("schema", Value::Str(SCHEMA.into())),
        ("entries", Value::Array(measured)),
        ("adaptive", adaptive_entry(&specs)),
        ("portfolio", portfolio_entry()),
    ]);
    let out_path = cli.out_path();
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(&out_path, doc.to_json_pretty()).expect("write suite json");
    println!("\nwrote {out_path}");

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

    /// A minimal passing document: one entry, the committed adaptive
    /// and portfolio blocks.
    const DOC: &str = r#"{
        "schema": "mheta-bench/v2",
        "entries": [{"arch": "DC", "app": "Jacobi", "predicted_secs": 1.0,
                     "actual_secs": 1.0, "pct_diff": 0.5, "makespan_ns": 1000}],
        "adaptive": {"static_secs": 0.2, "adaptive_secs": 0.18, "oracle_secs": 0.17,
                     "gap_recovered": 0.62, "rebalances": 2, "rows_moved": 29,
                     "detection_latencies_ns": [3364494], "fault_free_false_positives": 0},
        "portfolio": {"winner": "gbs", "portfolio_score_ns": 7.0,
                      "best_single_score_ns": 7.0, "total_evals": 206}
    }"#;

    /// `DOC` with the first occurrence of `from` replaced by `to`.
    fn doc_with(from: &str, to: &str) -> Value {
        assert!(DOC.contains(from), "{from}");
        serde::from_str(&DOC.replacen(from, to, 1)).unwrap()
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
            // A NaN score renders as `null`.
            ("\"portfolio_score_ns\": 7.0", "\"portfolio_score_ns\": null", Some("score NaN")),
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
            ("\"actual_secs\": 1.0", "\"actual_secs\": 1.2", "DC/Jacobi: actual_secs drifted 20.0%"),
            ("\"pct_diff\": 0.5", "\"pct_diff\": 2.6", "DC/Jacobi: accuracy regressed 0.50% -> 2.60%"),
            // An unmatched entry is reported from both sides, not skipped.
            ("\"arch\": \"DC\"", "\"arch\": \"IO\"", "DC/Jacobi: entry missing from fresh run"),
            ("\"arch\": \"DC\"", "\"arch\": \"IO\"", "IO/Jacobi: entry missing from baseline"),
        ];
        for (from, to, expect) in rows {
            let problems = check_against(&same, &doc_with(from, to));
            assert!(
                problems.iter().any(|p| p.starts_with(expect)),
                "{to}: {problems:?}"
            );
        }
        // A baseline of another schema is rejected whole.
        let v1 = doc_with("mheta-bench/v2", "mheta-bench/v1");
        let problems = check_against(&v1, &same);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("regenerate with `bench_suite`"));
    }
}
