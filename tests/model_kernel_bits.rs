//! Bitwise referee for the evaluation kernel.
//!
//! `tests/golden/eval_bits.json` was generated at the commit *before*
//! the model was lowered into its index-addressed evaluation plan
//! (`cargo test --test model_kernel_bits -- --ignored bless`). For
//! every application × Table-1 preset it records a fixed set of
//! distributions — Block, the spectrum anchors and points between
//! them, random apportionments, single-row ranks, ranks one row either
//! side of the in-core boundary, and a random shift/swap walk — and for
//! each the `f64::to_bits` of the full prediction: iteration time,
//! every per-node time, each rank's seven term totals, and the
//! iteration/per-node times under both `PredictOptions` ablations.
//!
//! The kernel must reproduce every bit four ways: through `predict`,
//! through a cold session, through one session walked along the whole
//! list with promotions on the way, and through `predict` on the model
//! reloaded from its saved MHETA file (`load_model(&save_model(..))`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mheta::core::{load_model, save_model, PredictOptions, ReductionModel};
use mheta::dist::{DeltaEvaluator, DeltaSession};
use mheta::obs::json::{from_str, Value};
use mheta::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/eval_bits.json");
const SCHEMA: &str = "mheta-eval-bits/v1";

/// Every application (Jacobi also with prefetching) on every Table-1
/// preset, at paper size (what `search_deep` searches over).
fn models() -> Vec<(String, Mheta, usize)> {
    let apps: [(&str, Benchmark, bool); 6] = [
        ("jacobi", Benchmark::Jacobi(Jacobi::default()), false),
        (
            "jacobi+prefetch",
            Benchmark::Jacobi(Jacobi::default()),
            true,
        ),
        ("cg", Benchmark::Cg(Cg::default()), false),
        ("rna", Benchmark::Rna(Rna::default()), false),
        ("lanczos", Benchmark::Lanczos(Lanczos::default()), false),
        (
            "multigrid",
            Benchmark::Multigrid(Multigrid::default()),
            false,
        ),
    ];
    let mut out = Vec::new();
    for spec in [presets::dc(), presets::io(), presets::hy1(), presets::hy2()] {
        for (name, bench, prefetch) in &apps {
            let model = build_model(bench, &spec, *prefetch)
                .unwrap_or_else(|e| panic!("{name} on {}: {e}", spec.name));
            out.push((format!("{name}@{}", spec.name), model, bench.total_rows()));
        }
    }
    out
}

/// `want` rows on `rank` (clamped so every other rank keeps a row), the
/// rest split evenly over the other ranks.
fn pinned(total: usize, n: usize, rank: usize, want: usize) -> Vec<usize> {
    let mine = want.clamp(1, total - (n - 1));
    let others = GenBlock::block(total - mine, n - 1);
    let mut rows = others.rows().to_vec();
    rows.insert(rank, mine);
    rows
}

/// The seeded distribution set of one model; see the module docs.
fn distributions(model: &Mheta, total: usize, seed: u64) -> Vec<Vec<usize>> {
    let n = model.arch().len();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = vec![GenBlock::block(total, n).rows().to_vec()];

    let inputs = anchor_inputs(model);
    let path = SpectrumPath::new(&inputs);
    out.extend(path.anchors().iter().map(|a| a.1.rows().to_vec()));
    out.extend((1..6).map(|k| path.at(f64::from(k) / 6.0 + 0.03).rows().to_vec()));

    for _ in 0..10 {
        let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.2..5.0)).collect();
        out.push(GenBlock::apportion(total, &weights).rows().to_vec());
    }
    for rank in 0..n {
        out.push(pinned(total, n, rank, 1));
    }
    // The last row count that fits each rank in core and the first
    // that does not: where the out-of-core classification flips.
    for rank in 0..n {
        let cap = inputs.capacity_rows[rank];
        for want in [cap, cap + 1] {
            out.push(pinned(total, n, rank, want));
        }
    }
    // A walk of boundary shifts and swaps from Block: consecutive
    // entries differ in two ranks, the delta path's bread and butter.
    let mut rows = out[0].clone();
    while out.len() < 64 {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a == b {
            continue;
        }
        if rng.gen_range(0u32..4) == 0 {
            rows.swap(a, b);
        } else {
            let amount = rng.gen_range(1..=3usize).min(rows[a] - 1);
            rows[a] -= amount;
            rows[b] += amount;
        }
        out.push(rows.clone());
    }
    out
}

fn push_bits(line: &mut String, tag: &str, values: impl IntoIterator<Item = f64>) {
    line.push(' ');
    line.push_str(tag);
    for v in values {
        write!(line, " {:x}", v.to_bits()).expect("writing to a String");
    }
}

/// One golden line: the rows, then the bits of everything `predict`
/// reports about them.
fn render(model: &Mheta, rows: &[usize]) -> String {
    let mut line = rows
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let full = model.predict(rows).expect("the distribution is valid");
    push_bits(&mut line, "iter", [full.iteration_ns]);
    push_bits(&mut line, "node", full.per_node_ns.iter().copied());
    for rank in 0..rows.len() {
        push_bits(
            &mut line,
            "terms",
            full.rank_terms(rank).terms().map(|(_, v)| v),
        );
    }
    let ablations = [
        (
            "nowait",
            PredictOptions {
                model_waits: false,
                ..PredictOptions::default()
            },
        ),
        (
            "flat",
            PredictOptions {
                reduction: ReductionModel::Flat,
                ..PredictOptions::default()
            },
        ),
    ];
    for (tag, opts) in ablations {
        let p = model.predict_with(rows, opts).expect("valid");
        push_bits(
            &mut line,
            tag,
            std::iter::once(p.iteration_ns).chain(p.per_node_ns.iter().copied()),
        );
    }
    line
}

fn parse_rows(line: &str) -> Vec<usize> {
    let rows = line.split(' ').next().expect("a line starts with its rows");
    rows.split(',')
        .map(|r| r.parse().expect("rows are integers"))
        .collect()
}

/// The recorded iteration-time bits of a golden line.
fn iteration_bits(line: &str) -> u64 {
    let mut words = line.split(' ').skip_while(|w| *w != "iter");
    u64::from_str_radix(words.nth(1).expect("iter has a value"), 16).expect("hex")
}

fn golden() -> BTreeMap<String, Vec<String>> {
    let text = std::fs::read_to_string(GOLDEN).expect("tests/golden/eval_bits.json is committed");
    let doc = from_str(&text).expect("the golden file is JSON");
    assert_eq!(doc.get("schema").and_then(Value::as_str), Some(SCHEMA));
    let Some(Value::Object(models)) = doc.get("models") else {
        panic!("golden file has no models object");
    };
    models
        .iter()
        .map(|(label, lines)| {
            let Value::Array(lines) = lines else {
                panic!("{label}: not an array");
            };
            let lines = lines
                .iter()
                .map(|l| l.as_str().expect("lines are strings").to_string())
                .collect();
            (label.clone(), lines)
        })
        .collect()
}

/// Regenerate the golden file from what this build computes. Only
/// meaningful at a commit whose kernel is the reference.
#[test]
#[ignore = "rewrites tests/golden/eval_bits.json"]
fn bless() {
    let mut models_json = Vec::new();
    for (i, (label, model, total)) in models().iter().enumerate() {
        let lines: Vec<Value> = distributions(model, *total, 0xB175 + i as u64)
            .iter()
            .map(|rows| Value::Str(render(model, rows)))
            .collect();
        models_json.push((label.clone(), Value::Array(lines)));
    }
    let doc = Value::object(vec![
        ("schema", Value::Str(SCHEMA.into())),
        ("models", Value::Object(models_json)),
    ]);
    std::fs::write(GOLDEN, doc.to_json_pretty() + "\n").expect("write the golden file");
}

#[test]
fn kernel_reproduces_the_recorded_bits() {
    let golden = golden();
    let models = models();
    assert_eq!(golden.len(), models.len(), "one golden entry per model");
    for (label, model, _) in &models {
        let lines = &golden[label];
        assert!(lines.len() >= 64, "{label}: {} distributions", lines.len());

        // One session for the whole list: promotions every third
        // candidate, so it sees memo hits, 1-3-dirty deltas, all-dirty
        // fulls and rebases along the way.
        let mut walked = DeltaEvaluator::new(model);
        let reloaded =
            load_model(&save_model(model)).unwrap_or_else(|e| panic!("{label}: reload: {e}"));
        for (k, line) in lines.iter().enumerate() {
            let rows = parse_rows(line);
            assert_eq!(&render(model, &rows), line, "{label} #{k}: predict");
            assert_eq!(&render(&reloaded, &rows), line, "{label} #{k}: reloaded");

            let want = iteration_bits(line);
            let cold = DeltaEvaluator::new(model).try_eval_ns(&rows).expect(label);
            assert_eq!(cold.to_bits(), want, "{label} #{k}: cold session");
            let step = walked.try_eval_ns(&rows).expect(label);
            assert_eq!(step.to_bits(), want, "{label} #{k}: walked session");
            if k % 3 != 1 {
                walked.note_accept(&rows);
            }
        }
        let stats = walked.stats();
        assert!(
            stats.delta_hits > 0 && stats.full_evals > 0,
            "{label}: the walk took both paths: {stats:?}"
        );
    }
}

/// The distributions in the golden file are the ones this file
/// generates — so a change to the generator cannot silently shrink the
/// referee's coverage.
#[test]
fn golden_covers_the_generated_distributions() {
    let golden = golden();
    for (i, (label, model, total)) in models().iter().enumerate() {
        let recorded: Vec<Vec<usize>> = golden[label].iter().map(|l| parse_rows(l)).collect();
        assert_eq!(
            recorded,
            distributions(model, *total, 0xB175 + i as u64),
            "{label}"
        );
    }
}
