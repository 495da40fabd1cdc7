//! Bitwise referee for the applications on the measured path.
//!
//! `tests/golden/app_bits.json` was generated at the commit *before*
//! the applications stopped re-deriving their inputs inside their
//! iteration loops (`cargo test --test app_bits -- --ignored bless`).
//! For jacobi, jacobi+prefetch, cg, rna and lanczos at `small()` size
//! it records, under Block and one skewed `GenBlock`, with default
//! memory and with memory starved far enough that every rank streams
//! out of core, for 1 and 3 iterations: the `f64::to_bits` of the
//! measured run's seconds and check value, and the observed run's
//! seconds, trace-event count and hook-event count.
//!
//! The benchmark's `simulate/*` goldens cover paper size under Block on
//! the Table-1 presets; this file covers what they do not — skewed
//! shares, single-iteration runs and the streaming paths.

use std::collections::BTreeMap;

use mheta::obs::json::{from_str, Value};
use mheta::prelude::*;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/app_bits.json");
const SCHEMA: &str = "mheta-app-bits/v1";
const NODES: usize = 4;

struct App {
    name: &'static str,
    bench: Benchmark,
    prefetch: bool,
    skewed: [usize; NODES],
    /// Per-node memory that leaves a few rows of ICLA on every rank.
    starved_bytes: u64,
}

fn apps() -> Vec<App> {
    vec![
        App {
            name: "jacobi",
            bench: Benchmark::Jacobi(Jacobi::small()),
            prefetch: false,
            skewed: [30, 20, 10, 4],
            starved_bytes: 3 * 16 * 8 * 4,
        },
        App {
            name: "jacobi+prefetch",
            bench: Benchmark::Jacobi(Jacobi::small()),
            prefetch: true,
            skewed: [30, 20, 10, 4],
            starved_bytes: 3 * 16 * 8 * 8,
        },
        App {
            name: "cg",
            bench: Benchmark::Cg(Cg::small()),
            prefetch: false,
            skewed: [50, 30, 10, 6],
            starved_bytes: 2 * 1024,
        },
        App {
            name: "rna",
            bench: Benchmark::Rna(Rna::small()),
            prefetch: false,
            skewed: [20, 12, 12, 4],
            starved_bytes: 2 * 1024,
        },
        App {
            name: "lanczos",
            bench: Benchmark::Lanczos(Lanczos::small()),
            prefetch: false,
            skewed: [40, 10, 10, 4],
            starved_bytes: 3 * 1024,
        },
    ]
}

struct Reading {
    line: String,
    events: usize,
}

fn reading(app: &App, dist: &GenBlock, spec: &ClusterSpec, iters: u32) -> Reading {
    let measured = run_measured(&app.bench, spec, dist, iters, app.prefetch)
        .unwrap_or_else(|e| panic!("{}: measured run: {e}", app.name));
    let observed = run_observed(&app.bench, spec, dist, iters, app.prefetch)
        .unwrap_or_else(|e| panic!("{}: observed run: {e}", app.name));
    let events: usize = observed.traces.iter().map(|t| t.events.len()).sum();
    let hooks: usize = observed.hooks.iter().map(Vec::len).sum();
    Reading {
        line: format!(
            "secs={:016x} check={:016x} observed_secs={:016x} events={events} hooks={hooks}",
            measured.secs.to_bits(),
            measured.check.to_bits(),
            observed.measured.secs.to_bits(),
        ),
        events,
    }
}

/// Every case of the referee, labelled `app/dist/memory/iters`.
fn readings() -> BTreeMap<String, Reading> {
    let mut out = BTreeMap::new();
    for app in apps() {
        let block = GenBlock::block(app.bench.total_rows(), NODES);
        let skewed = GenBlock::new(app.skewed.to_vec()).expect("a valid distribution");
        let roomy = ClusterSpec::homogeneous(NODES);
        let mut starved = roomy.clone();
        for node in &mut starved.nodes {
            node.memory_bytes = app.starved_bytes;
        }
        for (dist_name, dist) in [("block", &block), ("skewed", &skewed)] {
            for (mem_name, spec) in [("default", &roomy), ("starved", &starved)] {
                for iters in [1, 3] {
                    out.insert(
                        format!("{}/{dist_name}/{mem_name}/{iters}", app.name),
                        reading(&app, dist, spec, iters),
                    );
                }
            }
        }
    }
    out
}

fn golden() -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(GOLDEN).expect("tests/golden/app_bits.json is committed");
    let doc = from_str(&text).expect("the golden file is JSON");
    assert_eq!(doc.get("schema").and_then(Value::as_str), Some(SCHEMA));
    let Some(Value::Object(cases)) = doc.get("cases") else {
        panic!("golden file has no cases object");
    };
    cases
        .iter()
        .map(|(label, line)| {
            let line = line.as_str().expect("lines are strings").to_string();
            (label.clone(), line)
        })
        .collect()
}

/// Regenerate the golden file from what this build computes. Only
/// meaningful at a commit whose applications are the reference.
#[test]
#[ignore = "rewrites tests/golden/app_bits.json"]
fn bless() {
    let cases = readings()
        .into_iter()
        .map(|(label, r)| (label, Value::Str(r.line)))
        .collect();
    let doc = Value::object(vec![
        ("schema", Value::Str(SCHEMA.into())),
        ("cases", Value::Object(cases)),
    ]);
    std::fs::write(GOLDEN, doc.to_json_pretty() + "\n").expect("write the golden file");
}

#[test]
fn applications_reproduce_the_recorded_bits() {
    let golden = golden();
    let readings = readings();
    assert_eq!(
        golden.keys().collect::<Vec<_>>(),
        readings.keys().collect::<Vec<_>>(),
        "the golden file holds exactly the generated cases"
    );
    for (label, r) in &readings {
        assert_eq!(&r.line, &golden[label], "{label}");
    }
}

/// The starved clusters really take the out-of-core paths: streaming
/// adds disk events that the in-core run of the same case does not have.
#[test]
fn starved_cases_stream() {
    let readings = readings();
    for (label, starved) in readings.iter().filter(|(l, _)| l.contains("/starved/")) {
        let roomy = &readings[&label.replace("/starved/", "/default/")];
        assert!(
            starved.events > roomy.events,
            "{label}: {} events starved, {} in core",
            starved.events,
            roomy.events
        );
    }
}
