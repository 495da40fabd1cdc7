//! End-to-end behaviour of the observability layer (`mheta-obs`):
//! metrics partition exactness, critical-path reconstruction against
//! the simulated makespan, and golden-file stability of the Perfetto
//! trace-event export.

use mheta::obs::{perfetto, CriticalPath, Metrics, TERM_NAMES};
use mheta::prelude::*;
use serde::Value;

/// A 4-node cluster where ranks 2-3 are memory-starved: they stream
/// their grid from disk, so the run is disk-bound end to end.
fn starved(seed: u64) -> ClusterSpec {
    let mut spec = ClusterSpec::homogeneous(4);
    spec.noise.amplitude = 0.0;
    spec.seed = seed;
    spec.nodes[2].memory_bytes = 3 * 1024;
    spec.nodes[3].memory_bytes = 3 * 1024;
    spec
}

#[test]
fn critical_path_partitions_jacobi_makespan_exactly() {
    let bench = Benchmark::Jacobi(Jacobi::small());
    let dist = GenBlock::block(bench.total_rows(), 4);
    let run = run_observed(&bench, &starved(11), &dist, 3, false).unwrap();

    let makespan: u64 = run
        .traces
        .iter()
        .map(|t| t.finish.as_nanos())
        .max()
        .unwrap();
    let path = CriticalPath::compute(&run.traces);

    // The acceptance bar: segment durations sum to the simulated
    // makespan within 1 ns on a fault-free run (they are exact).
    assert_eq!(path.makespan.as_nanos(), makespan);
    assert!(
        path.total_ns().abs_diff(makespan) <= 1,
        "path {} vs makespan {}",
        path.total_ns(),
        makespan
    );

    assert_eq!(
        path.by_term().iter().sum::<u64>(),
        makespan,
        "by_term is exact"
    );

    // Segments are a contiguous forward partition of [0, makespan].
    let mut t = 0;
    for s in &path.segments {
        assert_eq!(s.start.as_nanos(), t, "contiguous at {t}");
        assert!(s.end > s.start, "no zero-length segments");
        t = s.end.as_nanos();
    }
    assert_eq!(t, makespan);
}

#[test]
fn critical_path_identifies_the_slowest_ranks_dominant_cost() {
    let bench = Benchmark::Jacobi(Jacobi::small());
    let dist = GenBlock::block(bench.total_rows(), 4);
    let run = run_observed(&bench, &starved(11), &dist, 3, false).unwrap();

    let path = CriticalPath::compute(&run.traces);
    let metrics = Metrics::from_traces(&run.traces, &[]);
    let slowest = &metrics.breakdowns[path.slowest_rank];

    // The starved ranks stream from disk, so both views must agree the
    // run is disk-bound: the slowest rank's largest term and the path's
    // dominant term, both in the audit's vocabulary.
    let largest = (0..TERM_NAMES.len())
        .max_by_key(|&i| slowest.terms[i])
        .unwrap();
    assert_eq!(TERM_NAMES[largest], "disk");
    let dom = path.dominant_term().unwrap();
    assert!(
        matches!(dom, "disk" | "prefetch_exposed"),
        "path dominant term {dom} should be a disk term"
    );
    assert!(path.report().contains(&format!("dominant: {dom}")));

    // The slowest rank carries the largest share of the path.
    let share = path.rank_share_ns(path.slowest_rank);
    assert!(share > path.makespan.as_nanos() / 4);
}

#[test]
fn metrics_partition_each_rank_timeline_exactly() {
    let bench = Benchmark::Cg(Cg::small());
    let dist = GenBlock::block(bench.total_rows(), 4);
    let run = run_observed(&bench, &starved(5), &dist, 2, false).unwrap();

    let metrics = Metrics::from_traces(&run.traces, &[]);
    assert_eq!(metrics.breakdowns.len(), 4);
    for (b, trace) in metrics.breakdowns.iter().zip(&run.traces) {
        let covered: u64 = b.terms.iter().sum();
        assert_eq!(covered, b.finish_ns, "rank {} terms partition", b.rank);
        assert_eq!(b.finish_ns, trace.finish.as_nanos());
    }
    assert_eq!(
        metrics.makespan_ns(),
        run.traces
            .iter()
            .map(|t| t.finish.as_nanos())
            .max()
            .unwrap()
    );
}

/// A fault-tolerant run's recovery spans reach the per-rank terms: with
/// every span inside its rank's `[0, finish)`, the terms of each
/// recovery kind summed over ranks are that kind's `recovery.<kind>_ns`
/// counter, and each rank's terms still sum to its finish time.
#[test]
fn recovery_spans_land_in_their_terms() {
    use mheta::apps::run_resilient;
    use mheta::sim::{CrashSpec, RecoverySpan};

    let app = Jacobi::small();
    let mut spec = ClusterSpec::homogeneous(4);
    spec.noise.amplitude = 0.0;
    spec.seed = 11;
    spec.faults.crashes = vec![CrashSpec::at_iteration(2, 5)];
    spec.faults.checkpoint_interval = 3;
    let run = run_resilient(&app, &spec, &GenBlock::block(app.rows, 4), 10).unwrap();
    let spans: Vec<Vec<RecoverySpan>> = run.outcomes.iter().map(|o| o.spans.clone()).collect();
    for (trace, rank_spans) in run.traces.iter().zip(&spans) {
        for sp in rank_spans {
            assert!(
                sp.end_ns <= trace.finish.as_nanos(),
                "rank {}: {sp:?}",
                trace.rank
            );
        }
    }

    let mut metrics = Metrics::from_traces(&run.traces, &spans);
    let dead: Vec<usize> = (0..spans.len())
        .filter(|&r| !run.outcomes[r].alive)
        .collect();
    metrics.record_recovery(&dead, &spans);
    for b in &metrics.breakdowns {
        assert_eq!(b.terms.iter().sum::<u64>(), b.finish_ns, "rank {}", b.rank);
    }
    let term_total = |metrics: &Metrics, name: &str| -> u64 {
        let i = TERM_NAMES.iter().position(|&t| t == name).unwrap();
        metrics.breakdowns.iter().map(|b| b.terms[i]).sum()
    };
    assert!(
        metrics.counters["recovery.checkpoint_ns"] > 0,
        "the run checkpoints"
    );
    for kind in ["checkpoint", "rollback", "redistribution", "reprediction"] {
        let counted = metrics
            .counters
            .get(&format!("recovery.{kind}_ns"))
            .copied()
            .unwrap_or(0);
        assert_eq!(term_total(&metrics, kind), counted, "{kind}");
    }
    // Without the spans that time is read as disk and compute instead.
    let plain = Metrics::from_traces(&run.traces, &[]);
    assert_eq!(term_total(&plain, "checkpoint"), 0);
}

#[test]
fn observed_run_timing_matches_measured() {
    // run_observed must not change virtual time relative to
    // run_measured — recording is free on the virtual clock.
    let bench = Benchmark::Jacobi(Jacobi::small());
    let dist = GenBlock::block(bench.total_rows(), 4);
    let spec = starved(3);
    let measured = run_measured(&bench, &spec, &dist, 2, false).unwrap();
    let observed = run_observed(&bench, &spec, &dist, 2, false).unwrap();
    assert_eq!(measured.secs, observed.measured.secs);
    assert_eq!(measured.check, observed.measured.check);
    assert!(!observed.traces.is_empty());
    assert!(observed.hooks.iter().any(|h| !h.is_empty()));
}

/// The fixed scenario behind the golden Perfetto export: 2 ranks, one
/// memory-starved, one Jacobi iteration, quiet seeded cluster.
fn golden_run() -> mheta::apps::Observed {
    let mut spec = ClusterSpec::homogeneous(2);
    spec.noise.amplitude = 0.0;
    spec.seed = 7;
    spec.nodes[1].memory_bytes = 3 * 1024;
    let bench = Benchmark::Jacobi(Jacobi::small());
    let dist = GenBlock::block(bench.total_rows(), 2);
    run_observed(&bench, &spec, &dist, 1, false).unwrap()
}

#[test]
fn perfetto_export_matches_golden_file() {
    let run = golden_run();
    let json = perfetto::perfetto_trace(&run.traces, &run.hooks, &[], &[]).to_json();

    // Determinism first: the export must be byte-stable run to run.
    let again = golden_run();
    assert_eq!(
        json,
        perfetto::perfetto_trace(&again.traces, &again.hooks, &[], &[]).to_json(),
        "export not deterministic"
    );

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/observability.perfetto.json"
    );
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &json).unwrap();
    }
    let golden = std::fs::read_to_string(path).expect("golden file (rerun with BLESS=1)");
    assert_eq!(
        json, golden,
        "Perfetto export drifted; rerun with BLESS=1 if intended"
    );
}

#[test]
fn perfetto_export_is_schema_sane() {
    let run = golden_run();
    let doc = perfetto::perfetto_trace(&run.traces, &run.hooks, &[], &[]);

    assert_eq!(
        doc.get("displayTimeUnit").and_then(Value::as_str),
        Some("ms")
    );
    let events = doc.get("traceEvents").unwrap().as_array().unwrap();
    assert!(!events.is_empty());
    let mut slices = 0;
    let mut counters = 0;
    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .expect("every event has ph");
        assert!(ev.get("pid").and_then(Value::as_u64).is_some());
        match ph {
            "M" => {
                assert!(ev.get("args").is_some(), "metadata carries args.name");
            }
            "X" => {
                slices += 1;
                let ts = ev.get("ts").and_then(Value::as_f64).expect("slice ts");
                let dur = ev.get("dur").and_then(Value::as_f64).expect("slice dur");
                assert!(ts >= 0.0 && dur >= 0.0);
                assert!(ev.get("tid").and_then(Value::as_u64).is_some());
            }
            "C" => {
                counters += 1;
                let ts = ev.get("ts").and_then(Value::as_f64).expect("counter ts");
                assert!(ts >= 0.0);
                let args = ev.get("args").expect("counter series");
                assert!(args.get("in_use_bytes").and_then(Value::as_u64).is_some());
                assert!(args
                    .get("high_water_bytes")
                    .and_then(Value::as_u64)
                    .is_some());
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(slices > 0, "export contains complete slices");
    assert!(counters > 0, "export contains memory counter samples");
    // Both tracks are present: raw sim events and hook scopes.
    let tids: Vec<u64> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .filter_map(|e| e.get("tid").and_then(Value::as_u64))
        .collect();
    assert!(tids.contains(&0) && tids.contains(&1));
}
