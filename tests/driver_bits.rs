//! Bitwise referee for the fault-tolerant drivers.
//!
//! `tests/golden/driver_bits.json` was generated at the commit *before*
//! the resilient and adaptive Jacobi loops were merged into one
//! (`cargo test --test driver_bits -- --ignored bless`), from this very
//! file: it reads the outcomes by field name and never spells the
//! resilient entry point's outcome type, so it compiles on both sides
//! of the merge. Three families of cases:
//!
//! * `run_resilient` on `Jacobi::small()` over four nodes, on a noisy
//!   and a quiet spec: fault-free, a crash after and before the first
//!   checkpoint, two staggered crashes, rank 0 (the tree root and
//!   re-predictor) as victim, heterogeneous `cpu_power`, and a crash
//!   scheduled by virtual time rather than by iteration — plus one
//!   crash on the eight-node DC preset;
//! * `run_adaptive` on the `bench_suite` application (128 × 16) over the
//!   DC preset: fault-free, the detection-disabled static baseline,
//!   degrade, degrade + recover, a zero-row spare, a crash, and a
//!   degrade followed by a crash;
//! * `AdaptiveCg` on `Cg::small()` through `run_app`: fault-free,
//!   degrade + recover, and a zero-row spare.
//!
//! Per case it records the `f64::to_bits` of the run's seconds and check
//! value, and per rank the loop window, every recovery span, the dead
//! set, the final layout, the rollback target and resume instant (the
//! resilient entry point) or every rebalance event, detector transition
//! and detection latency (the adaptive ones), and an FNV-1a-64 of the
//! `Debug` rendering of the rank's trace events and of its hook events —
//! so a change that moves one simulated event on one rank fails here.

use std::collections::BTreeMap;
use std::fmt::Debug;

use mheta::apps::{run_adaptive, run_resilient, AdaptiveCg, AdaptiveConfig};
use mheta::mpi::{run_app, ExecMode, RunOptions, VecRecorder};
use mheta::obs::json::{from_str, Value};
use mheta::prelude::*;
use mheta::sim::{DegradeSpec, RecoverSpec};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/driver_bits.json");
const SCHEMA: &str = "mheta-driver-bits/v1";

fn digest(events: &impl Debug) -> String {
    let fnv1a = format!("{events:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    format!("{fnv1a:016x}")
}

/// What every driver's per-rank outcome has.
macro_rules! common {
    ($o:expr) => {
        format!(
            "t0={} t1={} check={:016x} alive={} dead={:?} final_rows={:?} spans=[{}]",
            $o.result.t0_ns,
            $o.result.t1_ns,
            $o.result.check.to_bits(),
            $o.alive,
            $o.dead,
            $o.final_rows,
            $o.spans
                .iter()
                .map(|s| format!("{}:{}-{}", s.kind.name(), s.start_ns, s.end_ns))
                .collect::<Vec<_>>()
                .join(","),
        )
    };
}

/// What the resilient entry point reports on top.
macro_rules! resumed {
    ($o:expr) => {
        format!(
            "rollback={:?} resume={}",
            $o.rollback_iteration, $o.resume_ns
        )
    };
}

/// What the detector-carrying drivers report on top.
macro_rules! adapted {
    ($o:expr) => {
        format!(
            "rebalances=[{}] transitions={:?} latencies={:?} suspicion={}",
            $o.rebalances
                .iter()
                .map(|r| format!(
                    "it{}@{} {:?}->{:?} moved={} gain={:016x} evals={}",
                    r.iteration,
                    r.at_ns,
                    r.from_rows,
                    r.to_rows,
                    r.rows_moved,
                    r.predicted_gain.to_bits(),
                    r.evals
                ))
                .collect::<Vec<_>>()
                .join(";"),
            $o.transitions,
            $o.detection_latencies_ns,
            digest(&$o.suspicion),
        )
    };
}

/// File one case: a `run` line and a line per rank, the latter ending
/// in what the `$extra` macro reads off the outcome.
macro_rules! record {
    ($out:expr, $label:expr, $measured:expr, $outcomes:expr, $traces:expr, $hooks:expr, $extra:ident) => {{
        let label: String = $label.into();
        $out.insert(
            format!("{label}/run"),
            format!(
                "secs={:016x} check={:016x}",
                $measured.0.to_bits(),
                $measured.1.to_bits()
            ),
        );
        for (rank, o) in $outcomes.iter().enumerate() {
            $out.insert(
                format!("{label}/rank{rank}"),
                format!(
                    "{} {} trace={} hooks={}",
                    common!(o),
                    $extra!(o),
                    digest(&$traces[rank].events),
                    digest(&$hooks[rank]),
                ),
            );
        }
    }};
}

type Cases = BTreeMap<String, String>;

fn crashy(mut spec: ClusterSpec, crashes: Vec<CrashSpec>, interval: u32) -> ClusterSpec {
    spec.faults.crashes = crashes;
    spec.faults.checkpoint_interval = interval;
    spec
}

fn resilient_cases(out: &mut Cases) {
    let app = Jacobi::small();
    let iters = 10;
    let mut specs = Vec::new();
    for (noise, amplitude) in [("noisy", None), ("quiet", Some(0.0))] {
        let mut base = ClusterSpec::homogeneous(4);
        base.seed = 11;
        if let Some(a) = amplitude {
            base.noise.amplitude = a;
        }
        let mut hetero = base.clone();
        hetero.nodes[3].cpu_power = 3.0;
        // The time-triggered crash lands mid-run: halfway through rank
        // 2's fault-free loop window on this very spec.
        let fault_free = crashy(base.clone(), vec![], 3);
        let probe = run_resilient(&app, &fault_free, &GenBlock::block(app.rows, 4), iters)
            .expect("fault-free probe");
        let (t0, t1) = probe.windows[2];
        let timed = CrashSpec {
            rank: 2,
            at_iteration: None,
            at_time_ns: Some(t0 + (t1 - t0) / 2),
        };
        let staggered = vec![CrashSpec::at_iteration(1, 3), CrashSpec::at_iteration(3, 7)];
        let at = |rank, it| vec![CrashSpec::at_iteration(rank, it)];
        specs.extend([
            (format!("{noise}/fault_free"), fault_free),
            (
                format!("{noise}/crash_after_ckpt"),
                crashy(base.clone(), at(2, 5), 3),
            ),
            (
                format!("{noise}/crash_before_ckpt"),
                crashy(base.clone(), at(1, 0), 4),
            ),
            (
                format!("{noise}/two_staggered"),
                crashy(base.clone(), staggered, 2),
            ),
            (
                format!("{noise}/rank0_victim"),
                crashy(base.clone(), at(0, 5), 3),
            ),
            (format!("{noise}/hetero_power"), crashy(hetero, at(0, 2), 2)),
            (format!("{noise}/timed_crash"), crashy(base, vec![timed], 3)),
        ]);
    }
    // The eight-node Table 1 preset, CPU powers 0.5 … 1.75.
    specs.push((
        "dc/crash".into(),
        presets::with_crash(presets::dc(), 2, 6, 4),
    ));
    for (name, spec) in specs {
        let dist = GenBlock::block(app.rows, spec.len());
        let run = run_resilient(&app, &spec, &dist, iters)
            .unwrap_or_else(|e| panic!("resilient/{name}: {e}"));
        record!(
            out,
            format!("resilient/{name}"),
            (run.measured.secs, run.measured.check),
            run.outcomes,
            run.traces,
            run.hooks,
            resumed
        );
    }
}

fn static_cfg() -> AdaptiveConfig {
    let mut cfg = AdaptiveConfig::default();
    cfg.detector.phi_threshold = f64::INFINITY;
    cfg
}

/// The `bench_suite` adaptive block's application, spec and scenarios
/// (and `examples/adaptive_rebalance.rs`'s four).
fn adaptive_cases(out: &mut Cases) {
    let app = Jacobi {
        rows: 128,
        cols: 16,
        seed: 0x4a43,
    };
    let iters = 40;
    let dc = presets::dc();
    let powers: Vec<f64> = dc.nodes.iter().map(|n| n.cpu_power).collect();
    let by_power = GenBlock::apportion(app.rows, &powers).rows().to_vec();
    let mut spare = GenBlock::apportion(app.rows, &powers[..7]).rows().to_vec();
    spare.push(0);
    let degraded = presets::with_degrade(dc.clone(), 3, 6, 4.0);
    let mut rejoin = dc.clone();
    rejoin
        .faults
        .degrades
        .push(DegradeSpec::at_iteration(3, 6, 4.0).recovering(RecoverSpec::at_iteration(22)));
    let cases = [
        (
            "fault_free",
            dc.clone(),
            &by_power,
            AdaptiveConfig::default(),
        ),
        ("static", degraded.clone(), &by_power, static_cfg()),
        (
            "degrade",
            degraded.clone(),
            &by_power,
            AdaptiveConfig::default(),
        ),
        ("rejoin", rejoin, &by_power, AdaptiveConfig::default()),
        ("spare", degraded.clone(), &spare, AdaptiveConfig::default()),
        (
            "crash",
            presets::with_crash(dc, 5, 20, 4),
            &by_power,
            AdaptiveConfig::default(),
        ),
        (
            "degrade_then_crash",
            presets::with_crash(degraded, 5, 20, 4),
            &by_power,
            AdaptiveConfig::default(),
        ),
    ];
    for (name, spec, layout0, cfg) in cases {
        let run = run_adaptive(&app, &spec, layout0, iters, cfg)
            .unwrap_or_else(|e| panic!("adaptive/{name}: {e}"));
        record!(
            out,
            format!("adaptive/{name}"),
            (run.measured.secs, run.measured.check),
            run.outcomes,
            run.traces,
            run.hooks,
            adapted
        );
    }
}

fn cg_cases(out: &mut Cases) {
    let driver = AdaptiveCg {
        app: Cg::small(),
        cfg: AdaptiveConfig::default(),
    };
    let mut base = ClusterSpec::homogeneous(4);
    base.seed = 11;
    let mut rejoin = base.clone();
    rejoin
        .faults
        .degrades
        .push(DegradeSpec::at_iteration(1, 5, 4.0).recovering(RecoverSpec::at_iteration(16)));
    let degraded = presets::with_degrade(base.clone(), 0, 6, 4.0);
    let cases = [
        ("fault_free", base, [24, 24, 24, 24]),
        ("rejoin", rejoin, [24, 24, 24, 24]),
        ("spare", degraded, [32, 32, 32, 0]),
    ];
    for (name, spec, layout0) in cases {
        let weights: Vec<f64> = spec.nodes.iter().map(|n| n.cpu_power).collect();
        let run = run_app(
            &spec,
            RunOptions {
                tracing: true,
                mode: ExecMode::Normal,
            },
            |_| VecRecorder::default(),
            |comm| driver.run(comm, &layout0, 28, &weights),
        )
        .unwrap_or_else(|e| panic!("cg/{name}: {e}"));
        let t0 = run.results.iter().map(|o| o.result.t0_ns).max().unwrap();
        let t1 = run.results.iter().map(|o| o.result.t1_ns).max().unwrap();
        let hooks: Vec<_> = run.recorders.iter().map(|r| &r.events).collect();
        record!(
            out,
            format!("cg/{name}"),
            ((t1 - t0) as f64 / 1e9, run.results[0].result.check),
            run.results,
            run.traces,
            hooks,
            adapted
        );
    }
}

/// Every case of the referee, labelled `driver/…/case/{run,rankN}`.
fn readings() -> Cases {
    let mut out = Cases::new();
    resilient_cases(&mut out);
    adaptive_cases(&mut out);
    cg_cases(&mut out);
    out
}

/// Regenerate the golden file from what this build computes. Only
/// meaningful at a commit whose drivers are the reference.
#[test]
#[ignore = "rewrites tests/golden/driver_bits.json"]
fn bless() {
    let cases = readings()
        .into_iter()
        .map(|(label, line)| (label, Value::Str(line)))
        .collect();
    let doc = Value::object(vec![
        ("schema", Value::Str(SCHEMA.into())),
        ("cases", Value::Object(cases)),
    ]);
    std::fs::write(GOLDEN, doc.to_json_pretty() + "\n").expect("write the golden file");
}

#[test]
fn drivers_reproduce_the_recorded_bits() {
    let text = std::fs::read_to_string(GOLDEN).expect("tests/golden/driver_bits.json is committed");
    let doc = from_str(&text).expect("the golden file is JSON");
    assert_eq!(doc.get("schema").and_then(Value::as_str), Some(SCHEMA));
    let Some(Value::Object(golden)) = doc.get("cases") else {
        panic!("golden file has no cases object");
    };
    let readings = readings();
    assert_eq!(
        golden.iter().map(|(label, _)| label).collect::<Vec<_>>(),
        readings.keys().collect::<Vec<_>>(),
        "the golden file holds exactly the generated cases"
    );
    for (label, line) in golden {
        assert_eq!(line.as_str(), Some(readings[label].as_str()), "{label}");
    }
}
