//! `benchmark` — the repository's performance yardstick.
//!
//! Four workloads over the wire, the search, and the simulator, each a
//! closed loop with one caller; end-to-end metrics from an untraced
//! run, a per-layer ledger from a traced replay, outputs verified
//! against `golden.json`. See `README.md` beside this file for the
//! metric glossary, and `BENCHMARK.json` at the repository root for
//! the contract the driver runs it under.
//!
//! ```text
//! benchmark                       every workload, untraced then traced: one JSON document
//! benchmark --workload W --trace 0|1   one run; last stdout line is the driver's result
//! benchmark --aa                  every workload twice, compared against the bounds
//! benchmark --bless FILE          regenerate golden.json (benchmark-archetype PRs only)
//! options: --seed N (default 1), --seconds S (default 20)
//! ```

mod cases;
mod golden;
mod host;
mod run;
mod search;
mod simulate;
mod spans;
mod stats;
mod wire;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use mheta_obs::json::{from_str, Value};

use golden::{Golden, Tally};
use run::{closed_loop, timed, Ledger, Workload};
use spans::Tracer;
use stats::{
    median, percentile, supported, sweep_totals, tail_percentile, within_bound, worsening,
};
use stats::{Better, Bound};

const WORKLOADS: [&str; 4] = ["plan_cold", "serve_hot", "search_deep", "simulate"];
/// An untraced run sets up before its window and again after it, so
/// that one burst of host noise cannot hit every set-up: each time at
/// least `SETUP_REPS` times and on until `SETUP_BUDGET_S` seconds of
/// set-ups are in. `setup_s` is the median of them all.
const SETUP_REPS: usize = 3;
const SETUP_BUDGET_S: f64 = 1.25;

/// The end-to-end metrics of `BENCHMARK.json`, printed by every
/// workload's untraced run. `op_ms_p50` is the median over sweeps —
/// the mean request latency of the median sweep on the wire workloads,
/// the sweep time on the other two — and `call_ms_p95` the tail over
/// single calls.
const END_TO_END: [(&str, &str, f64); 4] = [
    ("op_ms_p50", "ms", 0.25),
    ("call_ms_p95", "ms", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.25),
];

/// The per-layer metrics of `BENCHMARK.json`, printed by every
/// workload's traced run; a layer a workload never enters reads 0.
const PER_LAYER: [(&str, &str); 62] = [
    ("serve.rtt_ping_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.canonical_us", "us"),
    ("serve.hash_us", "us"),
    ("serve.cache_get_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.planner_hit_us", "us"),
    ("serve.handle_hit_us", "us"),
    ("serve.wire_overhead_hit_ms", "ms"),
    ("serve.wire_overhead_cold_ms", "ms"),
    ("serve.planner_cold_ms", "ms"),
    ("serve.dispatch_ms", "ms"),
    ("serve.searches", "count"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.coalesced", "count"),
    ("serve.shed", "count"),
    ("serve.evictions", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.prometheus_us", "us"),
    ("core.measure_arch_ms", "ms"),
    ("apps.run_instrumented_ms", "ms"),
    ("core.build_profile_us", "us"),
    ("core.model_new_us", "us"),
    ("apps.build_model_ms", "ms"),
    ("dist.anchors_us", "us"),
    ("dist.portfolio_default_ms", "ms"),
    ("dist.portfolio_default_evals", "count"),
    ("dist.portfolio_ms", "ms"),
    ("dist.evals_per_sweep", "count"),
    ("dist.ns_per_eval", "ns"),
    ("dist.delta_hit_ratio", "ratio"),
    ("dist.gbs_ms", "ms"),
    ("dist.sa_ms", "ms"),
    ("dist.ga_ms", "ms"),
    ("dist.random_ms", "ms"),
    ("core.eval_full_ns", "ns"),
    ("core.rank_cost_ns", "ns"),
    ("core.predict_us", "us"),
    ("sim.spawn_us", "us"),
    ("sim.msg_rtt_us", "us"),
    ("sim.disk_op_us", "us"),
    ("mpi.allreduce_us", "us"),
    ("sim.events_per_sweep", "count"),
    ("sim.host_ns_per_event", "ns"),
    ("sim.makespan_checksum", "count"),
    ("apps.run_ms.jacobi", "ms"),
    ("apps.run_ms.cg", "ms"),
    ("apps.run_ms.rna", "ms"),
    ("apps.run_ms.lanczos", "ms"),
    ("apps.run_ms.jacobi_prefetch", "ms"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.audit_ms", "ms"),
    ("host.cpu_s", "s"),
    ("host.ctx_switches_per_op", "count"),
    ("host.steal_pct", "%"),
    ("host.loadavg_1m", "count"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("plan_speedup_vs_block", "ratio"),
    ("model_error_pct_mean", "%"),
    ("model_error_pct_max", "%"),
];

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    aa: bool,
    bless: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20,
        trace: false,
        aa: false,
        bless: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}` (one of {WORKLOADS:?})"));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=120).contains(&args.seconds) {
                    return Err("--seconds must be 1..=120".into());
                }
            }
            // `--trace` alone, or the driver's `--trace 0|1`.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--aa" => args.aa = true,
            "--bless" => args.bless = Some(PathBuf::from(value("--bless")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn metric(value: f64, unit: &str) -> Value {
    Value::object(vec![
        ("value", Value::Float(value)),
        ("unit", Value::Str(unit.to_string())),
    ])
}

/// One end-to-end metric of the full report.
fn reported(
    value: f64,
    unit: &str,
    better: Better,
    bound: Bound,
    samples: usize,
    driver_metric: Option<&str>,
) -> Value {
    let mut fields = vec![
        ("value", Value::Float(value)),
        ("unit", Value::Str(unit.to_string())),
        (
            "better",
            Value::Str(
                if better == Better::Lower {
                    "lower"
                } else {
                    "higher"
                }
                .into(),
            ),
        ),
        (
            "bound",
            match bound {
                Bound::Share(share) => Value::Float(share),
                Bound::Exact => Value::Str("exact".into()),
            },
        ),
        ("samples", Value::UInt(samples as u64)),
    ];
    if let Some(name) = driver_metric {
        fields.push(("driver_metric", Value::Str(name.into())));
    }
    Value::object(fields)
}

/// What one workload run printed: the detail document and the driver's
/// result line.
struct Printed {
    detail: Value,
    result: Value,
    correct: bool,
}

/// What a run prints: the detail document's fields and the driver's
/// metrics.
struct Output {
    detail: Vec<(&'static str, Value)>,
    metrics: Vec<(String, Value)>,
}

/// The traced replay: fills the per-layer ledger, writes the trace
/// file, and reports every per-layer metric (0 where the workload
/// never enters the layer).
fn traced_run<W: Workload>(
    w: &mut W,
    seconds: Duration,
    watch: &host::Watch,
    ledger: &mut Ledger,
    tally: &mut Tally,
    out: &mut Output,
) {
    let mut tracer = Tracer::new(true);
    w.layers(seconds, &mut tracer, ledger, tally);
    let host = watch.finish();
    let path = Path::new("target/benchmark").join(format!("trace-{}.json", W::NAME));
    if let Err(e) = tracer.write_chrome(&path) {
        eprintln!("benchmark: cannot write {}: {e}", path.display());
        tally.record(Err(format!("trace file: {e}")));
    }
    ledger.set("host.cpu_s", host.cpu_s, 1);
    ledger.set(
        "host.ctx_switches_per_op",
        host.ctx_switches as f64 / ledger.calls.max(1) as f64,
        ledger.calls as usize,
    );
    ledger.set("host.steal_pct", host.steal_pct, 1);
    ledger.set("host.loadavg_1m", host.loadavg_1m, 1);
    let layers = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let (value, samples) = ledger.entries.get(name).copied().unwrap_or((0.0, 0));
            out.metrics.push((name.to_string(), metric(value, unit)));
            let entry = Value::object(vec![
                ("value", Value::Float(value)),
                ("unit", Value::Str(unit.into())),
                ("samples", Value::UInt(samples as u64)),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    out.detail.push(("noisy", Value::Bool(host.noisy())));
    out.detail
        .push(("spans", Value::UInt(tracer.spans.len() as u64)));
    out.detail
        .push(("trace_file", Value::Str(path.display().to_string())));
    out.detail.push(("per_layer", Value::Object(layers)));
}

/// The measured closed loop: warm-up, then the window. Returns every
/// call's wall time in the window.
fn measure<W: Workload>(w: &mut W, seconds: Duration, tally: &mut Tally) -> Vec<u64> {
    let mut next = 0;
    let warm_up = seconds.mul_f64(0.15).min(Duration::from_secs(3));
    closed_loop(w, &mut next, warm_up, tally);
    closed_loop(w, &mut next, seconds, tally)
}

/// Set `W` up at least `min_reps` times, and on until `budget_s`
/// seconds of set-ups are in, tearing each state down before the next
/// is built; the wall time of each goes to `setup_s`.
fn set_up<W: Workload>(
    seed: u64,
    min_reps: usize,
    budget_s: f64,
    mut state: Option<W>,
    setup_s: &mut Vec<f64>,
) -> W {
    let before = setup_s.len();
    loop {
        if let Some(previous) = state.take() {
            previous.tear_down();
        }
        let (ns, fresh) = timed(|| W::set_up(seed));
        setup_s.push(ns as f64 / 1e9);
        let reps = setup_s.len() - before;
        let spent: f64 = setup_s[before..].iter().sum();
        if reps >= min_reps && (spent >= budget_s || reps >= 3 * min_reps) {
            return fresh;
        }
        state = Some(fresh);
    }
}

/// The four end-to-end metrics of an untraced run, under the driver's
/// names and the full report's.
fn untraced_report<W: Workload>(
    call_ns: &[u64],
    host: &host::HostReport,
    setup_s: &mut [f64],
    ledger: &Ledger,
    tally: &Tally,
    out: &mut Output,
) {
    let reps = setup_s.len();

    let per_op = if W::P50_PER_CALL {
        W::CALLS_PER_SWEEP as f64
    } else {
        1.0
    };
    let mut op_ms: Vec<f64> = sweep_totals(call_ns, W::CALLS_PER_SWEEP)
        .iter()
        .map(|&ns| ns as f64 / 1e6 / per_op)
        .collect();
    let mut call_ms: Vec<f64> = call_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    call_ms.sort_by(f64::total_cmp);
    let (sweeps, calls) = (op_ms.len(), call_ms.len());
    // A window too short for one whole sweep still reports its calls.
    let p50 = if sweeps == 0 {
        call_ms.iter().sum::<f64>() / calls as f64 * W::CALLS_PER_SWEEP as f64 / per_op
    } else {
        median(&mut op_ms)
    };
    let p95 = percentile(&call_ms, 95.0);
    let setup = median(setup_s);
    let rss = host::peak_rss_mb();
    // The same four numbers under the driver's names and under the
    // names the full report gives them for this workload.
    let lower = Better::Lower;
    let mut e2e = Vec::new();
    let named = [W::P50_NAME, W::P95_NAME, "setup_s", "peak_rss_mb"];
    let sampled = [(p50, sweeps), (p95, calls), (setup, reps), (rss, 1)];
    for ((&(driver_name, unit, bound), name), (value, samples)) in
        END_TO_END.iter().zip(named).zip(sampled)
    {
        out.metrics
            .push((driver_name.to_string(), metric(value, unit)));
        let bound = Bound::Share(bound);
        e2e.push((
            name,
            reported(value, unit, lower, bound, samples, Some(driver_name)),
        ));
    }
    let failed_share = tally.failed_share();
    let attempted = tally.attempted as usize;
    e2e.push((
        "failed_share",
        reported(failed_share, "ratio", lower, Bound::Exact, attempted, None),
    ));
    for (name, unit, better) in [
        ("plan_speedup_vs_block", "ratio", Better::Higher),
        ("model_error_pct_mean", "%", lower),
        ("model_error_pct_max", "%", lower),
    ] {
        if let Some(&(value, samples)) = ledger.entries.get(name) {
            e2e.push((
                name,
                reported(value, unit, better, Bound::Exact, samples, None),
            ));
        }
    }
    out.detail.push(("noisy", Value::Bool(host.noisy())));
    out.detail.push(("calls", Value::UInt(calls as u64)));
    out.detail.push(("sweeps", Value::UInt(sweeps as u64)));
    out.detail.push((
        "tail",
        Value::object(vec![
            ("p95_supported", Value::Bool(supported(calls, 95.0))),
            (
                "highest_supported_percentile",
                tail_percentile(calls).map_or(Value::Null, Value::Float),
            ),
        ]),
    ));
    out.detail.push((
        "host",
        Value::object(vec![
            ("cpu_s", Value::Float(host.cpu_s)),
            (
                "ctx_switches_per_call",
                Value::Float(host.ctx_switches as f64 / tally.attempted.max(1) as f64),
            ),
            ("steal_pct", Value::Float(host.steal_pct)),
            ("loadavg_1m", Value::Float(host.loadavg_1m)),
        ]),
    ));
    out.detail.push(("end_to_end", Value::object(e2e)));
}

/// Run one workload in this process and print its two JSON lines.
fn run_workload<W: Workload>(args: &Args) -> bool {
    let watch = host::Watch::start();
    let mut golden = Golden::embedded();
    let (mut tally, mut ledger) = (Tally::default(), Ledger::default());

    // Set-up is not what a traced run measures: there, once is enough.
    let (min_reps, budget_s) = if args.trace {
        (1, 0.0)
    } else {
        (SETUP_REPS, SETUP_BUDGET_S)
    };
    let mut setup_s = Vec::new();
    let mut w: W = set_up(args.seed, min_reps, budget_s, None, &mut setup_s);
    w.verify(&mut golden, &mut tally, &mut ledger);

    let seconds = Duration::from_secs(args.seconds);
    let mut out = Output {
        detail: vec![
            ("workload", Value::Str(W::NAME.into())),
            ("seed", Value::UInt(args.seed)),
            ("seconds", Value::UInt(args.seconds)),
            ("trace", Value::Bool(args.trace)),
            ("nproc", Value::UInt(host::nproc() as u64)),
        ],
        metrics: Vec::new(),
    };

    if args.trace {
        traced_run(&mut w, seconds, &watch, &mut ledger, &mut tally, &mut out);
    } else {
        let call_ns = measure(&mut w, seconds, &mut tally);
        let host = watch.finish();
        w = set_up(args.seed, min_reps, budget_s, Some(w), &mut setup_s);
        untraced_report::<W>(&call_ns, &host, &mut setup_s, &ledger, &tally, &mut out);
    }
    w.tear_down();

    let correct = tally.failed == 0;
    out.detail.push((
        "first_failure",
        tally.first_failure.clone().map_or(Value::Null, Value::Str),
    ));
    println!("{}", Value::object(out.detail).to_json());
    let result = Value::object(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(tally.attempted)),
        ("failed", Value::UInt(tally.failed)),
        ("metrics", Value::Object(out.metrics)),
    ]);
    println!("{}", result.to_json());
    if let Some(why) = &tally.first_failure {
        eprintln!(
            "benchmark: {}: {} failed; first: {why}",
            W::NAME,
            tally.failed
        );
    }
    correct
}

fn dispatch(name: &str, args: &Args) -> bool {
    match name {
        "plan_cold" => run_workload::<wire::PlanCold>(args),
        "serve_hot" => run_workload::<wire::ServeHot>(args),
        "search_deep" => run_workload::<search::SearchDeep>(args),
        "simulate" => run_workload::<simulate::Simulate>(args),
        other => unreachable!("workload `{other}` passed validation"),
    }
}

/// Wait, for at most a minute, until the one-minute load average is
/// back under `nproc`: the previous workload's own threads must not
/// trip the next one's noise guard, which is there for neighbours.
fn settle() {
    let start = Instant::now();
    while host::loadavg_1m() > host::nproc() as f64 && start.elapsed() < Duration::from_secs(60) {
        std::thread::sleep(Duration::from_secs(1));
    }
}

/// Re-exec this binary for one workload, so its peak RSS and thread
/// pools are its own, and parse the two lines it prints.
fn spawn_workload(name: &str, args: &Args, trace: bool) -> Result<Printed, String> {
    settle();
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot re-exec for {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let mut parse = |what: &str| {
        let line = lines
            .next()
            .ok_or(format!("{name} printed no {what} line"))?;
        from_str(line).map_err(|e| format!("{name}: bad {what} line ({e:?})"))
    };
    let result = parse("result")?;
    let detail = parse("detail")?;
    let correct = out.status.success() && result.get("correct") == Some(&Value::Bool(true));
    Ok(Printed {
        detail,
        result,
        correct,
    })
}

/// Every workload, untraced then traced, as one JSON document.
fn full_run(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for name in WORKLOADS {
        let mut runs = Vec::new();
        for (key, trace) in [("untraced", false), ("traced", true)] {
            eprintln!("benchmark: {name} ({key}, {} s)", args.seconds);
            let printed = spawn_workload(name, args, trace)?;
            all_correct &= printed.correct;
            let summary = |field: &str| printed.result.get(field).cloned().unwrap_or(Value::Null);
            runs.push((
                key.to_string(),
                Value::object(vec![
                    ("correct", summary("correct")),
                    ("attempted", summary("attempted")),
                    ("failed", summary("failed")),
                    ("report", printed.detail),
                ]),
            ));
        }
        workloads.push((name.to_string(), Value::Object(runs)));
    }
    let doc = Value::object(vec![
        ("schema", Value::Str("mheta-benchmark/v1".into())),
        ("seed", Value::UInt(args.seed)),
        ("seconds", Value::UInt(args.seconds)),
        ("correct", Value::Bool(all_correct)),
        ("workloads", Value::Object(workloads)),
    ]);
    println!("{}", doc.to_json_pretty());
    Ok(all_correct)
}

/// A/A: each workload twice with the same seed; every end-to-end
/// metric of the second run must be within its bound of the first.
fn aa_run(args: &Args) -> Result<bool, String> {
    let mut pass = true;
    println!(
        "{:<12} {:<24} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for name in WORKLOADS {
        let first = spawn_workload(name, args, false)?;
        let second = spawn_workload(name, args, false)?;
        pass &= first.correct && second.correct;
        let Some(Value::Object(metrics)) = first.detail.get("end_to_end") else {
            return Err(format!("{name}: no end_to_end in the detail line"));
        };
        for (metric, a) in metrics {
            let b = second
                .detail
                .get("end_to_end")
                .and_then(|m| m.get(metric))
                .ok_or(format!("{name}: second run lacks {metric}"))?;
            let value = |v: &Value| v.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let better = match a.get("better").and_then(Value::as_str) {
                Some("higher") => Better::Higher,
                _ => Better::Lower,
            };
            let bound = a
                .get("bound")
                .and_then(Value::as_f64)
                .map_or(Bound::Exact, Bound::Share);
            let (a, b) = (value(a), value(b));
            let ok = within_bound(better, bound, a, b);
            pass &= ok;
            let noisy = [&first, &second]
                .iter()
                .any(|p| p.detail.get("noisy") == Some(&Value::Bool(true)));
            println!(
                "{name:<12} {metric:<24} {a:>14.6} {b:>14.6} {:>8.2}% {:>7}  {}{}",
                100.0 * worsening(better, a, b),
                match bound {
                    Bound::Share(share) => format!("{:.0}%", 100.0 * share),
                    Bound::Exact => "exact".into(),
                },
                if ok { "PASS" } else { "FAIL" },
                if noisy { " (noisy host)" } else { "" },
            );
        }
    }
    println!("A/A {}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}

/// Regenerate the golden file from what this build produces.
fn bless(path: &Path, seed: u64) -> Result<(), String> {
    fn collect<W: Workload>(golden: &mut Golden, seed: u64) {
        let mut w = W::set_up(seed);
        w.verify(golden, &mut Tally::default(), &mut Ledger::default());
        w.tear_down();
    }
    let mut golden = Golden::blessing();
    collect::<wire::PlanCold>(&mut golden, seed);
    collect::<search::SearchDeep>(&mut golden, seed);
    collect::<simulate::Simulate>(&mut golden, seed);
    golden
        .write(path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("benchmark: {why}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some(path) = &args.bless {
        bless(path, args.seed).map(|()| true)
    } else if let Some(name) = &args.workload {
        Ok(dispatch(name, &args))
    } else if args.aa {
        aa_run(&args)
    } else {
        full_run(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = args(&[
            "--workload",
            "simulate",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("simulate"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20, true));
        assert!(!args(&["--trace", "0"]).unwrap().trace);
        assert!(args(&["--trace"]).unwrap().trace);
        assert!(args(&["--trace", "--aa"]).unwrap().aa);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.0));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        let legal = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(names.iter().all(|n| n.len() <= 64 && n.chars().all(legal)));
        assert!(PER_LAYER.len() <= 128);
    }
}
