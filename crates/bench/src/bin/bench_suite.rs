//! Continuous benchmark suite: accuracy, makespans, per-evaluation
//! latency, and error attribution for the four applications across the
//! architecture presets, in one machine-checkable JSON document.
//!
//! ```text
//! cargo run --release -p mheta-bench --bin bench_suite -- --smoke
//! ```
//!
//! Writes `BENCH_<name>.json` (schema `mheta-bench/v1`) in the current
//! directory — run from the repo root. Modes (any other argument is
//! rejected with a usage line and exit status 2):
//!
//! * default — the paper's four applications across all four Table 1
//!   presets (DC, IO, HY1, HY2) at reduced iteration counts;
//! * `--smoke` — small app instances on IO and HY1 only: the CI
//!   regression gate (~seconds of wall time);
//! * `--check [path]` — read the committed baseline (`path`, default
//!   `BENCH_<name>.json`), rerun the suite, write the fresh document
//!   to `target/bench/BENCH_<name>.json` (the baseline is never
//!   touched, so a failed gate still fails when rerun), and fail
//!   (exit 1) if any deterministic field drifted more than the
//!   tolerance: predicted/actual seconds and makespan ±10% relative,
//!   accuracy (`pct_diff`) worse by more than 2 points.
//!
//! The per-evaluation latency block is wall-clock (the paper's §5.1
//! "~5.4 ms per evaluation" claim, measured here in the emulator at
//! microsecond scale) and is **informational**: it never participates
//! in the `--check` gate.
//!
//! The `serving` block drives the `mheta-serve` planner under a
//! closed-loop multi-client load and gates — at runtime, like the
//! adaptive block — on cache/coalescing throughput, bitwise plan
//! identity, structured load shedding, and the portfolio-vs-single
//! strategy guarantee. Its throughput numbers are wall-clock and
//! informational in `--check` mode; only the block's presence is
//! compared against the baseline.
//!
//! The `search` block times the distribution-search hot path on
//! Jacobi@DC: `delta` gates the session's speedup over session-less
//! full evaluation at runtime, and `kernel` reports what one session
//! evaluation costs — wall-clock and informational, except its
//! allocation count, which `--check` requires to be exactly zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mheta_apps::{
    percent_difference, run_adaptive, run_observed, AdaptiveConfig, Benchmark, Jacobi,
};
use mheta_bench::{experiment_iters, kernel_candidates};
use mheta_dist::{
    gbs_search, genetic_search, portfolio_search, random_search, simulated_annealing,
    AnnealingConfig, CountingEvaluator, DeltaEvaluator, DeltaSession, Evaluator, FallibleFn,
    GbsConfig, GenBlock, GeneticConfig, PortfolioConfig, RandomConfig, SpectrumPath,
};
use mheta_obs::{latency_value, AuditReport, TraceContext};
use mheta_serve::{
    benchmark_by_name, PlanError, PlanRequest, Planner, PlannerConfig, SearchParams,
};
use mheta_sim::{presets, ClusterSpec};
use serde::Value;

thread_local! {
    /// Heap allocations (and reallocations) made by this thread: what
    /// the `search.kernel` block counts around its evaluation loops.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell<u64>` with no destructor, so touching it cannot
// allocate or re-enter the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// One (architecture, application) measurement.
struct Entry {
    arch: String,
    app: &'static str,
    iters: u32,
    predicted_secs: f64,
    actual_secs: f64,
    pct_diff: f64,
    makespan_ns: u64,
    audit: AuditReport,
    latency: Value,
}

fn measure(bench: &Benchmark, spec: &ClusterSpec, iters: u32, latency_evals: usize) -> Entry {
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
    let audit = AuditReport::audit(&pred, iters, &obs.traces, &obs.windows);
    let makespan_ns = obs
        .traces
        .iter()
        .map(|t| t.finish.as_nanos())
        .max()
        .unwrap_or(0);

    // Per-evaluation latency: time `latency_evals` full (session-less)
    // model evaluations of the Block distribution (wall-clock,
    // informational).
    let full = FallibleFn(|rows: &[usize]| model.try_eval_ns(rows));
    let counter = CountingEvaluator::new(&full, 1, None);
    for _ in 0..latency_evals {
        counter.eval_ns(blk.rows());
    }
    Entry {
        arch: spec.name.to_string(),
        app: bench.name(),
        iters,
        predicted_secs,
        actual_secs,
        pct_diff: percent_difference(predicted_secs, actual_secs),
        makespan_ns,
        audit,
        latency: latency_value(&counter.eval_latency()),
    }
}

fn entry_value(e: &Entry) -> Value {
    let top = e
        .audit
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
        ("arch", Value::Str(e.arch.clone())),
        ("app", Value::Str(e.app.to_string())),
        ("iters", Value::UInt(u64::from(e.iters))),
        ("predicted_secs", Value::Float(e.predicted_secs)),
        ("actual_secs", Value::Float(e.actual_secs)),
        ("pct_diff", Value::Float(e.pct_diff)),
        ("makespan_ns", Value::UInt(e.makespan_ns)),
        (
            "audit",
            Value::object(vec![
                (
                    "total_residual_ns",
                    Value::Float(e.audit.total_residual_ns()),
                ),
                ("top_terms", Value::Array(top)),
            ]),
        ),
        ("eval_latency", e.latency.clone()),
    ])
}

fn suite_value(
    name: &str,
    entries: &[Entry],
    adaptive: &Value,
    serving: &Value,
    search: &Value,
) -> Value {
    Value::object(vec![
        ("schema", Value::Str("mheta-bench/v1".into())),
        ("name", Value::Str(name.to_string())),
        (
            "entries",
            Value::Array(entries.iter().map(entry_value).collect()),
        ),
        ("adaptive", adaptive.clone()),
        ("serving", serving.clone()),
        ("search", search.clone()),
    ])
}

/// Compare a fresh suite document against a baseline; returns the list
/// of human-readable violations (empty = pass).
fn check_against(baseline: &Value, fresh: &Value) -> Vec<String> {
    let mut problems = Vec::new();
    let empty: [Value; 0] = [];
    let base_entries = baseline
        .get("entries")
        .and_then(Value::as_array)
        .unwrap_or(&empty);
    let fresh_entries = fresh
        .get("entries")
        .and_then(Value::as_array)
        .unwrap_or(&empty);
    let key = |e: &Value| {
        (
            e.get("arch")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            e.get("app")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
        )
    };
    for b in base_entries {
        let id = key(b);
        let Some(f) = fresh_entries.iter().find(|f| key(f) == id) else {
            problems.push(format!("{}/{}: entry missing from fresh run", id.0, id.1));
            continue;
        };
        let num = |v: &Value, field: &str| v.get(field).and_then(Value::as_f64);
        for field in ["predicted_secs", "actual_secs", "makespan_ns"] {
            match (num(b, field), num(f, field)) {
                (Some(old), Some(new)) => {
                    let rel = if old.abs() > 0.0 {
                        (new - old).abs() / old.abs()
                    } else {
                        new.abs()
                    };
                    if rel > 0.10 {
                        problems.push(format!(
                            "{}/{}: {field} drifted {:.1}% (baseline {old}, now {new})",
                            id.0,
                            id.1,
                            100.0 * rel
                        ));
                    }
                }
                _ => problems.push(format!("{}/{}: {field} missing", id.0, id.1)),
            }
        }
        match (num(b, "pct_diff"), num(f, "pct_diff")) {
            (Some(old), Some(new)) => {
                if new > old + 2.0 {
                    problems.push(format!(
                        "{}/{}: accuracy regressed {old:.2}% -> {new:.2}%",
                        id.0, id.1
                    ));
                }
            }
            _ => problems.push(format!("{}/{}: pct_diff missing", id.0, id.1)),
        }
    }
    // The serving block's runtime gates rerun every time; against the
    // baseline we only require that the block is still produced.
    if baseline.get("serving").is_some() {
        let present = fresh
            .get("serving")
            .and_then(|s| s.get("speedup"))
            .and_then(Value::as_f64)
            .is_some();
        if !present {
            problems.push("serving: block missing from fresh run".to_string());
        }
    }
    // Likewise the search.delta block: its wall-time speedup gate and
    // bitwise score identity rerun every time; the baseline comparison
    // only requires the block (its wall-clock timings are
    // informational, like eval_latency).
    if baseline
        .get("search")
        .and_then(|s| s.get("delta"))
        .is_some()
    {
        let present = fresh
            .get("search")
            .and_then(|s| s.get("delta"))
            .map(|d| {
                ["gbs", "annealing"].iter().all(|k| {
                    d.get(k)
                        .and_then(|s| s.get("speedup"))
                        .and_then(Value::as_f64)
                        .is_some()
                })
            })
            .unwrap_or(false);
        if !present {
            problems.push("search.delta: block missing from fresh run".to_string());
        }
    }
    // The search.kernel block: its timings are informational, its
    // allocation count is not — a warm session evaluates out of its own
    // slabs, so anything but zero is a regression of the kernel.
    let kernel = |doc: &Value| {
        doc.get("search")
            .and_then(|s| s.get("kernel"))
            .map(|k| k.get("allocs_per_eval").and_then(Value::as_f64))
    };
    if kernel(baseline).is_some() {
        match kernel(fresh).flatten() {
            None => problems.push("search.kernel: block missing from fresh run".to_string()),
            Some(allocs) if allocs > 0.0 => problems.push(format!(
                "search.kernel: {allocs} heap allocations per session evaluation (must be 0)"
            )),
            Some(_) => {}
        }
    }
    problems
}

/// The adaptive-resilience scenario, gated at runtime:
///
/// 1. **Zero false positives** — an adaptive Jacobi run on every
///    fault-free preset in the suite must produce no detector
///    transitions and no rebalances (exit 1 otherwise);
/// 2. **Gap recovery** — under a persistent 4× slowdown of one
///    baseline node on DC, mid-run rebalancing must recover at least
///    60% of the makespan gap between the static CPU-power
///    distribution and the oracle (degraded-weight) distribution.
///
/// The returned block is informational in `--check` mode: the gates
/// run fresh every time instead of comparing against the baseline.
fn adaptive_entry(smoke: bool, fault_free: &[ClusterSpec]) -> Value {
    let app = Jacobi {
        rows: 128,
        cols: 16,
        seed: 0x4a43,
    };
    let fp_iters: u32 = if smoke { 16 } else { 40 };
    let mut false_positives = 0usize;
    for spec in fault_free {
        let powers: Vec<f64> = spec.nodes.iter().map(|n| n.cpu_power).collect();
        let layout = GenBlock::apportion(app.rows, &powers).rows().to_vec();
        let run = run_adaptive(&app, spec, &layout, fp_iters, AdaptiveConfig::default())
            .unwrap_or_else(|e| panic!("adaptive Jacobi on {}: {e}", spec.name));
        false_positives += run
            .outcomes
            .iter()
            .map(|o| o.transitions.len() + o.rebalances.len())
            .sum::<usize>();
    }
    if false_positives > 0 {
        eprintln!(
            "adaptive: detector raised {false_positives} false positive(s) \
             on fault-free presets"
        );
        std::process::exit(1);
    }

    let iters: u32 = 40;
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
    if gap_recovered < 0.6 {
        eprintln!(
            "adaptive: recovered only {:.1}% of the static-to-oracle gap \
             (static {s:.4}s, adaptive {a:.4}s, oracle {o:.4}s)",
            100.0 * gap_recovered
        );
        std::process::exit(1);
    }
    let view = adaptive_run
        .outcomes
        .iter()
        .find(|out| out.alive)
        .expect("survivors exist");
    println!(
        "adaptive  DC+deg  {iters:>6} static {s:.3}s adaptive {a:.3}s oracle {o:.3}s \
         -> {:.0}% of gap recovered, {} rebalance(s), 0 false positives",
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
        ("fault_free_false_positives", Value::UInt(0)),
    ])
}

/// The serving-layer scenario, gated at runtime:
///
/// 1. **Throughput** — a closed-loop 8-client load replaying a
///    4-combo request mix against the warm planner (cache + single-
///    flight coalescing) must deliver at least 10x the throughput of
///    a cache-off, coalesce-off baseline at the same request count,
///    and must run exactly one search per unique request;
/// 2. **Bitwise identity** — the warm planner's cached reply must
///    equal what an independent cache-off planner recomputes, down to
///    the `f64` bit pattern of the predicted makespan;
/// 3. **Admission control** — a zero-capacity queue must shed with a
///    structured retry-after error, never hang;
/// 4. **Portfolio** — portfolio search must never be worse than the
///    best single strategy at the same per-strategy budget;
/// 5. **Telemetry overhead** — the always-on telemetry (flight
///    recorder + trace spans) must cost under 5% of warm closed-loop
///    throughput against a recorder-off planner (best-of-3 per side);
/// 6. **Deadline cap** — a request with an effectively unbounded
///    search budget but a short end-to-end deadline must reply within
///    deadline + epsilon, flagged degraded, and leave the cache empty;
/// 7. **Warm restart** — after a snapshot/restore cycle the first
///    request on the restarted planner must be a cache hit (zero
///    searches) at cache-hit latency, not a fresh multi-ms search.
fn serving_entry(smoke: bool) -> Value {
    let mix: Vec<PlanRequest> = [
        ("jacobi", presets::dc()),
        ("cg", presets::io()),
        ("jacobi", presets::hy1()),
        ("cg", presets::hy2()),
    ]
    .into_iter()
    .map(|(app, spec)| PlanRequest {
        bench: benchmark_by_name(app, "small").expect("known app"),
        prefetch: false,
        spec,
        search: SearchParams {
            max_evals_per_strategy: 24,
            seed: 0xBE5C,
            ..SearchParams::default()
        },
    })
    .collect();

    let clients = 8usize;
    let per_client = if smoke { 32 } else { 64 };
    let total = clients * per_client;
    let run_load = |cfg: PlannerConfig| {
        let planner = Planner::new(cfg);
        let start = std::time::Instant::now();
        std::thread::scope(|s| {
            for c in 0..clients {
                let planner = &planner;
                let mix = &mix;
                s.spawn(move || {
                    for i in 0..per_client {
                        let req = &mix[(c + i) % mix.len()];
                        planner.plan(req).expect("closed-loop request succeeds");
                    }
                });
            }
        });
        (start.elapsed().as_secs_f64(), planner)
    };

    let (warm_secs, warm) = run_load(PlannerConfig::default());
    let warm_searches = warm.metrics().searches();
    let warm_hits = warm.metrics().cache_hits();
    let warm_coalesced = warm.metrics().coalesced();
    let (cold_secs, cold) = run_load(PlannerConfig {
        cache_enabled: false,
        coalesce_enabled: false,
        ..PlannerConfig::default()
    });
    let cold_searches = cold.metrics().searches();
    let warm_rps = total as f64 / warm_secs;
    let cold_rps = total as f64 / cold_secs;
    let speedup = warm_rps / cold_rps;
    if speedup < 10.0 {
        eprintln!(
            "serving: cache+coalescing delivered only {speedup:.1}x over the \
             cold baseline (warm {warm_rps:.0} rps, cold {cold_rps:.0} rps)"
        );
        std::process::exit(1);
    }
    if warm_searches != mix.len() as u64 {
        eprintln!(
            "serving: warm planner ran {warm_searches} searches for \
             {} unique requests",
            mix.len()
        );
        std::process::exit(1);
    }

    // Bitwise identity: the warm cache hit vs an independent fresh
    // recomputation at the same seed.
    let cached = warm.plan(&mix[0]).expect("warm replay");
    let recomputed = cold.plan(&mix[0]).expect("cold recompute");
    if cached.source.name() != "cache"
        || cached.plan.rows != recomputed.plan.rows
        || cached.plan.predicted_ns.to_bits() != recomputed.plan.predicted_ns.to_bits()
    {
        eprintln!(
            "serving: cached plan is not bitwise-identical to a fresh \
             search ({:?} vs {:?})",
            cached.plan, recomputed.plan
        );
        std::process::exit(1);
    }

    // Admission control: a zero-capacity queue sheds structurally.
    let shed_retry_ms = 25u64;
    let tiny = Planner::new(PlannerConfig {
        queue_capacity: 0,
        cache_enabled: false,
        coalesce_enabled: false,
        retry_after_ms: shed_retry_ms,
        ..PlannerConfig::default()
    });
    match tiny.plan(&mix[0]) {
        Err(PlanError::Overloaded { retry_after_ms }) if retry_after_ms == shed_retry_ms => {}
        other => {
            eprintln!("serving: expected a structured shed, got {other:?}");
            std::process::exit(1);
        }
    }

    // Deadline cap: an effectively unbounded search budget, bounded
    // only by the request deadline. The reply must arrive within
    // deadline + epsilon (epsilon absorbs the cancellation-poll
    // granularity and scheduler jitter), carry the degraded flag, and
    // never be cached.
    let deadline_ms = 40u64;
    let deadline_epsilon_ms = 250u64;
    let dl_planner = Planner::new(PlannerConfig::default());
    let unbounded = PlanRequest {
        search: SearchParams {
            max_evals_per_strategy: 10_000_000,
            ..mix[0].search
        },
        ..mix[0].clone()
    };
    let dl_start = std::time::Instant::now();
    let dl_reply = dl_planner.plan_opts(
        &unbounded,
        TraceContext::root(),
        Some(std::time::Duration::from_millis(deadline_ms)),
    );
    let dl_elapsed_ms = dl_start.elapsed().as_secs_f64() * 1e3;
    let dl_reply = match dl_reply {
        Ok(r) if r.degraded => r,
        other => {
            eprintln!("serving: expected a degraded incumbent under deadline, got {other:?}");
            std::process::exit(1);
        }
    };
    if dl_elapsed_ms > (deadline_ms + deadline_epsilon_ms) as f64 {
        eprintln!(
            "serving: deadline-capped request took {dl_elapsed_ms:.0} ms \
             against a {deadline_ms} ms deadline (+{deadline_epsilon_ms} ms epsilon)"
        );
        std::process::exit(1);
    }
    if !dl_planner.cache().is_empty() {
        eprintln!("serving: a degraded plan was cached");
        std::process::exit(1);
    }

    // Warm restart: persist the warm planner's cache, restore it into
    // a fresh planner, and require the first request to be a cache hit
    // at cache-hit speed — bounded by a generous multiple of the
    // steady-state hit latency, far below a fresh multi-ms search.
    let hit_latency_secs = |planner: &Planner, req: &PlanRequest| -> f64 {
        let mut samples: Vec<f64> = (0..32)
            .map(|_| {
                let t = std::time::Instant::now();
                planner.plan(req).expect("cache hit");
                t.elapsed().as_secs_f64()
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
    let steady_hit_secs = hit_latency_secs(&warm, &mix[0]);
    let snap_path =
        std::env::temp_dir().join(format!("mheta-bench-snap-{}.json", std::process::id()));
    let saved = warm.save_snapshot(&snap_path).expect("snapshot save");
    let restarted = Planner::new(PlannerConfig::default());
    let loaded = restarted.load_snapshot(&snap_path).expect("snapshot load");
    let first_start = std::time::Instant::now();
    let first = restarted
        .plan(&mix[0])
        .expect("first request after restart");
    let first_hit_secs = first_start.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&snap_path);
    if first.source.name() != "cache" || restarted.metrics().searches() != 0 {
        eprintln!(
            "serving: warm restart missed the cache (source {}, {} searches, \
             {saved} saved / {loaded} loaded)",
            first.source.name(),
            restarted.metrics().searches()
        );
        std::process::exit(1);
    }
    let warm_restart_budget_secs = steady_hit_secs * 20.0 + 0.002;
    if first_hit_secs > warm_restart_budget_secs {
        eprintln!(
            "serving: first request after warm restart took {:.3} ms against a \
             {:.3} ms budget (steady-state hit {:.3} ms)",
            first_hit_secs * 1e3,
            warm_restart_budget_secs * 1e3,
            steady_hit_secs * 1e3
        );
        std::process::exit(1);
    }

    // Telemetry overhead: steady-state serving throughput with the
    // flight recorder on (default) vs off. Both planners are primed
    // first so the measured loops are pure cache hits — the serving
    // fast path, where per-request telemetry cost is visible and the
    // multi-millisecond searches can't drown the signal in noise.
    // The on/off windows are *interleaved* (on, off, on, off, …) and
    // each side takes its best window, so machine drift (frequency
    // scaling, background load) hits both sides symmetrically instead
    // of biasing whichever side ran second.
    let telemetry_per_client = per_client * 16;
    let primed = |cfg: PlannerConfig| -> Planner {
        let planner = Planner::new(cfg);
        for req in &mix {
            planner.plan(req).expect("prime the cache");
        }
        planner
    };
    let window = |planner: &Planner| -> f64 {
        let start = std::time::Instant::now();
        std::thread::scope(|s| {
            for c in 0..clients {
                let mix = &mix;
                s.spawn(move || {
                    for i in 0..telemetry_per_client {
                        planner.plan(&mix[(c + i) % mix.len()]).expect("cache hit");
                    }
                });
            }
        });
        (clients * telemetry_per_client) as f64 / start.elapsed().as_secs_f64()
    };
    let recorder_on = primed(PlannerConfig::default());
    let recorder_off = primed(PlannerConfig {
        recorder_capacity: 0,
        ..PlannerConfig::default()
    });
    let mut telemetry_on_rps = 0.0f64;
    let mut telemetry_off_rps = 0.0f64;
    for _ in 0..5 {
        telemetry_on_rps = telemetry_on_rps.max(window(&recorder_on));
        telemetry_off_rps = telemetry_off_rps.max(window(&recorder_off));
    }
    let telemetry_overhead = ((telemetry_off_rps - telemetry_on_rps) / telemetry_off_rps).max(0.0);
    if telemetry_overhead > 0.05 {
        eprintln!(
            "serving: telemetry overhead {:.1}% exceeds the 5% budget \
             (recorder on {telemetry_on_rps:.0} rps, off {telemetry_off_rps:.0} rps)",
            100.0 * telemetry_overhead
        );
        std::process::exit(1);
    }

    // Portfolio vs the best single strategy on the real model, with
    // the portfolio's own derived per-strategy seeds.
    let bench = benchmark_by_name("jacobi", "small").expect("known app");
    let spec = presets::dc();
    let model = mheta_apps::build_model(&bench, &spec, false).expect("model");
    let path = SpectrumPath::new(&mheta_apps::anchor_inputs(&model));
    let budget = if smoke { 32 } else { 64 };
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
    if out.best.score_ns > best_single || out.best.score_ns.is_nan() {
        eprintln!(
            "serving: portfolio score {} worse than best single strategy {}",
            out.best.score_ns, best_single
        );
        std::process::exit(1);
    }

    let hit_rate = warm_hits as f64 / total as f64;
    println!(
        "serving   {clients}x{per_client} closed-loop  warm {warm_rps:>8.0} rps  \
         cold {cold_rps:>7.0} rps  -> {speedup:.1}x, {:.0}% cache hits, \
         portfolio {} beats singles, telemetry overhead {:.1}%",
        100.0 * hit_rate,
        out.winner.name(),
        100.0 * telemetry_overhead
    );
    println!(
        "serving   deadline {deadline_ms} ms -> degraded reply in {dl_elapsed_ms:.0} ms; \
         warm restart first hit {:.3} ms (steady {:.3} ms)",
        first_hit_secs * 1e3,
        steady_hit_secs * 1e3
    );

    let stages = warm
        .metrics()
        .snapshot()
        .get("stages")
        .cloned()
        .unwrap_or(Value::Null);
    Value::object(vec![
        ("clients", Value::UInt(clients as u64)),
        ("requests", Value::UInt(total as u64)),
        (
            "mix",
            Value::Array(mix.iter().map(|r| Value::Str(r.label())).collect()),
        ),
        (
            "warm",
            Value::object(vec![
                ("throughput_rps", Value::Float(warm_rps)),
                ("searches", Value::UInt(warm_searches)),
                ("cache_hits", Value::UInt(warm_hits)),
                ("coalesced", Value::UInt(warm_coalesced)),
                ("hit_rate", Value::Float(hit_rate)),
                ("stages", stages),
            ]),
        ),
        (
            "cold",
            Value::object(vec![
                ("throughput_rps", Value::Float(cold_rps)),
                ("searches", Value::UInt(cold_searches)),
            ]),
        ),
        ("speedup", Value::Float(speedup)),
        (
            "shed",
            Value::object(vec![("retry_after_ms", Value::UInt(shed_retry_ms))]),
        ),
        (
            "deadline",
            Value::object(vec![
                ("deadline_ms", Value::UInt(deadline_ms)),
                ("epsilon_ms", Value::UInt(deadline_epsilon_ms)),
                ("elapsed_ms", Value::Float(dl_elapsed_ms)),
                ("degraded", Value::Bool(dl_reply.degraded)),
                ("evals_spent", Value::UInt(dl_reply.plan.total_evals as u64)),
            ]),
        ),
        (
            "warm_restart",
            Value::object(vec![
                ("entries", Value::UInt(saved as u64)),
                ("steady_hit_ms", Value::Float(steady_hit_secs * 1e3)),
                ("first_hit_ms", Value::Float(first_hit_secs * 1e3)),
                ("budget_ms", Value::Float(warm_restart_budget_secs * 1e3)),
            ]),
        ),
        (
            "telemetry",
            Value::object(vec![
                ("recorder_on_rps", Value::Float(telemetry_on_rps)),
                ("recorder_off_rps", Value::Float(telemetry_off_rps)),
                ("overhead_frac", Value::Float(telemetry_overhead)),
                ("budget_frac", Value::Float(0.05)),
            ]),
        ),
        (
            "portfolio",
            Value::object(vec![
                ("budget", Value::UInt(budget as u64)),
                ("winner", Value::Str(out.winner.name().to_string())),
                ("portfolio_score_ns", Value::Float(out.best.score_ns)),
                ("best_single_score_ns", Value::Float(best_single)),
                ("total_evals", Value::UInt(out.total_evals as u64)),
            ]),
        ),
    ])
}

/// The incremental-evaluation scenario, gated at runtime:
///
/// 1. **Bitwise quality** — GBS and simulated annealing on the DC
///    preset, scoring through the model's caching session, must find
///    the *bit-identical* best score that the full-eval reference (the
///    same model behind a session-less wrapper) finds at the same seed
///    and budget (the delta engine may only change cost, never
///    results);
/// 2. **Speedup** — each search must run at least 1.5x faster than
///    its full-eval twin (best-of-5 interleaved windows, so machine
///    drift hits both sides symmetrically). The bar was 2x under a
///    measured 2.9-3.0x while `predict()` cost ~8 us; the lowered
///    kernel cut that reference to ~1.9 us but cannot shrink a search's
///    fixed per-candidate work (clock reads, history, RNG), so the
///    measured ratio is now 2.0-2.5x and the bar keeps its old
///    proportion to it.
///
/// The recorded wall-clock timings are informational in `--check`
/// mode; only the block's presence is compared against the baseline.
fn search_delta_entry(bench: &Benchmark, spec: &ClusterSpec, model: &mheta_core::Mheta) -> Value {
    let path = SpectrumPath::new(&mheta_apps::anchor_inputs(model));
    let blk = GenBlock::block(bench.total_rows(), spec.len());
    let budget = 512usize;
    let min_speedup = 1.5;

    // Time `reps` back-to-back runs per window; take each side's best
    // of 5 interleaved windows. A single GBS run converges in tens of
    // microseconds, far below timer noise — the repetition factor
    // lifts every window into the milliseconds.
    let time_best = |reps: usize, run: &dyn Fn() -> mheta_dist::SearchOutcome| {
        let mut best = f64::INFINITY;
        let mut out = None;
        for _ in 0..5 {
            let t = std::time::Instant::now();
            for _ in 0..reps {
                out = Some(run());
            }
            best = best.min(t.elapsed().as_secs_f64() / reps as f64);
        }
        (best, out.expect("at least one run"))
    };

    // The full-eval reference: a wrapper with no session of its own,
    // so every candidate costs one from-scratch `Mheta::predict`.
    let reference = FallibleFn(|rows: &[usize]| model.try_eval_ns(rows));
    type Run<'a> = &'a dyn Fn(&dyn Evaluator) -> mheta_dist::SearchOutcome;
    let gate = |which: &str, reps: usize, run: Run<'_>| {
        let (full_secs, full) = time_best(reps, &|| run(&reference));
        let (delta_secs, delta) = time_best(reps, &|| run(model));
        if delta.score_ns.to_bits() != full.score_ns.to_bits()
            || delta.best.rows() != full.best.rows()
        {
            eprintln!(
                "search.delta: {which} best diverged under delta evaluation \
                 ({} vs {})",
                delta.score_ns, full.score_ns
            );
            std::process::exit(1);
        }
        if delta.delta.delta_hits == 0 {
            eprintln!("search.delta: {which} never hit the incremental path");
            std::process::exit(1);
        }
        let speedup = full_secs / delta_secs;
        if speedup < min_speedup {
            eprintln!(
                "search.delta: {which} speedup {speedup:.2}x below the \
                 {min_speedup}x gate (full {:.3} ms, delta {:.3} ms)",
                full_secs * 1e3,
                delta_secs * 1e3
            );
            std::process::exit(1);
        }
        println!(
            "search    DC delta {which:<9} full {:>7.3} ms  delta {:>7.3} ms  \
             -> {speedup:.1}x, {} hits, best identical",
            full_secs * 1e3,
            delta_secs * 1e3,
            delta.delta.delta_hits
        );
        Value::object(vec![
            ("full_ms", Value::Float(full_secs * 1e3)),
            ("delta_ms", Value::Float(delta_secs * 1e3)),
            ("speedup", Value::Float(speedup)),
            ("delta_hits", Value::UInt(delta.delta.delta_hits)),
            ("full_evals", Value::UInt(delta.delta.full_evals)),
            ("terms_reused", Value::UInt(delta.delta.terms_reused)),
            ("score_ns", Value::Float(delta.score_ns)),
            ("evaluations", Value::UInt(delta.evaluations as u64)),
        ])
    };

    // Tight tolerance drives the golden-section refinement deep: each
    // probe is a small boundary move against the previous one, which is
    // exactly the workload the delta engine accelerates (the opening
    // anchor sweep stays cold on both sides).
    let gbs = gate("gbs", 32, &|eval| {
        gbs_search(
            &path,
            eval,
            GbsConfig {
                max_evals: budget,
                tolerance: 1e-5,
                ..GbsConfig::default()
            },
        )
    });
    let annealing = gate("annealing", 4, &|eval| {
        simulated_annealing(
            &blk,
            eval,
            AnnealingConfig {
                max_evals: budget,
                ..AnnealingConfig::default()
            },
        )
    });

    Value::object(vec![
        ("arch", Value::Str(spec.name.clone())),
        ("app", Value::Str(bench.name().to_string())),
        ("budget", Value::UInt(budget as u64)),
        ("min_speedup", Value::Float(min_speedup)),
        ("gbs", gbs),
        ("annealing", annealing),
    ])
}

/// What one evaluation through a warm session costs, on the same
/// model: a *full* evaluation (every rank's row count differs from the
/// base, so every leaf is recomputed and the result becomes the next
/// base) and a *delta* evaluation (a one-row shift between two ranks
/// against an unchanging base: two leaves recomputed, the rest
/// copied), each the best of five windows; and the heap allocations
/// the two loops made per evaluation, which must be zero.
fn search_kernel_entry(bench: &Benchmark, spec: &ClusterSpec, model: &mheta_core::Mheta) -> Value {
    let (total, n) = (bench.total_rows(), spec.len());
    let blk = GenBlock::block(total, n).rows().to_vec();
    let (fulls, deltas) = kernel_candidates(&blk);

    let evals = 20_000usize;
    let mut session = DeltaEvaluator::new(model);
    let mut window = |cands: &[Vec<usize>; 2]| {
        session.note_accept(&blk);
        let mut best = f64::INFINITY;
        let mut allocs = 0;
        for _ in 0..5 {
            let before = ALLOCATIONS.with(Cell::get);
            let t = std::time::Instant::now();
            for i in 0..evals {
                let score = session.try_eval_ns(&cands[i % 2]);
                std::hint::black_box(score.expect("a valid distribution"));
            }
            best = best.min(t.elapsed().as_secs_f64() / evals as f64);
            allocs += ALLOCATIONS.with(Cell::get) - before;
        }
        (best * 1e9, allocs)
    };
    let (full_ns, full_allocs) = window(&fulls);
    let (delta_ns, delta_allocs) = window(&deltas);
    let stats = session.stats();
    assert!(
        stats.fallback_all_dirty >= 5 * evals as u64 && stats.delta_hits >= 5 * evals as u64,
        "the two loops took the paths they are named for: {stats:?}"
    );
    let allocs_per_eval = (full_allocs + delta_allocs) as f64 / (10 * evals) as f64;
    println!(
        "search    {} kernel  full eval {full_ns:>6.0} ns  2-dirty delta {delta_ns:>6.0} ns  \
         {allocs_per_eval} allocations/eval",
        spec.name
    );
    Value::object(vec![
        ("arch", Value::Str(spec.name.clone())),
        ("app", Value::Str(bench.name().to_string())),
        ("full_eval_ns", Value::Float(full_ns)),
        ("delta_eval_ns", Value::Float(delta_ns)),
        ("allocs_per_eval", Value::Float(allocs_per_eval)),
    ])
}

/// The `search` block: both scenarios on one Jacobi@DC model.
fn search_entry(smoke: bool) -> Value {
    let bench = if smoke {
        Benchmark::Jacobi(Jacobi::small())
    } else {
        Benchmark::Jacobi(Jacobi::default())
    };
    let spec = presets::dc();
    let model = mheta_apps::build_model(&bench, &spec, false).expect("model");
    Value::object(vec![
        ("delta", search_delta_entry(&bench, &spec, &model)),
        ("kernel", search_kernel_entry(&bench, &spec, &model)),
    ])
}

const USAGE: &str = "usage: bench_suite [--smoke] [--check [BASELINE.json]]";

/// The suite's command line.
#[derive(Debug, Default, PartialEq)]
struct Cli {
    smoke: bool,
    /// `Some(None)` checks against the committed `BENCH_<name>.json`.
    check: Option<Option<String>>,
}

impl Cli {
    /// Unknown arguments are an error: a mistyped `--smoke` must not
    /// run the full suite and rewrite `BENCH_full.json`.
    fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => cli.smoke = true,
                "--check" => cli.check = Some(args.next_if(|v| !v.starts_with("--"))),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(cli)
    }

    fn name(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }

    /// The committed baseline document of this mode.
    fn committed_path(&self) -> String {
        format!("BENCH_{}.json", self.name())
    }

    /// Where the fresh document goes: over the committed file, except
    /// under `--check`, which must leave what it compares against alone.
    fn out_path(&self) -> String {
        match self.check {
            Some(_) => format!("target/bench/{}", self.committed_path()),
            None => self.committed_path(),
        }
    }
}

fn main() {
    let cli = Cli::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("bench_suite: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let smoke = cli.smoke;
    let name = cli.name();
    let (specs, benches, latency_evals) = if smoke {
        (
            vec![presets::io(), presets::hy1()],
            Benchmark::small_four(),
            50,
        )
    } else {
        (
            vec![presets::dc(), presets::io(), presets::hy1(), presets::hy2()],
            Benchmark::paper_four(),
            200,
        )
    };
    let out_path = cli.out_path();
    let baseline = if let Some(given) = &cli.check {
        let path = given.clone().unwrap_or_else(|| cli.committed_path());
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                eprintln!(
                    "bench_suite --check: missing baseline {path}; run \
                     `cargo run --release -p mheta-bench --bin bench_suite{}` \
                     without --check first to create it",
                    if smoke { " -- --smoke" } else { "" }
                );
                std::process::exit(1);
            }
            Err(e) => panic!("--check: cannot read baseline {path}: {e}"),
        };
        Some((
            path.clone(),
            serde::from_str(&text)
                .unwrap_or_else(|e| panic!("--check: baseline {path} is not JSON: {e}")),
        ))
    } else {
        None
    };

    println!(
        "bench_suite: {name} ({} arch x {} apps)",
        specs.len(),
        benches.len()
    );
    println!(
        "{:<5} {:<8} {:>6} {:>10} {:>10} {:>7} {:>12} {:>9}  top residual term",
        "arch", "app", "iters", "pred(s)", "actual(s)", "diff%", "makespan_ms", "p50(us)"
    );
    let mut entries = Vec::new();
    for spec in &specs {
        for bench in &benches {
            let iters = if smoke {
                2
            } else {
                experiment_iters(bench, false)
            };
            let e = measure(bench, spec, iters, latency_evals);
            let top = e
                .audit
                .top_terms(1)
                .first()
                .map(|(t, r)| format!("{t} ({:+.3} ms)", r / 1e6))
                .unwrap_or_default();
            println!(
                "{:<5} {:<8} {:>6} {:>9.3}s {:>9.3}s {:>6.2}% {:>12.3} {:>9.1}  {top}",
                e.arch,
                e.app,
                e.iters,
                e.predicted_secs,
                e.actual_secs,
                e.pct_diff,
                e.makespan_ns as f64 / 1e6,
                e.latency
                    .get("p50_ns")
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0)
                    / 1e3,
            );
            entries.push(e);
        }
    }

    let adaptive = adaptive_entry(smoke, &specs);
    let serving = serving_entry(smoke);
    let search = search_entry(smoke);
    let doc = suite_value(name, &entries, &adaptive, &serving, &search);
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(&out_path, doc.to_json_pretty()).expect("write suite json");
    println!("\nwrote {out_path}");

    if let Some((path, baseline)) = baseline {
        let problems = check_against(&baseline, &doc);
        if problems.is_empty() {
            println!(
                "check vs {path}: OK ({} entries within tolerance)",
                entries.len()
            );
        } else {
            eprintln!("check vs {path}: FAILED");
            for p in &problems {
                eprintln!("  {p}");
            }
            std::process::exit(1);
        }
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
        assert!(parse(&["--smok"]).is_err());
        assert!(parse(&["--smoke", "--chekc"]).is_err());
        assert!(parse(&["BENCH_smoke.json"]).is_err());
        assert_eq!(parse(&[]).unwrap(), Cli::default());
        let cli = parse(&["--check", "--smoke"]).unwrap();
        assert!(cli.smoke);
        assert_eq!(cli.check, Some(None));
        let cli = parse(&["--check", "old.json"]).unwrap();
        assert_eq!(cli.check, Some(Some("old.json".into())));
    }

    #[test]
    fn check_never_writes_over_a_committed_baseline() {
        for args in [&["--smoke", "--check"][..], &["--check", "BENCH_full.json"]] {
            let cli = parse(args).unwrap();
            assert!(cli.out_path().starts_with("target/bench/"));
            assert_ne!(cli.out_path(), cli.committed_path());
        }
        assert_eq!(parse(&["--smoke"]).unwrap().out_path(), "BENCH_smoke.json");
        assert_eq!(parse(&[]).unwrap().out_path(), "BENCH_full.json");
    }
}
