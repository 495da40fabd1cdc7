//! Use the planning service in process: cache hits and single-flight
//! coalescing around the portfolio search, then its statistics and
//! telemetry. (A full queue's structured shed is shown by the planner's
//! tests, which can hold a search open while the queue fills.)
//!
//! ```text
//! cargo run --release --example plan_service
//! ```

use std::sync::{Arc, Barrier};

use mheta::prelude::*;

fn main() {
    let planner = Arc::new(Planner::new(PlannerConfig::default()));
    let req = PlanRequest {
        bench: Benchmark::Jacobi(Jacobi::small()),
        prefetch: false,
        spec: presets::dc(),
        search: SearchParams {
            max_evals_per_strategy: 64,
            ..SearchParams::default()
        },
    };

    // First request: a fresh portfolio search.
    let fresh = planner.plan(&req).expect("plan");
    println!(
        "fresh:     {:>9} rows={:?} predicted={:.3}ms winner={} ({} evals)",
        fresh.source.name(),
        fresh.plan.rows,
        fresh.plan.predicted_ns / 1e6,
        fresh.plan.winner.name(),
        fresh.plan.total_evals,
    );

    // Same request again: served from the plan cache, bit-identical.
    let cached = planner.plan(&req).expect("plan");
    assert_eq!(cached.plan, fresh.plan);
    println!(
        "repeat:    {:>9} (bitwise-identical to the fresh search)",
        cached.source.name()
    );

    // A concurrent burst of one *new* request coalesces onto one search.
    planner.invalidate_cache();
    let burst = 6;
    let barrier = Arc::new(Barrier::new(burst));
    let searches_before = planner.metrics().searches();
    std::thread::scope(|s| {
        for _ in 0..burst {
            let planner = Arc::clone(&planner);
            let barrier = Arc::clone(&barrier);
            let req = req.clone();
            s.spawn(move || {
                barrier.wait();
                planner.plan(&req).expect("plan");
            });
        }
    });
    println!(
        "burst:     {burst} concurrent identical requests -> {} search(es)",
        planner.metrics().searches() - searches_before
    );

    println!("\nservice stats:\n{}", planner.stats().to_json_pretty());

    // Telemetry: every request above ran under a trace; the flight
    // recorder kept its lifecycle and the planner renders a
    // Prometheus scrape on demand.
    let dump = planner.flight_dump();
    println!(
        "\nflight recorder: {} events retained ({} written, {} dropped)",
        dump.get("retained").and_then(|v| v.as_u64()).unwrap_or(0),
        dump.get("written").and_then(|v| v.as_u64()).unwrap_or(0),
        dump.get("dropped").and_then(|v| v.as_u64()).unwrap_or(0),
    );
    let prom = planner.prometheus();
    println!(
        "prometheus exposition ({} lines), e.g.:",
        prom.lines().count()
    );
    for line in prom
        .lines()
        .filter(|l| l.starts_with("mheta_serve_requests_total"))
    {
        println!("  {line}");
    }
}
