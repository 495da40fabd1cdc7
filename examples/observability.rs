//! End-to-end tour of the observability layer (`mheta-obs`):
//!
//! 1. run out-of-core Jacobi on a heterogeneous cluster with tracing
//!    and MPI-Jack hooks enabled,
//! 2. print the per-rank virtual-time breakdown (metrics),
//! 3. reconstruct the cross-rank critical path and report what the
//!    makespan was actually spent on,
//! 4. export the run as Chrome trace-event JSON — open
//!    `target/observability.perfetto.json` in <https://ui.perfetto.dev>,
//! 5. run a distribution search and dump its convergence curve.
//!
//! ```text
//! cargo run --release --example observability
//! ```

use mheta::dist::{random_search, RandomConfig};
use mheta::obs::{perfetto_trace, telemetry, CriticalPath, Metrics};
use mheta::prelude::*;

fn main() {
    // A heterogeneous cluster: ranks 2-3 are memory-starved, so they
    // stream their grid from disk while ranks 0-1 stay in core.
    let mut spec = ClusterSpec::homogeneous(4);
    spec.noise.amplitude = 0.0;
    spec.nodes[2].memory_bytes = 3 * 1024;
    spec.nodes[3].memory_bytes = 3 * 1024;

    let jacobi = Jacobi::small();
    let bench = Benchmark::Jacobi(jacobi.clone());
    let dist = GenBlock::block(jacobi.rows, 4);
    let run = run_observed(&bench, &spec, &dist, 3, false).expect("jacobi run");

    // --- Metrics: where did each rank's virtual time go? -------------------
    let metrics = Metrics::from_traces(&run.traces, &[]);
    println!("Per-rank virtual-time breakdown (3 Jacobi iterations):\n");
    print!("{}", metrics.utilization_table());

    // --- Critical path: what decided the makespan? -------------------------
    let path = CriticalPath::compute(&run.traces);
    println!("\n{}", path.report());
    assert_eq!(
        path.total_ns(),
        path.makespan.as_nanos(),
        "segments partition the makespan exactly"
    );

    // --- Perfetto export ---------------------------------------------------
    let json = perfetto_trace(&run.traces, &run.hooks, &[], &[]).to_json();
    std::fs::create_dir_all("target").expect("target dir");
    let out = "target/observability.perfetto.json";
    std::fs::write(out, &json).expect("write trace");
    println!(
        "wrote {out} ({} KiB) — load it in https://ui.perfetto.dev",
        json.len() / 1024
    );

    // --- Search telemetry --------------------------------------------------
    let model = build_model(&bench, &spec, false).expect("model");
    let outcome = random_search(
        jacobi.rows,
        4,
        &model,
        RandomConfig {
            max_evals: 32,
            ..RandomConfig::default()
        },
    );
    let csv = telemetry::convergence_csv(&[("random", &outcome)]);
    let curve = "target/observability.convergence.csv";
    std::fs::write(curve, &csv).expect("write csv");
    println!(
        "wrote {curve}: random search converged to {} ({:.3}s predicted) in {} evaluations",
        outcome.best,
        outcome.score_ns * 3.0 / 1e9,
        outcome.evaluations
    );
}
