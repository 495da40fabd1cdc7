//! "On the fly" redistribution — the runtime the paper sketches in §6:
//! start under the default Block distribution, use MHETA + GBS to find
//! a better one in a handful of evaluations, check that the predicted
//! savings over the remaining iterations beat the predicted cost of
//! moving the data, then actually move it and finish faster.
//!
//! ```text
//! cargo run --release --example on_the_fly
//! ```

use mheta::apps::jacobi::VAR_U;
use mheta::apps::redistribute_var;
use mheta::dist::{gbs_search, predict_cost_ns, switch_benefit_ns, GbsConfig};
use mheta::mpi::{run_app, ExecMode, NullRecorder, RunOptions};
use mheta::prelude::*;

fn main() {
    let spec = presets::io(); // half the nodes memory-starved
    let app = Jacobi::default();
    let bench = Benchmark::Jacobi(app.clone());
    let total_iters = 60u32;
    let switch_after = 6u32;

    println!(
        "Jacobi on {}, {} iterations total.\n",
        spec.name, total_iters
    );

    // -- The runtime's decision procedure ---------------------------------
    let model = build_model(&bench, &spec, false).expect("model");
    let blk = GenBlock::block(app.rows, spec.len());
    let inputs = anchor_inputs(&model);
    let path = SpectrumPath::new(&inputs);
    let found = gbs_search(&path, &model, GbsConfig::default());
    println!(
        "GBS found {} in {} MHETA evaluations (predicted {:.0}ms/iter vs Blk {:.0}ms/iter)",
        found.best,
        found.evaluations,
        found.score_ns / 1e6,
        model.predict(blk.rows()).expect("blk").iteration_ns / 1e6
    );

    let remaining = total_iters - switch_after;
    let (old, new) = (blk.rows(), found.best.rows());
    let move_cost = predict_cost_ns(&model, old, new).expect("move cost");
    let benefit = switch_benefit_ns(&model, old, new, remaining).expect("benefit");
    println!(
        "predicted redistribution cost {:.1}ms; net benefit over {} remaining iterations {:+.2}s",
        move_cost / 1e6,
        remaining,
        benefit / 1e9
    );
    assert!(benefit > 0.0, "the runtime would decline this switch");

    // -- Execute both plans ------------------------------------------------
    let stay = run_measured(&bench, &spec, &blk, total_iters, false)
        .expect("baseline")
        .secs;

    // Switching plan: phase 1 under Blk, redistribute (measured for real
    // over the grid variable), phase 2 under the found distribution.
    let phase1 = run_measured(&bench, &spec, &blk, switch_after, false)
        .expect("phase 1")
        .secs;
    let cols = app.cols;
    let move_run = run_app(
        &spec,
        RunOptions {
            tracing: false,
            mode: ExecMode::Normal,
        },
        |_| NullRecorder,
        |comm| {
            let m = blk.rows()[comm.rank()];
            comm.ctx().disk.create(VAR_U, m * cols);
            redistribute_var(comm, VAR_U, cols, blk.rows(), found.best.rows())
        },
    )
    .expect("redistribution");
    let moved = move_run
        .results
        .iter()
        .map(|d| d.as_secs_f64())
        .fold(0.0f64, f64::max);
    let phase2 = run_measured(&bench, &spec, &found.best, remaining, false)
        .expect("phase 2")
        .secs;
    let switched = phase1 + moved + phase2;

    println!("\nstay on Blk the whole run:        {stay:8.2}s");
    println!(
        "switch after {switch_after} iterations:        {switched:8.2}s  ({phase1:.2}s + {moved:.3}s move + {phase2:.2}s)"
    );
    println!(
        "actual redistribution cost {:.1}ms (predicted {:.1}ms)",
        moved * 1e3,
        move_cost / 1e6
    );
    println!(
        "\nswitching wins by {:.2}s ({:.2}x) — the §6 runtime in action.",
        stay - switched,
        stay / switched
    );
}
