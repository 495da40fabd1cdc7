//! Visualize a traced run: a plain-text Gantt timeline of what every
//! rank spent its virtual time on — the pipeline fill of RNA's
//! wavefront and the I/O phases of out-of-core Jacobi are plainly
//! visible.
//!
//! ```text
//! cargo run --release --example timeline_trace
//! ```

use mheta::mpi::{run_app, ExecMode, NullRecorder, RunOptions};
use mheta::prelude::*;
use mheta::sim::render_timeline;

fn main() {
    // --- RNA: watch the pipeline fill ------------------------------------
    let mut spec = ClusterSpec::homogeneous(6);
    spec.noise.amplitude = 0.0;
    let rna = Rna {
        rows: 96,
        cols: 64,
        tiles: 8,
        seed: 0x52,
    };
    let dist = GenBlock::block(rna.rows, 6);
    let structure = rna.structure();
    let run = run_app(
        &spec,
        RunOptions {
            tracing: true,
            mode: ExecMode::Normal,
        },
        |_| NullRecorder,
        |comm| rna.run(comm, &structure, &dist, 1),
    )
    .expect("rna run");
    println!("RNA wavefront, one iteration, 8 tiles over 6 ranks:");
    println!("(the staircase is the pipeline filling — Eq. 4's tile recurrence)\n");
    print!("{}", render_timeline(&run.traces, 100));

    // --- Jacobi: in-core vs out-of-core nodes ------------------------------
    let mut spec = ClusterSpec::homogeneous(4);
    spec.noise.amplitude = 0.0;
    spec.nodes[2].memory_bytes = 3 * 1024;
    spec.nodes[3].memory_bytes = 3 * 1024;
    let jacobi = Jacobi::small();
    let dist = GenBlock::block(jacobi.rows, 4);
    let structure = jacobi.structure(false);
    let run = run_app(
        &spec,
        RunOptions {
            tracing: true,
            mode: ExecMode::Normal,
        },
        |_| NullRecorder,
        |comm| jacobi.run(comm, &structure, &dist, 2, false),
    )
    .expect("jacobi run");
    println!("\nJacobi, two iterations; ranks 2-3 are memory-starved (out of core):");
    println!("(D/W stripes are their ICLA streaming; ranks 0-1 idle-wait at the reduction)\n");
    print!("{}", render_timeline(&run.traces, 100));
}
