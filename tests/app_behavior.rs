//! Behavioral tests: the applications' *operational* structure — what
//! they actually do on the simulator, as seen by traces and hooks —
//! must match the program structures they hand the model. If an app
//! drifts from its declared shape, predictions go quietly wrong; these
//! tests make that drift loud.

use mheta::mpi::{run_app, ExecMode, HookEvent, NullRecorder, OpKind, RunOptions, ScopeKind};
use mheta::prelude::*;
use mheta::sim::EventKind;

fn quiet(n: usize) -> ClusterSpec {
    let mut s = ClusterSpec::homogeneous(n);
    s.noise.amplitude = 0.0;
    s
}

/// Count hook events matching a predicate.
fn count(rec: &mheta::mpi::VecRecorder, pred: impl Fn(&HookEvent) -> bool) -> usize {
    rec.events.iter().filter(|e| pred(e)).count()
}

#[test]
fn jacobi_ooc_issues_exactly_n_io_reads_and_writes_per_iteration() {
    let mut spec = quiet(2);
    spec.nodes[0].memory_bytes = 3 * 1024; // force OOC
    let app = Jacobi::small();
    let dist = GenBlock::block(app.rows, 2);
    let structure = app.structure(false);
    let iters = 3u32;
    let run = run_app(
        &spec,
        RunOptions {
            tracing: false,
            mode: ExecMode::Normal,
        },
        |_| mheta::mpi::VecRecorder::default(),
        |comm| app.run(comm, &structure, &dist, iters, false),
    )
    .unwrap();

    // Recompute the expected plan exactly as the app does.
    let m = dist.rows()[0];
    let plans = mheta::core::plan_node(
        spec.nodes[0].memory_bytes,
        structure.overhead_bytes(m),
        m,
        &structure.footprint_row_bytes(),
    );
    let n_io = plans[&mheta::apps::jacobi::VAR_U].n_io as usize;
    assert!(n_io >= 2, "test premise: node 0 must chunk");

    let rec = &run.recorders[0];
    let reads = count(
        rec,
        |e| matches!(e, HookEvent::Op { info, .. } if info.kind == OpKind::FileRead),
    );
    let writes = count(
        rec,
        |e| matches!(e, HookEvent::Op { info, .. } if info.kind == OpKind::FileWrite),
    );
    // Per iteration: N_io chunk reads and N_io writes (final row folded
    // into the last chunk's flush). No compulsory load (OOC).
    assert_eq!(reads, n_io * iters as usize, "reads per iteration");
    assert_eq!(writes, n_io * iters as usize, "writes per iteration");
}

#[test]
fn jacobi_prefetch_issues_cover_all_but_first_chunk() {
    let mut spec = quiet(2);
    spec.nodes[0].memory_bytes = 3 * 1024;
    let app = Jacobi::small();
    let dist = GenBlock::block(app.rows, 2);
    let structure = app.structure(true);
    let run = run_app(
        &spec,
        RunOptions {
            tracing: false,
            mode: ExecMode::Normal,
        },
        |_| mheta::mpi::VecRecorder::default(),
        |comm| app.run(comm, &structure, &dist, 2, true),
    )
    .unwrap();
    let rec = &run.recorders[0];
    let sync_reads = count(
        rec,
        |e| matches!(e, HookEvent::Op { info, .. } if info.kind == OpKind::FileRead),
    );
    let issues = count(
        rec,
        |e| matches!(e, HookEvent::Op { info, .. } if info.kind == OpKind::PrefetchIssue),
    );
    let waits = count(
        rec,
        |e| matches!(e, HookEvent::Op { info, .. } if info.kind == OpKind::PrefetchWait),
    );
    // Figure 6: the first chunk is a synchronous read, every subsequent
    // chunk a prefetch with a matching wait.
    assert_eq!(sync_reads, 2, "one sync read per iteration");
    assert!(issues > 0);
    assert_eq!(issues, waits, "every issue is awaited");
}

#[test]
fn rna_receives_before_stages_and_sends_after() {
    let spec = quiet(3);
    let app = Rna::small();
    let dist = GenBlock::block(app.rows, 3);
    let structure = app.structure();
    let run = run_app(
        &spec,
        RunOptions {
            tracing: false,
            mode: ExecMode::Normal,
        },
        |_| mheta::mpi::VecRecorder::default(),
        |comm| app.run(comm, &structure, &dist, 1),
    )
    .unwrap();
    // Middle rank: per tile, the recv must precede the stage enter and
    // the send must follow the stage exit (the protocol Eq. 4 models).
    let rec = &run.recorders[1];
    let mut last_recv_idx = None;
    let mut pipeline_recvs = 0;
    for (i, ev) in rec.events.iter().enumerate() {
        match ev {
            HookEvent::Op { info, .. } if info.kind == OpKind::Recv && info.peer == Some(0) => {
                last_recv_idx = Some(i);
                pipeline_recvs += 1;
            }
            HookEvent::ScopeEnter {
                kind: ScopeKind::Tile,
                ..
            } => {
                assert!(
                    last_recv_idx.is_some(),
                    "tile entered before upstream boundary arrived"
                );
                last_recv_idx = None;
            }
            _ => {}
        }
    }
    assert_eq!(
        pipeline_recvs,
        app.tiles + 2, // per tile + the iteration allreduce + setup barrier
        "one upstream receive per tile plus the collectives"
    );
}

#[test]
fn instrumented_run_forces_io_on_in_core_nodes() {
    // Plain run: ample memory, zero file reads in steady state beyond
    // the compulsory load. Instrumented run: forced chunked I/O.
    let spec = quiet(2);
    let app = Cg::small();
    let dist = GenBlock::block(app.n, 2);
    let structure = app.structure();

    let normal = run_app(
        &spec,
        RunOptions {
            tracing: false,
            mode: ExecMode::Normal,
        },
        |_| mheta::mpi::VecRecorder::default(),
        |comm| app.run(comm, &structure, &dist, 2),
    )
    .unwrap();
    let instrumented = run_app(
        &spec,
        RunOptions {
            tracing: false,
            mode: ExecMode::Instrument,
        },
        |_| mheta::mpi::VecRecorder::default(),
        |comm| app.run(comm, &structure, &dist, 1),
    )
    .unwrap();

    // Count file reads inside the iteration loop (after the first
    // iteration marker) — the compulsory load happens before it.
    let steady_reads = |rec: &mheta::mpi::VecRecorder| {
        let start = rec
            .events
            .iter()
            .position(|e| {
                matches!(
                    e,
                    HookEvent::ScopeEnter {
                        kind: ScopeKind::Iteration,
                        ..
                    }
                )
            })
            .expect("iterations are bracketed");
        rec.events[start..]
            .iter()
            .filter(|e| matches!(e, HookEvent::Op { info, .. } if info.kind == OpKind::FileRead))
            .count()
    };
    // Normal, in core: no steady-state reads.
    assert_eq!(steady_reads(&normal.recorders[0]), 0);
    // Instrumented: the paper forces I/O so l_r(A) is measurable.
    assert!(steady_reads(&instrumented.recorders[0]) >= 1);
}

#[test]
fn lanczos_reduction_messages_match_binomial_tree() {
    let spec = quiet(4);
    let app = Lanczos::small();
    let dist = GenBlock::block(app.n, 4);
    let structure = app.structure();
    let iters = 2u32;
    let run = run_app(
        &spec,
        RunOptions {
            tracing: true,
            mode: ExecMode::Normal,
        },
        |_| NullRecorder,
        |comm| app.run(comm, &structure, &dist, iters),
    )
    .unwrap();
    // With n = 4 ranks, a reduce is 3 messages and a bcast 3 more;
    // 3 allreduces per iteration plus the setup barrier/allreduce.
    let total_msgs: u64 = run
        .traces
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| matches!(e.kind, EventKind::Send { .. }))
        .count() as u64;
    let per_allreduce = 6;
    let allreduces_timed = 3 * u64::from(iters);
    // Setup: one barrier (= allreduce) before t0.
    let expected = per_allreduce * (allreduces_timed + 1);
    assert_eq!(total_msgs, expected, "binomial allreduce message count");
}

#[test]
fn multigrid_streams_both_variables_when_starved() {
    let mut spec = quiet(2);
    spec.nodes[1].memory_bytes = 1024;
    let app = Multigrid::small();
    let dist = GenBlock::block(app.rows, 2);
    let structure = app.structure();
    let run = run_app(
        &spec,
        RunOptions {
            tracing: false,
            mode: ExecMode::Normal,
        },
        |_| mheta::mpi::VecRecorder::default(),
        |comm| app.run(comm, &structure, &dist, 1),
    )
    .unwrap();
    let rec = &run.recorders[1];
    let touched: std::collections::HashSet<u32> = rec
        .events
        .iter()
        .filter_map(|e| match e {
            HookEvent::Op { info, .. }
                if matches!(info.kind, OpKind::FileRead | OpKind::FileWrite) =>
            {
                info.var
            }
            _ => None,
        })
        .collect();
    assert!(touched.contains(&mheta::apps::multigrid::VAR_FINE));
    assert!(touched.contains(&mheta::apps::multigrid::VAR_COARSE));
}
