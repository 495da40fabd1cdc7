//! The experiment harness: everything needed to compare MHETA's
//! predictions with the simulator's "actual" execution times.
//!
//! The workflow mirrors the paper's §5.1:
//!
//! 1. microbenchmark the architecture ([`mheta_core::measure_arch`]),
//! 2. run **one instrumented iteration** under the Block distribution
//!    with the MPI-Jack hooks attached and the §4.1.1 transformations
//!    (forced I/O, prefetch-to-blocking),
//! 3. build the profile and assemble the [`Mheta`] model,
//! 4. for each candidate distribution: ask the model for a prediction
//!    and run the application for its full iteration count to get the
//!    actual time.

use mheta_core::{build_profile, measure_arch, Mheta, Prediction, ProgramStructure};
use mheta_dist::{AnchorInputs, GenBlock};
use mheta_mpi::{run_app, ExecMode, HookEvent, NullRecorder, RunOptions, Scope, VecRecorder};
use mheta_sim::{
    ClusterSpec, FaultSpec, RankTrace, RecoveryKind, RecoverySpan, SimError, SimResult,
};

use crate::adaptive::{
    check_layout, new_checkpoint_store, AdaptiveConfig, AdaptiveOutcome, JacobiLoop, Replica,
};
use crate::app::RankResult;
use crate::cg::Cg;
use crate::jacobi::Jacobi;
use crate::lanczos::Lanczos;
use crate::multigrid::Multigrid;
use crate::rna::Rna;

/// One of the benchmark applications, dispatchable without generics.
#[derive(Debug, Clone, serde::Serialize)]
pub enum Benchmark {
    /// Jacobi iteration (optionally with prefetching).
    Jacobi(Jacobi),
    /// Conjugate Gradient.
    Cg(Cg),
    /// The pipelined RNA dynamic program.
    Rna(Rna),
    /// The Lanczos full-scale application.
    Lanczos(Lanczos),
    /// Multigrid (the paper's future-work application).
    Multigrid(Multigrid),
}

impl Benchmark {
    /// The paper's four evaluation programs, default sizes.
    #[must_use]
    pub fn paper_four() -> Vec<Benchmark> {
        vec![
            Benchmark::Jacobi(Jacobi::default()),
            Benchmark::Cg(Cg::default()),
            Benchmark::Lanczos(Lanczos::default()),
            Benchmark::Rna(Rna::default()),
        ]
    }

    /// Reduced-size instances for tests.
    #[must_use]
    pub fn small_four() -> Vec<Benchmark> {
        vec![
            Benchmark::Jacobi(Jacobi::small()),
            Benchmark::Cg(Cg::small()),
            Benchmark::Lanczos(Lanczos::small()),
            Benchmark::Rna(Rna::small()),
        ]
    }

    /// Application name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Benchmark::Jacobi(_) => "Jacobi",
            Benchmark::Cg(_) => "CG",
            Benchmark::Rna(_) => "RNA",
            Benchmark::Lanczos(_) => "Lanczos",
            Benchmark::Multigrid(_) => "Multigrid",
        }
    }

    /// The MHETA program structure. `prefetch` only affects Jacobi
    /// (the paper's prefetching experiment subject).
    #[must_use]
    pub fn structure(&self, prefetch: bool) -> ProgramStructure {
        match self {
            Benchmark::Jacobi(a) => a.structure(prefetch),
            Benchmark::Cg(a) => a.structure(),
            Benchmark::Rna(a) => a.structure(),
            Benchmark::Lanczos(a) => a.structure(),
            Benchmark::Multigrid(a) => a.structure(),
        }
    }

    /// Rows of the distribution axis: the extent of the application's
    /// distributed variables, read off the variant.
    #[must_use]
    pub fn total_rows(&self) -> usize {
        match self {
            Benchmark::Jacobi(a) => a.rows,
            Benchmark::Cg(a) => a.n,
            Benchmark::Rna(a) => a.rows,
            Benchmark::Lanczos(a) => a.n,
            Benchmark::Multigrid(a) => a.rows,
        }
    }

    /// Iteration counts used in the paper's accuracy experiments
    /// (§5.1: 100, 10, 5, and 10 for Jacobi, CG, Lanczos, RNA — chosen
    /// for comparable execution times).
    #[must_use]
    pub fn paper_iters(&self) -> u32 {
        match self {
            Benchmark::Jacobi(_) => 100,
            Benchmark::Cg(_) => 10,
            Benchmark::Lanczos(_) => 5,
            Benchmark::Rna(_) => 10,
            Benchmark::Multigrid(_) => 10,
        }
    }

    /// True when this application supports the prefetching variant.
    #[must_use]
    pub fn supports_prefetch(&self) -> bool {
        matches!(self, Benchmark::Jacobi(_))
    }

    fn dispatch<R: mheta_mpi::Recorder>(
        &self,
        comm: &mut mheta_mpi::Comm<'_, R>,
        structure: &ProgramStructure,
        dist: &GenBlock,
        iters: u32,
        prefetch: bool,
    ) -> SimResult<RankResult> {
        match self {
            Benchmark::Jacobi(a) => a.run(comm, structure, dist, iters, prefetch),
            Benchmark::Cg(a) => a.run(comm, structure, dist, iters),
            Benchmark::Rna(a) => a.run(comm, structure, dist, iters),
            Benchmark::Lanczos(a) => a.run(comm, structure, dist, iters),
            Benchmark::Multigrid(a) => a.run(comm, structure, dist, iters),
        }
    }
}

/// Result of a measured (production) run.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Makespan of the iteration loop (max over ranks), seconds.
    pub secs: f64,
    /// Per-rank loop durations, seconds.
    pub per_rank_secs: Vec<f64>,
    /// The application's check value.
    pub check: f64,
}

fn measured_from(results: &[RankResult]) -> Measured {
    let latest =
        |at: fn(&RankResult) -> u64| results.iter().map(at).max().expect("nonempty cluster");
    let (t0, t1) = (latest(|r| r.t0_ns), latest(|r| r.t1_ns));
    Measured {
        secs: (t1 - t0) as f64 / 1e9,
        per_rank_secs: results.iter().map(RankResult::secs).collect(),
        check: results[0].check,
    }
}

/// Run a benchmark for real and time its iteration loop. A `dist` that
/// does not give each node of `spec` one share of exactly the
/// application's rows is [`SimError::InvalidConfig`], as it is for
/// [`run_observed`] and [`run_instrumented`]: each rank reads only its
/// own share, so such a layout would run another problem or index past
/// its end.
pub fn run_measured(
    bench: &Benchmark,
    spec: &ClusterSpec,
    dist: &GenBlock,
    iters: u32,
    prefetch: bool,
) -> SimResult<Measured> {
    check_layout(spec.len(), dist.rows(), bench.total_rows())?;
    let structure = bench.structure(prefetch);
    let run = run_app(
        spec,
        RunOptions {
            tracing: false,
            mode: ExecMode::Normal,
        },
        |_| NullRecorder,
        |comm| bench.dispatch(comm, &structure, dist, iters, prefetch),
    )?;
    Ok(measured_from(&run.results))
}

/// Result of an observed run: the timing plus the raw artifacts the
/// observability layer (`mheta-obs`) consumes — per-rank operational
/// traces and MPI-Jack hook-event streams.
#[derive(Debug)]
pub struct Observed {
    /// The run's timing and check value, as [`run_measured`] reports.
    pub measured: Measured,
    /// Per-rank operational traces (tracing enabled).
    pub traces: Vec<RankTrace>,
    /// Per-rank hook-event streams (scopes, operations, retries).
    pub hooks: Vec<Vec<HookEvent>>,
    /// Per-rank iteration-loop windows `(t0_ns, t1_ns)` on each rank's
    /// virtual clock — the span the application timed, which is what
    /// the model predicts. Audit tooling partitions the traces over
    /// exactly these windows.
    pub windows: Vec<(u64, u64)>,
}

/// Run a benchmark for real with full observability: operational
/// tracing *and* MPI-Jack hooks enabled, execution otherwise identical
/// to [`run_measured`] (normal mode — no forced I/O, prefetches stay
/// asynchronous). Costs the recording overhead, so use [`run_measured`]
/// when only the timing matters.
pub fn run_observed(
    bench: &Benchmark,
    spec: &ClusterSpec,
    dist: &GenBlock,
    iters: u32,
    prefetch: bool,
) -> SimResult<Observed> {
    check_layout(spec.len(), dist.rows(), bench.total_rows())?;
    let structure = bench.structure(prefetch);
    let run = run_app(
        spec,
        RunOptions {
            tracing: true,
            mode: ExecMode::Normal,
        },
        |_| VecRecorder::default(),
        |comm| bench.dispatch(comm, &structure, dist, iters, prefetch),
    )?;
    Ok(Observed {
        measured: measured_from(&run.results),
        windows: run.results.iter().map(|r| (r.t0_ns, r.t1_ns)).collect(),
        traces: run.traces,
        hooks: run.recorders.into_iter().map(|r| r.events).collect(),
    })
}

/// Run the single instrumented iteration (§4.1.1): hooks attached,
/// forced I/O, prefetch issues made blocking.
pub fn run_instrumented(
    bench: &Benchmark,
    spec: &ClusterSpec,
    dist: &GenBlock,
    prefetch: bool,
) -> SimResult<Vec<VecRecorder>> {
    check_layout(spec.len(), dist.rows(), bench.total_rows())?;
    instrumented(bench, &bench.structure(prefetch), spec, dist, prefetch)
}

fn instrumented(
    bench: &Benchmark,
    structure: &ProgramStructure,
    spec: &ClusterSpec,
    dist: &GenBlock,
    prefetch: bool,
) -> SimResult<Vec<VecRecorder>> {
    let run = run_app(
        spec,
        RunOptions {
            tracing: false,
            mode: ExecMode::Instrument,
        },
        |_| VecRecorder::default(),
        |comm| bench.dispatch(comm, structure, dist, 1, prefetch),
    )?;
    Ok(run.recorders)
}

/// Assemble the full MHETA model for `bench` on `spec`: microbenchmarks
/// plus one instrumented iteration under the Block distribution. A
/// cluster with more nodes than the application has rows has no
/// `GEN_BLOCK` distribution at all: [`SimError::InvalidConfig`].
pub fn build_model(bench: &Benchmark, spec: &ClusterSpec, prefetch: bool) -> SimResult<Mheta> {
    let rows = bench.total_rows();
    if spec.len() > rows {
        return Err(SimError::InvalidConfig(format!(
            "{} nodes for {rows} rows: every node needs at least one row",
            spec.len()
        )));
    }
    let arch = measure_arch(spec)?;
    let structure = bench.structure(prefetch);
    let blk = GenBlock::block(rows, spec.len());
    let recorders = instrumented(bench, &structure, spec, &blk, prefetch)?;
    let profile = build_profile(&arch, &recorders, blk.rows());
    Mheta::new(structure, arch, profile).map_err(|e| SimError::InvalidConfig(e.to_string()))
}

/// Derive the anchor-distribution inputs from an assembled model: the
/// per-node compute rates (summed over all stages) and in-core
/// capacities the Figure 8 distributions need.
#[must_use]
pub fn anchor_inputs(model: &Mheta) -> AnchorInputs {
    let structure = model.structure();
    let n = model.arch().len();
    let total_row_bytes: f64 = structure.footprint_row_bytes().iter().map(|(_, b)| b).sum();
    // Sum per-row compute across every (section, tile, stage).
    let mut ns_per_row = vec![0.0f64; n];
    for section in &structure.sections {
        for tile in 0..section.tiles {
            for stage in &section.stages {
                let scope = Scope {
                    section: section.id,
                    tile,
                    stage: stage.id,
                };
                for (rank, slot) in ns_per_row.iter_mut().enumerate() {
                    *slot += model.profile().compute_ns_per_row(rank, scope);
                }
            }
        }
    }
    // In-core capacity: rows r such that replicated + r·(streamed
    // footprint + resident row bytes) fits the node's memory.
    let per_row = total_row_bytes + structure.resident_row_bytes();
    let capacity_rows = (0..n)
        .map(|i| {
            let avail =
                (model.arch().memory_bytes[i] as f64 - structure.replicated_bytes()).max(0.0);
            ((avail / per_row) as usize).max(1)
        })
        .collect();
    AnchorInputs {
        total_rows: structure.distribution_rows(),
        ns_per_row,
        capacity_rows,
    }
}

// ---- fault tolerance ------------------------------------------------------

/// Everything a fault-tolerant run ([`run_resilient`], [`run_adaptive`])
/// produces.
#[derive(Debug)]
pub struct AdaptiveRun {
    /// Per-rank outcomes (crashed ranks included, marked `alive:
    /// false`).
    pub outcomes: Vec<AdaptiveOutcome>,
    /// Per-rank operational traces (tracing is always on: these runs
    /// exist to be audited).
    pub traces: Vec<RankTrace>,
    /// Per-rank hook-event streams.
    pub hooks: Vec<Vec<HookEvent>>,
    /// Makespan over the *surviving* ranks' loop windows.
    pub measured: Measured,
    /// Per-rank `(t0_ns, t1_ns)` loop windows (a dead rank's window
    /// ends at its death time).
    pub windows: Vec<(u64, u64)>,
}

/// Run the crash-tolerant Jacobi loop cluster-wide, apportioning by the
/// nodes' CPU powers — with a detector replica on every rank when
/// `adapt` is set, as plain checkpoint/restart otherwise.
fn run_fault_tolerant(
    app: &Jacobi,
    spec: &ClusterSpec,
    layout0: &[usize],
    iters: u32,
    adapt: Option<&AdaptiveConfig>,
) -> SimResult<AdaptiveRun> {
    // One home for K: the spec names it; a spec that does not (0) leaves
    // it to the adaptive configuration.
    let interval = match (spec.faults.checkpoint_interval, adapt) {
        (0, Some(cfg)) => cfg.checkpoint_interval,
        (k, _) => k,
    };
    let weights: Vec<f64> = spec.nodes.iter().map(|n| n.cpu_power).collect();
    let store = new_checkpoint_store();
    let structure = app.structure(false);
    let job = JacobiLoop {
        app,
        structure: &structure,
        layout0,
        iters,
        interval,
        weights: &weights,
        store: &store,
    };
    let run = run_app(
        spec,
        RunOptions {
            tracing: true,
            mode: ExecMode::Normal,
        },
        |_| VecRecorder::default(),
        |comm| job.run(comm, adapt.map(|cfg| Replica::new(cfg, &weights))),
    )?;
    let survivors: Vec<RankResult> = run
        .results
        .iter()
        .filter(|o| o.alive)
        .map(|o| o.result)
        .collect();
    if survivors.is_empty() {
        return Err(SimError::InvalidConfig(
            "fault-tolerant run left no survivors".into(),
        ));
    }
    Ok(AdaptiveRun {
        measured: Measured {
            per_rank_secs: run.results.iter().map(|o| o.result.secs()).collect(),
            ..measured_from(&survivors)
        },
        windows: run
            .results
            .iter()
            .map(|o| (o.result.t0_ns, o.result.t1_ns))
            .collect(),
        outcomes: run.results,
        traces: run.traces,
        hooks: run.recorders.into_iter().map(|r| r.events).collect(),
    })
}

/// Run the crash-tolerant Jacobi loop cluster-wide as plain
/// checkpoint/restart (no detector, no heartbeat exchange). The
/// checkpoint interval comes from `spec.faults.checkpoint_interval`
/// (clamped to at least 1) and redistribution weights from the nodes'
/// CPU powers.
pub fn run_resilient(
    app: &Jacobi,
    spec: &ClusterSpec,
    dist: &GenBlock,
    iters: u32,
) -> SimResult<AdaptiveRun> {
    run_fault_tolerant(app, spec, dist.rows(), iters, None)
}

/// Run the adaptive Jacobi driver cluster-wide: the same loop plus
/// phi-accrual detection, slowdown-vs-crash disambiguation, and mid-run
/// GEN_BLOCK rebalancing. `layout0` may contain zero-row hot spares;
/// rebalancing weights come from the nodes' CPU powers. The checkpoint
/// interval is `spec.faults.checkpoint_interval` when that is non-zero
/// (as [`run_resilient`] reads it) and `cfg.checkpoint_interval`
/// otherwise.
pub fn run_adaptive(
    app: &Jacobi,
    spec: &ClusterSpec,
    layout0: &[usize],
    iters: u32,
    cfg: AdaptiveConfig,
) -> SimResult<AdaptiveRun> {
    run_fault_tolerant(app, spec, layout0, iters, Some(&cfg))
}

/// Summary of a fault-tolerant run's recovery, for comparing against the
/// model's post-failure forecast. `None` when no crash happened.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Ranks that died, sorted.
    pub dead: Vec<usize>,
    /// Iteration the survivors rolled back to.
    pub rollback_iteration: u32,
    /// Iterations re-run or still to run after recovery.
    pub remaining_iters: u32,
    /// Latest virtual time a survivor resumed computing.
    pub resume_ns: u64,
    /// Simulated post-failure makespan: max over survivors of
    /// resume-to-finish time minus post-resume checkpoint time (the
    /// model predicts the iteration loop, not the checkpoint tax).
    pub actual_post_ns: f64,
    /// Max-over-survivors total span time per recovery kind, ns,
    /// indexed `[checkpoint, rollback, redistribution, reprediction]`.
    pub recovery_ns: [f64; 4],
}

/// Extract a [`RecoveryReport`] from a fault-tolerant run, or `None` if
/// no recovery happened.
#[must_use]
pub fn recovery_report(run: &AdaptiveRun, iters: u32) -> Option<RecoveryReport> {
    let survivors: Vec<&AdaptiveOutcome> = run.outcomes.iter().filter(|o| o.alive).collect();
    let rollback_iteration = survivors
        .iter()
        .filter_map(|o| o.rollback_iteration)
        .max()?;
    let dead = survivors
        .iter()
        .map(|o| o.dead.clone())
        .max_by_key(Vec::len)
        .unwrap_or_default();
    let resume_ns = survivors.iter().map(|o| o.resume_ns).max().unwrap_or(0);
    // Post-resume makespan with the checkpoint tax taken out. The
    // per-iteration agreement collective synchronizes the survivors, so
    // the whole cluster pays the *slowest* checkpointer each epoch —
    // subtract the max per-rank checkpoint time from the global
    // makespan rather than each rank's own spans (a fast writer's wait
    // on a slow one shows up as blocking, not as its own span).
    let makespan_ns = survivors
        .iter()
        .map(|o| o.result.t1_ns.saturating_sub(o.resume_ns))
        .max()
        .unwrap_or(0);
    // Max over survivors of a rank's total time in the spans `keep` passes.
    let max_span_ns = |keep: &dyn Fn(&AdaptiveOutcome, &RecoverySpan) -> bool| {
        let rank_ns = |o: &&AdaptiveOutcome| -> u64 {
            let kept = o.spans.iter().filter(|s| keep(o, s));
            kept.map(RecoverySpan::len_ns).sum()
        };
        survivors.iter().map(rank_ns).max().unwrap_or(0)
    };
    let post_ckpt_ns =
        max_span_ns(&|o, s| s.kind == RecoveryKind::Checkpoint && s.start_ns >= o.resume_ns);
    let actual_post_ns = makespan_ns.saturating_sub(post_ckpt_ns) as f64;
    let recovery_ns = [
        RecoveryKind::Checkpoint,
        RecoveryKind::Rollback,
        RecoveryKind::Redistribution,
        RecoveryKind::Reprediction,
    ]
    .map(|kind| max_span_ns(&|_, s| s.kind == kind) as f64);
    Some(RecoveryReport {
        dead,
        rollback_iteration,
        remaining_iters: iters - rollback_iteration,
        resume_ns,
        actual_post_ns,
        recovery_ns,
    })
}

/// Post-failure re-prediction: rebuild the MHETA model for the
/// surviving sub-cluster (microbenchmarks plus a fresh instrumented
/// iteration, exactly the normal §5.1 workflow on the smaller machine)
/// and predict the post-recovery layout. `final_rows` is the full
/// per-rank layout with zeros at dead ranks, as
/// [`AdaptiveOutcome::final_rows`] reports it.
pub fn repredict_after_crash(
    app: &Jacobi,
    spec: &ClusterSpec,
    dead: &[usize],
    final_rows: &[usize],
) -> SimResult<Prediction> {
    let survivors: Vec<usize> = (0..spec.len()).filter(|r| !dead.contains(r)).collect();
    if survivors.is_empty() {
        return Err(SimError::InvalidConfig(
            "cannot re-predict with no survivors".into(),
        ));
    }
    let mut sub = spec.clone();
    sub.name = format!("{}-survivors", spec.name);
    sub.nodes = survivors.iter().map(|&r| spec.nodes[r].clone()).collect();
    // The model-building microbenchmarks run on the healthy remainder:
    // no crash schedule carries over.
    sub.faults = FaultSpec::default();
    let bench = Benchmark::Jacobi(app.clone());
    let model = build_model(&bench, &sub, false)?;
    let rows: Vec<usize> = survivors.iter().map(|&r| final_rows[r]).collect();
    model
        .predict(&rows)
        .map_err(|e| SimError::InvalidConfig(e.to_string()))
}

/// Percentage difference as the paper computes it (§5.2.1): absolute
/// difference divided by the *minimum* of predicted and actual. A time
/// of zero (or less) against a positive one is infinitely wrong, not
/// perfect; only two equal times differ by 0 %.
#[must_use]
pub fn percent_difference(predicted: f64, actual: f64) -> f64 {
    let denom = predicted.min(actual);
    if denom <= 0.0 {
        return if predicted == actual {
            0.0
        } else {
            f64::INFINITY
        };
    }
    100.0 * (predicted - actual).abs() / denom
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::scan_count;
    use mheta_sim::ClusterSpec;

    fn quiet(n: usize) -> ClusterSpec {
        let mut s = ClusterSpec::homogeneous(n);
        s.noise.amplitude = 0.0;
        s
    }

    #[test]
    fn percent_difference_uses_min_denominator() {
        assert!((percent_difference(110.0, 100.0) - 10.0).abs() < 1e-12);
        assert!((percent_difference(100.0, 110.0) - 10.0).abs() < 1e-12);
        assert_eq!(percent_difference(0.0, 0.0), 0.0);
    }

    #[test]
    fn a_zero_or_nan_prediction_is_not_a_perfect_one() {
        assert_eq!(percent_difference(0.0, 5.0), f64::INFINITY);
        assert_eq!(percent_difference(5.0, 0.0), f64::INFINITY);
        assert_eq!(percent_difference(-1.0, 5.0), f64::INFINITY);
        assert!(percent_difference(f64::NAN, 5.0).is_nan());
        assert!(percent_difference(5.0, f64::NAN).is_nan());
    }

    #[test]
    fn model_predicts_small_jacobi_accurately() {
        let spec = quiet(4);
        let bench = Benchmark::Jacobi(Jacobi::small());
        let model = build_model(&bench, &spec, false).unwrap();
        let blk = GenBlock::block(bench.total_rows(), 4);
        let iters = 6;
        let predicted = model.predict(blk.rows()).unwrap().app_secs(iters);
        let actual = run_measured(&bench, &spec, &blk, iters, false)
            .unwrap()
            .secs;
        let diff = percent_difference(predicted, actual);
        assert!(
            diff < 5.0,
            "jacobi blk: predicted {predicted}s actual {actual}s diff {diff}%"
        );
    }

    #[test]
    fn more_nodes_than_rows_is_an_invalid_config_not_a_panic() {
        let bench = Benchmark::Jacobi(Jacobi::small());
        let rows = bench.total_rows();
        let built = std::panic::catch_unwind(|| build_model(&bench, &quiet(rows + 1), false));
        let err = built.expect("build_model panicked").unwrap_err();
        assert!(
            matches!(&err, SimError::InvalidConfig(m) if m.contains("at least one row")),
            "{err}"
        );
    }

    /// Each of the three entry points refuses `dist` for `bench` on DC's
    /// eight nodes as `InvalidConfig` naming the layout, the rows and the
    /// nodes, without running a rank.
    fn assert_refused_on_dc(bench: &Benchmark, dist: &GenBlock) {
        let spec = mheta_sim::presets::dc();
        let refusals = [
            run_measured(bench, &spec, dist, 1, false).err(),
            run_observed(bench, &spec, dist, 1, false).err(),
            run_instrumented(bench, &spec, dist, false).err(),
        ];
        let named = format!(
            "layout {:?} does not distribute {} rows over {} ranks",
            dist.rows(),
            bench.total_rows(),
            spec.len()
        );
        for (entry, err) in ["run_measured", "run_observed", "run_instrumented"]
            .into_iter()
            .zip(refusals)
        {
            assert!(
                matches!(&err, Some(SimError::InvalidConfig(m)) if *m == named),
                "{entry}: {err:?}"
            );
        }
    }

    /// 100 rows of the 768-row problem: each rank would run its share
    /// of a 100-row grid and report that problem's check value.
    #[test]
    fn a_layout_of_fewer_rows_is_refused() {
        assert_refused_on_dc(
            &Benchmark::Jacobi(Jacobi::default()),
            &GenBlock::block(100, 8),
        );
    }

    /// Twelve shares on eight nodes: only the first eight would run.
    #[test]
    fn a_layout_for_more_nodes_is_refused() {
        assert_refused_on_dc(
            &Benchmark::Jacobi(Jacobi::default()),
            &GenBlock::block(768, 12),
        );
    }

    /// Four shares on eight nodes: rank 4 would index past the layout.
    #[test]
    fn a_layout_for_fewer_nodes_is_refused() {
        assert_refused_on_dc(
            &Benchmark::Jacobi(Jacobi::default()),
            &GenBlock::block(768, 4),
        );
    }

    /// 4,096 rows of the 2,048-row CG matrix: every rank would hash
    /// columns past the matrix.
    #[test]
    fn a_layout_of_more_rows_is_refused() {
        assert_refused_on_dc(&Benchmark::Cg(Cg::default()), &GenBlock::block(4096, 8));
    }

    #[test]
    fn model_predicts_all_small_benchmarks() {
        let spec = quiet(4);
        for bench in Benchmark::small_four() {
            let model = build_model(&bench, &spec, false).unwrap();
            let blk = GenBlock::block(bench.total_rows(), 4);
            let iters = 4;
            let predicted = model.predict(blk.rows()).unwrap().app_secs(iters);
            let actual = run_measured(&bench, &spec, &blk, iters, false)
                .unwrap()
                .secs;
            let diff = percent_difference(predicted, actual);
            assert!(
                diff < 10.0,
                "{}: predicted {predicted}s actual {actual}s diff {diff:.2}%",
                bench.name()
            );
        }
    }

    #[test]
    fn total_rows_is_the_structures_distribution_axis() {
        let mut all = Benchmark::paper_four();
        all.extend(Benchmark::small_four());
        all.push(Benchmark::Multigrid(Multigrid::default()));
        all.push(Benchmark::Multigrid(Multigrid::small()));
        for bench in all {
            assert_eq!(
                bench.total_rows(),
                bench.structure(false).distribution_rows(),
                "{}",
                bench.name()
            );
        }
    }

    /// A run builds its `ProgramStructure` once and the rank bodies
    /// borrow it: CG's pattern scan, the one expensive part of any
    /// structure, happens exactly once per harness call. Each entry
    /// point gets a `Cg::small()` with a seed of its own, because the
    /// tally is per seed and other tests scan concurrently.
    #[test]
    fn each_entry_point_builds_the_structure_once() {
        type Entry = fn(&Benchmark, &ClusterSpec, &GenBlock);
        let entries: [(&str, u64, Entry); 4] = [
            ("run_measured", 0x0A11, |bench, spec, blk| {
                run_measured(bench, spec, blk, 2, false).unwrap();
            }),
            ("run_observed", 0x0A12, |bench, spec, blk| {
                run_observed(bench, spec, blk, 2, false).unwrap();
            }),
            ("run_instrumented", 0x0A13, |bench, spec, blk| {
                run_instrumented(bench, spec, blk, false).unwrap();
            }),
            ("build_model", 0x0A14, |bench, spec, _| {
                build_model(bench, spec, false).unwrap();
            }),
        ];
        let spec = quiet(4);
        for (name, seed, entry) in entries {
            let bench = Benchmark::Cg(Cg {
                seed,
                ..Cg::small()
            });
            let blk = GenBlock::block(bench.total_rows(), 4);
            assert_eq!(scan_count::read(seed), 0, "total_rows built a structure");
            entry(&bench, &spec, &blk);
            assert_eq!(scan_count::read(seed), 1, "{name}");
        }
    }

    /// One home for K: `with_crash` puts the checkpoint interval on the
    /// spec, and both entry points checkpoint by it (`run_adaptive` used
    /// to read its configuration only: 4 spans here, not 14); a spec that
    /// names none leaves it to the configuration.
    #[test]
    fn both_entry_points_checkpoint_by_the_specs_interval() {
        let app = Jacobi::small();
        let dist = GenBlock::block(app.rows, 4);
        let checkpoints = |run: AdaptiveRun| {
            let survivor = run.outcomes.iter().find(|o| o.alive).expect("a survivor");
            let kinds = survivor.spans.iter().map(|s| s.kind);
            kinds.filter(|&k| k == RecoveryKind::Checkpoint).count()
        };
        let spec = mheta_sim::presets::with_crash(ClusterSpec::homogeneous(4), 2, 9, 1);
        let cfg = AdaptiveConfig::default();
        assert_eq!(
            checkpoints(run_resilient(&app, &spec, &dist, 12).unwrap()),
            14
        );
        assert_eq!(
            checkpoints(run_adaptive(&app, &spec, dist.rows(), 12, cfg).unwrap()),
            14
        );
        let cfg = AdaptiveConfig {
            checkpoint_interval: 5,
            ..cfg
        };
        assert_eq!(
            checkpoints(run_adaptive(&app, &quiet(4), dist.rows(), 12, cfg).unwrap()),
            3
        );
    }

    #[test]
    fn anchor_inputs_are_sane() {
        let spec = quiet(3);
        let bench = Benchmark::Cg(Cg::small());
        let model = build_model(&bench, &spec, false).unwrap();
        let inp = anchor_inputs(&model);
        assert_eq!(inp.total_rows, bench.total_rows());
        assert_eq!(inp.ns_per_row.len(), 3);
        assert!(inp.ns_per_row.iter().all(|&v| v > 0.0));
        assert!(inp.capacity_rows.iter().all(|&c| c >= 1));
    }
}
