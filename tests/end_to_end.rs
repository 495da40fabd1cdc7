//! End-to-end integration: the full MHETA pipeline — microbenchmarks,
//! instrumented iteration, model assembly, prediction — against the
//! simulated ground truth, for every benchmark application on
//! heterogeneous clusters.

use mheta::prelude::*;
use mheta::sim::NodeSpec;

/// A small heterogeneous cluster exercising all three axes, sized for
/// the reduced test applications.
fn small_hybrid() -> ClusterSpec {
    let mut spec = ClusterSpec::homogeneous(4);
    spec.name = "TEST-HY".into();
    spec.nodes[0] = NodeSpec::default()
        .with_cpu_power(0.5)
        .with_memory(64 * 1024);
    spec.nodes[1] = NodeSpec::default().with_memory(4 * 1024); // OOC
    spec.nodes[2] = NodeSpec::default()
        .with_io_factor(2.0)
        .with_memory(64 * 1024);
    spec.nodes[3] = NodeSpec::default()
        .with_cpu_power(2.0)
        .with_memory(64 * 1024);
    spec
}

#[test]
fn model_tracks_actual_across_spectrum_for_all_apps() {
    let spec = small_hybrid();
    for bench in Benchmark::small_four() {
        let model =
            build_model(&bench, &spec, false).unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
        let inputs = anchor_inputs(&model);
        let path = SpectrumPath::full(&inputs);
        let iters = 3;
        for (label, frac) in [("Blk", 0.0), ("I-C", 0.25), ("I-C/Bal", 0.5), ("Bal", 0.75)] {
            let dist = path.at(frac);
            let predicted = model.predict(dist.rows()).unwrap().app_secs(iters);
            let actual = run_measured(&bench, &spec, &dist, iters, false)
                .unwrap()
                .secs;
            let diff = percent_difference(predicted, actual);
            assert!(
                diff < 20.0,
                "{} at {label}: predicted {predicted:.4}s vs actual {actual:.4}s ({diff:.1}%)",
                bench.name()
            );
        }
    }
}

#[test]
fn prefetch_pipeline_works_end_to_end() {
    let spec = small_hybrid();
    let bench = Benchmark::Jacobi(Jacobi::small());
    let model = build_model(&bench, &spec, true).expect("prefetch model");
    let dist = GenBlock::block(bench.total_rows(), 4);
    let iters = 4;
    let predicted = model.predict(dist.rows()).unwrap().app_secs(iters);
    let actual = run_measured(&bench, &spec, &dist, iters, true)
        .unwrap()
        .secs;
    let diff = percent_difference(predicted, actual);
    assert!(
        diff < 15.0,
        "prefetch: {predicted:.4}s vs {actual:.4}s ({diff:.1}%)"
    );

    // Prefetching must not be slower than synchronous streaming.
    let sync = run_measured(&bench, &spec, &dist, iters, false)
        .unwrap()
        .secs;
    assert!(actual <= sync * 1.02, "prefetch {actual} vs sync {sync}");
}

#[test]
fn gbs_search_finds_a_distribution_no_worse_than_blk() {
    use mheta::dist::{gbs_search, GbsConfig};
    let spec = small_hybrid();
    for bench in Benchmark::small_four() {
        let model = build_model(&bench, &spec, false).unwrap();
        let inputs = anchor_inputs(&model);
        let path = SpectrumPath::new(&inputs);
        let outcome = gbs_search(&path, &model, GbsConfig::default());

        let blk = GenBlock::block(bench.total_rows(), 4);
        let blk_act = run_measured(&bench, &spec, &blk, 3, false).unwrap().secs;
        let found_act = run_measured(&bench, &spec, &outcome.best, 3, false)
            .unwrap()
            .secs;
        assert!(
            found_act <= blk_act * 1.05,
            "{}: GBS pick {found_act:.4}s worse than Blk {blk_act:.4}s",
            bench.name()
        );
    }
}

#[test]
fn instrumented_iteration_records_structure() {
    use mheta::mpi::{HookEvent, OpKind, ScopeKind};
    let spec = small_hybrid();
    let bench = Benchmark::Cg(Cg::small());
    let dist = GenBlock::block(bench.total_rows(), 4);
    let recorders = run_instrumented(&bench, &spec, &dist, false).unwrap();
    assert_eq!(recorders.len(), 4);
    for rec in &recorders {
        // Every rank saw sections, stages, file reads (forced I/O), and
        // reduction messaging.
        let has = |pred: &dyn Fn(&HookEvent) -> bool| rec.events.iter().any(pred);
        assert!(has(&|e| matches!(
            e,
            HookEvent::ScopeEnter {
                kind: ScopeKind::Section,
                ..
            }
        )));
        assert!(has(&|e| matches!(
            e,
            HookEvent::ScopeEnter {
                kind: ScopeKind::Stage,
                ..
            }
        )));
        assert!(has(
            &|e| matches!(e, HookEvent::Op { info, .. } if info.kind == OpKind::FileRead)
        ));
        assert!(has(
            &|e| matches!(e, HookEvent::Op { info, .. } if info.kind == OpKind::Send)
        ));
    }
}

#[test]
fn predictions_distinguish_good_from_bad_distributions() {
    // On a cluster with one crippled node, loading that node must
    // predict slower than avoiding it.
    let mut spec = ClusterSpec::homogeneous(4);
    spec.nodes[0].cpu_power = 0.25;
    let bench = Benchmark::Lanczos(Lanczos::small());
    let model = build_model(&bench, &spec, false).unwrap();
    let total = bench.total_rows();
    let heavy_on_slow = GenBlock::new(vec![total - 3, 1, 1, 1]).unwrap();
    let light_on_slow = GenBlock::new(vec![1, 21, 21, total - 43]).unwrap();
    let heavy = model.predict(heavy_on_slow.rows()).unwrap().iteration_ns;
    let light = model.predict(light_on_slow.rows()).unwrap().iteration_ns;
    assert!(
        heavy > light * 2.0,
        "loading the slow node should clearly hurt: {heavy} vs {light}"
    );
}

#[test]
fn saved_model_predicts_identically_after_reload() {
    use mheta::core::{load_model, save_model};
    use mheta::obs::json::{from_str, Serialize, Value};
    let spec = small_hybrid();
    let bench = Benchmark::Rna(Rna::small());
    let model = build_model(&bench, &spec, false).unwrap();
    let text = save_model(&model);
    let reloaded = load_model(&text).expect("MHETA file round-trips");
    let dist = GenBlock::block(bench.total_rows(), 4);
    let a = model.predict(dist.rows()).unwrap();
    let b = reloaded.predict(dist.rows()).unwrap();
    assert_eq!(a.iteration_ns.to_bits(), b.iteration_ns.to_bits());
    let bits = |p: &Prediction| {
        p.per_node_ns
            .iter()
            .map(|t| t.to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(&a), bits(&b), "bit-exact after reload");
    // And the file is the JSON document of the model's three inputs,
    // its structure rendered exactly as the serving cache key renders it.
    let doc = from_str(&text).expect("the MHETA file is JSON");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("mheta-model/v1")
    );
    assert_eq!(doc.get("structure"), Some(&model.structure().to_value()));
}

/// Each rank's virtual time, in ns, for moving Jacobi's grid, `cols`
/// elements a row, from `old` to `new` through the disk adapter.
fn executed_move(spec: &ClusterSpec, cols: usize, old: &[usize], new: &[usize]) -> Vec<f64> {
    use mheta::apps::jacobi::VAR_U;
    use mheta::apps::redistribute_var;
    use mheta::mpi::{run_app, ExecMode, NullRecorder, RunOptions};
    let opts = RunOptions {
        tracing: false,
        mode: ExecMode::Normal,
    };
    let run = run_app(
        spec,
        opts,
        |_| NullRecorder,
        |comm| {
            let rows = old[comm.rank()];
            comm.ctx().disk.create(VAR_U, rows * cols);
            redistribute_var(comm, VAR_U, cols, old, new)
        },
    )
    .unwrap();
    run.results.iter().map(|d| d.as_nanos_f64()).collect()
}

/// Build Jacobi's model on `spec` (measured parameters), then check
/// that the move twin over them gives the executed move of its grid
/// from Block to `new` on every rank, and that `predict_cost_ns` is the
/// executed makespan; returns the executed per-rank times.
fn assert_move_price_exact(spec: &ClusterSpec, app: &Jacobi, new: &[usize]) -> Vec<f64> {
    use mheta::dist::{move_clocks, predict_cost_ns};
    let model = build_model(&Benchmark::Jacobi(app.clone()), spec, false).unwrap();
    let old = GenBlock::block(app.rows, spec.len());
    let executed = executed_move(spec, app.cols, old.rows(), new);
    let mut twin = vec![0.0; spec.len()];
    move_clocks(
        model.arch(),
        old.rows(),
        new,
        8 * app.cols as u64,
        &mut twin,
    );
    assert_eq!(twin, executed, "{}: the twin, rank by rank", spec.name);
    let makespan = executed.iter().copied().fold(0.0, f64::max);
    let predicted = predict_cost_ns(&model, old.rows(), new).unwrap();
    assert_eq!(predicted, makespan, "{}: the price", spec.name);
    executed
}

#[test]
fn redistribution_cost_model_tracks_execution() {
    let mut spec = ClusterSpec::homogeneous(4);
    spec.noise.amplitude = 0.0;
    let executed = assert_move_price_exact(&spec, &Jacobi::small(), &[40, 10, 7, 7]);
    assert_eq!(
        executed,
        [26_880_000.0, 23_868_240.0, 17_576_800.0, 22_556_800.0]
    );
}

#[test]
fn move_price_is_exact_on_the_quiet_presets() {
    let app = Jacobi::default();
    for (mut spec, makespan) in [
        (presets::dc(), 226_022_400.0),
        (presets::hy1(), 226_022_400.0),
        (presets::io(), 677_987_200.0),
        (presets::hy2(), 452_004_800.0),
    ] {
        spec.noise.amplitude = 0.0;
        let weights: Vec<f64> = (0..spec.len()).map(|i| (i % 3 + 1) as f64).collect();
        let new = GenBlock::apportion(app.rows, &weights);
        let executed = assert_move_price_exact(&spec, &app, new.rows());
        assert_eq!(executed.iter().copied().fold(0.0, f64::max), makespan);
    }
}

/// `Jacobi::small()` (64 rows) over a quiet 4-node model.
fn small_quiet_model() -> Mheta {
    let mut spec = ClusterSpec::homogeneous(4);
    spec.noise.amplitude = 0.0;
    build_model(&Benchmark::Jacobi(Jacobi::small()), &spec, false).unwrap()
}

#[test]
fn move_price_refuses_layouts_for_more_nodes() {
    use mheta::dist::predict_cost_ns;
    let five = GenBlock::block(64, 5);
    let err = predict_cost_ns(&small_quiet_model(), five.rows(), five.rows()).unwrap_err();
    assert!(err.to_string().contains("5 entries for 4 nodes"), "{err}");
}

#[test]
fn move_price_refuses_layouts_for_fewer_nodes() {
    use mheta::dist::predict_cost_ns;
    let three = GenBlock::block(64, 3);
    let err = predict_cost_ns(&small_quiet_model(), three.rows(), &[30, 20, 14]).unwrap_err();
    assert!(err.to_string().contains("3 entries for 4 nodes"), "{err}");
}

#[test]
fn move_price_refuses_layouts_of_different_totals() {
    use mheta::dist::predict_cost_ns;
    let err = predict_cost_ns(&small_quiet_model(), &[16; 4], &[16, 16, 16, 17]).unwrap_err();
    assert!(err.to_string().contains("65 rows"), "{err}");
}

#[test]
fn switch_benefit_refuses_layouts_of_another_total() {
    use mheta::dist::switch_benefit_ns;
    // Both layouts are off the model, so both predictions fail: the
    // saving was ∞ − ∞, NaN.
    let err = switch_benefit_ns(&small_quiet_model(), &[15; 4], &[20, 20, 10, 10], 10).unwrap_err();
    assert!(err.to_string().contains("60 rows"), "{err}");
}

#[test]
fn switch_benefit_recommends_sensible_moves() {
    use mheta::dist::switch_benefit_ns;
    // On a memory-squeezed cluster, switching from Blk to the spectrum
    // best must pay off for many remaining iterations and not for zero.
    let spec = small_hybrid();
    let bench = Benchmark::Jacobi(Jacobi::small());
    let model = build_model(&bench, &spec, false).unwrap();
    let inputs = anchor_inputs(&model);
    let path = SpectrumPath::new(&inputs);
    let blk = GenBlock::block(bench.total_rows(), 4);
    let best = (0..=16)
        .map(|k| path.at(f64::from(k) / 16.0))
        .min_by(|a, b| {
            let pa = model.predict(a.rows()).unwrap().iteration_ns;
            let pb = model.predict(b.rows()).unwrap().iteration_ns;
            pa.total_cmp(&pb)
        })
        .unwrap();
    let none = switch_benefit_ns(&model, blk.rows(), best.rows(), 0).unwrap();
    let many = switch_benefit_ns(&model, blk.rows(), best.rows(), 200).unwrap();
    assert!(none < 0.0, "zero remaining iterations can never pay off");
    assert!(many > 0.0, "200 iterations should amortize the move");
    assert!(many > none);
}
