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

#[test]
fn redistribution_cost_model_tracks_execution() {
    use mheta::apps::jacobi::VAR_U;
    use mheta::apps::redistribute_var;
    use mheta::dist::predict_cost_ns;
    use mheta::mpi::{run_app, ExecMode, NullRecorder, RunOptions};

    let mut spec = ClusterSpec::homogeneous(4);
    spec.noise.amplitude = 0.0;
    let app = Jacobi::small();
    let bench = Benchmark::Jacobi(app.clone());
    let model = build_model(&bench, &spec, false).unwrap();

    let old = GenBlock::block(app.rows, 4);
    let new = GenBlock::new(vec![40, 10, 7, 7]).unwrap();
    let predicted_ns = predict_cost_ns(&model, &old, &new);

    let cols = app.cols;
    let run = run_app(
        &spec,
        RunOptions {
            tracing: false,
            mode: ExecMode::Normal,
        },
        |_| NullRecorder,
        |comm| {
            let rank = comm.rank();
            let m = old.rows()[rank];
            comm.ctx().disk.create(VAR_U, m * cols);
            redistribute_var(comm, VAR_U, cols, old.rows(), new.rows())
        },
    )
    .unwrap();
    let actual_ns = run
        .results
        .iter()
        .map(|d| d.as_nanos_f64())
        .fold(0.0f64, f64::max);
    let diff = percent_difference(predicted_ns, actual_ns);
    assert!(
        diff < 20.0,
        "redistribution: predicted {predicted_ns:.0}ns vs actual {actual_ns:.0}ns ({diff:.1}%)"
    );
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
    let none = switch_benefit_ns(&model, &blk, &best, 0);
    let many = switch_benefit_ns(&model, &blk, &best, 200);
    assert!(none < 0.0, "zero remaining iterations can never pay off");
    assert!(many > 0.0, "200 iterations should amortize the move");
    assert!(many > none);
}
