//! The paper's headline efficiency claim: evaluating one distribution
//! takes ~5.4 ms on 2005 hardware, fast enough to use "on the fly"
//! inside a search algorithm. This bench measures our `Mheta::predict`
//! per-distribution latency for each application's model, and what the
//! same evaluation costs a search: through a warm session, which scores
//! from its own leaf slabs (all ranks recomputed, then only two).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mheta_apps::{build_model, Benchmark};
use mheta_bench::kernel_candidates;
use mheta_dist::{DeltaEvaluator, DeltaSession, GenBlock};
use mheta_sim::presets;

fn bench_model_eval(c: &mut Criterion) {
    let spec = presets::hy1();
    let mut group = c.benchmark_group("model_eval");
    for bench in Benchmark::paper_four() {
        let model = build_model(&bench, &spec, false).expect("model builds");
        let blk = GenBlock::block(bench.total_rows(), spec.len());
        group.bench_function(bench.name(), |b| {
            b.iter(|| model.predict(black_box(blk.rows())).expect("predicts"))
        });
    }
    group.finish();
}

fn bench_session_eval(c: &mut Criterion) {
    let spec = presets::hy1();
    let mut group = c.benchmark_group("session_eval");
    for bench in Benchmark::paper_four() {
        let model = build_model(&bench, &spec, false).expect("model builds");
        let blk = GenBlock::block(bench.total_rows(), spec.len());
        let (fulls, near) = kernel_candidates(blk.rows());
        let mut session = DeltaEvaluator::new(&model);
        let mut i = 0;
        // Every rank differs from the last candidate: a full evaluation.
        group.bench_function(format!("{}/full", bench.name()), |b| {
            b.iter(|| {
                i += 1;
                session
                    .try_eval_ns(black_box(&fulls[i % 2]))
                    .expect("scores")
            })
        });
        // One row moved between ranks 0 and 1 of an unchanging base.
        session.note_accept(blk.rows());
        group.bench_function(format!("{}/two_dirty", bench.name()), |b| {
            b.iter(|| {
                i += 1;
                session
                    .try_eval_ns(black_box(&near[i % 2]))
                    .expect("scores")
            })
        });
    }
    group.finish();
}

fn bench_model_build(c: &mut Criterion) {
    let spec = presets::io();
    let bench = Benchmark::paper_four().remove(0); // Jacobi
    let mut group = c.benchmark_group("model_build");
    group.sample_size(10);
    group.bench_function("jacobi_full_pipeline", |b| {
        b.iter(|| build_model(black_box(&bench), black_box(&spec), false).expect("builds"))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_model_eval,
    bench_session_eval,
    bench_model_build
);
criterion_main!(benches);
