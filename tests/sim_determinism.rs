//! Reproducibility: the whole stack — simulator, applications,
//! instrumentation, model — must be bit-deterministic for a given
//! seed, regardless of host thread scheduling, and must respond to
//! seed changes.

use mheta::prelude::*;

fn hybrid(seed: u64) -> ClusterSpec {
    let mut spec = ClusterSpec::homogeneous(4);
    spec.nodes[0].cpu_power = 0.6;
    spec.nodes[3].memory_bytes = 4 * 1024;
    spec.noise.amplitude = 0.03;
    spec.seed = seed;
    spec
}

#[test]
fn measured_runs_are_bit_identical_across_repeats() {
    let spec = hybrid(42);
    for bench in Benchmark::small_four() {
        let dist = GenBlock::block(bench.total_rows(), 4);
        let a = run_measured(&bench, &spec, &dist, 3, false).unwrap();
        let b = run_measured(&bench, &spec, &dist, 3, false).unwrap();
        assert_eq!(a.secs, b.secs, "{} timing not deterministic", bench.name());
        assert_eq!(
            a.check,
            b.check,
            "{} result not deterministic",
            bench.name()
        );
        assert_eq!(a.per_rank_secs, b.per_rank_secs);
    }
}

#[test]
fn different_seeds_change_timings_but_not_results() {
    let bench = Benchmark::Jacobi(Jacobi::small());
    let dist = GenBlock::block(bench.total_rows(), 4);
    let a = run_measured(&bench, &hybrid(1), &dist, 3, false).unwrap();
    let b = run_measured(&bench, &hybrid(2), &dist, 3, false).unwrap();
    assert_ne!(a.secs, b.secs, "noise seed should perturb timings");
    assert_eq!(a.check, b.check, "numerics are seed-independent");
}

#[test]
fn model_building_is_deterministic() {
    let spec = hybrid(7);
    let bench = Benchmark::Cg(Cg::small());
    let m1 = build_model(&bench, &spec, false).unwrap();
    let m2 = build_model(&bench, &spec, false).unwrap();
    let dist = GenBlock::block(bench.total_rows(), 4);
    let p1 = m1.predict(dist.rows()).unwrap();
    let p2 = m2.predict(dist.rows()).unwrap();
    assert_eq!(p1.per_node_ns, p2.per_node_ns);
}

#[test]
fn noise_amplitude_bounds_run_to_run_spread() {
    // With noise on, two different seeds stay within a few percent of
    // each other — noise is a perturbation, not chaos.
    let bench = Benchmark::Lanczos(Lanczos::small());
    let dist = GenBlock::block(bench.total_rows(), 4);
    let times: Vec<f64> = (0..5)
        .map(|s| {
            run_measured(&bench, &hybrid(100 + s), &dist, 2, false)
                .unwrap()
                .secs
        })
        .collect();
    let min = times.iter().copied().fold(f64::MAX, f64::min);
    let max = times.iter().copied().fold(0.0f64, f64::max);
    assert!(max / min < 1.10, "5 seeds spread more than 10%: {times:?}");
}

mod trace_invariants {
    use super::*;
    use mheta::sim::{DegradeSpec, FaultSpec, RecoverSpec};
    use proptest::prelude::*;

    fn faulty(seed: u64) -> ClusterSpec {
        let mut spec = hybrid(seed);
        // Starve two nodes so disk I/O (and thus disk faults) actually
        // occurs, and turn every fault class on: the seed picks the
        // degrade window's rank and start.
        let from = 6_000_000 + seed % 2_000_000;
        spec.faults = FaultSpec {
            disk_read_fault_rate: 0.10,
            disk_write_fault_rate: 0.05,
            msg_resend_rate: 0.05,
            degrades: vec![DegradeSpec::at_time((seed % 4) as usize, from, 1.5)
                .recovering(RecoverSpec::at_time(from + 2_000_000))],
            ..FaultSpec::default()
        };
        spec
    }

    proptest! {
        // Few cases: each one is a full 4-rank cluster run.
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Whatever the fault schedule, every rank's trace stays a
        /// non-overlapping, ordered partition of its virtual timeline.
        #[test]
        fn traces_stay_monotone_under_fault_injection(seed in 0u64..1_000_000) {
            let bench = Benchmark::Jacobi(Jacobi::small());
            let dist = GenBlock::block(bench.total_rows(), 4);
            let run = run_observed(&bench, &faulty(seed), &dist, 2, false).unwrap();
            prop_assert_eq!(run.traces.len(), 4);
            for t in &run.traces {
                prop_assert!(t.is_monotone(), "rank {} trace out of order (seed {seed})", t.rank);
                if let Some(last) = t.events.last() {
                    prop_assert!(last.end <= t.finish, "rank {} event past finish", t.rank);
                }
            }
        }
    }
}

mod crash_determinism {
    use super::*;
    use mheta::apps::{run_adaptive, run_resilient, AdaptiveConfig};
    use mheta::sim::DegradeSpec;
    use proptest::prelude::*;

    proptest! {
        // Each case runs two full 4-rank recoveries.
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Identical seeds and crash plans reproduce the entire
        /// post-recovery run bitwise: traces, recovery spans, rollback
        /// decisions, redistributed layouts, and the final residual —
        /// whoever the victim is (rank 0 is the tree root and the
        /// re-predictor), and with or without a detector replica (the
        /// adaptive run also degrades a rank, so that replans happen).
        #[test]
        fn crash_recovery_is_bit_deterministic(
            seed in 0u64..1_000_000,
            victim in 0usize..4,
            at_iteration in 0u32..10,
            interval in 1u32..4,
            adaptive in any::<bool>(),
        ) {
            // hybrid()'s memory-starved node 3 would (correctly) be
            // rejected by the in-core driver; keep the CPU
            // heterogeneity and noise, drop the starvation.
            let mut spec = hybrid(seed);
            spec.nodes[3].memory_bytes = 512 * 1024;
            spec.faults = FaultSpec {
                crashes: vec![CrashSpec {
                    rank: victim,
                    at_iteration: Some(at_iteration),
                    at_time_ns: None,
                }],
                checkpoint_interval: interval,
                ..FaultSpec::default()
            };
            let app = Jacobi::small();
            let dist = GenBlock::block(app.rows, 4);
            let go = || {
                if adaptive {
                    let mut spec = spec.clone();
                    spec.faults.degrades.push(DegradeSpec::at_iteration((victim + 1) % 4, 4, 4.0));
                    run_adaptive(&app, &spec, dist.rows(), 10, AdaptiveConfig::default())
                } else {
                    run_resilient(&app, &spec, &dist, 10)
                }
                .unwrap()
            };
            let (a, b) = (go(), go());
            for (ta, tb) in a.traces.iter().zip(&b.traces) {
                prop_assert!(ta.events == tb.events, "rank {} trace diverged", ta.rank);
                prop_assert_eq!(ta.finish, tb.finish);
            }
            for (oa, ob) in a.outcomes.iter().zip(&b.outcomes) {
                prop_assert_eq!(&oa.spans, &ob.spans);
                prop_assert_eq!(&oa.dead, &ob.dead);
                prop_assert_eq!(oa.rollback_iteration, ob.rollback_iteration);
                prop_assert_eq!(&oa.rebalances, &ob.rebalances);
                prop_assert_eq!(&oa.transitions, &ob.transitions);
                prop_assert_eq!(&oa.final_rows, &ob.final_rows);
                prop_assert_eq!(oa.result.check.to_bits(), ob.result.check.to_bits());
            }
            prop_assert_eq!(a.measured.secs, b.measured.secs);
        }
    }
}

#[test]
fn tracing_does_not_change_virtual_time() {
    use mheta::mpi::{run_app, ExecMode, NullRecorder, RunOptions};
    let spec = hybrid(9);
    let rna = Rna::small();
    let structure = rna.structure();
    let dist = GenBlock::block(rna.rows, 4);
    let run_with = |tracing: bool| {
        run_app(
            &spec,
            RunOptions {
                tracing,
                mode: ExecMode::Normal,
            },
            |_| NullRecorder,
            |comm| rna.run(comm, &structure, &dist, 2),
        )
        .unwrap()
        .makespan()
    };
    assert_eq!(run_with(false), run_with(true));
}
