//! Property-based guarantees for the phi-accrual failure detector:
//! **zero false positives** on fault-free runs across every
//! architecture preset and a wide seed sweep, and a bounded detection
//! latency once a persistent slowdown (or a crash) is injected.
//!
//! The detector consumes per-row compute-time progress reports, so the
//! synthetic series here is exactly what a run produces: each node's
//! per-row cost under the preset's cost model, perturbed by the same
//! deterministic noise stream the engine uses.

use mheta::mpi::detector::{HealthState, PhiAccrualDetector, CONFIRM_SAMPLES};
use mheta::sim::noise::NoiseStream;
use mheta::sim::presets::seventeen_architectures;
use mheta::sim::ClusterSpec;
use proptest::prelude::*;

/// Per-iteration fault-free per-row samples for every node of `spec`,
/// derived like the engine derives compute costs: base per-row cost
/// scaled by the node's deterministic noise stream.
fn fault_free_series(spec: &ClusterSpec, seed: u64, iters: u32) -> Vec<Vec<f64>> {
    let n = spec.len();
    let mut streams: Vec<NoiseStream> = (0..n)
        .map(|r| NoiseStream::new(&spec.noise, seed, r))
        .collect();
    (0..iters)
        .map(|_| {
            (0..n)
                .map(|r| {
                    let base = spec.compute_ns_per_unit / spec.nodes[r].cpu_power;
                    streams[r].perturb(base * 100.0)
                })
                .collect()
        })
        .collect()
}

fn run_series(det: &mut PhiAccrualDetector, series: &[Vec<f64>]) {
    for (it, samples) in series.iter().enumerate() {
        det.observe(it as u32, it as u64 * 1_000_000, samples);
    }
}

/// Exhaustive (non-random) sweep: all 17 presets x 16 seeds must never
/// leave Healthy on a fault-free series.
#[test]
fn zero_false_positives_all_presets_sixteen_seeds() {
    for spec in seventeen_architectures() {
        for seed in 1..=16u64 {
            let series = fault_free_series(&spec, seed, 120);
            let mut det = PhiAccrualDetector::new(spec.len(), true);
            run_series(&mut det, &series);
            assert!(
                det.transitions().is_empty(),
                "{} seed {seed}: false positive {:?}",
                spec.name,
                det.transitions()
            );
            for m in 0..spec.len() {
                assert_eq!(
                    det.state(m),
                    HealthState::Healthy,
                    "{} seed {seed}",
                    spec.name
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random seeds and amplified (but still benign, <= 0.10) noise:
    /// the fault-free guarantee must not depend on the preset's tame
    /// default amplitude.
    #[test]
    fn zero_false_positives_under_noise(
        seed in 1u64..10_000,
        preset in 0usize..17,
        amplitude in 0.0f64..0.10,
        iters in 20u32..200,
    ) {
        let mut spec = seventeen_architectures().swap_remove(preset);
        spec.noise.amplitude = amplitude;
        let series = fault_free_series(&spec, seed, iters);
        let mut det = PhiAccrualDetector::new(spec.len(), true);
        run_series(&mut det, &series);
        prop_assert!(
            det.transitions().is_empty(),
            "{} amp {amplitude}: {:?}", spec.name, det.transitions()
        );
    }

    /// A persistent slowdown of factor >= 2 injected after warmup is
    /// confirmed Degraded within `CONFIRM_SAMPLES` iterations of onset
    /// (one Suspected sample per confirmation step, no overshoot).
    #[test]
    fn detection_latency_is_bounded(
        seed in 1u64..10_000,
        preset in 0usize..17,
        victim in 0usize..8,
        onset in 5u32..60,
        factor in 2.0f64..8.0,
    ) {
        let spec = seventeen_architectures().swap_remove(preset);
        prop_assume!(victim < spec.len());
        let iters = onset + 20;
        let mut series = fault_free_series(&spec, seed, iters);
        for (it, samples) in series.iter_mut().enumerate() {
            if it as u32 >= onset {
                samples[victim] *= factor;
            }
        }
        let mut det = PhiAccrualDetector::new(spec.len(), true);
        run_series(&mut det, &series);
        let confirm = det
            .transitions()
            .iter()
            .find(|t| t.member == victim && t.to == HealthState::Degraded);
        prop_assert!(confirm.is_some(), "{}: never confirmed", spec.name);
        let confirm = confirm.unwrap();
        // First suspect sample lands at onset; confirmation takes at
        // most CONFIRM_SAMPLES - 1 further samples.
        prop_assert!(
            confirm.at_iteration < onset + CONFIRM_SAMPLES,
            "{}: confirmed at {} for onset {onset}",
            spec.name,
            confirm.at_iteration
        );
        // No other member is disturbed.
        for m in 0..spec.len() {
            if m != victim {
                prop_assert_eq!(det.state(m), HealthState::Healthy);
            }
        }
        prop_assert_eq!(det.detection_latencies_ns().len(), 1);
    }

    /// An injected crash (missed heartbeat) is Dead immediately and the
    /// state is absorbing regardless of later samples.
    #[test]
    fn crash_detection_is_immediate_and_absorbing(
        seed in 1u64..10_000,
        preset in 0usize..17,
        victim in 0usize..8,
        crash_at in 1u32..40,
    ) {
        let spec = seventeen_architectures().swap_remove(preset);
        prop_assume!(victim < spec.len());
        let series = fault_free_series(&spec, seed, crash_at + 10);
        let mut det = PhiAccrualDetector::new(spec.len(), true);
        for (it, samples) in series.iter().enumerate() {
            let it = it as u32;
            if it == crash_at {
                let t = det.mark_dead(victim, it, u64::from(it) * 1_000_000);
                prop_assert!(t.is_some_and(|t| t.to == HealthState::Dead));
            }
            det.observe(it, u64::from(it) * 1_000_000, samples);
        }
        prop_assert_eq!(det.state(victim), HealthState::Dead);
        prop_assert!(det.mark_dead(victim, 99, 0).is_none(), "absorbing");
        // The crash is the only transition on a fault-free background.
        prop_assert_eq!(det.transitions().len(), 1);
    }
}
