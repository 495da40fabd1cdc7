//! Acceptance criteria for the adaptive resilience layer.
//!
//! Under a persistent 4× single-node slowdown on the DC preset
//! (8 nodes, CPU powers `[0.5, 0.5, 1, 1, 1, 1, 1.75, 1.75]`), the
//! adaptive driver — phi-accrual detection plus mid-run GEN_BLOCK
//! rebalancing — must recover at least 60% of the makespan gap between
//! the **static** CPU-power distribution (which keeps overloading the
//! degraded node) and the **oracle** distribution (apportioned with the
//! degraded weight from iteration 0). That holds across noise seeds,
//! the result is deterministic, and the detector stays silent on
//! fault-free runs. The crash, rejoin and spare scenarios of
//! `examples/adaptive_rebalance.rs` each make the adaptation they exist
//! to show, across the same noise seeds.

use mheta_apps::{run_adaptive, AdaptiveConfig, AdaptiveOutcome, AdaptiveRun, Jacobi};
use mheta_dist::GenBlock;
use mheta_sim::presets::{dc, with_crash, with_degrade};
use mheta_sim::{ClusterSpec, DegradeSpec, RecoverSpec};

/// A baseline-power node: slow enough that overloading it hurts, and
/// not one of the 0.5× nodes (whose degradation the static GEN_BLOCK
/// already partially shields by assigning them fewer rows).
const DEGRADED_RANK: usize = 3;
const DEGRADE_FACTOR: f64 = 4.0;
/// Past the detector's warmup (3 samples), so the healthy baseline is
/// learned before the fault begins.
const DEGRADE_AT: u32 = 6;
const ITERS: u32 = 40;
/// The cluster's noise seeds (`ClusterSpec::seed`), which move virtual
/// time; the grid's data seed does not. DC's own, which the example runs
/// at, and three more.
fn noise_seeds() -> [u64; 4] {
    [dc().seed, 1, 2, 3]
}

fn app() -> Jacobi {
    Jacobi {
        rows: 128,
        cols: 16,
        seed: 1,
    }
}

/// DC with noise seed `seed`.
fn dc_seeded(seed: u64) -> ClusterSpec {
    ClusterSpec { seed, ..dc() }
}

fn cpu_powers(spec: &ClusterSpec) -> Vec<f64> {
    spec.nodes.iter().map(|n| n.cpu_power).collect()
}

/// The adaptive driver with detection disabled: identical per-iteration
/// overheads (heartbeat exchange, checkpoints) but no suspicion and no
/// rebalancing — the fair static baseline.
fn static_cfg() -> AdaptiveConfig {
    let mut cfg = AdaptiveConfig::default();
    cfg.detector.phi_threshold = f64::INFINITY;
    cfg
}

fn degraded_spec(seed: u64) -> ClusterSpec {
    with_degrade(dc_seeded(seed), DEGRADED_RANK, DEGRADE_AT, DEGRADE_FACTOR)
}

fn run(spec: &ClusterSpec, layout0: &[usize], cfg: AdaptiveConfig) -> AdaptiveRun {
    run_adaptive(&app(), spec, layout0, ITERS, cfg).expect("adaptive run failed")
}

/// What the first surviving rank saw of an adaptive run.
fn survivor(run: &AdaptiveRun) -> &AdaptiveOutcome {
    run.outcomes
        .iter()
        .find(|o| o.alive)
        .expect("survivors exist")
}

#[test]
fn adaptive_recovers_sixty_percent_of_makespan_gap_on_dc() {
    for seed in noise_seeds() {
        let spec = degraded_spec(seed);
        let powers = cpu_powers(&spec);
        let layout0 = GenBlock::apportion(app().rows, &powers).rows().to_vec();

        let static_run = run(&spec, &layout0, static_cfg());
        let adaptive_run = run(&spec, &layout0, AdaptiveConfig::default());

        let mut oracle_w = powers.clone();
        oracle_w[DEGRADED_RANK] /= DEGRADE_FACTOR;
        let oracle_layout = GenBlock::apportion(app().rows, &oracle_w).rows().to_vec();
        let oracle_run = run(&spec, &oracle_layout, static_cfg());

        let s = static_run.measured.secs;
        let a = adaptive_run.measured.secs;
        let o = oracle_run.measured.secs;
        assert!(
            o < s,
            "seed {seed}: oracle ({o:.4}s) must beat static ({s:.4}s)"
        );
        let recovered = (s - a) / (s - o);
        assert!(
            recovered >= 0.6,
            "seed {seed}: adaptive recovered only {:.1}% of the \
             static-to-oracle gap (static {s:.4}s, adaptive {a:.4}s, \
             oracle {o:.4}s)",
            100.0 * recovered,
        );

        // The gain must come from an actual mid-run rebalance that
        // shed rows from the degraded node...
        let out0 = &adaptive_run.outcomes[0];
        assert!(
            !out0.rebalances.is_empty(),
            "seed {seed}: adaptive run never rebalanced"
        );
        assert!(
            out0.final_rows[DEGRADED_RANK] < layout0[DEGRADED_RANK],
            "seed {seed}: degraded rank kept its rows"
        );
        // ...without changing the computed answer: the residual is
        // distribution-independent.
        let rel = (adaptive_run.measured.check - static_run.measured.check).abs()
            / static_run.measured.check.abs().max(1e-300);
        assert!(
            rel < 1e-9,
            "seed {seed}: rebalancing changed the residual (rel {rel:e})"
        );
    }
}

#[test]
fn adaptive_gap_recovery_is_deterministic() {
    let spec = degraded_spec(dc().seed);
    let powers = cpu_powers(&spec);
    let layout0 = GenBlock::apportion(app().rows, &powers).rows().to_vec();
    let one = run(&spec, &layout0, AdaptiveConfig::default());
    let two = run(&spec, &layout0, AdaptiveConfig::default());
    assert_eq!(one.measured.secs, two.measured.secs);
    assert_eq!(one.windows, two.windows);
    let (a, b) = (&one.outcomes[0], &two.outcomes[0]);
    assert_eq!(a.rebalances, b.rebalances);
    assert_eq!(a.transitions, b.transitions);
    assert_eq!(a.final_rows, b.final_rows);
}

#[test]
fn detector_stays_silent_on_fault_free_dc() {
    let spec = dc();
    let powers = cpu_powers(&spec);
    let layout0 = GenBlock::apportion(app().rows, &powers).rows().to_vec();
    let fault_free = run(&spec, &layout0, AdaptiveConfig::default());
    for out in &fault_free.outcomes {
        assert!(out.rebalances.is_empty(), "false-positive rebalance");
        assert!(out.transitions.is_empty(), "false-positive transition");
        assert_eq!(out.final_rows, layout0);
    }
    // And its makespan matches the detection-disabled baseline exactly:
    // the detector's bookkeeping is free on the virtual clock.
    let quiet = run(&spec, &layout0, static_cfg());
    assert_eq!(fault_free.measured.secs, quiet.measured.secs);
}

#[test]
fn crash_rejoin_and_spare_scenarios_adapt_across_noise_seeds() {
    const CRASHED_RANK: usize = 5;
    for seed in noise_seeds() {
        let powers = cpu_powers(&dc_seeded(seed));
        let layout0 = GenBlock::apportion(app().rows, &powers).rows().to_vec();

        // A rank dies: the survivors see it and take over its rows.
        let crash = with_crash(dc_seeded(seed), CRASHED_RANK, 20, 4);
        let crash = run(&crash, &layout0, AdaptiveConfig::default());
        let view = survivor(&crash);
        assert_eq!(
            view.dead,
            vec![CRASHED_RANK],
            "seed {seed}: crash not detected"
        );
        assert_eq!(
            view.final_rows[CRASHED_RANK], 0,
            "seed {seed}: dead rank kept rows"
        );

        // The degraded node recovers: the detector sees it rejoin, and
        // a second rebalance hands rows back.
        let mut rejoin = dc_seeded(seed);
        rejoin.faults.degrades.push(
            DegradeSpec::at_iteration(DEGRADED_RANK, DEGRADE_AT, DEGRADE_FACTOR)
                .recovering(RecoverSpec::at_iteration(22)),
        );
        let rejoin = run(&rejoin, &layout0, AdaptiveConfig::default());
        let view = survivor(&rejoin);
        let rejoined_at = view
            .transitions
            .iter()
            .find(|t| t.member == DEGRADED_RANK && t.to.name() == "rejoined")
            .unwrap_or_else(|| panic!("seed {seed}: no rejoin detected"))
            .at_iteration;
        assert!(
            view.rebalances.len() >= 2,
            "seed {seed}: rows never handed back"
        );
        assert!(
            view.rebalances.iter().any(|rb| rb.iteration >= rejoined_at
                && rb.to_rows[DEGRADED_RANK] > rb.from_rows[DEGRADED_RANK]),
            "seed {seed}: no rebalance after the rejoin hands rows back: {:?}",
            view.rebalances
        );

        // Node 7 starts as an idle hot spare; the degradation enlists it.
        let mut spare_layout = GenBlock::apportion(app().rows, &powers[..7])
            .rows()
            .to_vec();
        spare_layout.push(0);
        let spare = run(
            &degraded_spec(seed),
            &spare_layout,
            AdaptiveConfig::default(),
        );
        let view = survivor(&spare);
        assert!(
            view.final_rows[7] > 0,
            "seed {seed}: hot spare never enlisted: {:?}",
            view.final_rows
        );
    }
}
