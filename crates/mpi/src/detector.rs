//! Phi-accrual failure detection over virtual-clock heartbeats.
//!
//! Crash-stop failures are easy: a blocking receive against a dead rank
//! resolves as `PeerDead`, and one agreement round converges the
//! survivors. The harder problem is the rank that keeps answering
//! messages but has silently slowed down — background load, thermal
//! throttling, a failing disk controller. Because the simulator's
//! collectives synchronize virtual clocks at every iteration boundary,
//! *wall-clock* heartbeat intervals cannot localize the slow member:
//! everyone's clock advances together. Instead, each rank's heartbeat
//! carries its own **per-row compute time** for the iteration — a
//! progress report that is invariant under GEN_BLOCK rebalancing (rows
//! move, per-row speed does not) and directly proportional to the
//! node's effective slowdown.
//!
//! The detector is a deterministic replica: every member feeds the same
//! exchanged sample vector (the result of a fault-tolerant max-allreduce
//! where each member fills only its own slot) into an identical
//! [`PhiAccrualDetector`], so every member reaches identical suspicion
//! levels and identical state-machine transitions without any extra
//! agreement protocol. The suspicion level follows Hayashibara et al.'s
//! phi-accrual construction: `phi = -log10 P(X >= x)` under a normal
//! model of the member's healthy baseline samples.
//!
//! The per-member state machine:
//!
//! ```text
//!             phi > threshold            confirm streak
//!   Healthy ────────────────▶ Suspected ───────────────▶ Degraded
//!      ▲  ▲      (and ratio guard)   │                      │
//!      │  │                          │ sample back          │ ratio back
//!      │  │                          ▼ under guard          ▼ under rejoin
//!      │  └───────────────────── Healthy               Rejoined
//!      │                                                    │
//!      └────────────────────────────────────────────────────┘
//!
//!   (any state) ── missed heartbeat / PeerDead ──▶ Dead   [absorbing]
//! ```
//!
//! **Zero-false-positive guarantee on fault-free runs**: a member is
//! suspected only when *both* its phi exceeds [`PHI_THRESHOLD`] *and*
//! its sample exceeds [`SUSPECT_RATIO`] times the frozen healthy
//! baseline.
//! The phi term adapts to each member's observed jitter; the ratio
//! guard bounds the damage of a degenerate (near-zero variance)
//! baseline, where even benign noise produces unbounded phi. Property
//! tests in this module sweep all architecture presets and seeds to
//! hold the guarantee.

use std::fmt;

/// Suspicion level above which a member becomes suspected; `phi = 8`
/// means "the healthy model puts under 10⁻⁸ probability on a sample
/// this large".
pub const PHI_THRESHOLD: f64 = 8.0;
/// Number of leading samples used to learn a member's healthy
/// baseline; no suspicion is raised while the baseline is learning.
pub const WARMUP_SAMPLES: usize = 3;
/// Ratio guard: a sample must also exceed `SUSPECT_RATIO × baseline
/// mean` to count as suspect, bounding false positives when the
/// baseline variance is degenerate (deterministic runs).
pub const SUSPECT_RATIO: f64 = 1.35;
/// Consecutive suspect samples required to confirm `Suspected →
/// Degraded` (and calm samples for `Degraded → Rejoined`).
pub const CONFIRM_SAMPLES: u32 = 2;
/// A degraded member whose sample falls back under `REJOIN_RATIO ×
/// baseline mean` for `CONFIRM_SAMPLES` iterations is rejoined.
pub const REJOIN_RATIO: f64 = 1.15;
/// Floor on the baseline standard deviation, as a fraction of the
/// baseline mean, so phi stays finite on zero-variance baselines.
pub const MIN_SIGMA_FRAC: f64 = 0.02;

/// Health of one member as judged by the detector replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HealthState {
    /// Progress reports match the learned baseline.
    Healthy,
    /// Phi tripped the threshold; awaiting confirmation.
    Suspected,
    /// Confirmed persistent slowdown; the member still participates but
    /// should carry less work.
    Degraded,
    /// The member missed a heartbeat entirely (crash-stop); absorbing.
    Dead,
    /// A degraded member whose reports recovered; transitions back to
    /// [`HealthState::Healthy`] on the next observation.
    Rejoined,
}

impl HealthState {
    /// Stable lower-case name for metrics and telemetry.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Suspected => "suspected",
            HealthState::Degraded => "degraded",
            HealthState::Dead => "dead",
            HealthState::Rejoined => "rejoined",
        }
    }
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One state-machine transition, as observed by the detector replica.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
    /// The member whose state changed.
    pub member: usize,
    /// State before the observation.
    pub from: HealthState,
    /// State after the observation.
    pub to: HealthState,
    /// Iteration of the observation that caused the transition.
    pub at_iteration: u32,
    /// Virtual instant of the observation, ns.
    pub at_ns: u64,
}

/// One point on a member's suspicion timeline, for telemetry export.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuspicionSample {
    /// Iteration the sample belongs to.
    pub iteration: u32,
    /// Virtual instant of the observation, ns.
    pub at_ns: u64,
    /// The member the sample describes.
    pub member: usize,
    /// Suspicion level (0 while the baseline is learning).
    pub phi: f64,
    /// Sample / baseline-mean ratio (1.0 while learning).
    pub ratio: f64,
    /// State after this observation was absorbed.
    pub state: HealthState,
}

#[derive(Debug, Clone)]
struct MemberHealth {
    state: HealthState,
    /// Baseline samples collected during warmup.
    window: Vec<f64>,
    /// Frozen healthy-baseline mean (None while learning).
    mean: Option<f64>,
    /// Frozen healthy-baseline standard deviation.
    sigma: f64,
    suspect_streak: u32,
    calm_streak: u32,
    /// Latest sample / baseline ratio (the slowdown estimate while
    /// degraded).
    ratio: f64,
    /// Iteration of the first suspect sample of the current streak,
    /// for detection-latency accounting.
    first_suspect_ns: Option<u64>,
}

impl MemberHealth {
    fn new() -> Self {
        MemberHealth {
            state: HealthState::Healthy,
            window: Vec::new(),
            mean: None,
            sigma: 0.0,
            suspect_streak: 0,
            calm_streak: 0,
            ratio: 1.0,
            first_suspect_ns: None,
        }
    }
}

/// Deterministic phi-accrual detector replica; see the module docs.
#[derive(Debug, Clone)]
pub struct PhiAccrualDetector {
    /// False for a replica that never suspects: it still computes and
    /// records phi, so its timeline matches a suspecting one's up to
    /// the first suspicion (the static baseline).
    suspects: bool,
    members: Vec<MemberHealth>,
    timeline: Vec<SuspicionSample>,
    transitions: Vec<Transition>,
    /// Detection latencies (first suspect sample → confirmation), ns.
    detection_latencies_ns: Vec<u64>,
}

impl PhiAccrualDetector {
    /// A detector replica for `n` members; one built with `suspects =
    /// false` observes and records phi but never leaves `Healthy` on
    /// its own (only [`PhiAccrualDetector::mark_dead`] moves it).
    #[must_use]
    pub fn new(n: usize, suspects: bool) -> Self {
        PhiAccrualDetector {
            suspects,
            members: (0..n).map(|_| MemberHealth::new()).collect(),
            timeline: Vec::new(),
            transitions: Vec::new(),
            detection_latencies_ns: Vec::new(),
        }
    }

    /// Current health of `member`.
    #[must_use]
    pub fn state(&self, member: usize) -> HealthState {
        self.members[member].state
    }

    /// Latest sample/baseline ratio for `member` — the slowdown
    /// estimate used to derive effective weights (1.0 while healthy or
    /// still learning).
    #[must_use]
    pub fn slow_ratio(&self, member: usize) -> f64 {
        let m = &self.members[member];
        match m.state {
            HealthState::Suspected | HealthState::Degraded => m.ratio.max(1.0),
            _ => 1.0,
        }
    }

    /// True when the member's healthy baseline is frozen.
    #[cfg(test)]
    fn baseline_ready(&self, member: usize) -> bool {
        self.members[member].mean.is_some()
    }

    /// Every `(iteration, member, phi, state)` point observed so far.
    #[must_use]
    pub fn timeline(&self) -> &[SuspicionSample] {
        &self.timeline
    }

    /// Every state-machine transition so far, in observation order.
    #[must_use]
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Detection latencies (virtual ns from the first suspect sample of
    /// a streak to its `Degraded` confirmation), one per confirmation.
    #[must_use]
    pub fn detection_latencies_ns(&self) -> &[u64] {
        &self.detection_latencies_ns
    }

    /// Forget learned baselines for members that are not currently
    /// degraded or dead. Drivers call this right after applying a new
    /// GEN_BLOCK distribution: a member's share may have crossed a
    /// cache tier, which legitimately changes its per-row time, so the
    /// old baseline would misread the step as a fault. Degraded members
    /// keep their (healthy) baseline — it is the reference that makes
    /// rejoin detection possible.
    pub fn reset_baselines(&mut self) {
        for m in &mut self.members {
            if !matches!(m.state, HealthState::Degraded | HealthState::Dead) {
                m.window.clear();
                m.mean = None;
                m.sigma = 0.0;
                m.suspect_streak = 0;
                m.calm_streak = 0;
                m.first_suspect_ns = None;
            }
        }
    }

    /// Mark `member` crash-stopped (a missed heartbeat: the collective
    /// resolved its slot as `PeerDead`). Absorbing; returns the
    /// transition when the state actually changed.
    pub fn mark_dead(&mut self, member: usize, it: u32, at_ns: u64) -> Option<Transition> {
        let from = self.members[member].state;
        if from == HealthState::Dead {
            return None;
        }
        self.members[member].state = HealthState::Dead;
        let t = Transition {
            member,
            from,
            to: HealthState::Dead,
            at_iteration: it,
            at_ns,
        };
        self.transitions.push(t);
        Some(t)
    }

    /// Absorb one iteration's exchanged progress reports. `samples[i]`
    /// is member `i`'s per-row compute time for the iteration in ns;
    /// non-positive entries mean "no signal this iteration" (the member
    /// held zero rows) and leave that member's model untouched. Returns
    /// the transitions triggered by this observation, in member order —
    /// identical on every replica fed the same vector.
    pub fn observe(&mut self, it: u32, at_ns: u64, samples: &[f64]) -> Vec<Transition> {
        assert_eq!(samples.len(), self.members.len(), "sample vector width");
        let mut out = Vec::new();
        for (member, &x) in samples.iter().enumerate() {
            if self.members[member].state == HealthState::Dead || x <= 0.0 || !x.is_finite() {
                continue;
            }
            if let Some(t) = self.observe_member(member, it, at_ns, x) {
                out.push(t);
            }
        }
        out
    }

    fn observe_member(&mut self, member: usize, it: u32, at_ns: u64, x: f64) -> Option<Transition> {
        let m = &mut self.members[member];

        // A rejoined member folds back to healthy on its next sample and
        // starts re-learning its baseline at the recovered rate.
        if m.state == HealthState::Rejoined {
            m.state = HealthState::Healthy;
            m.window.clear();
            m.mean = None;
            m.sigma = 0.0;
        }

        let Some(mean) = m.mean else {
            // Learning the healthy baseline: collect, freeze at warmup.
            m.window.push(x);
            if m.window.len() >= WARMUP_SAMPLES {
                let n = m.window.len() as f64;
                let mean = m.window.iter().sum::<f64>() / n;
                let var = m.window.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
                m.mean = Some(mean);
                m.sigma = var.sqrt();
            }
            let state = m.state;
            self.timeline.push(SuspicionSample {
                iteration: it,
                at_ns,
                member,
                phi: 0.0,
                ratio: 1.0,
                state,
            });
            return None;
        };

        let sigma = m.sigma.max(MIN_SIGMA_FRAC * mean).max(f64::MIN_POSITIVE);
        let phi = phi_level(x, mean, sigma);
        let ratio = x / mean;
        m.ratio = ratio;
        let suspect = self.suspects && phi > PHI_THRESHOLD && ratio > SUSPECT_RATIO;

        let from = m.state;
        let mut to = from;
        match from {
            HealthState::Healthy => {
                if suspect {
                    m.suspect_streak = 1;
                    m.first_suspect_ns = Some(at_ns);
                    to = HealthState::Suspected;
                }
            }
            HealthState::Suspected => {
                if suspect {
                    m.suspect_streak += 1;
                    if m.suspect_streak >= CONFIRM_SAMPLES {
                        to = HealthState::Degraded;
                        let latency = at_ns.saturating_sub(m.first_suspect_ns.unwrap_or(at_ns));
                        self.detection_latencies_ns.push(latency);
                    }
                } else {
                    m.suspect_streak = 0;
                    m.first_suspect_ns = None;
                    to = HealthState::Healthy;
                }
            }
            HealthState::Degraded => {
                if ratio < REJOIN_RATIO {
                    m.calm_streak += 1;
                    if m.calm_streak >= CONFIRM_SAMPLES {
                        m.calm_streak = 0;
                        m.suspect_streak = 0;
                        m.first_suspect_ns = None;
                        to = HealthState::Rejoined;
                    }
                } else {
                    m.calm_streak = 0;
                }
            }
            // Dead is filtered in `observe`; Rejoined was folded above.
            HealthState::Dead | HealthState::Rejoined => unreachable!(),
        }
        m.state = to;
        self.timeline.push(SuspicionSample {
            iteration: it,
            at_ns,
            member,
            phi,
            ratio,
            state: to,
        });
        if to != from {
            let t = Transition {
                member,
                from,
                to,
                at_iteration: it,
                at_ns,
            };
            self.transitions.push(t);
            return Some(t);
        }
        None
    }
}

/// Hayashibara's suspicion level: `phi = -log10 P(X >= x)` under
/// `Normal(mean, sigma)`, clamped to `[0, 40]` so downstream arithmetic
/// never meets infinities.
fn phi_level(x: f64, mean: f64, sigma: f64) -> f64 {
    if x <= mean {
        return 0.0;
    }
    let z = (x - mean) / (sigma * std::f64::consts::SQRT_2);
    // P(X >= x) = erfc(z_over_sqrt2) / 2
    let p = 0.5 * erfc(z);
    if p <= 1e-40 {
        40.0
    } else {
        (-p.log10()).clamp(0.0, 40.0)
    }
}

/// Complementary error function via the Abramowitz & Stegun 7.1.26
/// rational approximation (|error| < 1.5e-7), which is plenty for a
/// detector thresholded at whole phi units. `std` has no `erfc`, and
/// the workspace is dependency-free by policy.
fn erfc(x: f64) -> f64 {
    let sign_negative = x < 0.0;
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let erf = 1.0 - poly * (-x * x).exp();
    if sign_negative {
        1.0 + erf
    } else {
        1.0 - erf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector(n: usize) -> PhiAccrualDetector {
        PhiAccrualDetector::new(n, true)
    }

    /// Feed `iters` iterations of a baseline 100 ns/row signal with a
    /// deterministic ±`jitter` wobble, multiplying member `victim`'s
    /// signal by `factor` from iteration `onset`.
    fn drive(
        det: &mut PhiAccrualDetector,
        n: usize,
        iters: u32,
        jitter: f64,
        victim: usize,
        onset: u32,
        factor: f64,
    ) {
        for it in 0..iters {
            let samples: Vec<f64> = (0..n)
                .map(|m| {
                    let wobble =
                        1.0 + jitter * (((it as usize * 7 + m * 13) % 5) as f64 - 2.0) / 2.0;
                    let f = if m == victim && it >= onset {
                        factor
                    } else {
                        1.0
                    };
                    100.0 * wobble * f
                })
                .collect();
            det.observe(it, u64::from(it) * 1_000, &samples);
        }
    }

    #[test]
    fn fault_free_run_stays_healthy() {
        let mut det = detector(4);
        drive(&mut det, 4, 200, 0.05, 0, u32::MAX, 1.0);
        assert!(det.transitions().is_empty(), "{:?}", det.transitions());
        for m in 0..4 {
            assert_eq!(det.state(m), HealthState::Healthy);
            assert_eq!(det.slow_ratio(m), 1.0);
        }
    }

    #[test]
    fn persistent_slowdown_is_confirmed_quickly() {
        let mut det = detector(4);
        drive(&mut det, 4, 20, 0.02, 2, 8, 4.0);
        assert_eq!(det.state(2), HealthState::Degraded);
        assert!(
            (det.slow_ratio(2) - 4.0).abs() < 0.2,
            "{}",
            det.slow_ratio(2)
        );
        let confirm = det
            .transitions()
            .iter()
            .find(|t| t.to == HealthState::Degraded)
            .expect("must confirm");
        // Suspected at onset, confirmed within CONFIRM_SAMPLES more.
        assert!(confirm.at_iteration <= 8 + CONFIRM_SAMPLES);
        assert_eq!(det.detection_latencies_ns().len(), 1);
        // Healthy members are untouched.
        for m in [0, 1, 3] {
            assert_eq!(det.state(m), HealthState::Healthy);
        }
        // A replica that never suspects sees the same phi and stays quiet.
        let mut quiet = PhiAccrualDetector::new(4, false);
        drive(&mut quiet, 4, 20, 0.02, 2, 8, 4.0);
        assert!(quiet.transitions().is_empty(), "{:?}", quiet.transitions());
        assert_eq!(quiet.state(2), HealthState::Healthy);
        let phi = |d: &PhiAccrualDetector| -> Vec<u64> {
            d.timeline().iter().map(|s| s.phi.to_bits()).collect()
        };
        assert_eq!(phi(&quiet), phi(&det));
        assert!(quiet.timeline().iter().any(|s| s.phi > PHI_THRESHOLD));
    }

    #[test]
    fn transient_blip_does_not_confirm() {
        let mut det = detector(2);
        let mut state = Vec::new();
        for it in 0..20u32 {
            let f = if it == 10 { 5.0 } else { 1.0 };
            det.observe(it, u64::from(it) * 1_000, &[100.0 * f, 100.0]);
            state.push(det.state(0));
        }
        assert!(state.contains(&HealthState::Suspected), "blip must suspect");
        assert_eq!(det.state(0), HealthState::Healthy, "blip must clear");
        assert!(det.detection_latencies_ns().is_empty());
    }

    #[test]
    fn recovery_rejoins_and_relearns() {
        let mut det = detector(3);
        // Degrade member 1 from iteration 6, recover at iteration 14.
        for it in 0..25u32 {
            let f = if (6..14).contains(&it) { 4.0 } else { 1.0 };
            det.observe(it, u64::from(it) * 1_000, &[100.0, 100.0 * f, 100.0]);
        }
        let seq: Vec<HealthState> = det
            .transitions()
            .iter()
            .filter(|t| t.member == 1)
            .map(|t| t.to)
            .collect();
        assert_eq!(
            seq,
            vec![
                HealthState::Suspected,
                HealthState::Degraded,
                HealthState::Rejoined,
            ],
            "{:?}",
            det.transitions()
        );
        assert_eq!(det.state(1), HealthState::Healthy);
        assert_eq!(det.slow_ratio(1), 1.0);
    }

    #[test]
    fn missed_heartbeat_is_dead_and_absorbing() {
        let mut det = detector(3);
        drive(&mut det, 3, 6, 0.0, 0, u32::MAX, 1.0);
        let t = det.mark_dead(2, 6, 6_000).expect("transition");
        assert_eq!(t.from, HealthState::Healthy);
        assert_eq!(t.to, HealthState::Dead);
        assert!(det.mark_dead(2, 7, 7_000).is_none(), "absorbing");
        // Further samples for a dead member are ignored.
        det.observe(7, 7_000, &[100.0, 100.0, 500.0]);
        assert_eq!(det.state(2), HealthState::Dead);
    }

    #[test]
    fn zero_row_members_produce_no_signal() {
        let mut det = detector(2);
        for it in 0..50u32 {
            det.observe(it, u64::from(it) * 1_000, &[100.0, 0.0]);
        }
        assert_eq!(det.state(1), HealthState::Healthy);
        assert!(!det.baseline_ready(1), "no samples, no baseline");
        assert!(det.baseline_ready(0));
    }

    #[test]
    fn reset_baselines_relearns_after_rebalance() {
        let mut det = detector(2);
        drive(&mut det, 2, 10, 0.0, 0, u32::MAX, 1.0);
        det.reset_baselines();
        assert!(!det.baseline_ready(0));
        // A 2x step right after the reset is absorbed as the new
        // baseline instead of tripping the detector.
        for it in 10..30u32 {
            det.observe(it, u64::from(it) * 1_000, &[200.0, 200.0]);
        }
        assert!(det.transitions().is_empty(), "{:?}", det.transitions());
    }

    #[test]
    fn degraded_members_keep_their_baseline_across_resets() {
        let mut det = detector(2);
        for it in 0..10u32 {
            let f = if it >= 5 { 4.0 } else { 1.0 };
            det.observe(it, u64::from(it) * 1_000, &[100.0 * f, 100.0]);
        }
        assert_eq!(det.state(0), HealthState::Degraded);
        det.reset_baselines();
        assert!(det.baseline_ready(0), "degraded member keeps reference");
        // Recovery is still detected against the original baseline.
        for it in 10..14u32 {
            det.observe(it, u64::from(it) * 1_000, &[100.0, 100.0]);
        }
        assert!(det
            .transitions()
            .iter()
            .any(|t| t.member == 0 && t.to == HealthState::Rejoined));
    }

    #[test]
    fn erfc_matches_known_values() {
        // erfc(0) = 1, erfc(1) ~= 0.157299, erfc(2) ~= 0.004678.
        assert!((erfc(0.0) - 1.0).abs() < 1e-6);
        assert!((erfc(1.0) - 0.157_299_2).abs() < 1e-6);
        assert!((erfc(2.0) - 0.004_677_7).abs() < 1e-6);
        assert!((erfc(-1.0) - 1.842_700_8).abs() < 1e-6);
        // Monotone decreasing.
        for i in 0..100 {
            let a = erfc(i as f64 * 0.1);
            let b = erfc((i + 1) as f64 * 0.1);
            assert!(b <= a);
        }
    }

    #[test]
    fn phi_grows_with_deviation_and_clamps() {
        let (mean, sigma) = (100.0, 5.0);
        assert_eq!(phi_level(90.0, mean, sigma), 0.0, "below mean is certain");
        let p1 = phi_level(110.0, mean, sigma);
        let p2 = phi_level(130.0, mean, sigma);
        let p3 = phi_level(1_000.0, mean, sigma);
        assert!(p1 > 0.0 && p2 > p1, "phi must grow: {p1} {p2}");
        assert_eq!(p3, 40.0, "far tail clamps");
    }
}
