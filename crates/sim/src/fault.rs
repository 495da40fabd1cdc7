//! Deterministic fault injection.
//!
//! Real heterogeneous clusters do not merely jitter: disks return
//! transient errors, NICs drop and retransmit packets, nodes slow down
//! under background load and some die outright. The paper's accuracy
//! claim (§5.2.1) silently assumes the instrumented iteration is
//! representative of the rest of the run; this module provides the
//! controlled counter-examples. It keeps only the kinds something
//! reads:
//!
//! - **Disk read/write faults** (`disk_*_fault_rate`): the MPI layer's
//!   `Comm` (in `mheta-mpi`) retries each faulted operation, up to three
//!   attempts with exponential backoff, turning it back into a success
//!   at the cost of simulated time, or surfaces
//!   [`SimError::TransientIo`] once its attempts run out.
//! - **Message resends** (`msg_resend_rate`): the receiver sees each
//!   retransmission's extra transfer time.
//! - **Crashes** ([`CrashSpec`]) and **degrades** ([`DegradeSpec`] +
//!   [`RecoverSpec`]): the §6 recovery and §10 rebalancing drivers react
//!   to them. A node that is slow for a while is a degrade window:
//!   `DegradeSpec::at_time(rank, from, f).recovering(RecoverSpec::at_time(until))`.
//!
//! Everything here is **deterministic**: a [`RankFaults`] schedule is
//! derived from the cluster's master seed exactly like
//! [`crate::noise::NoiseStream`], so the same seed produces the same
//! fault schedule and therefore byte-identical virtual timelines,
//! regardless of host-thread interleaving. Per-operation faults (disk
//! failures, message drops) come from a per-rank RNG stream consumed in
//! program order; crashes and degrades are explicit schedules, pure
//! functions of the rank's iteration and virtual time.
//!
//! The engine records every injected fault as an
//! [`crate::trace::EventKind::Fault`] event.

use std::collections::HashMap;

use crate::error::{SimError, SimResult};
use crate::time::SimTime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// What kind of fault was injected; carried by
/// [`crate::trace::EventKind::Fault`] trace events.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub enum FaultKind {
    /// A disk read attempt failed transiently (the `attempt`-th
    /// consecutive failure for this variable).
    ReadFault {
        /// Variable being read.
        var: u32,
        /// 1-based consecutive failure count.
        attempt: u32,
    },
    /// A disk write attempt failed transiently.
    WriteFault {
        /// Variable being written.
        var: u32,
        /// 1-based consecutive failure count.
        attempt: u32,
    },
    /// A message was dropped and retransmitted `resends` times; the
    /// receiver sees the extra transfer latency.
    MessageResend {
        /// Destination rank of the affected message.
        to: usize,
        /// Message tag.
        tag: u32,
        /// Number of extra transmissions.
        resends: u32,
    },
    /// A crash-stop failure: the rank permanently stopped executing at
    /// this instant. Recorded once, on the dying rank's own trace.
    Crash {
        /// The rank that died.
        rank: usize,
        /// The iteration the crash was scheduled for, when
        /// iteration-triggered.
        at_iteration: Option<u32>,
        /// Virtual time of death, ns.
        at_ns: u64,
    },
    /// A survivor resolved a blocking operation against a crashed peer:
    /// the event's span covers the wait plus the configured detection
    /// delay.
    DeadPeerDetected {
        /// The dead peer the operation was addressed to.
        peer: usize,
    },
    /// The node entered a scheduled persistent degradation
    /// ([`DegradeSpec`]): compute costs are multiplied by `factor`
    /// until the spec's recovery trigger (if any) fires. Recorded once
    /// per activation transition.
    Degrade {
        /// Combined compute-cost multiplier of all active degrades.
        factor: f64,
    },
    /// A scheduled degradation ended (its [`RecoverSpec`] fired) and the
    /// node runs at full speed again. Recorded once per transition.
    DegradeEnd,
}

/// Recovery trigger for a [`DegradeSpec`]: the instant (iteration
/// boundary and/or virtual time, whichever fires first) at which the
/// degraded node returns to full speed — modelling background load
/// draining away or a node rejoining after maintenance.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct RecoverSpec {
    /// Recover when the rank begins this iteration (0-based), if set.
    pub at_iteration: Option<u32>,
    /// Recover at the first compute at or after this virtual instant
    /// (ns), if set.
    pub at_ns: Option<u64>,
}

impl RecoverSpec {
    /// Recover when the rank begins iteration `it`.
    #[must_use]
    pub fn at_iteration(it: u32) -> Self {
        RecoverSpec {
            at_iteration: Some(it),
            at_ns: None,
        }
    }

    /// Recover at the first compute at or after virtual instant `ns`.
    #[must_use]
    pub fn at_time(ns: u64) -> Self {
        RecoverSpec {
            at_iteration: None,
            at_ns: Some(ns),
        }
    }

    fn fired(&self, it: u32, t: SimTime) -> bool {
        self.at_iteration.is_some_and(|i| it >= i)
            || self.at_ns.is_some_and(|ns| t.as_nanos() >= ns)
    }
}

/// One scheduled node degradation, the simulator's only slowdown: the
/// named rank's compute costs are multiplied by `factor` from the
/// trigger onward, optionally until a [`RecoverSpec`] fires (a degrade
/// window). This is the stimulus the phi-accrual failure detector in
/// `mheta-mpi` is designed to catch: the rank keeps answering messages
/// (so it is *not* crash-stop) but its progress reports drift.
///
/// Multiple degrades may target the same rank, up to [`MAX_DEGRADES`] in
/// one spec; overlapping windows multiply.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct DegradeSpec {
    /// The rank that slows down.
    pub rank: usize,
    /// Compute-cost multiplier (≥ 1.0) while the degrade is active.
    pub factor: f64,
    /// Degrade from the start of this iteration (0-based), if set.
    pub from_iteration: Option<u32>,
    /// Degrade from the first compute at or after this virtual instant
    /// (ns), if set.
    pub from_ns: Option<u64>,
    /// When (if ever) the node returns to full speed.
    pub recover: Option<RecoverSpec>,
}

impl DegradeSpec {
    /// Degrade `rank` by `factor` from the start of iteration `it`,
    /// persisting to the end of the run.
    #[must_use]
    pub fn at_iteration(rank: usize, it: u32, factor: f64) -> Self {
        DegradeSpec {
            rank,
            factor,
            from_iteration: Some(it),
            from_ns: None,
            recover: None,
        }
    }

    /// Degrade `rank` by `factor` from the first compute at or after
    /// virtual instant `ns`, persisting to the end of the run.
    #[must_use]
    pub fn at_time(rank: usize, ns: u64, factor: f64) -> Self {
        DegradeSpec {
            rank,
            factor,
            from_iteration: None,
            from_ns: Some(ns),
            recover: None,
        }
    }

    /// Builder: attach a recovery trigger.
    #[must_use]
    pub fn recovering(mut self, recover: RecoverSpec) -> Self {
        self.recover = Some(recover);
        self
    }

    fn started(&self, it: u32, t: SimTime) -> bool {
        self.from_iteration.is_some_and(|i| it >= i)
            || self.from_ns.is_some_and(|ns| t.as_nanos() >= ns)
    }

    /// True when the degrade multiplies compute cost at iteration `it`,
    /// virtual instant `t`.
    #[must_use]
    pub fn active_at(&self, it: u32, t: SimTime) -> bool {
        self.started(it, t) && !self.recover.is_some_and(|r| r.fired(it, t))
    }
}

/// One scheduled crash-stop failure. Unlike the rate-driven transient
/// faults, crashes are **explicit**: the spec names the victim rank and
/// the trigger (an iteration number, a virtual instant, or both —
/// whichever fires first). This keeps crash schedules trivially
/// deterministic and lets tests place a failure exactly where they
/// want it (before the first checkpoint, inside a collective, …).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct CrashSpec {
    /// The rank that dies.
    pub rank: usize,
    /// Crash when the rank begins this iteration (0-based), if set.
    pub at_iteration: Option<u32>,
    /// Crash at the first operation at or after this virtual instant
    /// (ns), if set.
    pub at_time_ns: Option<u64>,
}

impl CrashSpec {
    /// A crash of `rank` triggered when it begins iteration `it`.
    #[must_use]
    pub fn at_iteration(rank: usize, it: u32) -> Self {
        CrashSpec {
            rank,
            at_iteration: Some(it),
            at_time_ns: None,
        }
    }

    /// A crash of `rank` triggered at the first operation at or after
    /// virtual instant `ns`.
    #[must_use]
    pub fn at_time(rank: usize, ns: u64) -> Self {
        CrashSpec {
            rank,
            at_iteration: None,
            at_time_ns: Some(ns),
        }
    }
}

/// Fault-injection configuration, part of
/// [`ClusterSpec`](crate::config::ClusterSpec). All rates are
/// probabilities in `[0, 1)`; the default disables every fault class,
/// which leaves timelines byte-identical to a fault-free build.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct FaultSpec {
    /// Probability that any single disk read attempt fails transiently.
    pub disk_read_fault_rate: f64,
    /// Probability that any single disk write attempt fails transiently.
    pub disk_write_fault_rate: f64,
    /// Per-transmission probability that a message is dropped and must
    /// be resent (geometric; capped at [`MAX_RESENDS`]).
    pub msg_resend_rate: f64,
    /// Scheduled crash-stop failures (empty by default). Crash-aware
    /// drivers checkpoint every [`FaultSpec::checkpoint_interval`]
    /// iterations and recover survivors when one of these fires.
    pub crashes: Vec<CrashSpec>,
    /// Scheduled persistent node degradations (empty by default).
    /// Adaptive drivers detect these via the phi-accrual failure
    /// detector and rebalance the GEN_BLOCK distribution mid-run.
    pub degrades: Vec<DegradeSpec>,
    /// Checkpoint interval K in iterations for the crash-aware drivers
    /// (`mheta_apps::run_resilient` and `run_adaptive`, which share one
    /// rule: K is this value, or `mheta_apps::CHECKPOINT_INTERVAL` (4)
    /// when it is 0). 0 names no interval and is invalid once any crash
    /// is scheduled: a crash plan must say what there is to roll back
    /// to.
    pub checkpoint_interval: u32,
    /// Virtual time between a rank's death and a survivor's blocking
    /// operation against it resolving (failure-detector latency), ns.
    pub crash_detect_delay_ns: u64,
}

/// Default failure-detector latency: 1 ms of virtual time.
fn default_crash_detect_delay_ns() -> u64 {
    1_000_000
}

/// Upper bound on consecutive retransmissions of one message, so a
/// pathological rate cannot stall the simulation.
pub const MAX_RESENDS: u32 = 4;

/// Upper bound on [`FaultSpec::degrades`]: the engine records each
/// degrade's activation and recovery through a `u64` mask of the active
/// entries, one bit per degrade.
pub const MAX_DEGRADES: usize = 64;

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            disk_read_fault_rate: 0.0,
            disk_write_fault_rate: 0.0,
            msg_resend_rate: 0.0,
            crashes: Vec::new(),
            degrades: Vec::new(),
            checkpoint_interval: 0,
            crash_detect_delay_ns: default_crash_detect_delay_ns(),
        }
    }
}

impl FaultSpec {
    /// Validate rates, factors, and crash schedules against a cluster
    /// of `nodes` ranks; called from
    /// [`ClusterSpec::validate`](crate::config::ClusterSpec::validate).
    pub fn validate(&self, nodes: usize) -> SimResult<()> {
        for (label, rate) in [
            ("disk_read_fault_rate", self.disk_read_fault_rate),
            ("disk_write_fault_rate", self.disk_write_fault_rate),
            ("msg_resend_rate", self.msg_resend_rate),
        ] {
            if !(rate.is_finite() && (0.0..1.0).contains(&rate)) {
                return Err(SimError::InvalidConfig(format!(
                    "fault {label} must be in [0, 1), got {rate}"
                )));
            }
        }
        let mut crashed = std::collections::HashSet::new();
        for (i, c) in self.crashes.iter().enumerate() {
            if c.rank >= nodes {
                return Err(SimError::InvalidConfig(format!(
                    "crash {i}: rank {rank} out of range for {nodes} nodes",
                    rank = c.rank
                )));
            }
            if c.at_iteration.is_none() && c.at_time_ns.is_none() {
                return Err(SimError::InvalidConfig(format!(
                    "crash {i}: rank {rank} has neither at_iteration nor at_time_ns",
                    rank = c.rank
                )));
            }
            if !crashed.insert(c.rank) {
                return Err(SimError::InvalidConfig(format!(
                    "crash {i}: rank {rank} is scheduled to crash more than once",
                    rank = c.rank
                )));
            }
        }
        if self.degrades.len() > MAX_DEGRADES {
            return Err(SimError::InvalidConfig(format!(
                "{} degrades scheduled; at most {MAX_DEGRADES} are supported",
                self.degrades.len()
            )));
        }
        for (i, d) in self.degrades.iter().enumerate() {
            if d.rank >= nodes {
                return Err(SimError::InvalidConfig(format!(
                    "degrade {i}: rank {rank} out of range for {nodes} nodes",
                    rank = d.rank
                )));
            }
            if !(d.factor.is_finite() && d.factor >= 1.0) {
                return Err(SimError::InvalidConfig(format!(
                    "degrade {i}: factor must be ≥ 1.0 and finite, got {}",
                    d.factor
                )));
            }
            if d.from_iteration.is_none() && d.from_ns.is_none() {
                return Err(SimError::InvalidConfig(format!(
                    "degrade {i}: rank {rank} has neither from_iteration nor from_ns",
                    rank = d.rank
                )));
            }
            if let Some(r) = d.recover {
                if r.at_iteration.is_none() && r.at_ns.is_none() {
                    return Err(SimError::InvalidConfig(format!(
                        "degrade {i}: recover has neither at_iteration nor at_ns"
                    )));
                }
                if let (Some(from), Some(until)) = (d.from_iteration, r.at_iteration) {
                    if until <= from {
                        return Err(SimError::InvalidConfig(format!(
                            "degrade {i}: recover iteration {until} not after start {from}"
                        )));
                    }
                }
                if let (Some(from), Some(until)) = (d.from_ns, r.at_ns) {
                    if until <= from {
                        return Err(SimError::InvalidConfig(format!(
                            "degrade {i}: recover time {until} ns not after start {from} ns"
                        )));
                    }
                }
            }
        }
        if !self.crashes.is_empty() {
            if crashed.len() >= nodes {
                return Err(SimError::InvalidConfig(format!(
                    "crashes kill all {nodes} ranks; at least one survivor is required"
                )));
            }
            if self.checkpoint_interval == 0 {
                return Err(SimError::InvalidConfig(
                    "fault checkpoint_interval must be >= 1 when crashes are scheduled, got 0"
                        .to_string(),
                ));
            }
        }
        Ok(())
    }

    /// The crash scheduled for `rank`, if any.
    #[must_use]
    pub fn crash_for(&self, rank: usize) -> Option<CrashSpec> {
        self.crashes.iter().copied().find(|c| c.rank == rank)
    }
}

const RNG_SALT: u64 = 0x0fa1_757a_27ed;

/// Seed of `rank`'s fault stream: a SplitMix64-style mix of the master
/// seed, salted differently from the noise stream so fault draws and
/// noise draws are decorrelated.
fn rng_seed(seed: u64, rank: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(rank.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(RNG_SALT);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-rank deterministic fault schedule: `RankFaults::new(spec, seed,
/// rank)` is a pure function, so two runs with the same seed get the
/// same faults.
///
/// Per-operation draws (disk faults, message resends) consume a private
/// `SmallRng` stream in the rank's deterministic program order; crashes
/// and degrades are read straight off the spec and draw nothing.
#[derive(Debug, Clone)]
pub struct RankFaults {
    spec: FaultSpec,
    rank: usize,
    rng: SmallRng,
    read_streak: HashMap<u32, u32>,
    write_streak: HashMap<u32, u32>,
}

impl RankFaults {
    /// Build the schedule for `rank` under `spec` and master `seed`.
    #[must_use]
    pub fn new(spec: &FaultSpec, seed: u64, rank: usize) -> Self {
        RankFaults {
            spec: spec.clone(),
            rank,
            rng: SmallRng::seed_from_u64(rng_seed(seed, rank as u64)),
            read_streak: HashMap::new(),
            write_streak: HashMap::new(),
        }
    }

    /// The crash-stop failure scheduled for this rank, if any.
    #[must_use]
    pub fn scheduled_crash(&self) -> Option<CrashSpec> {
        self.spec.crash_for(self.rank)
    }

    /// Failure-detector latency (see
    /// [`FaultSpec::crash_detect_delay_ns`]), ns.
    #[must_use]
    pub fn crash_detect_delay_ns(&self) -> u64 {
        self.spec.crash_detect_delay_ns
    }

    /// Draw the fate of a disk-read attempt on `var`. Returns
    /// `Some(attempt)` — the 1-based consecutive failure count — when
    /// the attempt fails transiently, `None` when it succeeds (which
    /// also resets the failure streak for `var`).
    pub fn read_attempt(&mut self, var: u32) -> Option<u32> {
        let rate = self.spec.disk_read_fault_rate;
        Self::attempt(&mut self.rng, &mut self.read_streak, rate, var)
    }

    /// Draw the fate of a disk-write attempt on `var`; see
    /// [`Self::read_attempt`].
    pub fn write_attempt(&mut self, var: u32) -> Option<u32> {
        let rate = self.spec.disk_write_fault_rate;
        Self::attempt(&mut self.rng, &mut self.write_streak, rate, var)
    }

    fn attempt(
        rng: &mut SmallRng,
        streak: &mut HashMap<u32, u32>,
        rate: f64,
        var: u32,
    ) -> Option<u32> {
        if rate <= 0.0 {
            return None;
        }
        if rng.gen::<f64>() < rate {
            let n = streak.entry(var).or_insert(0);
            *n += 1;
            Some(*n)
        } else {
            streak.remove(&var);
            None
        }
    }

    /// Draw how many times an outgoing message is dropped and resent
    /// (0 = delivered first try). Geometric in the resend rate, capped
    /// at [`MAX_RESENDS`].
    pub fn msg_resends(&mut self) -> u32 {
        let rate = self.spec.msg_resend_rate;
        if rate <= 0.0 {
            return 0;
        }
        let mut resends = 0;
        while resends < MAX_RESENDS && self.rng.gen::<f64>() < rate {
            resends += 1;
        }
        resends
    }

    /// True when at least one [`DegradeSpec`] targets this rank (fast
    /// path for the engine's per-compute check).
    #[must_use]
    pub fn has_degrades(&self) -> bool {
        self.spec.degrades.iter().any(|d| d.rank == self.rank)
    }

    /// Combined effect of this rank's scheduled degradations at
    /// iteration `it`, virtual instant `t`: a bitmask of the active
    /// entries (indexed into [`FaultSpec::degrades`], so the engine can
    /// record each activation transition exactly once; a validated spec
    /// has at most [`MAX_DEGRADES`]) and the product of their factors
    /// (1.0 when none are active). A pure function of `(it, t)`.
    #[must_use]
    pub fn degrades_at(&self, it: u32, t: SimTime) -> (u64, f64) {
        let mut mask = 0u64;
        let mut factor = 1.0;
        for (i, d) in self.spec.degrades.iter().enumerate() {
            if d.rank == self.rank && d.active_at(it, t) {
                if i < MAX_DEGRADES {
                    mask |= 1 << i;
                }
                factor *= d.factor;
            }
        }
        (mask, factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_spec() -> FaultSpec {
        FaultSpec {
            disk_read_fault_rate: 0.3,
            disk_write_fault_rate: 0.2,
            msg_resend_rate: 0.25,
            degrades: vec![
                DegradeSpec::at_time(3, 10_000_000, 1.5)
                    .recovering(RecoverSpec::at_time(30_000_000)),
                DegradeSpec::at_iteration(3, 20, 2.0),
            ],
            ..Default::default()
        }
    }

    #[test]
    fn default_spec_is_inert_and_valid() {
        let spec = FaultSpec::default();
        spec.validate(4).unwrap();
        let mut rf = RankFaults::new(&spec, 42, 0);
        for var in 0..50 {
            assert_eq!(rf.read_attempt(var), None);
            assert_eq!(rf.write_attempt(var), None);
            assert_eq!(rf.msg_resends(), 0);
        }
        assert!(!rf.has_degrades());
        assert_eq!(rf.degrades_at(7, SimTime(123_456)), (0, 1.0));
        assert_eq!(rf.scheduled_crash(), None);
    }

    #[test]
    fn same_seed_same_schedule() {
        let spec = busy_spec();
        let mut a = RankFaults::new(&spec, 7, 3);
        let mut b = RankFaults::new(&spec, 7, 3);
        for i in 0..200u32 {
            assert_eq!(a.read_attempt(i % 5), b.read_attempt(i % 5));
            assert_eq!(a.write_attempt(i % 3), b.write_attempt(i % 3));
            assert_eq!(a.msg_resends(), b.msg_resends());
            let t = SimTime(u64::from(i) * 250_000);
            assert_eq!(a.degrades_at(i / 5, t), b.degrades_at(i / 5, t));
        }
    }

    #[test]
    fn different_seeds_or_ranks_diverge() {
        let spec = busy_spec();
        let schedule = |seed: u64, rank: usize| -> Vec<bool> {
            let mut rf = RankFaults::new(&spec, seed, rank);
            (0..256).map(|_| rf.read_attempt(0).is_some()).collect()
        };
        assert_ne!(schedule(1, 0), schedule(2, 0));
        assert_ne!(schedule(1, 0), schedule(1, 1));
    }

    /// `degrades_at` is a pure function of `(it, t)`: asked in any
    /// order, and between draws from the rank's stream, it answers the
    /// same, and it draws nothing from that stream.
    #[test]
    fn window_faults_are_order_independent() {
        let spec = busy_spec();
        let mut rf = RankFaults::new(&spec, 99, 3);
        let points: Vec<(u32, SimTime)> = (0..64u32)
            .map(|i| (i / 2, SimTime(u64::from(i) * 700_000)))
            .collect();
        let fwd: Vec<_> = points
            .iter()
            .map(|&(it, t)| rf.degrades_at(it, t))
            .collect();
        let rev: Vec<_> = points
            .iter()
            .rev()
            .map(|&(it, t)| {
                rf.read_attempt(0);
                rf.degrades_at(it, t)
            })
            .collect();
        assert_eq!(fwd, rev.into_iter().rev().collect::<Vec<_>>());
        assert!(fwd.contains(&(0b01, 1.5)) && fwd.contains(&(0b10, 2.0)));

        // The stream after 64 reads is the untouched one's.
        let mut fresh = RankFaults::new(&spec, 99, 3);
        for _ in 0..64 {
            fresh.read_attempt(0);
        }
        for var in 0..32 {
            assert_eq!(rf.write_attempt(var), fresh.write_attempt(var));
        }
    }

    #[test]
    fn failure_streaks_count_consecutive_failures() {
        let spec = FaultSpec {
            disk_read_fault_rate: 0.999,
            ..Default::default()
        };
        let mut rf = RankFaults::new(&spec, 11, 0);
        assert_eq!(rf.read_attempt(7), Some(1));
        assert_eq!(rf.read_attempt(7), Some(2));
        assert_eq!(rf.read_attempt(7), Some(3));
        // An independent variable has its own streak.
        assert_eq!(rf.read_attempt(8), Some(1));
    }

    #[test]
    fn resends_are_capped() {
        let spec = FaultSpec {
            msg_resend_rate: 0.999,
            ..Default::default()
        };
        let mut rf = RankFaults::new(&spec, 3, 0);
        for _ in 0..32 {
            assert!(rf.msg_resends() <= MAX_RESENDS);
        }
    }

    #[test]
    fn validate_rejects_bad_rates() {
        let spec = FaultSpec {
            disk_read_fault_rate: 1.5,
            ..Default::default()
        };
        assert!(matches!(
            spec.validate(4),
            Err(SimError::InvalidConfig(msg)) if msg.contains("disk_read_fault_rate")
        ));
        let spec = FaultSpec {
            disk_write_fault_rate: -0.1,
            ..Default::default()
        };
        assert!(spec.validate(4).is_err());
        let spec = FaultSpec {
            msg_resend_rate: f64::NAN,
            ..Default::default()
        };
        assert!(matches!(
            spec.validate(4),
            Err(SimError::InvalidConfig(msg)) if msg.contains("msg_resend_rate")
        ));
    }

    #[test]
    fn validate_rejects_out_of_range_crash_rank() {
        let spec = FaultSpec {
            crashes: vec![CrashSpec::at_iteration(4, 3)],
            checkpoint_interval: 5,
            ..Default::default()
        };
        assert!(matches!(
            spec.validate(4),
            Err(SimError::InvalidConfig(msg))
                if msg.contains("rank 4 out of range for 4 nodes")
        ));
        spec.validate(5).unwrap();
    }

    #[test]
    fn validate_rejects_killing_every_rank() {
        let spec = FaultSpec {
            crashes: vec![CrashSpec::at_iteration(0, 1), CrashSpec::at_time(1, 50)],
            checkpoint_interval: 5,
            ..Default::default()
        };
        assert!(matches!(
            spec.validate(2),
            Err(SimError::InvalidConfig(msg)) if msg.contains("at least one survivor")
        ));
        spec.validate(3).unwrap();
    }

    #[test]
    fn validate_rejects_zero_checkpoint_interval_with_crashes() {
        let spec = FaultSpec {
            crashes: vec![CrashSpec::at_iteration(1, 7)],
            checkpoint_interval: 0,
            ..Default::default()
        };
        assert!(matches!(
            spec.validate(4),
            Err(SimError::InvalidConfig(msg)) if msg.contains("checkpoint_interval")
        ));
        // K = 0 without crashes just means "checkpointing disabled".
        FaultSpec::default().validate(4).unwrap();
    }

    #[test]
    fn validate_rejects_triggerless_and_duplicate_crashes() {
        let spec = FaultSpec {
            crashes: vec![CrashSpec {
                rank: 1,
                at_iteration: None,
                at_time_ns: None,
            }],
            checkpoint_interval: 5,
            ..Default::default()
        };
        assert!(matches!(
            spec.validate(4),
            Err(SimError::InvalidConfig(msg)) if msg.contains("neither at_iteration")
        ));
        let spec = FaultSpec {
            crashes: vec![CrashSpec::at_iteration(1, 2), CrashSpec::at_iteration(1, 9)],
            checkpoint_interval: 5,
            ..Default::default()
        };
        assert!(matches!(
            spec.validate(4),
            Err(SimError::InvalidConfig(msg)) if msg.contains("more than once")
        ));
    }

    #[test]
    fn degrade_activation_windows() {
        let spec = FaultSpec {
            degrades: vec![
                DegradeSpec::at_iteration(1, 4, 4.0).recovering(RecoverSpec::at_iteration(10)),
                DegradeSpec::at_time(1, 5_000, 2.0),
            ],
            ..Default::default()
        };
        spec.validate(4).unwrap();
        let rf = RankFaults::new(&spec, 1, 1);
        assert!(rf.has_degrades());
        // Before anything starts.
        assert_eq!(rf.degrades_at(0, SimTime(0)), (0, 1.0));
        // Iteration trigger active, time trigger not yet.
        assert_eq!(rf.degrades_at(4, SimTime(100)), (0b01, 4.0));
        // Both active: factors multiply.
        assert_eq!(rf.degrades_at(6, SimTime(9_000)), (0b11, 8.0));
        // First recovers at iteration 10; the open-ended one persists.
        assert_eq!(rf.degrades_at(10, SimTime(1_000_000)), (0b10, 2.0));
        // Other ranks are unaffected.
        let other = RankFaults::new(&spec, 1, 0);
        assert!(!other.has_degrades());
        assert_eq!(other.degrades_at(6, SimTime(9_000)), (0, 1.0));
    }

    #[test]
    fn validate_rejects_bad_degrades() {
        let bad_rank = FaultSpec {
            degrades: vec![DegradeSpec::at_iteration(9, 1, 2.0)],
            ..Default::default()
        };
        assert!(matches!(
            bad_rank.validate(4),
            Err(SimError::InvalidConfig(msg)) if msg.contains("rank 9 out of range")
        ));
        let bad_factor = FaultSpec {
            degrades: vec![DegradeSpec::at_iteration(0, 1, 0.5)],
            ..Default::default()
        };
        assert!(matches!(
            bad_factor.validate(4),
            Err(SimError::InvalidConfig(msg)) if msg.contains("factor")
        ));
        let no_trigger = FaultSpec {
            degrades: vec![DegradeSpec {
                rank: 0,
                factor: 2.0,
                from_iteration: None,
                from_ns: None,
                recover: None,
            }],
            ..Default::default()
        };
        assert!(matches!(
            no_trigger.validate(4),
            Err(SimError::InvalidConfig(msg)) if msg.contains("neither from_iteration")
        ));
        let empty_recover = FaultSpec {
            degrades: vec![
                DegradeSpec::at_iteration(0, 1, 2.0).recovering(RecoverSpec {
                    at_iteration: None,
                    at_ns: None,
                }),
            ],
            ..Default::default()
        };
        assert!(matches!(
            empty_recover.validate(4),
            Err(SimError::InvalidConfig(msg)) if msg.contains("recover has neither")
        ));
        let recover_before_start = FaultSpec {
            degrades: vec![
                DegradeSpec::at_iteration(0, 5, 2.0).recovering(RecoverSpec::at_iteration(5))
            ],
            ..Default::default()
        };
        assert!(matches!(
            recover_before_start.validate(4),
            Err(SimError::InvalidConfig(msg)) if msg.contains("not after start")
        ));
        let ok = FaultSpec {
            degrades: vec![DegradeSpec::at_iteration(0, 1, 2.0)],
            ..Default::default()
        };
        ok.validate(4).unwrap();
    }

    #[test]
    fn scheduled_crashes_attach_to_their_rank() {
        let spec = FaultSpec {
            crashes: vec![CrashSpec::at_iteration(2, 40)],
            checkpoint_interval: 10,
            ..Default::default()
        };
        let rank = |r| RankFaults::new(&spec, 1, r);
        assert_eq!(rank(2).scheduled_crash(), Some(spec.crashes[0]));
        assert_eq!(rank(0).scheduled_crash(), None);
        assert_eq!(rank(0).crash_detect_delay_ns(), spec.crash_detect_delay_ns);
    }
}
