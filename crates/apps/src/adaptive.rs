//! Adaptive drivers: mid-run GEN_BLOCK rebalancing on top of the
//! phi-accrual failure detector and the online re-search policy.
//!
//! The crash-resilient driver ([`crate::resilient`]) answers "a rank
//! died"; this module answers the harder questions of "a rank slowed
//! down" and "a rank came back". Each iteration every member appends a
//! **progress report** — its per-row sweep compute time, which is
//! invariant under GEN_BLOCK rebalancing (rows move, per-row speed does
//! not) — to a fault-tolerant max-allreduce, so all members see the
//! identical sample vector. Every member feeds that vector into an
//! identical [`PhiAccrualDetector`] replica and, when the detector
//! confirms a `Degraded` or `Rejoined` transition (or the observed
//! drift passes the policy gate), runs the identical budget-capped
//! [`OnlinePolicy::replan`]. Deterministic replicas reach identical
//! decisions, so a rebalance commits **without any extra agreement
//! round**: the members simply execute the same transfer plan at the
//! same iteration boundary, under a bumped redistribution epoch.
//!
//! The layout is a raw per-rank row vector rather than a [`GenBlock`],
//! because adaptivity needs **zero-row members**: a hot spare starts
//! with no rows (it reports no progress and costs nothing) and is
//! enlisted by the first rebalance or crash recovery that apportions it
//! a share. Members with zero rows skip the halo exchange and sweep
//! entirely but keep participating in the collectives.
//!
//! Crash-stop failures still take the checkpoint/rollback path of the
//! resilient driver — a rebalance moves *live* state and needs no
//! rollback, while a crash loses state and does. The two compose: the
//! detector marks agreed-dead members (disambiguating "slow" from
//! "gone"), and post-crash redistribution apportions by
//! slowdown-corrected effective weights instead of nominal CPU powers.

use mheta_core::ProgramStructure;
use mheta_dist::{rows_moved, transfer_plan_rows, GenBlock, OnlinePolicy};
use mheta_mpi::{
    agree_mask, allreduce, barrier, ft_allreduce_among, Comm, DetectorConfig, HealthState,
    PhiAccrualDetector, Recorder, ReduceOp, SuspicionSample, Transition,
};
use mheta_sim::{RecoveryKind, RecoverySpan, SimError, SimResult};

use crate::app::{rank_plans, RankResult};
use crate::cg::{Cg, VAR_A};
use crate::jacobi::{Jacobi, VAR_U};
use crate::resilient::{
    dead_block, Checkpoint, CheckpointStore, REPREDICTION_WORK_UNITS, VAR_CKPT, VAR_FETCH,
};

const TAG_BASE: u32 = 0x100;

fn tag_up(epoch: u32) -> u32 {
    TAG_BASE + 4 * epoch
}
fn tag_down(epoch: u32) -> u32 {
    TAG_BASE + 4 * epoch + 1
}
fn tag_redist(epoch: u32) -> u32 {
    TAG_BASE + 4 * epoch + 2
}

/// Application work units each member charges per evaluation-function
/// call of a replan — the "milliseconds, not minutes" cost that makes
/// online re-search affordable in the first place.
pub const REPLAN_WORK_UNITS_PER_EVAL: f64 = 25.0;

/// Everything configurable about the adaptive loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Phi-accrual detector thresholds.
    pub detector: DetectorConfig,
    /// Online re-search policy (drift gate, eval budget, hysteresis).
    pub policy: OnlinePolicy,
    /// Checkpoint interval `K` (clamped to at least 1).
    pub checkpoint_interval: u32,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            detector: DetectorConfig::default(),
            policy: OnlinePolicy::default(),
            checkpoint_interval: 4,
        }
    }
}

/// One committed mid-run rebalance, as every member records it.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceEvent {
    /// Iteration boundary the rebalance was applied at.
    pub iteration: u32,
    /// Virtual instant the transfer started, ns.
    pub at_ns: u64,
    /// Full per-rank layout before the rebalance.
    pub from_rows: Vec<usize>,
    /// Full per-rank layout after the rebalance.
    pub to_rows: Vec<usize>,
    /// Rows that changed owner.
    pub rows_moved: usize,
    /// The replan's predicted fractional makespan gain.
    pub predicted_gain: f64,
    /// Evaluation-function calls the replan spent.
    pub evals: u32,
}

/// What one rank reports after an adaptive run.
#[derive(Debug, Clone)]
pub struct AdaptiveOutcome {
    /// Loop timing and final check value. For a crashed rank `t1_ns` is
    /// the death time and `check` is NaN.
    pub result: RankResult,
    /// False for a rank that crashed.
    pub alive: bool,
    /// Checkpoint/rollback/redistribution/re-prediction/rebalance spans
    /// on this rank's virtual clock.
    pub spans: Vec<RecoverySpan>,
    /// Every rank this rank knows died, sorted.
    pub dead: Vec<usize>,
    /// Every committed mid-run rebalance, in order.
    pub rebalances: Vec<RebalanceEvent>,
    /// The detector replica's state-machine transitions.
    pub transitions: Vec<Transition>,
    /// The detector replica's full suspicion timeline.
    pub suspicion: Vec<SuspicionSample>,
    /// Detection latencies (first suspect sample to confirmation), ns.
    pub detection_latencies_ns: Vec<u64>,
    /// Final per-rank row layout (zero rows = dead or idle spare).
    pub final_rows: Vec<usize>,
}

/// Scratch shared between the driver body and the crash absorber.
struct Scratch {
    t0_ns: u64,
    spans: Vec<RecoverySpan>,
}

/// Per-member per-row compute-time estimates, maintained from the
/// exchanged heartbeat vector. Members that never reported (idle
/// spares) are estimated from the weight-normalized median of those
/// that did, so the replan's evaluation function can still price them.
fn prow_estimates(latest: &[f64], weights: &[f64]) -> Vec<f64> {
    let mut norms: Vec<f64> = latest
        .iter()
        .zip(weights)
        .filter(|&(&p, _)| p > 0.0)
        .map(|(&p, &w)| p * w)
        .collect();
    norms.sort_by(f64::total_cmp);
    let median_norm = if norms.is_empty() {
        1.0
    } else {
        norms[norms.len() / 2]
    };
    latest
        .iter()
        .zip(weights)
        .map(|(&p, &w)| {
            if p > 0.0 {
                p
            } else if w > 0.0 {
                median_norm / w
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

/// Deterministic replan shared by both adaptive drivers: decide whether
/// the detector's current view warrants a re-search, run it, and return
/// the committed full-cluster layout (or `None`). All inputs are
/// replica-identical across members, so the decision is too.
#[allow(clippy::too_many_arguments)]
fn consider_rebalance<R: Recorder>(
    comm: &mut Comm<'_, R>,
    cfg: &AdaptiveConfig,
    det: &PhiAccrualDetector,
    members: &[usize],
    layout: &[usize],
    weights: &[f64],
    latest_prow: &[f64],
    confirm_now: bool,
    last_adapt_it: &mut Option<u32>,
    it: u32,
) -> Option<(Vec<usize>, f64, u32)> {
    // Only *confirmed* slowdowns count toward the drift gate: acting on
    // a first suspect sample would rebalance (and reset baselines)
    // before the detector can confirm, letting transient blips move
    // data. Suspected members still shape crash-recovery weights.
    let drift = members
        .iter()
        .filter(|&&r| det.state(r) == HealthState::Degraded)
        .map(|&r| det.slow_ratio(r))
        .fold(1.0, f64::max);
    let cooled = last_adapt_it.is_none_or(|last| {
        it.checked_sub(last)
            .is_some_and(|d| d >= cfg.policy.cooldown_iters)
    });
    if !(confirm_now || cfg.policy.should_consider(drift)) || !cooled {
        return None;
    }
    *last_adapt_it = Some(it);

    // Member-indexed inputs: current rows, observed per-row times, and
    // effective weights (per-row *speed*, the reciprocal of per-row
    // time — a 4x-degraded member has a quarter of its healthy weight).
    let prow_all = prow_estimates(latest_prow, weights);
    let cur: Vec<usize> = members.iter().map(|&r| layout[r]).collect();
    let prow: Vec<f64> = members.iter().map(|&r| prow_all[r]).collect();
    let eff: Vec<f64> = prow
        .iter()
        .map(|&p| {
            if p > 0.0 && p.is_finite() {
                1.0 / p
            } else {
                0.0
            }
        })
        .collect();
    let mut eval = |rows: &[usize]| {
        rows.iter()
            .zip(&prow)
            .map(|(&r, &p)| r as f64 * p)
            .fold(0.0, f64::max)
    };
    let replan = cfg.policy.replan(&cur, &eff, &mut eval);
    // Every member pays for the evaluations it just ran — the model is
    // cheap, but it is not free.
    comm.compute(
        f64::from(replan.evals) * REPLAN_WORK_UNITS_PER_EVAL,
        u64::MAX,
    );
    if !cfg.policy.should_commit(&replan) {
        return None;
    }
    let mut new_layout = vec![0usize; layout.len()];
    for (i, &r) in members.iter().enumerate() {
        new_layout[r] = replan.rows[i];
    }
    if new_layout == layout {
        return None;
    }
    Some((new_layout, replan.gain(), replan.evals))
}

/// The adaptive wrapper around [`Jacobi`]: everything
/// [`crate::resilient::ResilientJacobi`] does, plus slowdown detection,
/// mid-run rebalancing, node rejoin, and hot-spare enlistment.
#[derive(Debug, Clone)]
pub struct AdaptiveJacobi {
    /// The underlying stencil application.
    pub app: Jacobi,
    /// Detector, policy, and checkpoint tunables.
    pub cfg: AdaptiveConfig,
}

impl AdaptiveJacobi {
    /// Run the adaptive driver on one rank.
    ///
    /// `structure` is the application's [`Jacobi::structure`] (no
    /// prefetch), built once by the caller for the whole run;
    /// `layout0` is the initial per-rank row layout — zero entries are
    /// idle hot spares; `weights` are the nominal per-rank CPU powers
    /// (the healthy baseline the effective weights correct); `store` is
    /// the shared reliable checkpoint storage.
    ///
    /// A scheduled crash of this rank is absorbed into a dead
    /// [`AdaptiveOutcome`], exactly like the resilient driver.
    pub fn run<R: Recorder>(
        &self,
        comm: &mut Comm<'_, R>,
        structure: &ProgramStructure,
        layout0: &[usize],
        iters: u32,
        weights: &[f64],
        store: &CheckpointStore,
    ) -> SimResult<AdaptiveOutcome> {
        let mut scratch = Scratch {
            t0_ns: 0,
            spans: Vec::new(),
        };
        match self.run_inner(
            comm,
            structure,
            layout0,
            iters,
            weights,
            store,
            &mut scratch,
        ) {
            Err(SimError::Crashed { at_ns, .. }) => Ok(AdaptiveOutcome {
                result: RankResult {
                    t0_ns: scratch.t0_ns.min(at_ns),
                    t1_ns: at_ns,
                    check: f64::NAN,
                },
                alive: false,
                spans: scratch.spans,
                dead: vec![comm.rank()],
                rebalances: Vec::new(),
                transitions: Vec::new(),
                suspicion: Vec::new(),
                detection_latencies_ns: Vec::new(),
                final_rows: vec![0; comm.size()],
            }),
            other => other,
        }
    }

    #[allow(clippy::too_many_arguments, clippy::too_many_lines)]
    fn run_inner<R: Recorder>(
        &self,
        comm: &mut Comm<'_, R>,
        structure: &ProgramStructure,
        layout0: &[usize],
        iters: u32,
        weights: &[f64],
        store: &CheckpointStore,
        scratch: &mut Scratch,
    ) -> SimResult<AdaptiveOutcome> {
        let rank = comm.rank();
        let n = comm.size();
        if n > 64 {
            return Err(SimError::InvalidConfig(format!(
                "adaptive driver supports at most 64 ranks, cluster has {n}"
            )));
        }
        if layout0.len() != n || weights.len() != n {
            return Err(SimError::InvalidConfig(format!(
                "adaptive driver got layout of {} and {} weights for {n} ranks",
                layout0.len(),
                weights.len()
            )));
        }
        let cols = self.app.cols;
        let total_rows = self.app.rows;
        if layout0.iter().sum::<usize>() != total_rows {
            return Err(SimError::InvalidConfig(format!(
                "layout distributes {} of {total_rows} rows",
                layout0.iter().sum::<usize>()
            )));
        }
        let k_interval = self.cfg.checkpoint_interval.max(1);

        let mut layout: Vec<usize> = layout0.to_vec();
        let mut members: Vec<usize> = (0..n).collect();
        let mut known_dead: Vec<usize> = Vec::new();
        let mut epoch: u32 = 0;

        let mut det = PhiAccrualDetector::new(n, self.cfg.detector);
        let mut latest_prow = vec![0.0f64; n];
        let mut rebalances: Vec<RebalanceEvent> = Vec::new();
        let mut last_adapt_it: Option<u32> = None;

        // ---- setup (zero-row tolerant) ------------------------------
        let m0 = layout[rank];
        let offset0: usize = layout[..rank].iter().sum();
        let mut u = Vec::new();
        let mut ckpt_disk_len = 0usize;
        if m0 > 0 {
            comm.ctx().disk.create(VAR_U, m0 * cols);
            {
                let mut init = Vec::with_capacity(m0 * cols);
                for r in 0..m0 {
                    init.extend(self.app.initial_row(offset0 + r, cols));
                }
                comm.ctx().disk.store(VAR_U, init);
            }
            let plans = rank_plans(comm, structure, m0, 0.0, &[]);
            if !plans[&VAR_U].in_core {
                return Err(SimError::InvalidConfig(format!(
                    "adaptive jacobi driver requires the local share to fit in memory \
                     (rank {rank}: {m0} rows x {cols} cols do not)"
                )));
            }
            u = vec![0.0; m0 * cols];
            comm.file_read(VAR_U, 0, &mut u)?;
            comm.ctx().disk.create(VAR_CKPT, m0 * cols);
            ckpt_disk_len = m0 * cols;
        }
        let mut first_row = if u.is_empty() {
            Vec::new()
        } else {
            u[..cols].to_vec()
        };
        let mut last_row = if u.is_empty() {
            Vec::new()
        } else {
            u[u.len() - cols..].to_vec()
        };

        let mut pending_observed = ft_allreduce_among(comm, &members, ReduceOp::Sum, &mut [0.0])?;
        let t0 = comm.ctx_ref().now().as_nanos();
        scratch.t0_ns = t0;
        let mut residual = 0.0;

        let mut it = 0u32;
        while it < iters {
            comm.begin_iteration_ft(it)?;

            // ---- checkpoint every K iterations ----------------------
            if it.is_multiple_of(k_interval) {
                let cs = comm.ctx_ref().now().as_nanos();
                if !u.is_empty() {
                    if ckpt_disk_len != u.len() {
                        if ckpt_disk_len > 0 {
                            comm.ctx().disk.remove(VAR_CKPT);
                        }
                        comm.ctx().disk.create(VAR_CKPT, u.len());
                        ckpt_disk_len = u.len();
                    }
                    comm.file_write(VAR_CKPT, 0, &u)?;
                }
                store
                    .lock()
                    .expect("checkpoint store")
                    .entry(rank)
                    .or_default()
                    .push(Checkpoint {
                        iteration: it,
                        layout: layout.clone(),
                        data: u.clone(),
                    });
                scratch.spans.push(RecoverySpan {
                    start_ns: cs,
                    end_ns: comm.ctx_ref().now().as_nanos(),
                    kind: RecoveryKind::Checkpoint,
                });
            }

            let mut observed: u64 = pending_observed;
            pending_observed = 0;
            let m = layout[rank];

            // ---- section 0: exchange boundary rows among members that
            // actually hold rows (spares sit this out) ----------------
            comm.begin_section(0);
            let active: Vec<usize> = members.iter().copied().filter(|&r| layout[r] > 0).collect();
            let zero = vec![0.0; cols];
            let (mut top_halo, mut bottom_halo) = (zero.clone(), zero.clone());
            if m > 0 {
                let ai = active
                    .iter()
                    .position(|&r| r == rank)
                    .expect("rank with rows must be active");
                let up = (ai > 0).then(|| active[ai - 1]);
                let down = (ai + 1 < active.len()).then(|| active[ai + 1]);
                if let Some(p) = up {
                    comm.send_f64s(p, tag_up(epoch), &first_row)?;
                }
                if let Some(p) = down {
                    comm.send_f64s(p, tag_down(epoch), &last_row)?;
                }
                if let Some(p) = up {
                    match comm.recv_f64s(p, tag_down(epoch)) {
                        Ok(v) => top_halo = v,
                        Err(SimError::PeerDead { peer, .. }) => observed |= 1u64 << peer,
                        Err(e) => return Err(e),
                    }
                }
                if let Some(p) = down {
                    match comm.recv_f64s(p, tag_up(epoch)) {
                        Ok(v) => bottom_halo = v,
                        Err(SimError::PeerDead { peer, .. }) => observed |= 1u64 << peer,
                        Err(e) => return Err(e),
                    }
                }
            }
            comm.end_section(0);

            // ---- section 1: the sweep, timed for the progress report -
            comm.begin_section(1);
            comm.begin_stage(0);
            let sweep_start = comm.ctx_ref().now().as_nanos();
            let local_res = if observed == 0 && m > 0 {
                let res = self
                    .app
                    .sweep_in_core(comm, &mut u, &top_halo, &bottom_halo);
                first_row.copy_from_slice(&u[..cols]);
                last_row.copy_from_slice(&u[u.len() - cols..]);
                res
            } else {
                0.0
            };
            let sweep_ns = comm.ctx_ref().now().as_nanos() - sweep_start;
            comm.end_stage(0);
            comm.end_section(1);

            // ---- section 2: residual + heartbeat + agreement --------
            comm.begin_section(2);
            let mut acc = [local_res];
            observed |= ft_allreduce_among(comm, &members, ReduceOp::Sum, &mut acc)?;
            // Progress reports: each member fills its own slot with its
            // per-row sweep time; max-allreduce merges the vectors.
            let mut hb = vec![0.0f64; n];
            if m > 0 && observed == 0 {
                hb[rank] = sweep_ns as f64 / m as f64;
            }
            observed |= ft_allreduce_among(comm, &members, ReduceOp::Max, &mut hb)?;
            let agreed = agree_mask(comm, &members, observed)?;
            comm.end_section(2);
            comm.end_iteration(it);
            let now = comm.ctx_ref().now().as_nanos();

            if agreed != 0 {
                let newly_dead: Vec<usize> = members
                    .iter()
                    .copied()
                    .filter(|&r| agreed & (1u64 << r) != 0)
                    .collect();
                if !newly_dead.is_empty() {
                    // ---- crash-stop disambiguated: missed heartbeat -
                    for d in &newly_dead {
                        det.mark_dead(*d, it, now);
                    }
                    // ---- rollback ----------------------------------
                    let rb_start = now;
                    members.retain(|r| !newly_dead.contains(r));
                    for d in &newly_dead {
                        known_dead.push(*d);
                    }
                    known_dead.sort_unstable();
                    let (target, ckpt) = {
                        let guard = store.lock().expect("checkpoint store");
                        let my_hist = guard.get(&rank).expect("own checkpoint history");
                        let my_last = my_hist.last().expect("own checkpoint").iteration;
                        let target = newly_dead.iter().fold(my_last, |t, d| {
                            t.min(
                                guard
                                    .get(d)
                                    .and_then(|h| h.last())
                                    .map_or(0, |c| c.iteration),
                            )
                        });
                        let ckpt = my_hist
                            .iter()
                            .rev()
                            .find(|c| c.iteration == target)
                            .expect("checkpoint at rollback target")
                            .clone();
                        (target, ckpt)
                    };
                    let layout_old = ckpt.layout.clone();
                    if ckpt.data.is_empty() {
                        u = Vec::new();
                    } else {
                        if ckpt_disk_len != ckpt.data.len() {
                            if ckpt_disk_len > 0 {
                                comm.ctx().disk.remove(VAR_CKPT);
                            }
                            comm.ctx().disk.create(VAR_CKPT, ckpt.data.len());
                            ckpt_disk_len = ckpt.data.len();
                        }
                        comm.ctx().disk.store(VAR_CKPT, ckpt.data.clone());
                        u = vec![0.0; ckpt.data.len()];
                        comm.file_read(VAR_CKPT, 0, &mut u)?;
                    }
                    it = target;
                    let rb_end = comm.ctx_ref().now().as_nanos();
                    scratch.spans.push(RecoverySpan {
                        start_ns: rb_start,
                        end_ns: rb_end,
                        kind: RecoveryKind::Rollback,
                    });

                    // ---- redistribution by *effective* weights ------
                    // Apportion over the survivors with each weight
                    // corrected by the detector's slowdown estimate, so
                    // a degraded survivor is not handed a healthy
                    // node's share. Spares get >= 1 row: crash recovery
                    // enlists them automatically.
                    let survivor_weights: Vec<f64> = members
                        .iter()
                        .map(|&r| weights[r] / det.slow_ratio(r))
                        .collect();
                    let gb = GenBlock::apportion(total_rows, &survivor_weights);
                    let mut new_layout = vec![0usize; n];
                    for (i, &r) in members.iter().enumerate() {
                        new_layout[r] = gb.rows()[i];
                    }
                    self.apply_transfers(
                        comm,
                        &layout_old,
                        &new_layout,
                        &mut u,
                        epoch,
                        Some((store, &known_dead, target)),
                    )?;
                    layout = new_layout;
                    if !u.is_empty() {
                        first_row = u[..cols].to_vec();
                        last_row = u[u.len() - cols..].to_vec();
                    }
                    let rd_end = comm.ctx_ref().now().as_nanos();
                    scratch.spans.push(RecoverySpan {
                        start_ns: rb_end,
                        end_ns: rd_end,
                        kind: RecoveryKind::Redistribution,
                    });

                    // ---- re-prediction ------------------------------
                    if rank == members[0] {
                        comm.compute(REPREDICTION_WORK_UNITS, u64::MAX);
                    }
                    pending_observed |=
                        ft_allreduce_among(comm, &members, ReduceOp::Sum, &mut [0.0])?;
                    let rp_end = comm.ctx_ref().now().as_nanos();
                    scratch.spans.push(RecoverySpan {
                        start_ns: rd_end,
                        end_ns: rp_end,
                        kind: RecoveryKind::Reprediction,
                    });
                    epoch += 1;
                    // Shares changed: healthy baselines are stale.
                    det.reset_baselines();
                    last_adapt_it = Some(it);
                    continue;
                }
            }

            // ---- crash-free boundary: feed the detector replica -----
            let transitions = det.observe(it, now, &hb);
            for (r, &p) in hb.iter().enumerate() {
                if p > 0.0 {
                    latest_prow[r] = p;
                }
            }
            let confirm_now = transitions
                .iter()
                .any(|t| matches!(t.to, HealthState::Degraded | HealthState::Rejoined));
            if let Some((new_layout, gain, evals)) = consider_rebalance(
                comm,
                &self.cfg,
                &det,
                &members,
                &layout,
                weights,
                &latest_prow,
                confirm_now,
                &mut last_adapt_it,
                it,
            ) {
                let rb_start = comm.ctx_ref().now().as_nanos();
                self.apply_transfers(comm, &layout, &new_layout, &mut u, epoch, None)?;
                let moved = rows_moved(&transfer_plan_rows(&layout, &new_layout));
                rebalances.push(RebalanceEvent {
                    iteration: it,
                    at_ns: rb_start,
                    from_rows: layout.clone(),
                    to_rows: new_layout.clone(),
                    rows_moved: moved,
                    predicted_gain: gain,
                    evals,
                });
                layout = new_layout;
                if !u.is_empty() {
                    first_row = u[..cols].to_vec();
                    last_row = u[u.len() - cols..].to_vec();
                }
                scratch.spans.push(RecoverySpan {
                    start_ns: rb_start,
                    end_ns: comm.ctx_ref().now().as_nanos(),
                    kind: RecoveryKind::Rebalance,
                });
                epoch += 1;
                det.reset_baselines();
            }

            residual = acc[0];
            it += 1;
        }

        Ok(AdaptiveOutcome {
            result: RankResult {
                t0_ns: t0,
                t1_ns: comm.ctx_ref().now().as_nanos(),
                check: residual,
            },
            alive: true,
            spans: std::mem::take(&mut scratch.spans),
            dead: known_dead,
            rebalances,
            transitions: det.transitions().to_vec(),
            suspicion: det.timeline().to_vec(),
            detection_latencies_ns: det.detection_latencies_ns().to_vec(),
            final_rows: layout,
        })
    }

    /// Execute a transfer plan from `layout_old` to `new_layout`,
    /// replacing `u` with this rank's new block. When `crash` is set,
    /// blocks owned by known-dead ranks are fetched from reliable
    /// checkpoint storage at local-disk cost; a live-state rebalance
    /// passes `None` and every block travels as a message.
    fn apply_transfers<R: Recorder>(
        &self,
        comm: &mut Comm<'_, R>,
        layout_old: &[usize],
        new_layout: &[usize],
        u: &mut Vec<f64>,
        epoch: u32,
        crash: Option<(&CheckpointStore, &[usize], u32)>,
    ) -> SimResult<()> {
        let rank = comm.rank();
        let cols = self.app.cols;
        let plan = transfer_plan_rows(layout_old, new_layout);
        let my_old_off: usize = layout_old[..rank].iter().sum();
        let my_new_off: usize = new_layout[..rank].iter().sum();
        for t in &plan {
            if t.from == rank && t.to != rank {
                let s = (t.global_start - my_old_off) * cols;
                comm.send_f64s(t.to, tag_redist(epoch), &u[s..s + t.rows * cols])?;
            }
        }
        let mut nu = vec![0.0; new_layout[rank] * cols];
        for t in &plan {
            if t.to != rank {
                continue;
            }
            let dst = (t.global_start - my_new_off) * cols;
            let data: Vec<f64> = if t.from == rank {
                let s = (t.global_start - my_old_off) * cols;
                u[s..s + t.rows * cols].to_vec()
            } else if let Some((store, _, target)) =
                crash.filter(|(_, dead, _)| dead.contains(&t.from))
            {
                let blob = dead_block(store, &self.app, t.from, target, layout_old, cols);
                let dead_off: usize = layout_old[..t.from].iter().sum();
                let s = (t.global_start - dead_off) * cols;
                let want = blob[s..s + t.rows * cols].to_vec();
                comm.ctx().disk.create(VAR_FETCH, want.len());
                comm.ctx().disk.store(VAR_FETCH, want);
                let mut buf = vec![0.0; t.rows * cols];
                comm.file_read(VAR_FETCH, 0, &mut buf)?;
                comm.ctx().disk.remove(VAR_FETCH);
                buf
            } else {
                comm.recv_f64s(t.from, tag_redist(epoch))?
            };
            nu[dst..dst + t.rows * cols].copy_from_slice(&data);
        }
        *u = nu;
        Ok(())
    }
}

/// The adaptive wrapper around [`Cg`]: slowdown detection, mid-run
/// rebalancing, and rejoin for the reduction-only benchmark. Crash-stop
/// recovery is [`AdaptiveJacobi`]'s job — CG here demonstrates that the
/// detector/replan loop is application-shaped, not stencil-shaped.
///
/// A rebalance moves the live per-row solver state (`x` and the
/// residual) as messages and regenerates the receiver's matrix rows
/// locally (the matrix is hash-defined), charging the rebuilt share's
/// compulsory disk traffic.
#[derive(Debug, Clone)]
pub struct AdaptiveCg {
    /// The underlying CG application.
    pub app: Cg,
    /// Detector and policy tunables (the checkpoint interval is unused:
    /// this driver does not checkpoint).
    pub cfg: AdaptiveConfig,
}

impl AdaptiveCg {
    /// Run the adaptive CG driver on one rank. `layout0` may contain
    /// zero-row idle spares; `weights` are nominal CPU powers.
    #[allow(clippy::too_many_lines)]
    pub fn run<R: Recorder>(
        &self,
        comm: &mut Comm<'_, R>,
        layout0: &[usize],
        iters: u32,
        weights: &[f64],
    ) -> SimResult<AdaptiveOutcome> {
        let rank = comm.rank();
        let nr = comm.size();
        let n = self.app.n;
        if layout0.len() != nr || weights.len() != nr {
            return Err(SimError::InvalidConfig(format!(
                "adaptive cg got layout of {} and {} weights for {nr} ranks",
                layout0.len(),
                weights.len()
            )));
        }
        if layout0.iter().sum::<usize>() != n {
            return Err(SimError::InvalidConfig(format!(
                "layout distributes {} of {n} rows",
                layout0.iter().sum::<usize>()
            )));
        }
        let members: Vec<usize> = (0..nr).collect();
        let mut layout = layout0.to_vec();
        let mut det = PhiAccrualDetector::new(nr, self.cfg.detector);
        let mut latest_prow = vec![0.0f64; nr];
        let mut rebalances: Vec<RebalanceEvent> = Vec::new();
        let mut last_adapt_it: Option<u32> = None;
        let mut spans: Vec<RecoverySpan> = Vec::new();

        // ---- setup: my matrix share, in core ------------------------
        let mut m = layout[rank];
        let mut offset: usize = layout[..rank].iter().sum();
        let (mut flat, mut offsets, b_local) = self.build_share(comm, offset, m, true)?;
        let mut x = vec![0.0; m];
        let mut rr = b_local;
        let mut q = vec![0.0; m];
        let mut p_full = vec![0.0; n];
        p_full[offset..offset + m].copy_from_slice(&rr);
        allreduce(comm, ReduceOp::Sum, &mut p_full)?;
        let mut rz = {
            let mut acc = [rr.iter().map(|v| v * v).sum::<f64>()];
            allreduce(comm, ReduceOp::Sum, &mut acc)?;
            acc[0]
        };

        barrier(comm)?;
        let t0 = comm.ctx_ref().now().as_nanos();

        for it in 0..iters {
            comm.begin_iteration(it);

            // ---- section 0: q = A p and p.q, timed ------------------
            comm.begin_section(0);
            comm.begin_stage(0);
            let mv_start = comm.ctx_ref().now().as_nanos();
            if m > 0 {
                self.matvec_in_core(comm, &flat, &offsets, m, &p_full, &mut q);
            }
            let mv_ns = comm.ctx_ref().now().as_nanos() - mv_start;
            comm.end_stage(0);
            let pq = {
                let mut acc = [(0..m).map(|i| p_full[offset + i] * q[i]).sum::<f64>()];
                allreduce(comm, ReduceOp::Sum, &mut acc)?;
                acc[0]
            };
            comm.end_section(0);
            let alpha = rz / pq;

            // ---- section 1: update x, r; new residual norm ----------
            comm.begin_section(1);
            comm.begin_stage(0);
            let mut rz_local = 0.0;
            for i in 0..m {
                x[i] += alpha * p_full[offset + i];
                rr[i] -= alpha * q[i];
                rz_local += rr[i] * rr[i];
            }
            if m > 0 {
                comm.compute(3.0 * m as f64, (3 * m * 8) as u64);
            }
            comm.end_stage(0);
            let rz_new = {
                let mut acc = [rz_local];
                allreduce(comm, ReduceOp::Sum, &mut acc)?;
                acc[0]
            };
            comm.end_section(1);
            let beta = rz_new / rz;
            rz = rz_new;

            // ---- section 2: p = r + beta p; reassemble; heartbeat ---
            comm.begin_section(2);
            comm.begin_stage(0);
            let p_old: Vec<f64> = p_full[offset..offset + m].to_vec();
            for slot in p_full.iter_mut() {
                *slot = 0.0;
            }
            for i in 0..m {
                p_full[offset + i] = rr[i] + beta * p_old[i];
            }
            if m > 0 {
                comm.compute(m as f64, (m * 8) as u64);
            }
            comm.end_stage(0);
            allreduce(comm, ReduceOp::Sum, &mut p_full)?;
            let mut hb = vec![0.0f64; nr];
            if m > 0 {
                hb[rank] = mv_ns as f64 / m as f64;
            }
            allreduce(comm, ReduceOp::Max, &mut hb)?;
            comm.end_section(2);
            comm.end_iteration(it);
            let now = comm.ctx_ref().now().as_nanos();

            // ---- detector replica + rebalance -----------------------
            let transitions = det.observe(it, now, &hb);
            for (r, &p) in hb.iter().enumerate() {
                if p > 0.0 {
                    latest_prow[r] = p;
                }
            }
            let confirm_now = transitions
                .iter()
                .any(|t| matches!(t.to, HealthState::Degraded | HealthState::Rejoined));
            if let Some((new_layout, gain, evals)) = consider_rebalance(
                comm,
                &self.cfg,
                &det,
                &members,
                &layout,
                weights,
                &latest_prow,
                confirm_now,
                &mut last_adapt_it,
                it,
            ) {
                let rb_start = comm.ctx_ref().now().as_nanos();
                let plan = transfer_plan_rows(&layout, &new_layout);
                let my_new_off: usize = new_layout[..rank].iter().sum();
                // Live solver state travels as [x rows | r rows].
                for t in &plan {
                    if t.from == rank && t.to != rank {
                        let s = t.global_start - offset;
                        let mut msg = x[s..s + t.rows].to_vec();
                        msg.extend_from_slice(&rr[s..s + t.rows]);
                        comm.send_f64s(t.to, tag_redist(it), &msg)?;
                    }
                }
                let m_new = new_layout[rank];
                let mut nx = vec![0.0; m_new];
                let mut nrr = vec![0.0; m_new];
                for t in &plan {
                    if t.to != rank {
                        continue;
                    }
                    let dst = t.global_start - my_new_off;
                    if t.from == rank {
                        let s = t.global_start - offset;
                        nx[dst..dst + t.rows].copy_from_slice(&x[s..s + t.rows]);
                        nrr[dst..dst + t.rows].copy_from_slice(&rr[s..s + t.rows]);
                    } else {
                        let msg = comm.recv_f64s(t.from, tag_redist(it))?;
                        nx[dst..dst + t.rows].copy_from_slice(&msg[..t.rows]);
                        nrr[dst..dst + t.rows].copy_from_slice(&msg[t.rows..]);
                    }
                }
                let moved = rows_moved(&plan);
                rebalances.push(RebalanceEvent {
                    iteration: it,
                    at_ns: rb_start,
                    from_rows: layout.clone(),
                    to_rows: new_layout.clone(),
                    rows_moved: moved,
                    predicted_gain: gain,
                    evals,
                });
                layout = new_layout;
                m = m_new;
                offset = layout[..rank].iter().sum();
                x = nx;
                rr = nrr;
                q = vec![0.0; m];
                // Rebuild the matrix share for the new interval; the
                // pattern is hash-defined, so regeneration is local,
                // but the compulsory read of the new share is charged.
                comm.ctx().disk.remove(VAR_A);
                let (nf, no, _) = self.build_share(comm, offset, m, true)?;
                flat = nf;
                offsets = no;
                spans.push(RecoverySpan {
                    start_ns: rb_start,
                    end_ns: comm.ctx_ref().now().as_nanos(),
                    kind: RecoveryKind::Rebalance,
                });
                det.reset_baselines();
            }
        }
        let t1 = comm.ctx_ref().now().as_nanos();

        // Untimed verification: distance of x from the all-ones vector.
        let mut err = [(0..m).map(|i| (x[i] - 1.0) * (x[i] - 1.0)).sum::<f64>()];
        allreduce(comm, ReduceOp::Sum, &mut err)?;

        Ok(AdaptiveOutcome {
            result: RankResult {
                t0_ns: t0,
                t1_ns: t1,
                check: err[0].sqrt(),
            },
            alive: true,
            spans,
            dead: Vec::new(),
            rebalances,
            transitions: det.transitions().to_vec(),
            suspicion: det.timeline().to_vec(),
            detection_latencies_ns: det.detection_latencies_ns().to_vec(),
            final_rows: layout,
        })
    }

    /// Generate rows `[offset, offset + m)` of the matrix, store them on
    /// the local disk under [`VAR_A`], and (when `charge_read`) pay the
    /// compulsory read that brings the share in core. Returns the
    /// interleaved data, the per-row element offsets, and `b = A·1`
    /// restricted to the share.
    fn build_share<R: Recorder>(
        &self,
        comm: &mut Comm<'_, R>,
        offset: usize,
        m: usize,
        charge_read: bool,
    ) -> SimResult<(Vec<f64>, Vec<usize>, Vec<f64>)> {
        let (flat, offsets, b_local) = self.app.share(offset, m);
        if !flat.is_empty() {
            comm.ctx().disk.store(VAR_A, flat.clone());
            if charge_read {
                let mut buf = vec![0.0; flat.len()];
                comm.file_read(VAR_A, 0, &mut buf)?;
            }
        }
        Ok((flat, offsets, b_local))
    }

    fn matvec_in_core<R: Recorder>(
        &self,
        comm: &mut Comm<'_, R>,
        flat: &[f64],
        offsets: &[usize],
        rows: usize,
        p_full: &[f64],
        q: &mut [f64],
    ) {
        let mut nnz = 0usize;
        for i in 0..rows {
            let (lo, hi) = (offsets[i], offsets[i + 1]);
            let mut acc = 0.0;
            let mut k = lo;
            while k < hi {
                let c = flat[k] as usize;
                acc += flat[k + 1] * p_full[c];
                k += 2;
            }
            q[i] = acc;
            nnz += (hi - lo) / 2;
        }
        comm.compute(nnz as f64, (flat.len() * 8) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilient::new_checkpoint_store;
    use mheta_mpi::{run_app, ExecMode, NullRecorder, RunOptions};
    use mheta_sim::{ClusterSpec, CrashSpec, DegradeSpec, RecoverSpec};

    fn quiet(n: usize) -> ClusterSpec {
        let mut s = ClusterSpec::homogeneous(n);
        s.noise.amplitude = 0.0;
        s
    }

    fn run_adaptive_raw(spec: &ClusterSpec, layout0: &[usize], iters: u32) -> Vec<AdaptiveOutcome> {
        let driver = AdaptiveJacobi {
            app: Jacobi::small(),
            cfg: AdaptiveConfig::default(),
        };
        let weights: Vec<f64> = spec.nodes.iter().map(|nd| nd.cpu_power).collect();
        let store = new_checkpoint_store();
        let structure = driver.app.structure(false);
        run_app(
            spec,
            RunOptions {
                tracing: false,
                mode: ExecMode::Normal,
            },
            |_| NullRecorder,
            |comm| driver.run(comm, &structure, layout0, iters, &weights, &store),
        )
        .unwrap()
        .results
    }

    fn resilient_residual(n: usize, iters: u32) -> f64 {
        use crate::resilient::ResilientJacobi;
        let spec = quiet(n);
        let app = Jacobi::small();
        let dist = GenBlock::block(app.rows, n);
        let weights: Vec<f64> = spec.nodes.iter().map(|nd| nd.cpu_power).collect();
        let store = new_checkpoint_store();
        let driver = ResilientJacobi { app };
        let structure = driver.app.structure(false);
        run_app(
            &spec,
            RunOptions {
                tracing: false,
                mode: ExecMode::Normal,
            },
            |_| NullRecorder,
            |comm| driver.run(comm, &structure, &dist, iters, 4, &weights, &store),
        )
        .unwrap()
        .results[0]
            .result
            .check
    }

    #[test]
    fn fault_free_run_never_rebalances() {
        let spec = quiet(4);
        let outcomes = run_adaptive_raw(&spec, &[16, 16, 16, 16], 10);
        let want = resilient_residual(4, 10);
        for o in &outcomes {
            assert!(o.alive);
            assert!(o.rebalances.is_empty(), "{:?}", o.rebalances);
            assert!(o.transitions.is_empty(), "{:?}", o.transitions);
            assert_eq!(o.final_rows, vec![16, 16, 16, 16]);
            assert_eq!(o.result.check, want);
        }
    }

    #[test]
    fn degrade_is_detected_and_sheds_rows() {
        let mut spec = quiet(4);
        spec.faults
            .degrades
            .push(DegradeSpec::at_iteration(1, 6, 4.0));
        let outcomes = run_adaptive_raw(&spec, &[16, 16, 16, 16], 24);
        let crash_free = resilient_residual(4, 24);
        for o in &outcomes {
            assert!(o.alive);
            assert!(!o.rebalances.is_empty(), "degrade must trigger a rebalance");
            assert!(
                o.final_rows[1] < 16,
                "slow member must shed rows: {:?}",
                o.final_rows
            );
            assert!(o
                .transitions
                .iter()
                .any(|t| t.member == 1 && t.to == HealthState::Degraded));
            assert_eq!(o.detection_latencies_ns.len(), 1);
            let rel = (o.result.check - crash_free).abs() / crash_free.max(1e-30);
            assert!(rel < 1e-9, "residual drifted: rel {rel}");
            assert!(o
                .spans
                .iter()
                .any(|s| s.kind == RecoveryKind::Rebalance && s.len_ns() > 0));
        }
        // All ranks agree on every rebalance decision (deterministic
        // replicas); only the local-clock timestamps differ.
        for o in &outcomes[1..] {
            assert_eq!(o.rebalances.len(), outcomes[0].rebalances.len());
            for (a, b) in o.rebalances.iter().zip(&outcomes[0].rebalances) {
                assert_eq!(a.iteration, b.iteration);
                assert_eq!(a.from_rows, b.from_rows);
                assert_eq!(a.to_rows, b.to_rows);
                assert_eq!(a.evals, b.evals);
            }
        }
    }

    #[test]
    fn recovery_rejoins_and_regains_rows() {
        let mut spec = quiet(4);
        spec.faults
            .degrades
            .push(DegradeSpec::at_iteration(2, 5, 5.0).recovering(RecoverSpec::at_iteration(14)));
        let outcomes = run_adaptive_raw(&spec, &[16, 16, 16, 16], 30);
        let o = &outcomes[0];
        assert!(o
            .transitions
            .iter()
            .any(|t| t.member == 2 && t.to == HealthState::Rejoined));
        let shed = o.rebalances.first().expect("degrade rebalance").to_rows[2];
        assert!(shed < 16, "degraded member sheds: {shed}");
        assert!(
            o.final_rows[2] > shed,
            "rejoined member regains rows: {} vs shed {shed}",
            o.final_rows[2]
        );
        assert!(o.rebalances.len() >= 2, "shed and regain rebalances");
    }

    #[test]
    fn hot_spare_is_enlisted_on_rebalance() {
        let mut spec = quiet(4);
        spec.faults
            .degrades
            .push(DegradeSpec::at_iteration(0, 6, 4.0));
        // Rank 3 starts as an idle spare with zero rows.
        let outcomes = run_adaptive_raw(&spec, &[22, 21, 21, 0], 24);
        for o in &outcomes {
            assert!(o.alive);
            assert!(
                o.final_rows[3] > 0,
                "spare must be enlisted: {:?}",
                o.final_rows
            );
            assert!(o.final_rows[0] < 22, "slow member sheds");
        }
        let crash_free = resilient_residual(4, 24);
        let rel = (outcomes[0].result.check - crash_free).abs() / crash_free.max(1e-30);
        assert!(rel < 1e-9, "rel {rel}");
    }

    #[test]
    fn crash_recovery_still_works_and_marks_dead() {
        let mut spec = quiet(4);
        spec.faults.crashes = vec![CrashSpec::at_iteration(2, 5)];
        spec.faults.checkpoint_interval = 4;
        let outcomes = run_adaptive_raw(&spec, &[16, 16, 16, 16], 10);
        let crash_free = resilient_residual(4, 10);
        assert!(!outcomes[2].alive);
        for (r, o) in outcomes.iter().enumerate() {
            if r == 2 {
                continue;
            }
            assert!(o.alive, "rank {r}");
            assert_eq!(o.dead, vec![2]);
            assert_eq!(o.final_rows[2], 0);
            assert!(o
                .transitions
                .iter()
                .any(|t| t.member == 2 && t.to == HealthState::Dead));
            let rel = (o.result.check - crash_free).abs() / crash_free.max(1e-30);
            assert!(rel < 1e-9, "rank {r}: rel {rel}");
        }
    }

    #[test]
    fn crash_redistribution_uses_effective_weights() {
        // Rank 1 is 4x degraded before rank 3 crashes: the survivors'
        // post-crash apportionment must hand the degraded rank a
        // smaller share than its healthy peers of equal nominal power.
        let mut spec = quiet(4);
        spec.faults
            .degrades
            .push(DegradeSpec::at_iteration(1, 4, 4.0));
        spec.faults.crashes = vec![CrashSpec::at_iteration(3, 9)];
        spec.faults.checkpoint_interval = 4;
        let outcomes = run_adaptive_raw(&spec, &[16, 16, 16, 16], 16);
        let o = &outcomes[0];
        assert!(o.alive);
        assert_eq!(o.final_rows[3], 0);
        assert!(
            o.final_rows[1] < o.final_rows[0],
            "degraded survivor must carry less: {:?}",
            o.final_rows
        );
    }

    #[test]
    fn adaptive_runs_are_deterministic() {
        let go = || {
            let mut spec = quiet(4);
            spec.faults
                .degrades
                .push(DegradeSpec::at_iteration(1, 6, 4.0));
            run_adaptive_raw(&spec, &[16, 16, 16, 16], 20)
        };
        let a = go();
        let b = go();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.result.t0_ns, y.result.t0_ns);
            assert_eq!(x.result.t1_ns, y.result.t1_ns);
            assert_eq!(x.rebalances, y.rebalances);
            assert_eq!(x.transitions, y.transitions);
            assert_eq!(x.final_rows, y.final_rows);
        }
    }

    #[test]
    fn adaptive_cg_detects_and_rebalances() {
        let mut spec = quiet(4);
        spec.faults
            .degrades
            .push(DegradeSpec::at_iteration(1, 5, 4.0).recovering(RecoverSpec::at_iteration(16)));
        let driver = AdaptiveCg {
            app: Cg::small(),
            cfg: AdaptiveConfig::default(),
        };
        let weights: Vec<f64> = spec.nodes.iter().map(|nd| nd.cpu_power).collect();
        let outcomes = run_app(
            &spec,
            RunOptions {
                tracing: false,
                mode: ExecMode::Normal,
            },
            |_| NullRecorder,
            |comm| driver.run(comm, &[24, 24, 24, 24], 28, &weights),
        )
        .unwrap()
        .results;
        // Convergence check: same solution quality as the plain driver.
        let plain = {
            let app = Cg::small();
            let dist = GenBlock::block(96, 4);
            let structure = app.structure();
            run_app(
                &quiet(4),
                RunOptions {
                    tracing: false,
                    mode: ExecMode::Normal,
                },
                |_| NullRecorder,
                |comm| app.run(comm, &structure, &dist, 28),
            )
            .unwrap()
            .results[0]
                .check
        };
        for o in &outcomes {
            assert!(!o.rebalances.is_empty(), "cg must rebalance under degrade");
            assert!(o.final_rows.iter().sum::<usize>() == 96);
            assert!(o
                .transitions
                .iter()
                .any(|t| t.member == 1 && t.to == HealthState::Degraded));
            let rel = (o.result.check - plain).abs() / plain.max(1e-30);
            assert!(rel < 1e-6, "check drifted: {} vs {plain}", o.result.check);
        }
        // Shed under degrade, regained after rejoin.
        let o = &outcomes[0];
        let shed = o.rebalances.first().unwrap().to_rows[1];
        assert!(shed < 24, "shed: {shed}");
    }

    #[test]
    fn adaptive_cg_fault_free_is_quiet() {
        let spec = quiet(3);
        let driver = AdaptiveCg {
            app: Cg::small(),
            cfg: AdaptiveConfig::default(),
        };
        let weights: Vec<f64> = spec.nodes.iter().map(|nd| nd.cpu_power).collect();
        let outcomes = run_app(
            &spec,
            RunOptions {
                tracing: false,
                mode: ExecMode::Normal,
            },
            |_| NullRecorder,
            |comm| driver.run(comm, &[32, 32, 32], 12, &weights),
        )
        .unwrap()
        .results;
        for o in &outcomes {
            assert!(o.rebalances.is_empty());
            assert!(o.transitions.is_empty());
            assert_eq!(o.final_rows, vec![32, 32, 32]);
        }
    }
}
