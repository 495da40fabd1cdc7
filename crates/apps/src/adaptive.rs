//! Fault-tolerant drivers: checkpoint/restart with survivor
//! redistribution, and mid-run GEN_BLOCK rebalancing on top of the
//! phi-accrual failure detector and the online re-search policy.
//!
//! # The crash-tolerant Jacobi loop
//!
//! One loop runs the same in-core stencil as [`crate::jacobi`] and
//! tolerates crash-stop rank failures:
//!
//! 1. **Checkpoint** — every `K` iterations (including iteration 0)
//!    each rank writes its local block to a versioned checkpoint file
//!    ([`VAR_CKPT`], a real `file_write` at disk cost) and deposits the
//!    blob in a host-side reliable store standing in for a parallel
//!    checkpoint filesystem that survives node loss.
//! 2. **Detect + agree** — halo receives and the residual reduction use
//!    the fault-tolerant collectives, so a dead peer resolves as a
//!    typed observation instead of a hang; an extra
//!    [`mheta_mpi::agree_mask`] round at every iteration boundary ORs
//!    all observations over the binomial tree so survivors converge on
//!    the dead-set.
//! 3. **Rollback** — survivors restore their block from the newest
//!    checkpoint no later than any dead rank's last one (a crash
//!    between a checkpoint and its detection can leave the crasher one
//!    interval behind).
//! 4. **Redistribute** — the dead rank's rows are re-spread over the
//!    survivors by the one plan executor,
//!    [`crate::redistribute::move_rows`]: survivor blocks travel as
//!    messages, the dead rank's block is fetched from
//!    reliable checkpoint storage at local-disk cost ([`VAR_FETCH`]).
//! 5. **Re-predict** — the leader charges the cost of re-running the
//!    MHETA predictor on the shrunken cluster; the host-side model
//!    rebuild lives in [`crate::harness::repredict_after_crash`].
//!
//! Replayed iterations recompute bit-identical values, so the final
//! residual matches a crash-free run. Halo and transfer tags carry a
//! redistribution epoch: a rank that aborted an exchange early may
//! leave a live neighbor's message undelivered, and the epoch bump
//! orphans such stale messages instead of letting a replayed receive
//! consume them.
//!
//! Scope: one crash per iteration converges deterministically;
//! staggered crashes in different iterations are fully supported. A
//! crash landing inside the agreement round itself, or a crash during
//! another rank's recovery, can leave survivor views divergent and
//! surfaces as a typed error rather than a silent hang.
//!
//! # The replica
//!
//! That loop answers "a rank died" ([`crate::harness::run_resilient`]
//! runs it as is). Run with a **replica**
//! ([`crate::harness::run_adaptive`]) it also answers the harder
//! questions of "a rank slowed down" and "a rank came back". Each
//! iteration every member appends a **progress report** — its per-row
//! sweep compute time, which is invariant under GEN_BLOCK rebalancing
//! (rows move, per-row speed does not) — to a second fault-tolerant
//! max-allreduce, so all members see the identical sample vector. Every
//! member feeds that vector into an identical [`PhiAccrualDetector`]
//! replica and, when the detector confirms a `Degraded` or `Rejoined`
//! transition (or the observed drift passes
//! [`online::DRIFT_THRESHOLD`]), runs the identical budget-capped
//! [`online::replan`]. Deterministic replicas reach identical
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
//! A rebalance moves *live* state and needs no rollback, while a crash
//! loses state and does. The two compose: the detector marks
//! agreed-dead members (disambiguating "slow" from "gone"), and
//! post-crash redistribution apportions by slowdown-corrected effective
//! weights instead of nominal CPU powers.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex};

use mheta_core::ProgramStructure;
use mheta_dist::{online, GenBlock};
use mheta_mpi::{
    agree_mask, allreduce, barrier, ft_allreduce_among, Comm, HealthState, PhiAccrualDetector,
    Recorder, ReduceOp, SuspicionSample, Transition,
};
use mheta_sim::{RecoveryKind, RecoverySpan, SimError, SimResult, VarId};

use crate::app::{rank_plans, RankResult};
use crate::cg::{spmv, Cg, VAR_A};
use crate::jacobi::{Jacobi, VAR_U};
use crate::redistribute::move_rows;

/// Variable ID of the versioned checkpoint file.
pub const VAR_CKPT: VarId = 0x71;
/// Variable ID of the scratch file used to charge the disk cost of
/// fetching a dead rank's block from reliable checkpoint storage.
pub const VAR_FETCH: VarId = 0x72;

/// Application work units the leader charges for re-running the MHETA
/// predictor on the shrunken cluster after a crash.
pub const REPREDICTION_WORK_UNITS: f64 = 2_000.0;

/// Application work units each member charges per evaluation-function
/// call of a replan — the "milliseconds, not minutes" cost that makes
/// online re-search affordable in the first place.
pub const REPLAN_WORK_UNITS_PER_EVAL: f64 = 25.0;

/// Checkpoint interval `K` of a fault-tolerant run whose cluster spec
/// names none (`FaultSpec::checkpoint_interval` = 0).
pub const CHECKPOINT_INTERVAL: u32 = 4;

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

fn now<R: Recorder>(comm: &Comm<'_, R>) -> u64 {
    comm.ctx_ref().now().as_nanos()
}

/// Record the recovery span that began at `start_ns` and ends now;
/// returns the end, where the next phase's span begins.
fn close_span<R: Recorder>(
    spans: &mut Vec<RecoverySpan>,
    comm: &Comm<'_, R>,
    kind: RecoveryKind,
    start_ns: u64,
) -> u64 {
    let end_ns = now(comm);
    spans.push(RecoverySpan {
        start_ns,
        end_ns,
        kind,
    });
    end_ns
}

/// Reject a layout that does not give each of the `n` ranks one share,
/// or does not distribute exactly `total` rows: the one rule every
/// entry point that runs an application under a layout applies.
pub(crate) fn check_layout(n: usize, layout: &[usize], total: usize) -> SimResult<()> {
    let rows: usize = layout.iter().sum();
    if layout.len() != n || rows != total {
        return Err(SimError::InvalidConfig(format!(
            "layout {layout:?} does not distribute {total} rows over {n} ranks"
        )));
    }
    Ok(())
}

/// Reject a weight vector that does not give each of the `n` ranks one.
fn check_weights(n: usize, weights: &[f64]) -> SimResult<()> {
    if weights.len() != n {
        let msg = format!("{} weights for {n} ranks", weights.len());
        return Err(SimError::InvalidConfig(msg));
    }
    Ok(())
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

/// What one rank reports after a fault-tolerant run.
#[derive(Debug, Clone, Default)]
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
    /// The last rollback target, if any recovery happened.
    pub rollback_iteration: Option<u32>,
    /// Virtual time the last recovery finished (0 when none happened).
    pub resume_ns: u64,
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

/// One rank's checkpoint: enough to restart the iteration it was taken
/// at, including the full cluster layout of that moment (rollback after
/// a later recovery must restore the layout too).
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Iteration the checkpoint was taken at (state *before* the
    /// iteration's sweep).
    pub iteration: u32,
    /// Per-rank row layout at checkpoint time (zero rows = dead).
    pub layout: Vec<usize>,
    /// The rank's local block, row-major.
    pub data: Vec<f64>,
}

/// Reliable checkpoint storage shared by all ranks, keyed by rank with
/// the full version history (survivors may need a checkpoint older than
/// their latest). Stands in for a parallel filesystem that survives
/// node loss; the virtual-time cost of touching it is charged through
/// [`VAR_CKPT`]/[`VAR_FETCH`] disk operations.
pub type CheckpointStore = Arc<Mutex<HashMap<usize, Vec<Checkpoint>>>>;

/// A fresh, empty checkpoint store.
#[must_use]
pub fn new_checkpoint_store() -> CheckpointStore {
    Arc::new(Mutex::new(HashMap::new()))
}

/// A dead rank's full block at the rollback target, from reliable
/// checkpoint storage — or synthesized from the deterministic
/// initializer when the rank died before its first checkpoint (only
/// possible at target 0, where the checkpoint state *is* the initial
/// state).
fn dead_block(
    store: &CheckpointStore,
    app: &Jacobi,
    dead: usize,
    target: u32,
    layout_old: &[usize],
) -> Vec<f64> {
    let guard = store.lock().expect("checkpoint store");
    if let Some(c) = guard
        .get(&dead)
        .and_then(|h| h.iter().rev().find(|c| c.iteration == target))
    {
        return c.data.clone();
    }
    debug_assert_eq!(
        target, 0,
        "missing checkpoint must mean pre-first-checkpoint"
    );
    initial_block(app, layout_old, dead)
}

/// Rank `rank`'s block of the initial grid under `layout`.
fn initial_block(app: &Jacobi, layout: &[usize], rank: usize) -> Vec<f64> {
    let first: usize = layout[..rank].iter().sum();
    let rows = first..first + layout[rank];
    rows.flat_map(|r| app.initial_row(r, app.cols)).collect()
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
    let median_norm = norms.get(norms.len() / 2).copied().unwrap_or(1.0);
    latest
        .iter()
        .zip(weights)
        .map(|(&p, &w)| match (p > 0.0, w > 0.0) {
            (true, _) => p,
            (false, true) => median_norm / w,
            (false, false) => f64::INFINITY,
        })
        .collect()
}

/// One member's replica of the adaptation state. Everything it is fed
/// is identical across members, so every replica reaches the same
/// decision at the same iteration boundary without communicating.
pub(crate) struct Replica {
    det: PhiAccrualDetector,
    /// Nominal per-rank CPU powers: the healthy baseline the observed
    /// per-row times correct.
    weights: Vec<f64>,
    latest_prow: Vec<f64>,
    rebalances: Vec<RebalanceEvent>,
    last_adapt_it: Option<u32>,
}

impl Replica {
    /// A replica over members of nominal CPU powers `weights`. With
    /// `adapt = false` it is the static baseline: the same heartbeat and
    /// detector timeline, but a detector that never suspects, so no
    /// replan ever runs.
    pub(crate) fn new(weights: &[f64], adapt: bool) -> Self {
        Replica {
            det: PhiAccrualDetector::new(weights.len(), adapt),
            weights: weights.to_vec(),
            latest_prow: vec![0.0; weights.len()],
            rebalances: Vec::new(),
            last_adapt_it: None,
        }
    }

    /// Feed a crash-free iteration's heartbeat vector to the detector,
    /// decide whether its view warrants a re-search, and run it. Returns
    /// the rebalance to execute, if any — drafted: [`Replica::commit`]
    /// fills in `at_ns` and `rows_moved` once the rows have moved.
    fn observe<R: Recorder>(
        &mut self,
        comm: &mut Comm<'_, R>,
        it: u32,
        hb: &[f64],
        members: &[usize],
        layout: &[usize],
    ) -> Option<RebalanceEvent> {
        let transitions = self.det.observe(it, now(comm), hb);
        for (slot, &p) in self.latest_prow.iter_mut().zip(hb) {
            if p > 0.0 {
                *slot = p;
            }
        }
        let confirm_now = transitions
            .iter()
            .any(|t| matches!(t.to, HealthState::Degraded | HealthState::Rejoined));
        // Only *confirmed* slowdowns count toward the drift gate: acting on
        // a first suspect sample would rebalance (and reset baselines)
        // before the detector can confirm, letting transient blips move
        // data. Suspected members still shape crash-recovery weights.
        let drift = members
            .iter()
            .filter(|&&r| self.det.state(r) == HealthState::Degraded)
            .map(|&r| self.det.slow_ratio(r))
            .fold(1.0, f64::max);
        let cooled = self.last_adapt_it.is_none_or(|last| {
            it.checked_sub(last)
                .is_some_and(|d| d >= online::COOLDOWN_ITERS)
        });
        if !(confirm_now || drift >= online::DRIFT_THRESHOLD) || !cooled {
            return None;
        }
        self.last_adapt_it = Some(it);

        // Member-indexed inputs: current rows, observed per-row times, and
        // effective weights (per-row *speed*, the reciprocal of per-row
        // time — a 4x-degraded member has a quarter of its healthy weight).
        let prow_all = prow_estimates(&self.latest_prow, &self.weights);
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
        let replan = online::replan(&cur, &eff, &mut eval);
        // Every member pays for the evaluations it just ran — the model is
        // cheap, but it is not free.
        comm.compute(
            f64::from(replan.evals) * REPLAN_WORK_UNITS_PER_EVAL,
            u64::MAX,
        );
        if !replan.commits() {
            return None;
        }
        let mut to_rows = vec![0usize; layout.len()];
        for (&r, &rows) in members.iter().zip(&replan.rows) {
            to_rows[r] = rows;
        }
        (to_rows != layout).then(|| RebalanceEvent {
            iteration: it,
            at_ns: 0,
            from_rows: layout.to_vec(),
            to_rows,
            rows_moved: 0,
            predicted_gain: replan.gain(),
            evals: replan.evals,
        })
    }

    /// Record a rebalance that began at `at_ns` and moved `rows_moved`
    /// rows. Shares changed, so the healthy baselines are stale.
    fn commit(&mut self, mut ev: RebalanceEvent, at_ns: u64, rows_moved: usize) {
        (ev.at_ns, ev.rows_moved) = (at_ns, rows_moved);
        self.rebalances.push(ev);
        self.det.reset_baselines();
    }

    /// A crash recovery: `newly_dead` missed the heartbeat of iteration
    /// `it`, at `at_ns` — crash-stop disambiguated from a slowdown — and
    /// the survivors resume at iteration `resume_it` under new shares.
    fn on_recovery(&mut self, newly_dead: &[usize], it: u32, at_ns: u64, resume_it: u32) {
        for &d in newly_dead {
            self.det.mark_dead(d, it, at_ns);
        }
        self.det.reset_baselines();
        self.last_adapt_it = Some(resume_it);
    }

    /// Write the adaptation history into the holder's outcome.
    fn report_into(self, out: &mut AdaptiveOutcome) {
        out.rebalances = self.rebalances;
        out.transitions = self.det.transitions().to_vec();
        out.suspicion = self.det.timeline().to_vec();
        out.detection_latencies_ns = self.det.detection_latencies_ns().to_vec();
    }
}

/// What every rank of one run of the crash-tolerant Jacobi loop is
/// given: `structure` is the application's [`Jacobi::structure`] (no
/// prefetch), built once for the whole run; `layout0` is the initial
/// per-rank row layout — zero entries are idle hot spares; `interval`
/// is the checkpoint interval `K` (at least 1); `weights` are the nominal per-rank
/// CPU powers (the healthy baseline the effective weights correct);
/// `store` is the shared reliable checkpoint storage.
pub(crate) struct JacobiLoop<'a> {
    pub app: &'a Jacobi,
    pub structure: &'a ProgramStructure,
    pub layout0: &'a [usize],
    pub iters: u32,
    pub interval: u32,
    pub weights: &'a [f64],
    pub store: &'a CheckpointStore,
}

impl JacobiLoop<'_> {
    /// Run the loop on one rank. Without a `replica` it is plain
    /// checkpoint/restart: no heartbeat collective, nominal weights in
    /// the post-crash apportionment, no detector and no rebalancing.
    pub(crate) fn run<R: Recorder>(
        &self,
        comm: &mut Comm<'_, R>,
        replica: Option<Replica>,
    ) -> SimResult<AdaptiveOutcome> {
        let n = comm.size();
        if n > 64 {
            return Err(SimError::InvalidConfig(format!(
                "fault-tolerant driver supports at most 64 ranks, cluster has {n}"
            )));
        }
        check_layout(n, self.layout0, self.app.rows)?;
        check_weights(n, self.weights)?;
        let mut run = JacobiRun {
            job: self,
            rank: comm.rank(),
            replica,
            layout: self.layout0.to_vec(),
            members: (0..n).collect(),
            epoch: 0,
            u: Vec::new(),
            spare: Vec::new(),
            observed: 0,
            out: AdaptiveOutcome::default(),
        };
        match run.drive(comm) {
            Ok(()) => {
                run.out.final_rows = run.layout;
                if let Some(rep) = run.replica {
                    rep.report_into(&mut run.out);
                }
                Ok(run.out)
            }
            // A scheduled crash of this rank is absorbed: it reports
            // itself dead, so cluster-wide runs complete normally.
            Err(SimError::Crashed { at_ns, .. }) => Ok(AdaptiveOutcome {
                result: RankResult {
                    t0_ns: run.out.result.t0_ns.min(at_ns),
                    t1_ns: at_ns,
                    check: f64::NAN,
                },
                spans: run.out.spans,
                dead: vec![run.rank],
                final_rows: vec![0; n],
                ..AdaptiveOutcome::default()
            }),
            Err(e) => Err(e),
        }
    }
}

/// The state of one rank's run of the crash-tolerant loop; its methods
/// are the loop's phases.
struct JacobiRun<'a> {
    job: &'a JacobiLoop<'a>,
    rank: usize,
    replica: Option<Replica>,
    /// Current per-rank rows; zero for the dead and for idle spares.
    layout: Vec<usize>,
    /// Live ranks, ascending.
    members: Vec<usize>,
    /// Redistributions so far; halo and transfer tags carry it.
    epoch: u32,
    /// This rank's block, row-major.
    u: Vec<f64>,
    /// The sweep's second block, swapped with `u` each sweep.
    spare: Vec<f64>,
    /// Mask of the deaths this rank has observed since the last
    /// agreement round — those seen while a recovery synchronized
    /// included, which is why it outlives an iteration.
    observed: u64,
    /// The outcome so far: loop start, residual, spans, dead set, last
    /// recovery.
    out: AdaptiveOutcome,
}

impl JacobiRun<'_> {
    /// Set up, then iterate to `iters`.
    fn drive<R: Recorder>(&mut self, comm: &mut Comm<'_, R>) -> SimResult<()> {
        self.set_up(comm)?;
        let mut it = 0u32;
        while it < self.job.iters {
            comm.begin_iteration_ft(it)?;
            if it.is_multiple_of(self.job.interval) {
                self.checkpoint(comm, it)?;
            }
            let (local_res, sweep_ns) = self.stencil(comm)?;
            let (sum, hb, agreed) = self.agree(comm, local_res, sweep_ns)?;
            comm.end_iteration(it);

            let newly_dead: Vec<usize> = self
                .members
                .iter()
                .copied()
                .filter(|&r| agreed & (1u64 << r) != 0)
                .collect();
            if !newly_dead.is_empty() {
                it = self.recover(comm, &newly_dead, it)?;
                continue;
            }
            let rebalance = self
                .replica
                .as_mut()
                .and_then(|rep| rep.observe(comm, it, &hb, &self.members, &self.layout));
            if let Some(ev) = rebalance {
                // Live state moves: no rollback.
                let start = now(comm);
                let moved = self.transfer(comm, ev.to_rows.clone(), None)?;
                close_span(&mut self.out.spans, comm, RecoveryKind::Rebalance, start);
                if let Some(rep) = &mut self.replica {
                    rep.commit(ev, start, moved);
                }
            }
            self.out.result.check = sum;
            it += 1;
        }
        self.out.result.t1_ns = now(comm);
        self.out.alive = true;
        Ok(())
    }

    /// Load this rank's share in core (zero-row tolerant) and
    /// synchronize on the loop start.
    fn set_up<R: Recorder>(&mut self, comm: &mut Comm<'_, R>) -> SimResult<()> {
        let (app, rank) = (self.job.app, self.rank);
        let (m0, cols) = (self.layout[rank], app.cols);
        if m0 > 0 {
            let init = initial_block(app, &self.layout, rank);
            comm.ctx().disk.store(VAR_U, init);
            let plans = rank_plans(comm, self.job.structure, m0, 0.0, &[]);
            if !plans[&VAR_U].in_core {
                return Err(SimError::InvalidConfig(format!(
                    "fault-tolerant jacobi driver requires the local share to fit in memory \
                     (rank {rank}: {m0} rows x {cols} cols do not)"
                )));
            }
            self.u = vec![0.0; m0 * cols];
            comm.file_read(VAR_U, 0, &mut self.u)?;
        }
        // Fault-tolerant barrier: a rank that dies during setup must not
        // hang the others before the loop even starts.
        self.observed = ft_allreduce_among(comm, &self.members, ReduceOp::Sum, &mut [0.0])?;
        self.out.result.t0_ns = now(comm);
        Ok(())
    }

    fn checkpoint<R: Recorder>(&mut self, comm: &mut Comm<'_, R>, it: u32) -> SimResult<()> {
        let start = now(comm);
        if !self.u.is_empty() {
            // (Re)created at the block's current length: shares change.
            comm.ctx().disk.create(VAR_CKPT, self.u.len());
            comm.file_write(VAR_CKPT, 0, &self.u)?;
        }
        let ckpt = Checkpoint {
            iteration: it,
            layout: self.layout.clone(),
            data: self.u.clone(),
        };
        let mut store = self.job.store.lock().expect("checkpoint store");
        store.entry(self.rank).or_default().push(ckpt);
        close_span(&mut self.out.spans, comm, RecoveryKind::Checkpoint, start);
        Ok(())
    }

    /// Sections 0 and 1, the stencil: exchange boundary rows among the
    /// members that hold rows (spares sit this out), then sweep, timed
    /// for the progress report. A dead neighbor is observed, its halo
    /// reads as zero and the sweep is skipped: the iteration is rolled
    /// back anyway. Returns the local residual and the sweep's duration.
    fn stencil<R: Recorder>(&mut self, comm: &mut Comm<'_, R>) -> SimResult<(f64, u64)> {
        comm.begin_section(0);
        let cols = self.job.app.cols;
        let (mut top_halo, mut bottom_halo) = (vec![0.0; cols], vec![0.0; cols]);
        if !self.u.is_empty() {
            // The nearest members on either side that hold rows.
            let holders = || self.members.iter().copied().filter(|&r| self.layout[r] > 0);
            let up = holders().rfind(|&r| r < self.rank);
            let down = holders().find(|&r| r > self.rank);
            let (t_up, t_down) = (tag_up(self.epoch), tag_down(self.epoch));
            if let Some(p) = up {
                comm.send_f64s(p, t_up, &self.u[..cols])?;
            }
            if let Some(p) = down {
                comm.send_f64s(p, t_down, &self.u[self.u.len() - cols..])?;
            }
            for (from, tag, halo) in [(up, t_down, &mut top_halo), (down, t_up, &mut bottom_halo)] {
                match from.map(|p| comm.recv_f64s(p, tag)) {
                    None => {}
                    Some(Ok(v)) => *halo = v,
                    Some(Err(SimError::PeerDead { peer, .. })) => self.observed |= 1u64 << peer,
                    Some(Err(e)) => return Err(e),
                }
            }
        }
        comm.end_section(0);

        comm.begin_section(1);
        comm.begin_stage(0);
        let start = now(comm);
        let mut local_res = 0.0;
        if self.observed == 0 && !self.u.is_empty() {
            let app = self.job.app;
            local_res =
                app.sweep_in_core(comm, &mut self.u, &mut self.spare, &top_halo, &bottom_halo);
        }
        let sweep_ns = now(comm) - start;
        comm.end_stage(0);
        comm.end_section(1);
        Ok((local_res, sweep_ns))
    }

    /// Section 2: the residual sum, the heartbeat exchange (which only a
    /// run with a replica pays for) and dead-set agreement. Returns the
    /// residual, the merged heartbeats and the agreed mask of deaths.
    fn agree<R: Recorder>(
        &mut self,
        comm: &mut Comm<'_, R>,
        local_res: f64,
        sweep_ns: u64,
    ) -> SimResult<(f64, Vec<f64>, u64)> {
        comm.begin_section(2);
        let mut acc = [local_res];
        self.observed |= ft_allreduce_among(comm, &self.members, ReduceOp::Sum, &mut acc)?;
        let mut hb = Vec::new();
        if self.replica.is_some() {
            // Progress reports: each member fills its own slot with its
            // per-row sweep time; max-allreduce merges the vectors.
            hb = vec![0.0f64; self.layout.len()];
            let m = self.layout[self.rank];
            if m > 0 && self.observed == 0 {
                hb[self.rank] = sweep_ns as f64 / m as f64;
            }
            self.observed |= ft_allreduce_among(comm, &self.members, ReduceOp::Max, &mut hb)?;
        }
        let agreed = agree_mask(comm, &self.members, std::mem::take(&mut self.observed))?;
        comm.end_section(2);
        Ok((acc[0], hb, agreed))
    }

    /// Crash-stop recovery after iteration `it`: roll back, redistribute
    /// the dead ranks' rows over the survivors, re-predict. Returns the
    /// iteration to resume from.
    fn recover<R: Recorder>(
        &mut self,
        comm: &mut Comm<'_, R>,
        newly_dead: &[usize],
        it: u32,
    ) -> SimResult<u32> {
        let detected_ns = now(comm);
        // Where the phase under way began: each span ends where the next begins.
        let mut at = detected_ns;
        self.members.retain(|r| !newly_dead.contains(r));
        self.out.dead.extend_from_slice(newly_dead);
        self.out.dead.sort_unstable();

        // Roll back to the newest checkpoint every rank — including the
        // dead — has a version of: block and cluster layout, at real
        // disk-read cost.
        let ckpt = {
            let guard = self.job.store.lock().expect("checkpoint store");
            let mine = guard.get(&self.rank).expect("own checkpoint history");
            let my_last = mine.last().expect("own checkpoint").iteration;
            let target = newly_dead.iter().fold(my_last, |t, d| {
                let theirs = guard.get(d).and_then(|h| h.last());
                t.min(theirs.map_or(0, |c| c.iteration))
            });
            mine.iter()
                .rev()
                .find(|c| c.iteration == target)
                .expect("checkpoint at rollback target")
                .clone()
        };
        let target = ckpt.iteration;
        self.u = vec![0.0; ckpt.data.len()];
        if !ckpt.data.is_empty() {
            comm.ctx().disk.store(VAR_CKPT, ckpt.data);
            comm.file_read(VAR_CKPT, 0, &mut self.u)?;
        }
        self.layout = ckpt.layout;
        self.out.rollback_iteration = Some(target);
        at = close_span(&mut self.out.spans, comm, RecoveryKind::Rollback, at);

        // Apportion over the survivors by CPU power — with a replica,
        // each power corrected by the detector's slowdown estimate, so a
        // degraded survivor is not handed a healthy node's share. Spares
        // get >= 1 row: crash recovery enlists them automatically.
        let det = self.replica.as_ref().map(|rep| &rep.det);
        let slow = |r| det.map_or(1.0, |d| d.slow_ratio(r));
        let (members, weights) = (&self.members, self.job.weights);
        let effective: Vec<f64> = members.iter().map(|&r| weights[r] / slow(r)).collect();
        let gb = GenBlock::apportion(self.job.app.rows, &effective);
        let mut new_layout = vec![0usize; self.layout.len()];
        for (&r, &rows) in self.members.iter().zip(gb.rows()) {
            new_layout[r] = rows;
        }
        self.transfer(comm, new_layout, Some(target))?;
        at = close_span(&mut self.out.spans, comm, RecoveryKind::Redistribution, at);

        // The leader re-runs the MHETA predictor for the shrunken
        // cluster; everyone synchronizes on it.
        if self.rank == self.members[0] {
            comm.compute(REPREDICTION_WORK_UNITS, u64::MAX);
        }
        self.observed |= ft_allreduce_among(comm, &self.members, ReduceOp::Sum, &mut [0.0])?;
        self.out.resume_ns = close_span(&mut self.out.spans, comm, RecoveryKind::Reprediction, at);
        if let Some(rep) = &mut self.replica {
            rep.on_recovery(newly_dead, it, detected_ns, target);
        }
        Ok(target)
    }

    /// Move this rank's block to layout `new` under the current epoch,
    /// then bump it; returns the rows moved. With a `rollback_target`,
    /// rows whose old owner is dead come from its checkpoint at that
    /// iteration; a live-state rebalance passes `None` and every row
    /// travels as a message.
    fn transfer<R: Recorder>(
        &mut self,
        comm: &mut Comm<'_, R>,
        new: Vec<usize>,
        rollback_target: Option<u32>,
    ) -> SimResult<usize> {
        let (app, store, dead) = (self.job.app, self.job.store, &self.out.dead);
        let elems = |rows: Range<usize>| rows.start * app.cols..rows.end * app.cols;
        let old = std::mem::replace(&mut self.layout, new);
        let old_u = std::mem::take(&mut self.u);
        let mut new_u = vec![0.0; self.layout[self.rank] * app.cols];
        let moved = move_rows(
            comm,
            &old,
            &self.layout,
            tag_redist(self.epoch),
            |_, rows| Ok(old_u[elems(rows)].to_vec()),
            |_, rows, data| {
                new_u[elems(rows)].copy_from_slice(data);
                Ok(())
            },
            &|from, rows| {
                let target = rollback_target.filter(|_| dead.contains(&from))?;
                Some(dead_block(store, app, from, target, &old)[elems(rows)].to_vec())
            },
        )?;
        self.u = new_u;
        self.epoch += 1;
        Ok(moved)
    }
}

/// The adaptive wrapper around [`Cg`]: slowdown detection, mid-run
/// rebalancing, and rejoin for the reduction-only benchmark. Crash-stop
/// recovery is the Jacobi loop's job ([`crate::harness::run_adaptive`])
/// — CG here demonstrates that the detector/replan loop is
/// application-shaped, not stencil-shaped.
///
/// A rebalance moves the live per-row solver state (`x` and the
/// residual) as messages and regenerates the receiver's matrix rows
/// locally (the matrix is hash-defined), charging the rebuilt share's
/// compulsory disk traffic.
#[derive(Debug, Clone)]
pub struct AdaptiveCg {
    /// The underlying CG application.
    pub app: Cg,
}

impl AdaptiveCg {
    /// Run the adaptive CG driver on one rank. `layout0` may contain
    /// zero-row idle spares; `weights` are nominal CPU powers.
    pub fn run<R: Recorder>(
        &self,
        comm: &mut Comm<'_, R>,
        layout0: &[usize],
        iters: u32,
        weights: &[f64],
    ) -> SimResult<AdaptiveOutcome> {
        check_layout(comm.size(), layout0, self.app.n)?;
        check_weights(comm.size(), weights)?;
        let members: Vec<usize> = (0..comm.size()).collect();
        let mut replica = Replica::new(weights, true);
        let mut spans = Vec::new();
        let mut run = CgRun::set_up(&self.app, comm, layout0)?;
        barrier(comm)?;
        let t0_ns = now(comm);

        for it in 0..iters {
            let hb = run.iterate(comm, it)?;
            if let Some(ev) = replica.observe(comm, it, &hb, &members, &run.layout) {
                let start = now(comm);
                // The iteration stands in for an epoch: at most one
                // rebalance commits per boundary.
                let moved = run.rebalance(comm, ev.to_rows.clone(), tag_redist(it))?;
                close_span(&mut spans, comm, RecoveryKind::Rebalance, start);
                replica.commit(ev, start, moved);
            }
        }
        let t1_ns = now(comm);

        // Untimed verification: distance of x from the all-ones vector.
        let mut err = [run.x.iter().map(|x| (x - 1.0) * (x - 1.0)).sum::<f64>()];
        allreduce(comm, ReduceOp::Sum, &mut err)?;
        let mut out = AdaptiveOutcome {
            result: RankResult {
                t0_ns,
                t1_ns,
                check: err[0].sqrt(),
            },
            alive: true,
            spans,
            final_rows: run.layout,
            ..AdaptiveOutcome::default()
        };
        replica.report_into(&mut out);
        Ok(out)
    }
}

/// One rank's live CG state: its matrix share in core and the solver
/// vectors over it.
struct CgRun<'a> {
    app: &'a Cg,
    layout: Vec<usize>,
    /// Global index of this rank's first row.
    offset: usize,
    /// The share's interleaved `[col, val]` data and per-row offsets.
    flat: Vec<f64>,
    offsets: Vec<usize>,
    x: Vec<f64>,
    rr: Vec<f64>,
    q: Vec<f64>,
    /// The full search direction, reassembled every iteration.
    p_full: Vec<f64>,
    rz: f64,
}

impl<'a> CgRun<'a> {
    /// Build this rank's share and the initial solver state (`x = 0`,
    /// `r = p = b`).
    fn set_up<R: Recorder>(
        app: &'a Cg,
        comm: &mut Comm<'_, R>,
        layout0: &[usize],
    ) -> SimResult<Self> {
        let m = layout0[comm.rank()];
        let offset: usize = layout0[..comm.rank()].iter().sum();
        let (flat, offsets, rr) = build_share(app, comm, offset, m)?;
        let mut p_full = vec![0.0; app.n];
        p_full[offset..offset + m].copy_from_slice(&rr);
        allreduce(comm, ReduceOp::Sum, &mut p_full)?;
        let mut rz = [rr.iter().map(|v| v * v).sum::<f64>()];
        allreduce(comm, ReduceOp::Sum, &mut rz)?;
        Ok(CgRun {
            app,
            layout: layout0.to_vec(),
            offset,
            flat,
            offsets,
            x: vec![0.0; m],
            rr,
            q: vec![0.0; m],
            p_full,
            rz: rz[0],
        })
    }

    /// Iteration `it`, the plain CG body; returns the merged heartbeat
    /// vector (each member's per-row matvec time).
    fn iterate<R: Recorder>(&mut self, comm: &mut Comm<'_, R>, it: u32) -> SimResult<Vec<f64>> {
        let (m, offset) = (self.x.len(), self.offset);
        comm.begin_iteration(it);

        // ---- section 0: q = A p and p.q, timed ----------------------
        comm.begin_section(0);
        comm.begin_stage(0);
        let mv_start = now(comm);
        if m > 0 {
            let nnz = spmv(&self.flat, &self.offsets, &self.p_full, &mut self.q);
            comm.compute(nnz as f64, (self.flat.len() * 8) as u64);
        }
        let mv_ns = now(comm) - mv_start;
        comm.end_stage(0);
        let mut pq = [(0..m)
            .map(|i| self.p_full[offset + i] * self.q[i])
            .sum::<f64>()];
        allreduce(comm, ReduceOp::Sum, &mut pq)?;
        comm.end_section(0);
        let alpha = self.rz / pq[0];

        // ---- section 1: update x, r; new residual norm --------------
        comm.begin_section(1);
        comm.begin_stage(0);
        let mut rz_new = [0.0];
        for i in 0..m {
            self.x[i] += alpha * self.p_full[offset + i];
            self.rr[i] -= alpha * self.q[i];
            rz_new[0] += self.rr[i] * self.rr[i];
        }
        if m > 0 {
            comm.compute(3.0 * m as f64, (3 * m * 8) as u64);
        }
        comm.end_stage(0);
        allreduce(comm, ReduceOp::Sum, &mut rz_new)?;
        comm.end_section(1);
        let beta = rz_new[0] / self.rz;
        self.rz = rz_new[0];

        // ---- section 2: p = r + beta p; reassemble; heartbeat -------
        comm.begin_section(2);
        comm.begin_stage(0);
        let p_old: Vec<f64> = self.p_full[offset..offset + m].to_vec();
        self.p_full.fill(0.0);
        for (i, p_old) in p_old.iter().enumerate() {
            self.p_full[offset + i] = self.rr[i] + beta * p_old;
        }
        if m > 0 {
            comm.compute(m as f64, (m * 8) as u64);
        }
        comm.end_stage(0);
        allreduce(comm, ReduceOp::Sum, &mut self.p_full)?;
        let mut hb = vec![0.0f64; self.layout.len()];
        if m > 0 {
            hb[comm.rank()] = mv_ns as f64 / m as f64;
        }
        allreduce(comm, ReduceOp::Max, &mut hb)?;
        comm.end_section(2);
        comm.end_iteration(it);
        Ok(hb)
    }

    /// Move to layout `new`: the live solver state travels as
    /// `[x rows | r rows]`, then the matrix share is rebuilt for the new
    /// interval. Returns the rows moved.
    fn rebalance<R: Recorder>(
        &mut self,
        comm: &mut Comm<'_, R>,
        new: Vec<usize>,
        tag: u32,
    ) -> SimResult<usize> {
        let m = new[comm.rank()];
        let (x, rr) = (std::mem::take(&mut self.x), std::mem::take(&mut self.rr));
        let (mut nx, mut nrr) = (vec![0.0; m], vec![0.0; m]);
        let moved = move_rows(
            comm,
            &self.layout,
            &new,
            tag,
            |_, rows| Ok([&x[rows.clone()], &rr[rows]].concat()),
            |_, rows, msg| {
                let (xs, rs) = msg.split_at(rows.len());
                nx[rows.clone()].copy_from_slice(xs);
                nrr[rows].copy_from_slice(rs);
                Ok(())
            },
            &|_, _| None,
        )?;
        (self.x, self.rr, self.q) = (nx, nrr, vec![0.0; m]);
        self.offset = new[..comm.rank()].iter().sum();
        self.layout = new;
        // The pattern is hash-defined, so regeneration is local, but the
        // compulsory read of the new share is charged.
        comm.ctx().disk.remove(VAR_A);
        (self.flat, self.offsets, _) = build_share(self.app, comm, self.offset, m)?;
        Ok(moved)
    }
}

/// Generate rows `[offset, offset + m)` of the matrix, store them on
/// the local disk under [`VAR_A`], and pay the compulsory read that
/// brings the share in core. Returns the interleaved data, the per-row
/// element offsets, and `b = A·1` restricted to the share.
fn build_share<R: Recorder>(
    app: &Cg,
    comm: &mut Comm<'_, R>,
    offset: usize,
    m: usize,
) -> SimResult<(Vec<f64>, Vec<usize>, Vec<f64>)> {
    let (flat, offsets, b_local) = app.share(offset, m);
    if !flat.is_empty() {
        comm.ctx().disk.store(VAR_A, flat.clone());
        let mut buf = vec![0.0; flat.len()];
        comm.file_read(VAR_A, 0, &mut buf)?;
    }
    Ok((flat, offsets, b_local))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mheta_mpi::{run_app, ExecMode, NullRecorder, RunOptions};
    use mheta_sim::{ClusterSpec, CrashSpec, DegradeSpec, RecoverSpec};

    fn quiet(n: usize) -> ClusterSpec {
        let mut s = ClusterSpec::homogeneous(n);
        s.noise.amplitude = 0.0;
        s
    }

    /// The loop on `Jacobi::small()` from `layout0`, checkpointing every
    /// `interval` iterations; with a replica on every rank when `adapt`
    /// is given, one that rebalances when it is true.
    fn run_loop(
        spec: &ClusterSpec,
        layout0: &[usize],
        iters: u32,
        interval: u32,
        adapt: Option<bool>,
    ) -> Vec<AdaptiveOutcome> {
        let app = Jacobi::small();
        let weights: Vec<f64> = spec.nodes.iter().map(|nd| nd.cpu_power).collect();
        let store = new_checkpoint_store();
        let structure = app.structure(false);
        let job = JacobiLoop {
            app: &app,
            structure: &structure,
            layout0,
            iters,
            interval,
            weights: &weights,
            store: &store,
        };
        run_app(
            spec,
            RunOptions {
                tracing: false,
                mode: ExecMode::Normal,
            },
            |_| NullRecorder,
            |comm| job.run(comm, adapt.map(|adapt| Replica::new(&weights, adapt))),
        )
        .unwrap()
        .results
    }

    fn run_adaptive_raw(spec: &ClusterSpec, layout0: &[usize], iters: u32) -> Vec<AdaptiveOutcome> {
        run_loop(spec, layout0, iters, CHECKPOINT_INTERVAL, Some(true))
    }

    /// The loop without a replica — what `run_resilient` runs — on
    /// `Jacobi::small()` under Block.
    fn run_resilient_raw(spec: &ClusterSpec, iters: u32, interval: u32) -> Vec<AdaptiveOutcome> {
        let dist = GenBlock::block(Jacobi::small().rows, spec.len());
        run_loop(spec, dist.rows(), iters, interval, None)
    }

    fn resilient_residual(n: usize, iters: u32) -> f64 {
        run_resilient_raw(&quiet(n), iters, 4)[0].result.check
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
        let driver = AdaptiveCg { app: Cg::small() };
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
        // Shed under degrade. The rejoin (iteration 17) lands inside the
        // cooldown a non-committing replan attempt restarted, so it is
        // dropped and member 1 keeps 6 of 96 rows (see `COOLDOWN_ITERS`).
        let o = &outcomes[0];
        let shed = o.rebalances.first().unwrap().to_rows[1];
        assert!(shed < 24, "shed: {shed}");
    }

    #[test]
    fn adaptive_cg_fault_free_is_quiet() {
        let spec = quiet(3);
        let driver = AdaptiveCg { app: Cg::small() };
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

    #[test]
    fn matches_plain_jacobi_without_crashes() {
        let spec = quiet(4);
        let outcomes = run_resilient_raw(&spec, 6, 3);
        // Same residual as the plain driver: replay-free run computes
        // the identical value sequence.
        let app = Jacobi::small();
        let dist = GenBlock::block(app.rows, 4);
        let structure = app.structure(false);
        let plain = run_app(
            &spec,
            RunOptions {
                tracing: false,
                mode: ExecMode::Normal,
            },
            |_| NullRecorder,
            |comm| app.run(comm, &structure, &dist, 6, false),
        )
        .unwrap()
        .results;
        for o in &outcomes {
            assert!(o.alive);
            assert_eq!(o.result.check, plain[0].check);
            assert!(o.rollback_iteration.is_none());
            assert!(o.spans.iter().all(|s| s.kind == RecoveryKind::Checkpoint));
        }
    }

    #[test]
    fn crash_recovers_and_residual_matches_crash_free_run() {
        let crash_free = {
            let spec = quiet(4);
            run_resilient_raw(&spec, 8, 3)[0].result.check
        };
        let mut spec = quiet(4);
        spec.faults.crashes = vec![CrashSpec::at_iteration(2, 5)];
        spec.faults.checkpoint_interval = 3;
        let outcomes = run_resilient_raw(&spec, 8, 3);
        assert!(!outcomes[2].alive);
        for (r, o) in outcomes.iter().enumerate() {
            if r == 2 {
                continue;
            }
            assert!(o.alive, "rank {r} should survive");
            assert_eq!(o.dead, vec![2]);
            assert_eq!(o.rollback_iteration, Some(3));
            assert_eq!(o.final_rows[2], 0);
            // Replayed values are identical; only the shrunken
            // reduction tree reassociates the final sum.
            let rel = (o.result.check - crash_free).abs() / crash_free.max(1e-30);
            assert!(
                rel < 1e-12,
                "rank {r}: replayed residual {} vs crash-free {crash_free}",
                o.result.check
            );
            for kind in [
                RecoveryKind::Rollback,
                RecoveryKind::Redistribution,
                RecoveryKind::Reprediction,
            ] {
                assert!(
                    o.spans.iter().any(|s| s.kind == kind && s.len_ns() > 0),
                    "rank {r} missing {kind:?} span"
                );
            }
        }
        let total: usize = outcomes[0].final_rows.iter().sum();
        assert_eq!(total, Jacobi::small().rows);
    }

    #[test]
    fn crash_before_first_checkpoint_restarts_from_initial_state() {
        let crash_free = {
            let spec = quiet(4);
            run_resilient_raw(&spec, 4, 2)[0].result.check
        };
        // Rank 1 dies at iteration 0, before writing any checkpoint:
        // its block is resynthesized from the deterministic initializer.
        let mut spec = quiet(4);
        spec.faults.crashes = vec![CrashSpec::at_iteration(1, 0)];
        spec.faults.checkpoint_interval = 2;
        let outcomes = run_resilient_raw(&spec, 4, 2);
        assert!(!outcomes[1].alive);
        for (r, o) in outcomes.iter().enumerate() {
            if r == 1 {
                continue;
            }
            assert!(o.alive);
            assert_eq!(o.rollback_iteration, Some(0));
            let rel = (o.result.check - crash_free).abs() / crash_free.max(1e-30);
            assert!(rel < 1e-12, "rank {r}: {} vs {crash_free}", o.result.check);
        }
    }

    #[test]
    fn two_staggered_crashes_both_recover() {
        let crash_free = {
            let spec = quiet(5);
            run_resilient_raw(&spec, 10, 2)[0].result.check
        };
        let mut spec = quiet(5);
        spec.faults.crashes = vec![CrashSpec::at_iteration(1, 3), CrashSpec::at_iteration(4, 7)];
        spec.faults.checkpoint_interval = 2;
        let outcomes = run_resilient_raw(&spec, 10, 2);
        assert!(!outcomes[1].alive && !outcomes[4].alive);
        for (r, o) in outcomes.iter().enumerate() {
            if r == 1 || r == 4 {
                continue;
            }
            assert!(o.alive, "rank {r}");
            assert_eq!(o.dead, vec![1, 4]);
            assert_eq!(o.final_rows[1], 0);
            assert_eq!(o.final_rows[4], 0);
            let rel = (o.result.check - crash_free).abs() / crash_free.max(1e-30);
            assert!(rel < 1e-12, "rank {r}: {} vs {crash_free}", o.result.check);
        }
    }

    #[test]
    fn heterogeneous_redistribution_follows_cpu_power() {
        let mut spec = quiet(4);
        spec.nodes[3].cpu_power = 3.0;
        spec.faults.crashes = vec![CrashSpec::at_iteration(0, 2)];
        spec.faults.checkpoint_interval = 2;
        let outcomes = run_resilient_raw(&spec, 6, 2);
        let survivor = &outcomes[1];
        assert!(survivor.alive);
        assert_eq!(survivor.final_rows[0], 0);
        // The power-3 node must end with the largest share.
        let max = survivor.final_rows.iter().copied().max().unwrap();
        assert_eq!(survivor.final_rows[3], max);
    }

    #[test]
    fn deterministic_across_reruns() {
        let go = || {
            let mut spec = quiet(4);
            spec.faults.crashes = vec![CrashSpec::at_iteration(2, 4)];
            spec.faults.checkpoint_interval = 3;
            run_resilient_raw(&spec, 8, 3)
        };
        let a = go();
        let b = go();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.result.t0_ns, y.result.t0_ns);
            assert_eq!(x.result.t1_ns, y.result.t1_ns);
            assert_eq!(x.spans, y.spans);
            assert_eq!(x.final_rows, y.final_rows);
        }
    }
}
