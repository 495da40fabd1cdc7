//! Crash-resilient Jacobi driver: checkpoint/restart with survivor
//! redistribution.
//!
//! The driver runs the same in-core stencil as [`crate::jacobi`] but
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
//!    survivors with [`mheta_dist::transfer_plan_rows`]: survivor
//!    blocks travel as messages, the dead rank's block is fetched from
//!    reliable checkpoint storage at local-disk cost ([`VAR_FETCH`]).
//! 5. **Re-predict** — the leader charges the cost of re-running the
//!    MHETA predictor on the shrunken cluster; the host-side model
//!    rebuild lives in [`crate::harness::repredict_after_crash`].
//!
//! Replayed iterations recompute bit-identical values, so the final
//! residual matches a crash-free run. Halo tags carry a recovery epoch:
//! a rank that aborted an exchange early may leave a live neighbor's
//! message undelivered, and the epoch bump orphans such stale messages
//! instead of letting a replayed receive consume them.
//!
//! Scope: one crash per iteration converges deterministically;
//! staggered crashes in different iterations are fully supported. A
//! crash landing inside the agreement round itself, or a crash during
//! another rank's recovery, can leave survivor views divergent and
//! surfaces as a typed error rather than a silent hang.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use mheta_core::ProgramStructure;
use mheta_dist::{transfer_plan_rows, GenBlock};
use mheta_mpi::{agree_mask, ft_allreduce_among, Comm, Recorder, ReduceOp};
use mheta_sim::{RecoveryKind, RecoverySpan, SimError, SimResult, VarId};

use crate::app::{rank_plans, RankResult};
use crate::jacobi::{Jacobi, VAR_U};

/// Variable ID of the versioned checkpoint file.
pub const VAR_CKPT: VarId = 0x71;
/// Variable ID of the scratch file used to charge the disk cost of
/// fetching a dead rank's block from reliable checkpoint storage.
pub const VAR_FETCH: VarId = 0x72;

/// Application work units the leader charges for re-running the MHETA
/// predictor on the shrunken cluster after a crash.
pub const REPREDICTION_WORK_UNITS: f64 = 2_000.0;

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

/// What one rank reports after a resilient run.
#[derive(Debug, Clone)]
pub struct ResilientOutcome {
    /// Loop timing and final residual. For a crashed rank `t1_ns` is
    /// the death time and `check` is NaN.
    pub result: RankResult,
    /// False for a rank that crashed.
    pub alive: bool,
    /// Checkpoint/rollback/redistribution/re-prediction spans on this
    /// rank's virtual clock.
    pub spans: Vec<RecoverySpan>,
    /// Every rank this rank knows died, sorted.
    pub dead: Vec<usize>,
    /// The last rollback target, if any recovery happened.
    pub rollback_iteration: Option<u32>,
    /// Virtual time the last recovery finished (0 when none happened).
    pub resume_ns: u64,
    /// Final per-rank row layout (zero rows = dead).
    pub final_rows: Vec<usize>,
}

/// Scratch state shared between the driver body and the crash handler.
struct Scratch {
    t0_ns: u64,
    spans: Vec<RecoverySpan>,
}

/// The crash-resilient wrapper around [`Jacobi`].
#[derive(Debug, Clone)]
pub struct ResilientJacobi {
    /// The underlying stencil application.
    pub app: Jacobi,
}

impl ResilientJacobi {
    /// Run the resilient driver on one rank.
    ///
    /// `interval` is the checkpoint interval `K` (clamped to at least
    /// 1); `weights` are the per-rank relative CPU powers the
    /// post-crash redistribution apportions rows by (normally
    /// `spec.nodes[i].cpu_power`); `store` is the shared reliable
    /// checkpoint storage from [`new_checkpoint_store`].
    ///
    /// `structure` is the application's [`Jacobi::structure`] (no
    /// prefetch), built once by the caller for the whole run.
    ///
    /// A scheduled crash of this rank is absorbed: the rank returns a
    /// dead [`ResilientOutcome`] instead of an error, so cluster-wide
    /// runs complete normally.
    #[allow(clippy::too_many_arguments)]
    pub fn run<R: Recorder>(
        &self,
        comm: &mut Comm<'_, R>,
        structure: &ProgramStructure,
        dist: &GenBlock,
        iters: u32,
        interval: u32,
        weights: &[f64],
        store: &CheckpointStore,
    ) -> SimResult<ResilientOutcome> {
        let mut scratch = Scratch {
            t0_ns: 0,
            spans: Vec::new(),
        };
        match self.run_inner(
            comm,
            structure,
            dist,
            iters,
            interval,
            weights,
            store,
            &mut scratch,
        ) {
            Err(SimError::Crashed { at_ns, .. }) => Ok(ResilientOutcome {
                result: RankResult {
                    t0_ns: scratch.t0_ns.min(at_ns),
                    t1_ns: at_ns,
                    check: f64::NAN,
                },
                alive: false,
                spans: scratch.spans,
                dead: vec![comm.rank()],
                rollback_iteration: None,
                resume_ns: 0,
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
        dist: &GenBlock,
        iters: u32,
        interval: u32,
        weights: &[f64],
        store: &CheckpointStore,
        scratch: &mut Scratch,
    ) -> SimResult<ResilientOutcome> {
        let rank = comm.rank();
        let n = comm.size();
        if n > 64 {
            return Err(SimError::InvalidConfig(format!(
                "resilient driver supports at most 64 ranks, cluster has {n}"
            )));
        }
        if weights.len() != n {
            return Err(SimError::InvalidConfig(format!(
                "resilient driver got {} weights for {n} ranks",
                weights.len()
            )));
        }
        let cols = self.app.cols;
        let total_rows = self.app.rows;
        let k_interval = interval.max(1);

        let mut layout: Vec<usize> = dist.rows().to_vec();
        let mut members: Vec<usize> = (0..n).collect();
        let mut known_dead: Vec<usize> = Vec::new();
        let mut epoch: u32 = 0;
        let mut rollback_iteration: Option<u32> = None;
        let mut resume_ns: u64 = 0;

        // ---- setup: identical to the plain in-core Jacobi ------------
        let m0 = layout[rank];
        let offset0: usize = layout[..rank].iter().sum();
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
                "resilient jacobi driver requires the local share to fit in memory \
                 (rank {rank}: {m0} rows x {cols} cols do not)"
            )));
        }
        let mut u = vec![0.0; m0 * cols];
        comm.file_read(VAR_U, 0, &mut u)?;
        comm.ctx().disk.create(VAR_CKPT, m0 * cols);
        let mut ckpt_disk_len = m0 * cols;
        let mut first_row = u[..cols].to_vec();
        let mut last_row = u[(m0 - 1) * cols..].to_vec();

        // Fault-tolerant barrier: a rank that dies during setup must not
        // hang the others before the loop even starts.
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
                if ckpt_disk_len != u.len() {
                    comm.ctx().disk.remove(VAR_CKPT);
                    comm.ctx().disk.create(VAR_CKPT, u.len());
                    ckpt_disk_len = u.len();
                }
                comm.file_write(VAR_CKPT, 0, &u)?;
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

            // ---- section 0: exchange boundary rows ------------------
            comm.begin_section(0);
            let mi = members
                .iter()
                .position(|&r| r == rank)
                .expect("live rank must be a member");
            let up = (mi > 0).then(|| members[mi - 1]);
            let down = (mi + 1 < members.len()).then(|| members[mi + 1]);
            let zero = vec![0.0; cols];
            if let Some(p) = up {
                comm.send_f64s(p, tag_up(epoch), &first_row)?;
            }
            if let Some(p) = down {
                comm.send_f64s(p, tag_down(epoch), &last_row)?;
            }
            let top_halo = match up {
                Some(p) => match comm.recv_f64s(p, tag_down(epoch)) {
                    Ok(v) => v,
                    Err(SimError::PeerDead { peer, .. }) => {
                        observed |= 1u64 << peer;
                        zero.clone()
                    }
                    Err(e) => return Err(e),
                },
                None => zero.clone(),
            };
            let bottom_halo = match down {
                Some(p) => match comm.recv_f64s(p, tag_up(epoch)) {
                    Ok(v) => v,
                    Err(SimError::PeerDead { peer, .. }) => {
                        observed |= 1u64 << peer;
                        zero
                    }
                    Err(e) => return Err(e),
                },
                None => zero,
            };
            comm.end_section(0);

            // ---- section 1: the sweep (skipped after an observation:
            // the iteration is rolled back anyway) --------------------
            comm.begin_section(1);
            comm.begin_stage(0);
            let local_res = if observed == 0 {
                let res = self
                    .app
                    .sweep_in_core(comm, &mut u, &top_halo, &bottom_halo);
                first_row.copy_from_slice(&u[..cols]);
                last_row.copy_from_slice(&u[u.len() - cols..]);
                res
            } else {
                0.0
            };
            comm.end_stage(0);
            comm.end_section(1);

            // ---- section 2: residual + dead-set agreement -----------
            comm.begin_section(2);
            let mut acc = [local_res];
            observed |= ft_allreduce_among(comm, &members, ReduceOp::Sum, &mut acc)?;
            let agreed = agree_mask(comm, &members, observed)?;
            comm.end_section(2);
            comm.end_iteration(it);

            if agreed != 0 {
                let newly_dead: Vec<usize> = members
                    .iter()
                    .copied()
                    .filter(|&r| agreed & (1u64 << r) != 0)
                    .collect();
                if !newly_dead.is_empty() {
                    // ---- rollback ----------------------------------
                    let rb_start = comm.ctx_ref().now().as_nanos();
                    members.retain(|r| !newly_dead.contains(r));
                    for d in &newly_dead {
                        known_dead.push(*d);
                    }
                    known_dead.sort_unstable();
                    // Roll back to the newest checkpoint every rank —
                    // including the dead — has a version of.
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
                    // Restore from the versioned checkpoint file at
                    // real disk-read cost.
                    if ckpt_disk_len != ckpt.data.len() {
                        comm.ctx().disk.remove(VAR_CKPT);
                        comm.ctx().disk.create(VAR_CKPT, ckpt.data.len());
                        ckpt_disk_len = ckpt.data.len();
                    }
                    comm.ctx().disk.store(VAR_CKPT, ckpt.data.clone());
                    u = vec![0.0; ckpt.data.len()];
                    comm.file_read(VAR_CKPT, 0, &mut u)?;
                    it = target;
                    rollback_iteration = Some(target);
                    let rb_end = comm.ctx_ref().now().as_nanos();
                    scratch.spans.push(RecoverySpan {
                        start_ns: rb_start,
                        end_ns: rb_end,
                        kind: RecoveryKind::Rollback,
                    });

                    // ---- redistribution ----------------------------
                    let survivor_weights: Vec<f64> = members.iter().map(|&r| weights[r]).collect();
                    let gb = GenBlock::apportion(total_rows, &survivor_weights);
                    let mut new_layout = vec![0usize; n];
                    for (i, &r) in members.iter().enumerate() {
                        new_layout[r] = gb.rows()[i];
                    }
                    let plan = transfer_plan_rows(&layout_old, &new_layout);
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
                        } else if known_dead.contains(&t.from) {
                            let blob =
                                dead_block(store, &self.app, t.from, target, &layout_old, cols);
                            let dead_off: usize = layout_old[..t.from].iter().sum();
                            let s = (t.global_start - dead_off) * cols;
                            let want = blob[s..s + t.rows * cols].to_vec();
                            // Charge the reliable-storage fetch as a
                            // local disk read of the same volume.
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
                    u = nu;
                    layout = new_layout;
                    first_row = u[..cols].to_vec();
                    last_row = u[u.len() - cols..].to_vec();
                    let rd_end = comm.ctx_ref().now().as_nanos();
                    scratch.spans.push(RecoverySpan {
                        start_ns: rb_end,
                        end_ns: rd_end,
                        kind: RecoveryKind::Redistribution,
                    });

                    // ---- re-prediction -----------------------------
                    // The leader re-runs the MHETA predictor for the
                    // shrunken cluster; everyone synchronizes on it.
                    if rank == members[0] {
                        comm.compute(REPREDICTION_WORK_UNITS, u64::MAX);
                    }
                    pending_observed |=
                        ft_allreduce_among(comm, &members, ReduceOp::Sum, &mut [0.0])?;
                    resume_ns = comm.ctx_ref().now().as_nanos();
                    scratch.spans.push(RecoverySpan {
                        start_ns: rd_end,
                        end_ns: resume_ns,
                        kind: RecoveryKind::Reprediction,
                    });
                    epoch += 1;
                    continue;
                }
            }
            residual = acc[0];
            it += 1;
        }

        Ok(ResilientOutcome {
            result: RankResult {
                t0_ns: t0,
                t1_ns: comm.ctx_ref().now().as_nanos(),
                check: residual,
            },
            alive: true,
            spans: std::mem::take(&mut scratch.spans),
            dead: known_dead,
            rollback_iteration,
            resume_ns,
            final_rows: layout,
        })
    }
}

/// A dead rank's full block at the rollback target, from reliable
/// checkpoint storage — or synthesized from the deterministic
/// initializer when the rank died before its first checkpoint (only
/// possible at target 0, where the checkpoint state *is* the initial
/// state).
pub(crate) fn dead_block(
    store: &CheckpointStore,
    app: &Jacobi,
    dead: usize,
    target: u32,
    layout_old: &[usize],
    cols: usize,
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
    let off: usize = layout_old[..dead].iter().sum();
    let mut data = Vec::with_capacity(layout_old[dead] * cols);
    for r in 0..layout_old[dead] {
        data.extend(app.initial_row(off + r, cols));
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use mheta_mpi::{run_app, ExecMode, NullRecorder, RunOptions};
    use mheta_sim::{ClusterSpec, CrashSpec};

    fn quiet(n: usize) -> ClusterSpec {
        let mut s = ClusterSpec::homogeneous(n);
        s.noise.amplitude = 0.0;
        s
    }

    fn run_resilient_raw(spec: &ClusterSpec, iters: u32, interval: u32) -> Vec<ResilientOutcome> {
        let app = Jacobi::small();
        let n = spec.len();
        let dist = GenBlock::block(app.rows, n);
        let weights: Vec<f64> = spec.nodes.iter().map(|nd| nd.cpu_power).collect();
        let store = new_checkpoint_store();
        let driver = ResilientJacobi { app };
        let structure = driver.app.structure(false);
        run_app(
            spec,
            RunOptions {
                tracing: false,
                mode: ExecMode::Normal,
            },
            |_| NullRecorder,
            |comm| driver.run(comm, &structure, &dist, iters, interval, &weights, &store),
        )
        .unwrap()
        .results
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
