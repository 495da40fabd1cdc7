//! Collective operations over the binomial tree, plus the *analytical
//! twins* of the same schedules.
//!
//! The executable collectives (`reduce`, `bcast`, `allreduce`,
//! `barrier`) are built from point-to-point sends and receives, exactly
//! the MPICH binomial algorithms. The analytical functions
//! (`model_reduce`, `model_bcast`, `model_allreduce`) replay the same
//! schedule over per-node "ready" timestamps with the microbenchmarked
//! per-hop costs — they are what the MHETA model in `mheta-core` uses
//! to predict reduction sections, so the model and the execution share
//! one schedule by construction (the paper defers reduction modeling to
//! the dissertation \[25\]; this is our concrete realization).

use mheta_sim::{SimError, SimResult};

use crate::comm::Comm;
use crate::hooks::Recorder;

/// Lower bound of the tag range reserved for collective traffic.
/// Point-to-point application messages must use tags below this;
/// observers classify any send/receive with `tag >= TAG_COLLECTIVE_BASE`
/// as part of a collective schedule.
pub const TAG_COLLECTIVE_BASE: u32 = 0x4000_0000;
/// Tag used by reduction-phase messages.
pub const TAG_REDUCE: u32 = TAG_COLLECTIVE_BASE | 1;
/// Tag used by broadcast-phase messages.
pub const TAG_BCAST: u32 = TAG_COLLECTIVE_BASE | 2;
/// Tag used by the post-crash dead-set agreement round.
pub const TAG_AGREE: u32 = TAG_COLLECTIVE_BASE | 3;

/// Elementwise combine operation for reductions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise maximum.
    Max,
    /// Elementwise minimum.
    Min,
    /// Bitwise OR of the raw `f64` bit patterns; used to agree on
    /// bitmask-encoded sets (e.g. observed dead ranks) in one
    /// reduction.
    BitOr,
}

impl ReduceOp {
    fn combine(self, acc: &mut [f64], other: &[f64]) {
        debug_assert_eq!(acc.len(), other.len());
        match self {
            ReduceOp::Sum => {
                for (a, b) in acc.iter_mut().zip(other) {
                    *a += b;
                }
            }
            ReduceOp::Max => {
                for (a, b) in acc.iter_mut().zip(other) {
                    *a = a.max(*b);
                }
            }
            ReduceOp::Min => {
                for (a, b) in acc.iter_mut().zip(other) {
                    *a = a.min(*b);
                }
            }
            ReduceOp::BitOr => {
                for (a, b) in acc.iter_mut().zip(other) {
                    *a = f64::from_bits(a.to_bits() | b.to_bits());
                }
            }
        }
    }
}

/// Binomial-tree reduction to rank 0. On return, `data` on rank 0 holds
/// the combined result; other ranks' buffers are unspecified.
pub fn reduce<R: Recorder>(
    comm: &mut Comm<'_, R>,
    op: ReduceOp,
    data: &mut [f64],
) -> SimResult<()> {
    let rank = comm.rank();
    let size = comm.size();
    let mut mask = 1usize;
    while mask < size {
        if rank & mask == 0 {
            let child = rank | mask;
            if child < size {
                let v = comm.recv_f64s(child, TAG_REDUCE)?;
                op.combine(data, &v);
            }
        } else {
            let parent = rank & !mask;
            comm.send_f64s(parent, TAG_REDUCE, data)?;
            break;
        }
        mask <<= 1;
    }
    Ok(())
}

/// Binomial-tree broadcast from rank 0 into `data` on every rank.
pub fn bcast<R: Recorder>(comm: &mut Comm<'_, R>, data: &mut [f64]) -> SimResult<()> {
    let rank = comm.rank();
    let size = comm.size();
    let mut mask = 1usize;
    while mask < size {
        if rank & mask != 0 {
            let parent = rank - mask;
            let v = comm.recv_f64s(parent, TAG_BCAST)?;
            data.copy_from_slice(&v);
            break;
        }
        mask <<= 1;
    }
    // Forwarding pass: a node sends at every mask strictly below the
    // level it received at (rank 0's level is the tree root).
    let level = if rank == 0 {
        size.next_power_of_two()
    } else {
        rank & rank.wrapping_neg() // lowest set bit
    };
    let mut m = level >> 1;
    while m > 0 {
        let dst = rank + m;
        if dst < size {
            comm.send_f64s(dst, TAG_BCAST, data)?;
        }
        m >>= 1;
    }
    Ok(())
}

/// Reduction followed by broadcast: every rank ends with the combined
/// value in `data`.
pub fn allreduce<R: Recorder>(
    comm: &mut Comm<'_, R>,
    op: ReduceOp,
    data: &mut [f64],
) -> SimResult<()> {
    reduce(comm, op, data)?;
    bcast(comm, data)
}

/// Synchronize all ranks (an empty allreduce).
pub fn barrier<R: Recorder>(comm: &mut Comm<'_, R>) -> SimResult<()> {
    let mut token = [0.0f64; 1];
    allreduce(comm, ReduceOp::Sum, &mut token)
}

// ---- fault-tolerant collectives ----------------------------------------

/// Fault-tolerant allreduce: the same binomial reduce + broadcast
/// schedule, but a dead peer never aborts a survivor. A dead child's
/// contribution is skipped (the wait resolves through the failure
/// detector), a send to a dead parent is a silent no-op at the
/// transport, and a rank whose broadcast parent died keeps its partial
/// reduction value. No live rank can hang: every blocking receive either
/// matches a message or resolves as `PeerDead`.
///
/// When a rank crashed mid-schedule, survivors' output values may
/// disagree (some saw the contribution, some lost the broadcast), so the
/// combined value must not be used for control decisions in that
/// iteration — resilient drivers detect the crash at the iteration
/// boundary and roll back past it. The function reports whether any dead
/// peer was encountered.
pub fn ft_allreduce<R: Recorder>(
    comm: &mut Comm<'_, R>,
    op: ReduceOp,
    data: &mut [f64],
) -> SimResult<bool> {
    let members: Vec<usize> = (0..comm.size()).collect();
    ft_allreduce_among(comm, &members, op, data).map(|observed| observed != 0)
}

/// [`ft_allreduce`] over an explicit member list: the binomial tree runs
/// over a *dense* re-indexing of `members` (which must be sorted and
/// contain the calling rank), so a resilient driver can keep original
/// rank numbering after a crash and simply drop dead ranks from the
/// roster. Returns a bitmask of cluster ranks observed dead during this
/// schedule (bit `r` set when some receive from rank `r` resolved as
/// `PeerDead` on *this* rank) — callers OR these observations into the
/// per-iteration agreement round.
pub fn ft_allreduce_among<R: Recorder>(
    comm: &mut Comm<'_, R>,
    members: &[usize],
    op: ReduceOp,
    data: &mut [f64],
) -> SimResult<u64> {
    let mut observed: u64 = 0;
    ft_tree_exchange(
        comm,
        members,
        (TAG_REDUCE, TAG_BCAST),
        data,
        |phase, acc, recv| match (phase, recv) {
            (TreePhase::Reduce, Ok(v)) => op.combine(acc, v),
            (TreePhase::Bcast, Ok(v)) => acc.copy_from_slice(v),
            (_, Err(peer)) => observed |= 1u64 << peer,
        },
    )?;
    Ok(observed)
}

/// Which half of the fault-tolerant binomial schedule a receive landed
/// in: the reduce-to-root pass or the broadcast back down the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TreePhase {
    /// Reduce-to-`members[0]` pass: the value came from a tree child.
    Reduce,
    /// Broadcast pass: the value came from the tree parent.
    Bcast,
}

/// The dense binomial reduce + broadcast scaffolding shared by every
/// fault-tolerant collective ([`ft_allreduce_among`], [`agree_mask`],
/// [`agree_dead_set`]): walk the reduce tree toward `members[0]`,
/// then rebroadcast down the same tree, forwarding to the caller only
/// the *semantic* decisions — how to fold a received payload into the
/// local value in each phase, and what to do when a receive resolves as
/// `PeerDead`.
///
/// `members` must be sorted, contain the calling rank, and stay below
/// rank 64 (the dead-set bitmask width). A send to a dead peer is a
/// silent no-op at the transport, so no live member can hang. The
/// handler receives `Ok(payload)` for a delivered message and
/// `Err(peer)` for a receive that resolved against dead rank `peer`;
/// `data` carries this rank's current value and ends as its final one.
fn ft_tree_exchange<R: Recorder>(
    comm: &mut Comm<'_, R>,
    members: &[usize],
    (reduce_tag, bcast_tag): (u32, u32),
    data: &mut [f64],
    mut handle: impl FnMut(TreePhase, &mut [f64], Result<&[f64], usize>),
) -> SimResult<()> {
    if members.iter().any(|&r| r >= 64) {
        return Err(SimError::InvalidConfig(format!(
            "fault-tolerant collectives support at most 64 ranks, member list reaches rank {}",
            members.iter().max().copied().unwrap_or(0)
        )));
    }
    let me = members
        .iter()
        .position(|&r| r == comm.rank())
        .expect("calling rank must be in the member list");
    let k = members.len();
    // Reduce phase: fold children, then send up to the tree parent.
    let mut mask = 1usize;
    while mask < k {
        if me & mask == 0 {
            let child = me | mask;
            if child < k {
                match comm.recv_f64s(members[child], reduce_tag) {
                    Ok(v) => handle(TreePhase::Reduce, data, Ok(&v)),
                    Err(SimError::PeerDead { peer, .. }) => {
                        handle(TreePhase::Reduce, data, Err(peer));
                    }
                    Err(e) => return Err(e),
                }
            }
        } else {
            let parent = me & !mask;
            comm.send_f64s(members[parent], reduce_tag, data)?;
            break;
        }
        mask <<= 1;
    }
    // Broadcast phase: adopt the parent's value, then forward down.
    let mut mask = 1usize;
    while mask < k {
        if me & mask != 0 {
            let parent = me - mask;
            match comm.recv_f64s(members[parent], bcast_tag) {
                Ok(v) => handle(TreePhase::Bcast, data, Ok(&v)),
                Err(SimError::PeerDead { peer, .. }) => {
                    handle(TreePhase::Bcast, data, Err(peer));
                }
                Err(e) => return Err(e),
            }
            break;
        }
        mask <<= 1;
    }
    let level = if me == 0 {
        k.next_power_of_two()
    } else {
        me & me.wrapping_neg()
    };
    let mut m = level >> 1;
    while m > 0 {
        let dst = me + m;
        if dst < k {
            comm.send_f64s(members[dst], bcast_tag, data)?;
        }
        m >>= 1;
    }
    Ok(())
}

/// One round of the crash-detection agreement protocol, run by
/// resilient drivers at every iteration boundary: OR-reduce the
/// members' observation bitmasks (bit `r` = "I saw rank `r` dead") down
/// the dense binomial tree over `members` and broadcast the union back.
/// Failures observed *during the round itself* are folded into the
/// propagated mask, so a dead member's bit reaches the root through its
/// tree parent even when nobody noticed the crash earlier.
///
/// Survivors decide "a crash happened" iff their returned mask is
/// non-zero. For any rank dead before the round starts, every live
/// member's mask comes back non-zero: a member that receives the root's
/// union gets at least the dead subtree root's bit, and a member whose
/// broadcast parent died observes that death directly. (A rank that
/// dies *mid-round* between its reduce send and its broadcast duties
/// can leave views divergent for one iteration; the next boundary's
/// round then converges, because the crash precedes it entirely.)
pub fn agree_mask<R: Recorder>(
    comm: &mut Comm<'_, R>,
    members: &[usize],
    bits: u64,
) -> SimResult<u64> {
    let mut data = [f64::from_bits(bits)];
    // Both phases OR: the union only grows on the way up, and a member
    // that receives the root's union keeps any death it observed itself.
    ft_tree_exchange(
        comm,
        members,
        (TAG_AGREE, TAG_AGREE),
        &mut data,
        |_, acc, recv| {
            let add = match recv {
                Ok(v) => v[0].to_bits(),
                Err(peer) => 1u64 << peer,
            };
            acc[0] = f64::from_bits(acc[0].to_bits() | add);
        },
    )?;
    Ok(data[0].to_bits())
}

/// Post-crash dead-set agreement: survivors run a binomial reduce +
/// broadcast over a *dense* re-indexing of the sorted survivor list,
/// OR-combining per-rank dead bitmasks, so every survivor converges on
/// the same dead-set while paying the realistic communication cost of
/// the agreement protocol. Returns the agreed dead ranks, sorted.
///
/// Precondition: every survivor calls this at the same program point
/// with an identical local view of the dead-set (guaranteed at an
/// iteration boundary after a completed [`ft_allreduce`], whose
/// completion is host-ordered after any crash inside the iteration);
/// the dense trees would otherwise mismatch and deadlock.
pub fn agree_dead_set<R: Recorder>(comm: &mut Comm<'_, R>) -> SimResult<Vec<usize>> {
    let size = comm.size();
    if size > 64 {
        return Err(SimError::InvalidConfig(format!(
            "dead-set agreement bitmask supports at most 64 ranks, cluster has {size}"
        )));
    }
    let bits: u64 = comm
        .ctx()
        .dead_ranks()
        .iter()
        .fold(0, |acc, &(r, _)| acc | (1u64 << r));
    let survivors: Vec<usize> = (0..size).filter(|r| bits & (1 << r) == 0).collect();
    let mut data = [f64::from_bits(bits)];
    // OR on the way up, adopt the root's union on the way down. The
    // precondition gives every survivor an identical starting view, so
    // mid-round deaths are ignorable: the divergence is resolved by the
    // caller's next agreement round.
    ft_tree_exchange(
        comm,
        &survivors,
        (TAG_AGREE, TAG_AGREE),
        &mut data,
        |phase, acc, recv| {
            if let Ok(v) = recv {
                acc[0] = match phase {
                    TreePhase::Reduce => f64::from_bits(acc[0].to_bits() | v[0].to_bits()),
                    TreePhase::Bcast => v[0],
                };
            }
        },
    )?;
    let bits = data[0].to_bits();
    Ok((0..size).filter(|r| bits & (1 << r) != 0).collect())
}

// ---- analytical twins --------------------------------------------------

/// Per-hop communication costs used by the analytical schedules, in
/// fractional nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HopCost {
    /// Sender-side overhead `o_s`.
    pub o_s: f64,
    /// Receiver-side overhead `o_r`.
    pub o_r: f64,
    /// In-flight transfer time `alpha + bytes * beta`.
    pub transfer: f64,
}

/// The later of a node's own clock `own` and a message's arrival
/// `arrival`: one compare-select, `arrival` only when it is strictly
/// later. Every analytical schedule here and the MHETA clock
/// propagation take their `max` through it.
///
/// For the clocks a model produces — they start at +0.0 and only add
/// non-negative terms, so neither NaN nor −0.0 occurs — this is
/// bit-for-bit `f64::max`, without the NaN handling `f64::max` lowers
/// to on baseline x86-64. Where the two differ it keeps a node's own
/// NaN clock NaN (`f64::max` would replace it with the arrival), so a
/// non-finite cost never heals into a finite time at the next
/// receive.
#[inline]
#[must_use]
pub fn clock_max(own: f64, arrival: f64) -> f64 {
    if arrival > own {
        arrival
    } else {
        own
    }
}

/// Replay the binomial reduce-to-0 schedule over per-node ready times.
/// Returns each node's clock after its role in the reduction completes
/// (after its send, for non-roots; after the last receive, for root).
#[must_use]
pub fn model_reduce(ready: &[f64], cost: HopCost) -> Vec<f64> {
    let mut clock = ready.to_vec();
    model_reduce_in_place(&mut clock, &mut vec![0.0; ready.len()], cost);
    clock
}

/// [`model_reduce`] on caller-owned buffers: `clock` holds the ready
/// times on entry and the post-reduction clocks on return; `arrival`
/// is scratch of the same length (contents ignored).
fn model_reduce_in_place(clock: &mut [f64], arrival: &mut [f64], cost: HopCost) {
    let size = clock.len();
    assert_eq!(arrival.len(), size, "one arrival slot per node");
    // `arrival[child]` is the arrival time of a non-root's single send
    // to its parent, written by the child itself: children have
    // numerically larger ranks, so the descending loop visits every
    // child before its parent reads the slot.
    for r in (0..size).rev() {
        let lowbit = if r == 0 {
            size.next_power_of_two()
        } else {
            r & r.wrapping_neg()
        };
        let mut mask = 1usize;
        while mask < lowbit && mask < size {
            let child = r | mask;
            if child < size && child != r {
                clock[r] = clock_max(clock[r], arrival[child]) + cost.o_r;
            }
            mask <<= 1;
        }
        if r != 0 {
            clock[r] += cost.o_s;
            arrival[r] = clock[r] + cost.transfer;
        }
    }
}

/// Replay the binomial broadcast-from-0 schedule over per-node ready
/// times. Returns each node's clock after its receives and forwards.
#[must_use]
pub fn model_bcast(ready: &[f64], cost: HopCost) -> Vec<f64> {
    let mut clock = ready.to_vec();
    model_bcast_in_place(&mut clock, &mut vec![0.0; ready.len()], cost);
    clock
}

/// [`model_bcast`] on caller-owned buffers; same contract as
/// [`model_reduce_in_place`].
fn model_bcast_in_place(clock: &mut [f64], arrival: &mut [f64], cost: HopCost) {
    let size = clock.len();
    assert_eq!(arrival.len(), size, "one arrival slot per node");
    // Every non-root's `arrival` slot is written by its parent, which
    // has a numerically smaller rank: the ascending loop sends before
    // it receives.
    for r in 0..size {
        if r != 0 {
            clock[r] = clock_max(clock[r], arrival[r]) + cost.o_r;
        }
        let level = if r == 0 {
            size.next_power_of_two()
        } else {
            r & r.wrapping_neg()
        };
        let mut m = level >> 1;
        while m > 0 {
            let dst = r + m;
            if dst < size {
                clock[r] += cost.o_s;
                arrival[dst] = clock[r] + cost.transfer;
            }
            m >>= 1;
        }
    }
}

/// Replay reduce + broadcast (the allreduce used for global reductions
/// in the benchmark applications).
#[must_use]
pub fn model_allreduce(ready: &[f64], cost: HopCost) -> Vec<f64> {
    let mut clock = ready.to_vec();
    model_allreduce_in_place(&mut clock, &mut vec![0.0; ready.len()], cost);
    clock
}

/// [`model_allreduce`] without the allocations, for callers that
/// evaluate it per search candidate: `clock` holds the ready times on
/// entry and the post-allreduce clocks on return; `arrival` is
/// caller-owned scratch of the same length (contents ignored).
///
/// # Panics
/// Panics if the two slices differ in length.
pub fn model_allreduce_in_place(clock: &mut [f64], arrival: &mut [f64], cost: HopCost) {
    model_reduce_in_place(clock, arrival, cost);
    model_bcast_in_place(clock, arrival, cost);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::ExecMode;
    use crate::hooks::NullRecorder;
    use mheta_sim::{run_cluster, ClusterSpec};

    fn quiet(n: usize) -> ClusterSpec {
        let mut s = ClusterSpec::homogeneous(n);
        s.noise.amplitude = 0.0;
        s
    }

    fn run_allreduce(n: usize, op: ReduceOp) -> Vec<Vec<f64>> {
        let spec = quiet(n);
        run_cluster(&spec, false, |ctx| {
            let mut rec = NullRecorder;
            let mut comm = Comm::new(ctx, &mut rec, ExecMode::Normal);
            let mut v = vec![comm.rank() as f64 + 1.0, -(comm.rank() as f64)];
            allreduce(&mut comm, op, &mut v)?;
            Ok(v)
        })
        .unwrap()
        .results
    }

    #[test]
    fn ft_tree_exchange_reduces_then_broadcasts() {
        // Drive the shared scaffolding directly with a handler that
        // max-folds on the way up and adopts on the way down: every
        // member must converge on the global max, and each member must
        // see its receives in the documented phases.
        let spec = quiet(5);
        let run = run_cluster(&spec, false, |ctx| {
            let mut rec = NullRecorder;
            let mut comm = Comm::new(ctx, &mut rec, ExecMode::Normal);
            let members: Vec<usize> = (0..comm.size()).collect();
            let mut data = [comm.rank() as f64 * 10.0];
            let mut phases = Vec::new();
            ft_tree_exchange(
                &mut comm,
                &members,
                (TAG_REDUCE, TAG_BCAST),
                &mut data,
                |phase, acc, recv| {
                    phases.push(phase);
                    if let Ok(v) = recv {
                        match phase {
                            TreePhase::Reduce => acc[0] = acc[0].max(v[0]),
                            TreePhase::Bcast => acc[0] = v[0],
                        }
                    }
                },
            )?;
            Ok((data[0], phases))
        })
        .unwrap();
        for (rank, (value, phases)) in run.results.iter().enumerate() {
            assert_eq!(*value, 40.0, "rank {rank} must see the global max");
            // Non-root members receive exactly one broadcast value, and
            // it arrives after every reduce-phase receive.
            let bcasts = phases.iter().filter(|&&p| p == TreePhase::Bcast).count();
            assert_eq!(bcasts, usize::from(rank != 0), "rank {rank}");
            if let Some(first_bcast) = phases.iter().position(|&p| p == TreePhase::Bcast) {
                assert!(
                    phases[first_bcast..].iter().all(|&p| p == TreePhase::Bcast),
                    "rank {rank}: reduce receives must precede the broadcast"
                );
            }
        }
    }

    #[test]
    fn ft_tree_exchange_rejects_wide_member_lists() {
        let spec = quiet(2);
        let err = run_cluster(&spec, false, |ctx| {
            let mut rec = NullRecorder;
            let mut comm = Comm::new(ctx, &mut rec, ExecMode::Normal);
            let mut data = [0.0];
            match ft_tree_exchange(
                &mut comm,
                &[0, 64],
                (TAG_REDUCE, TAG_BCAST),
                &mut data,
                |_, _, _| {},
            ) {
                Err(SimError::InvalidConfig(msg)) => Ok(msg.contains("at most 64")),
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        })
        .unwrap();
        assert!(err.results.iter().all(|&ok| ok));
    }

    #[test]
    fn allreduce_sum_all_sizes() {
        for n in 1..=9 {
            let results = run_allreduce(n, ReduceOp::Sum);
            let expect_a: f64 = (1..=n).map(|r| r as f64).sum();
            let expect_b: f64 = -(0..n).map(|r| r as f64).sum::<f64>();
            for (r, v) in results.iter().enumerate() {
                assert!(
                    (v[0] - expect_a).abs() < 1e-9 && (v[1] - expect_b).abs() < 1e-9,
                    "n={n} rank {r}: got {v:?}, want [{expect_a}, {expect_b}]"
                );
            }
        }
    }

    #[test]
    fn allreduce_max_and_min() {
        let results = run_allreduce(7, ReduceOp::Max);
        for v in &results {
            assert_eq!(v[0], 7.0);
            assert_eq!(v[1], 0.0);
        }
        let results = run_allreduce(7, ReduceOp::Min);
        for v in &results {
            assert_eq!(v[0], 1.0);
            assert_eq!(v[1], -6.0);
        }
    }

    #[test]
    fn reduce_leaves_result_at_root() {
        let spec = quiet(5);
        let run = run_cluster(&spec, false, |ctx| {
            let mut rec = NullRecorder;
            let mut comm = Comm::new(ctx, &mut rec, ExecMode::Normal);
            let mut v = vec![1.0];
            reduce(&mut comm, ReduceOp::Sum, &mut v)?;
            Ok(v[0])
        })
        .unwrap();
        assert_eq!(run.results[0], 5.0);
    }

    #[test]
    fn barrier_completes_on_all_sizes() {
        for n in [1, 2, 3, 8] {
            let spec = quiet(n);
            run_cluster(&spec, false, |ctx| {
                let mut rec = NullRecorder;
                let mut comm = Comm::new(ctx, &mut rec, ExecMode::Normal);
                barrier(&mut comm)
            })
            .unwrap();
        }
    }

    /// The analytical twins must match the executed schedule exactly
    /// when noise is off.
    #[test]
    fn model_allreduce_matches_execution() {
        for n in [2usize, 3, 4, 5, 8] {
            let spec = quiet(n);
            // Stagger the ranks' start times with compute.
            let run = run_cluster(&spec, false, |ctx| {
                let mut rec = NullRecorder;
                ctx.compute(100.0 * (ctx.rank() as f64 + 1.0), u64::MAX);
                let ready = ctx.now().as_nanos() as f64;
                let mut comm = Comm::new(ctx, &mut rec, ExecMode::Normal);
                let mut v = vec![1.0];
                allreduce(&mut comm, ReduceOp::Sum, &mut v)?;
                Ok((ready, ctx.now().as_nanos() as f64))
            })
            .unwrap();
            let ready: Vec<f64> = run.results.iter().map(|r| r.0).collect();
            let actual: Vec<f64> = run.results.iter().map(|r| r.1).collect();
            let cost = HopCost {
                o_s: spec.net.send_overhead_ns,
                o_r: spec.net.recv_overhead_ns,
                transfer: spec.net.transfer_ns(8),
            };
            let predicted = model_allreduce(&ready, cost);
            for r in 0..n {
                assert!(
                    (predicted[r] - actual[r]).abs() < 2.0,
                    "n={n} rank {r}: model {} vs actual {}",
                    predicted[r],
                    actual[r]
                );
            }
        }
    }

    #[test]
    fn model_reduce_root_dominates_ready_times() {
        let ready = vec![0.0, 1e6, 2e6, 3e6];
        let cost = HopCost {
            o_s: 1e3,
            o_r: 1e3,
            transfer: 5e4,
        };
        let out = model_reduce(&ready, cost);
        // Root cannot finish before the latest contributor's value
        // could possibly arrive.
        assert!(out[0] >= 3e6 + cost.o_s + cost.transfer + cost.o_r);
    }

    #[test]
    fn ft_allreduce_matches_plain_allreduce_without_crashes() {
        for n in [1usize, 2, 3, 5, 8] {
            let spec = quiet(n);
            let run = run_cluster(&spec, false, |ctx| {
                let mut rec = NullRecorder;
                let mut comm = Comm::new(ctx, &mut rec, ExecMode::Normal);
                let mut v = vec![comm.rank() as f64 + 1.0];
                let saw_dead = ft_allreduce(&mut comm, ReduceOp::Sum, &mut v)?;
                Ok((v[0], saw_dead))
            })
            .unwrap();
            let expect: f64 = (1..=n).map(|r| r as f64).sum();
            for (r, &(v, saw_dead)) in run.results.iter().enumerate() {
                assert_eq!(v, expect, "n={n} rank {r}");
                assert!(!saw_dead);
            }
        }
    }

    #[test]
    fn ft_allreduce_survives_dead_rank_without_hanging() {
        use mheta_sim::CrashSpec;
        let mut spec = quiet(4);
        spec.faults.crashes = vec![CrashSpec::at_iteration(2, 0)];
        spec.faults.checkpoint_interval = 1;
        let run = run_cluster(&spec, false, |ctx| {
            let mut rec = NullRecorder;
            let mut comm = Comm::new(ctx, &mut rec, ExecMode::Normal);
            if comm.rank() == 2 {
                match comm.ctx().crash_check_iteration(0) {
                    Err(SimError::Crashed { rank: 2, .. }) => return Ok((-1.0, false)),
                    other => panic!("expected crash, got {other:?}"),
                }
            }
            let mut v = vec![comm.rank() as f64 + 1.0];
            let saw_dead = ft_allreduce(&mut comm, ReduceOp::Sum, &mut v)?;
            Ok((v[0], saw_dead))
        })
        .unwrap();
        // Dead rank 2 was an interior tree node: its own value and its
        // child rank 3's contribution are both lost, so the root
        // converges on 1 + 2 = 3 and broadcasts that to rank 1; rank 3's
        // broadcast parent is the dead rank, so it keeps its partial
        // (its own 4.0). Values may disagree mid-crash — the driver
        // rolls back past this iteration — but nobody hangs.
        assert_eq!(run.results[0].0, 3.0);
        assert_eq!(run.results[1].0, 3.0);
        assert_eq!(run.results[3].0, 4.0);
        assert!(
            run.results.iter().any(|&(_, saw)| saw),
            "some survivor must have observed the dead peer"
        );
    }

    #[test]
    fn agree_dead_set_converges_all_survivors() {
        use mheta_sim::CrashSpec;
        for n in [2usize, 4, 5, 8] {
            let mut spec = quiet(n);
            spec.faults.crashes = vec![CrashSpec::at_iteration(1, 0)];
            spec.faults.checkpoint_interval = 1;
            let run = run_cluster(&spec, false, |ctx| {
                let mut rec = NullRecorder;
                let mut comm = Comm::new(ctx, &mut rec, ExecMode::Normal);
                if comm.rank() == 1 {
                    let _ = comm.ctx().crash_check_iteration(0).unwrap_err();
                    return Ok(vec![]);
                }
                // Align every survivor past the crash so local views
                // are consistent before the agreement round.
                let mut v = vec![0.0];
                ft_allreduce(&mut comm, ReduceOp::Sum, &mut v)?;
                agree_dead_set(&mut comm)
            })
            .unwrap();
            for (r, dead) in run.results.iter().enumerate() {
                if r == 1 {
                    continue;
                }
                assert_eq!(dead, &vec![1], "n={n} rank {r}");
            }
        }
    }

    #[test]
    fn model_bcast_single_node_is_identity() {
        let cost = HopCost {
            o_s: 1.0,
            o_r: 1.0,
            transfer: 1.0,
        };
        assert_eq!(model_bcast(&[42.0], cost), vec![42.0]);
        assert_eq!(model_reduce(&[42.0], cost), vec![42.0]);
    }
}
