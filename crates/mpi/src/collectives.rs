//! Collective operations over one binomial tree, plus the *analytical
//! twins* that replay the same tree over virtual clocks.
//!
//! The tree is written once, over dense indices `0..k` rooted at 0
//! (`parent`, `children`, and `walk`, one rank's messages in order),
//! and three interpreters read it and nothing else:
//!
//! * the executable walker behind [`ft_allreduce_among`] and
//!   [`agree_mask`], and behind [`allreduce`] and [`barrier`] when the
//!   cluster schedules a crash: point-to-point sends and receives,
//!   exactly the MPICH binomial algorithm;
//! * the rendezvous behind [`allreduce`] and [`barrier`] when no peer
//!   can die: every rank deposits its walk's messages, their costs
//!   drawn, and the last to arrive replays the tree over the deposits
//!   (`settle`) — the same clocks, values and traces as the walker, from
//!   one park per rank instead of one per message;
//! * the reduction and broadcast twins behind
//!   [`model_allreduce_in_place`], which replay it over per-node "ready"
//!   timestamps with the microbenchmarked per-hop costs.
//!
//! The MHETA model in `mheta-core` predicts reduction sections with the
//! twins, so the model and the execution share one schedule by
//! construction; on a quiet cluster the twins give the executed clocks
//! bit for bit (the paper defers reduction modeling to the dissertation
//! \[25\]; this is our concrete realization).

use mheta_sim::{Deposit, Hop, HopKind, SimError, SimResult};

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

// ---- the schedule -------------------------------------------------------

/// The tree parent of dense index `i > 0`: `i` with its lowest set bit
/// cleared.
fn parent(i: usize) -> usize {
    debug_assert!(i > 0, "the root has no parent");
    i & (i - 1)
}

/// The tree children of dense index `i` among `0..k`: `i + 2^j` for
/// every `2^j` below `i`'s lowest set bit (below `k` for the root) with
/// `i + 2^j < k`. Ascending is the order a reduction receives them in;
/// `.rev()` is the order a broadcast sends to them in.
fn children(i: usize, k: usize) -> impl DoubleEndedIterator<Item = usize> {
    debug_assert!(i < k, "index {i} outside a tree of {k}");
    // `i + 2^j < k` holds exactly for `j < log2((k - i).next_power_of_two())`.
    let fits = (k - i).next_power_of_two().trailing_zeros();
    let below_lowbit = if i == 0 { fits } else { i.trailing_zeros() };
    (0..fits.min(below_lowbit)).map(move |j| i + (1 << j))
}

/// Dense index `me`'s messages in the walk over `0..k`, in the order it
/// makes them: the reduction's receive from each child, ascending; off
/// the root, its send to the parent and the broadcast's receive back;
/// then the broadcast's send to each child, descending.
fn walk(me: usize, k: usize) -> impl Iterator<Item = (TreePhase, HopKind, usize)> {
    let up = (me > 0).then(|| {
        [
            (TreePhase::Reduce, HopKind::Send, parent(me)),
            (TreePhase::Bcast, HopKind::Recv, parent(me)),
        ]
    });
    children(me, k)
        .map(|child| (TreePhase::Reduce, HopKind::Recv, child))
        .chain(up.into_iter().flatten())
        .chain(
            children(me, k)
                .rev()
                .map(|child| (TreePhase::Bcast, HopKind::Send, child)),
        )
}

// ---- the executable walker ----------------------------------------------

/// Which half of the tree walk a message belongs to: the reduce-to-root
/// pass or the broadcast back down the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TreePhase {
    /// Reduce-to-root pass: values move from a child to its parent.
    Reduce,
    /// Broadcast pass: values move from a parent to its children.
    Bcast,
}

impl TreePhase {
    /// This phase's tag of a walk's `(reduce_tag, bcast_tag)`.
    fn tag(self, (reduce_tag, bcast_tag): (u32, u32)) -> u32 {
        match self {
            TreePhase::Reduce => reduce_tag,
            TreePhase::Bcast => bcast_tag,
        }
    }
}

/// The one tree walk: reduce toward dense index 0, then broadcast back
/// down the same tree, with `fold` deciding what each receive does to
/// `data` (this rank's value on entry, its final one on return).
///
/// `members` is `None` for the plain collectives: every rank is its own
/// dense index, and a dead peer ends the walk with `PeerDead`. It is
/// `Some` for the fault-tolerant ones: dense index `i` is `members[i]`
/// (checked by [`member_index`]), and a receive that resolves against
/// dead rank `peer` reaches `fold` as `Err(peer)` instead.
fn tree_walk<R: Recorder>(
    comm: &mut Comm<'_, R>,
    members: Option<&[usize]>,
    tags: (u32, u32),
    data: &mut [f64],
    mut fold: impl FnMut(TreePhase, &mut [f64], Result<&[f64], usize>),
) -> SimResult<()> {
    let (me, k) = match members {
        None => (comm.rank(), comm.size()),
        Some(list) => (member_index(comm.rank(), list)?, list.len()),
    };
    let rank = |i: usize| members.map_or(i, |list| list[i]);
    let mut receive = |comm: &mut Comm<'_, R>, from, tag, phase, data: &mut [f64]| {
        match comm.recv_f64s(rank(from), tag) {
            Ok(v) => fold(phase, data, Ok(&v)),
            Err(SimError::PeerDead { peer, .. }) if members.is_some() => {
                fold(phase, data, Err(peer));
            }
            Err(e) => return Err(e),
        }
        Ok(())
    };
    for (phase, kind, peer) in walk(me, k) {
        match kind {
            HopKind::Recv => receive(comm, peer, phase.tag(tags), phase, data)?,
            HopKind::Send => comm.send_f64s(rank(peer), phase.tag(tags), data)?,
        }
    }
    Ok(())
}

/// This rank's dense index in a fault-tolerant member list. The list
/// must stay below rank 64 (the dead-set bitmask width), be sorted
/// without duplicates, so that every member lays the same tree, and
/// contain `rank`; anything else is [`SimError::InvalidConfig`].
fn member_index(rank: usize, members: &[usize]) -> SimResult<usize> {
    if members.iter().any(|&r| r >= 64) {
        return Err(SimError::InvalidConfig(format!(
            "fault-tolerant collectives support at most 64 ranks, member list reaches rank {}",
            members.iter().max().copied().unwrap_or(0)
        )));
    }
    let invalid = |why: String| SimError::InvalidConfig(format!("member list {members:?} {why}"));
    if members.windows(2).any(|w| w[0] >= w[1]) {
        return Err(invalid("is not sorted without duplicates".into()));
    }
    members
        .binary_search(&rank)
        .map_err(|_| invalid(format!("lacks the calling rank {rank}")))
}

/// Reduction followed by broadcast over every rank: each ends with the
/// combined value in `data`. A dead peer ends the call with
/// [`SimError::PeerDead`].
///
/// On a cluster that schedules no crash the call is one rendezvous
/// rather than the walk's messages, with the walk's clocks, values,
/// traces and hook events; every rank must pass the same `op`.
pub fn allreduce<R: Recorder>(
    comm: &mut Comm<'_, R>,
    op: ReduceOp,
    data: &mut [f64],
) -> SimResult<()> {
    if !comm.ctx_ref().cluster().faults.crashes.is_empty() {
        return allreduce_over(comm, None, op, data).map(|_| ());
    }
    // The walk's payload: `encode_f64s(data)`, eight bytes a value.
    let bytes = std::mem::size_of_val(data) as u64;
    let tags = (TAG_REDUCE, TAG_BCAST);
    let hops = walk(comm.rank(), comm.size())
        .map(|(phase, kind, peer)| Hop::new(kind, peer, phase.tag(tags), bytes));
    comm.rendezvous(hops, data, |deposits| settle(deposits, op))
}

/// Settle a rendezvous allreduce: replay every rank's walk over the
/// deposits — the reduction leaves first, the broadcast root first, the
/// order the twins replay it in — charging each message by the rule of
/// `send` and `recv`, and fold the values as the walk folds them, so
/// every rank returns with the root's value.
fn settle(deposits: &mut [Deposit], op: ReduceOp) {
    let k = deposits.len();
    for r in (0..k).rev() {
        settle_phase(deposits, r, TreePhase::Reduce, op);
    }
    for r in 0..k {
        settle_phase(deposits, r, TreePhase::Bcast, op);
    }
    let (root, rest) = deposits.split_first_mut().expect("a collective has a rank");
    for deposit in rest {
        deposit.values.copy_from_slice(&root.values);
    }
}

/// Replay dense index `r`'s messages of `phase`. A message between `r`
/// and its parent waits in `r`'s inbox, one between `r` and a child in
/// the child's: the reduction replays children before parents, the
/// broadcast parents before children, so each is written before it is
/// read.
fn settle_phase(deposits: &mut [Deposit], r: usize, phase: TreePhase, op: ReduceOp) {
    let k = deposits.len();
    let (upto, after) = deposits.split_at_mut(r + 1);
    let me = &mut upto[r];
    let hops = walk(r, k).zip(me.hops.iter_mut());
    for ((_, kind, peer), hop) in hops.filter(|((p, ..), _)| *p == phase) {
        match (phase, kind) {
            (TreePhase::Reduce, HopKind::Recv) => {
                let child = &after[peer - r - 1];
                hop.arrival = child.inbox;
                hop.charge(&mut me.clock);
                op.combine(&mut me.values, &child.values);
            }
            (TreePhase::Reduce, HopKind::Send) => {
                hop.charge(&mut me.clock);
                me.inbox = hop.arrival;
            }
            (TreePhase::Bcast, HopKind::Recv) => {
                hop.arrival = me.inbox;
                hop.charge(&mut me.clock);
            }
            (TreePhase::Bcast, HopKind::Send) => {
                hop.charge(&mut me.clock);
                after[peer - r - 1].inbox = hop.arrival;
            }
        }
    }
}

/// Synchronize all ranks (an empty allreduce).
pub fn barrier<R: Recorder>(comm: &mut Comm<'_, R>) -> SimResult<()> {
    let mut token = [0.0f64; 1];
    allreduce(comm, ReduceOp::Sum, &mut token)
}

/// Fault-tolerant allreduce over an explicit member list: the same tree
/// as [`allreduce`], laid over a *dense* re-indexing of `members`, so a
/// resilient driver can keep original rank numbering after a crash and
/// simply drop dead ranks from the roster. `members` must be sorted
/// without duplicates, contain the calling rank and stay below rank 64;
/// otherwise the call is [`SimError::InvalidConfig`].
///
/// A dead peer never aborts a survivor. A dead child's contribution is
/// skipped (the wait resolves through the failure detector), a send to
/// a dead parent is a silent no-op at the transport, and a rank whose
/// broadcast parent died keeps its partial reduction value. No live
/// rank can hang: every blocking receive either matches a message or
/// resolves as `PeerDead`.
///
/// When a rank crashed mid-schedule, survivors' output values may
/// disagree (some saw the contribution, some lost the broadcast), so the
/// combined value must not be used for control decisions in that
/// iteration — resilient drivers detect the crash at the iteration
/// boundary and roll back past it. Returns a bitmask of cluster ranks
/// observed dead during this schedule (bit `r` set when some receive
/// from rank `r` resolved as `PeerDead` on *this* rank) — callers OR
/// these observations into the per-iteration agreement round.
pub fn ft_allreduce_among<R: Recorder>(
    comm: &mut Comm<'_, R>,
    members: &[usize],
    op: ReduceOp,
    data: &mut [f64],
) -> SimResult<u64> {
    allreduce_over(comm, Some(members), op, data)
}

/// The allreduce walk: combine on the way up, adopt the root's value on
/// the way down. Returns the bitmask of ranks observed dead, which
/// without `members` is always 0.
fn allreduce_over<R: Recorder>(
    comm: &mut Comm<'_, R>,
    members: Option<&[usize]>,
    op: ReduceOp,
    data: &mut [f64],
) -> SimResult<u64> {
    let mut observed: u64 = 0;
    tree_walk(
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

/// The fault-tolerant tree walk over `members`.
fn ft_tree_exchange<R: Recorder>(
    comm: &mut Comm<'_, R>,
    members: &[usize],
    tags: (u32, u32),
    data: &mut [f64],
    fold: impl FnMut(TreePhase, &mut [f64], Result<&[f64], usize>),
) -> SimResult<()> {
    tree_walk(comm, Some(members), tags, data, fold)
}

/// One round of the crash-detection agreement protocol, run by
/// resilient drivers at every iteration boundary: OR-reduce the
/// members' observation bitmasks (bit `r` = "I saw rank `r` dead") down
/// the dense binomial tree over `members` and broadcast the union back.
/// Failures observed *during the round itself* are folded into the
/// propagated mask, so a dead member's bit reaches the root through its
/// tree parent even when nobody noticed the crash earlier. `members`
/// must be what [`ft_allreduce_among`] asks for.
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

/// Replay the tree's reduction to index 0 over per-node clocks:
/// `clock` holds the ready times on entry and, on return, each node's
/// clock once its part is done (after its send, for non-roots; after
/// its last receive, for the root). `arrival` is scratch of the same
/// length (contents ignored).
fn model_reduce_in_place(clock: &mut [f64], arrival: &mut [f64], cost: HopCost) {
    let k = clock.len();
    assert_eq!(arrival.len(), k, "one arrival slot per node");
    // `arrival[child]` is the arrival time of a non-root's single send
    // to its parent, written by the child itself: children have
    // numerically larger indices, so the descending loop visits every
    // child before its parent reads the slot.
    for r in (0..k).rev() {
        for child in children(r, k) {
            clock[r] = clock_max(clock[r], arrival[child]) + cost.o_r;
        }
        if r > 0 {
            clock[r] += cost.o_s;
            arrival[r] = clock[r] + cost.transfer;
        }
    }
}

/// Replay the tree's broadcast from index 0 over per-node clocks: each
/// node's clock after its receive and forwards. Same contract as
/// [`model_reduce_in_place`].
fn model_bcast_in_place(clock: &mut [f64], arrival: &mut [f64], cost: HopCost) {
    let k = clock.len();
    assert_eq!(arrival.len(), k, "one arrival slot per node");
    // Every non-root's `arrival` slot is written by its parent, which
    // has a numerically smaller index: the ascending loop sends before
    // it receives.
    for r in 0..k {
        if r > 0 {
            clock[r] = clock_max(clock[r], arrival[r]) + cost.o_r;
        }
        for child in children(r, k).rev() {
            clock[r] += cost.o_s;
            arrival[child] = clock[r] + cost.transfer;
        }
    }
}

/// Replay reduce + broadcast (the allreduce used for global reductions
/// in the benchmark applications) without allocating, for callers that
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

    /// Each rank of an `n`-rank cluster calls [`ft_allreduce_among`]
    /// over `members`; returns the `InvalidConfig` message each rank
    /// got, if any.
    fn member_list_errors(n: usize, members: &[usize]) -> Vec<Option<String>> {
        run_cluster(&quiet(n), false, |ctx| {
            let mut rec = NullRecorder;
            let mut comm = Comm::new(ctx, &mut rec, ExecMode::Normal);
            match ft_allreduce_among(&mut comm, members, ReduceOp::Sum, &mut [0.0]) {
                Ok(_) => Ok(None),
                Err(SimError::InvalidConfig(msg)) => Ok(Some(msg)),
                Err(e) => Err(e),
            }
        })
        .unwrap()
        .results
    }

    #[test]
    fn ft_collectives_reject_a_member_list_without_the_caller() {
        let errors = member_list_errors(2, &[0]);
        assert_eq!(errors[0], None, "rank 0 is the whole roster");
        let msg = errors[1].as_deref().expect("rank 1 is not a member");
        assert!(msg.contains("[0]") && msg.contains("rank 1"), "{msg}");
    }

    #[test]
    fn ft_collectives_reject_an_unsorted_member_list() {
        for msg in member_list_errors(2, &[1, 0]) {
            let msg = msg.expect("every rank rejects the list");
            assert!(msg.contains("[1, 0]"), "{msg}");
        }
    }

    #[test]
    fn ft_collectives_reject_a_member_list_with_duplicates() {
        for msg in member_list_errors(2, &[0, 1, 1]) {
            let msg = msg.expect("every rank rejects the list");
            assert!(msg.contains("[0, 1, 1]"), "{msg}");
        }
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

    /// The exactness referees: on a quiet cluster the analytical twins
    /// replay the executed tree bit for bit, and on any cluster that
    /// schedules no crash the plain allreduce (the rendezvous) is the
    /// fault-tolerant walk over every rank.
    mod exactness {
        use super::*;
        use crate::hooks::{HookEvent, VecRecorder};
        use mheta_sim::{ClusterRun, Event, EventKind, NetSpec, SimDur};
        use proptest::prelude::*;

        /// Each rank's clock before and after the allreduce, its values,
        /// and the hook events the allreduce reported.
        type Outcome = (f64, f64, Vec<f64>, Vec<HookEvent>);

        /// Every rank computes `work[rank]` units, then runs the plain
        /// (`ft == false`) or the fault-tolerant allreduce over every
        /// rank on `payload` offset by its rank.
        fn allreduce_after(
            spec: &ClusterSpec,
            work: &[f64],
            payload: &[f64],
            ft: bool,
        ) -> ClusterRun<Outcome> {
            run_cluster(spec, true, |ctx| {
                ctx.compute(work[ctx.rank()], u64::MAX);
                let ready = ctx.now().as_nanos() as f64;
                let mut rec = VecRecorder::default();
                let mut comm = Comm::new(ctx, &mut rec, ExecMode::Normal);
                let rank = comm.rank() as f64;
                let mut v: Vec<f64> = payload.iter().map(|x| x + rank).collect();
                if ft {
                    let everyone: Vec<usize> = (0..comm.size()).collect();
                    let observed = ft_allreduce_among(&mut comm, &everyone, ReduceOp::Sum, &mut v)?;
                    assert_eq!(observed, 0, "nobody died");
                } else {
                    allreduce(&mut comm, ReduceOp::Sum, &mut v)?;
                }
                Ok((ready, ctx.now().as_nanos() as f64, v, rec.events))
            })
            .unwrap()
        }

        /// The plain allreduce's run must be the walk's to the bit:
        /// values, clocks, every trace event and every hook event.
        fn assert_plain_is_the_walk(
            plain: &ClusterRun<Outcome>,
            walk: &ClusterRun<Outcome>,
        ) -> Result<(), TestCaseError> {
            for (rank, (p, w)) in plain.results.iter().zip(&walk.results).enumerate() {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&p.2), bits(&w.2), "values of rank {}", rank);
                prop_assert_eq!(p.1.to_bits(), w.1.to_bits(), "clock of rank {}", rank);
                prop_assert_eq!(&p.3, &w.3, "hook events of rank {}", rank);
            }
            for (p, w) in plain.traces.iter().zip(&walk.traces) {
                prop_assert_eq!(&p.events, &w.events, "trace of rank {}", p.rank);
                prop_assert_eq!(p.finish, w.finish);
            }
            Ok(())
        }

        /// A cost as the simulator charges it: whole nanoseconds.
        fn charged(ns: f64) -> f64 {
            SimDur::from_nanos_f64(ns).as_nanos() as f64
        }

        /// `model` replayed from `start` must give `executed` to the bit
        /// on every rank.
        fn assert_twin_exact(
            what: &str,
            model: fn(&mut [f64], &mut [f64], HopCost),
            cost: HopCost,
            start: &[f64],
            executed: &[f64],
        ) {
            let mut clock = start.to_vec();
            model(&mut clock, &mut vec![0.0; start.len()], cost);
            for (rank, (model, actual)) in clock.iter().zip(executed).enumerate() {
                assert_eq!(
                    model.to_bits(),
                    actual.to_bits(),
                    "{what} on {} ranks, rank {rank}: model {model} vs executed {actual}",
                    start.len()
                );
            }
        }

        /// A quiet cluster of 1–64 ranks on a random network, each
        /// rank's staggering work, and a payload of 1–4 values.
        fn cluster() -> impl Strategy<Value = (ClusterSpec, Vec<f64>, Vec<f64>)> {
            (
                1usize..=64,
                (
                    0.0f64..50_000.0,
                    0.0f64..50_000.0,
                    0.0f64..200_000.0,
                    0.0f64..40.0,
                ),
                proptest::collection::vec(0.0f64..500.0, 64),
                proptest::collection::vec(-1e3f64..1e3, 1..=4),
            )
                .prop_map(|(n, (o_s, o_r, latency, beta), mut work, payload)| {
                    let mut spec = quiet(n);
                    spec.net = NetSpec {
                        send_overhead_ns: o_s,
                        recv_overhead_ns: o_r,
                        latency_ns: latency,
                        ns_per_byte: beta,
                    };
                    work.truncate(n);
                    (spec, work, payload)
                })
        }

        /// [`cluster`] made noisy (amplitude in (0, 0.1]) and lossy
        /// (a message resend rate above 0), with no crash scheduled.
        fn noisy_lossy_cluster() -> impl Strategy<Value = (ClusterSpec, Vec<f64>, Vec<f64>)> {
            (cluster(), any::<u64>(), 1e-6f64..=0.1, 0.01f64..0.6).prop_map(
                |((mut spec, work, payload), seed, amplitude, resend_rate)| {
                    spec.seed = seed;
                    spec.noise.amplitude = amplitude;
                    spec.faults.msg_resend_rate = resend_rate;
                    (spec, work, payload)
                },
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn model_allreduce_matches_execution_bit_for_bit(
                (spec, work, payload) in cluster(),
            ) {
                let run = allreduce_after(&spec, &work, &payload, false);
                let cost = HopCost {
                    o_s: charged(spec.net.send_overhead_ns),
                    o_r: charged(spec.net.recv_overhead_ns),
                    transfer: charged(spec.net.transfer_ns(8 * payload.len() as u64)),
                };
                let ready: Vec<f64> = run.results.iter().map(|r| r.0).collect();
                let done: Vec<f64> = run.results.iter().map(|r| r.1).collect();
                // Where each rank's part in the reduction ended: its last
                // reduce-tagged send or receive, else its ready time.
                let reduce_tagged = |e: &&Event| matches!(
                    e.kind,
                    EventKind::Send { tag: TAG_REDUCE, .. } | EventKind::Recv { tag: TAG_REDUCE, .. }
                );
                let reduced: Vec<f64> = run.traces.iter().zip(&ready).map(|(trace, &ready)| {
                    let last = trace.events.iter().rev().find(reduce_tagged);
                    last.map_or(ready, |e| e.end.as_nanos() as f64)
                }).collect();
                assert_twin_exact("allreduce", model_allreduce_in_place, cost, &ready, &done);
                assert_twin_exact("reduction", model_reduce_in_place, cost, &ready, &reduced);
                assert_twin_exact("broadcast", model_bcast_in_place, cost, &reduced, &done);
            }

            #[test]
            fn ft_allreduce_over_everyone_is_plain_allreduce(
                (spec, work, payload) in cluster(),
            ) {
                let plain = allreduce_after(&spec, &work, &payload, false);
                let ft = allreduce_after(&spec, &work, &payload, true);
                assert_plain_is_the_walk(&plain, &ft)?;
            }

            /// The rendezvous draws every rank's costs in the walk's
            /// order, resends included, and replays the walk's charges.
            #[test]
            fn rendezvous_is_the_walk_on_noisy_lossy_clusters(
                (spec, work, payload) in noisy_lossy_cluster(),
            ) {
                prop_assert!(spec.faults.crashes.is_empty());
                let plain = allreduce_after(&spec, &work, &payload, false);
                let walk = allreduce_after(&spec, &work, &payload, true);
                assert_plain_is_the_walk(&plain, &walk)?;
            }
        }
    }

    /// A collective that one rank never joins — it finishes, or it parks
    /// in a receive nobody will satisfy — leaves every rank that did
    /// join with a [`SimError::Deadlock`] at once.
    #[test]
    fn a_collective_one_rank_never_joins_is_a_deadlock_for_the_others() {
        let spec = quiet(4);
        for absent_parks in [false, true] {
            let start = std::time::Instant::now();
            let run = run_cluster(&spec, false, |ctx| {
                let mut rec = NullRecorder;
                let mut comm = Comm::new(ctx, &mut rec, ExecMode::Normal);
                if comm.rank() == 3 {
                    // Join late enough that the others are parked.
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    return Ok(absent_parks.then(|| comm.recv_f64s(0, 0).unwrap_err()));
                }
                Ok(allreduce(&mut comm, ReduceOp::Sum, &mut [1.0]).err())
            })
            .unwrap();
            assert!(
                start.elapsed() < std::time::Duration::from_secs(10),
                "the deadlock was detected, not waited for"
            );
            for (rank, err) in run.results.iter().enumerate() {
                if rank < 3 || absent_parks {
                    assert!(
                        matches!(err, Some(SimError::Deadlock { .. })),
                        "rank {rank} (absent rank parks: {absent_parks}): {err:?}"
                    );
                }
            }
        }
    }

    /// The rank that settles a rendezvous counts the ranks it wakes as
    /// running at once, so when it parks in a receive straight after,
    /// before they have woken, that is no deadlock.
    #[test]
    fn a_settler_that_parks_at_once_is_not_deadlocked() {
        let spec = quiet(4);
        run_cluster(&spec, false, |ctx| {
            let mut rec = NullRecorder;
            let mut comm = Comm::new(ctx, &mut rec, ExecMode::Normal);
            let (rank, n) = (comm.rank(), comm.size());
            for round in 0..200 {
                allreduce(&mut comm, ReduceOp::Sum, &mut [1.0])?;
                comm.send_f64s((rank + 1) % n, 0, &[f64::from(round)])?;
                comm.recv_f64s((rank + n - 1) % n, 0)?;
            }
            Ok(())
        })
        .unwrap();
    }

    /// A cluster that schedules a crash runs the plain allreduce as the
    /// walk, whose receives resolve against the dead peer.
    #[test]
    fn plain_allreduce_with_a_dead_peer_returns_peer_dead() {
        use mheta_sim::{CrashSpec, FaultKind};
        let mut spec = quiet(4);
        spec.faults.crashes = vec![CrashSpec::at_iteration(2, 0)];
        spec.faults.checkpoint_interval = 1;
        let run = run_cluster(&spec, true, |ctx| {
            let mut rec = NullRecorder;
            let mut comm = Comm::new(ctx, &mut rec, ExecMode::Normal);
            if comm.rank() == 2 {
                let _ = comm.ctx().crash_check_iteration(0).unwrap_err();
                return Ok(None);
            }
            Ok(allreduce(&mut comm, ReduceOp::Sum, &mut [1.0]).err())
        })
        .unwrap();
        // Rank 0 waits on its dead child in the reduction and rank 3 on
        // its dead parent in the broadcast; both resolve when the
        // detector fires, 1 ms after the crash at time 0. (Rank 1 is
        // left waiting on a finished root: a deadlock whose wording
        // depends on which survivor finished last.)
        let dead = |rank| {
            Some(SimError::PeerDead {
                rank,
                peer: 2,
                at_ns: 1_000_000,
            })
        };
        assert_eq!(run.results[0], dead(0));
        assert_eq!(run.results[3], dead(3));
        for rank in [0, 3] {
            assert_eq!(
                run.traces[rank].faults(),
                vec![FaultKind::DeadPeerDetected { peer: 2 }],
                "rank {rank} detected the death in a receive"
            );
        }
    }

    #[test]
    fn plain_allreduce_is_not_bounded_by_the_dead_set_bitmask() {
        let n = 70;
        let results = run_allreduce(n, ReduceOp::Sum);
        let expect: f64 = (1..=n).map(|r| r as f64).sum();
        for (rank, v) in results.iter().enumerate() {
            assert_eq!(v[0], expect, "rank {rank}");
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
        let mut out = ready.clone();
        model_reduce_in_place(&mut out, &mut [0.0; 4], cost);
        // Root cannot finish before the latest contributor's value
        // could possibly arrive.
        assert!(out[0] >= 3e6 + cost.o_s + cost.transfer + cost.o_r);
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
            let saw_dead =
                ft_allreduce_among(&mut comm, &[0, 1, 2, 3], ReduceOp::Sum, &mut v)? != 0;
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
    fn agree_mask_converges_all_survivors() {
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
                    return Ok(0);
                }
                // Nobody has seen the crash yet: the round itself must
                // find the dead member and carry its bit to everyone.
                let everyone: Vec<usize> = (0..comm.size()).collect();
                agree_mask(&mut comm, &everyone, 0)
            })
            .unwrap();
            for (r, &mask) in run.results.iter().enumerate() {
                if r != 1 {
                    assert_eq!(mask, 1 << 1, "n={n} rank {r}");
                }
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
        for twin in [model_bcast_in_place, model_reduce_in_place] {
            let mut clock = [42.0];
            twin(&mut clock, &mut [0.0], cost);
            assert_eq!(clock, [42.0]);
        }
    }
}
