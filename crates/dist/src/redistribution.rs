//! Redistribution: moving a `GEN_BLOCK`-distributed dataset from one
//! distribution to another at run time.
//!
//! The paper's §6 runtime switches distributions "on the fly" only when
//! the predicted savings over the remaining iterations exceed the cost
//! of moving the data. So it needs a **transfer plan** (who sends which
//! contiguous block of rows to whom: at most `O(n)` blocks) and its
//! **price**, [`move_clocks`], the twin of the plan's one executor.

use mheta_core::{ArchParams, Mheta, ModelError};

use crate::genblock::offsets;

/// One contiguous block movement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Sending node (owner under the old distribution).
    pub from: usize,
    /// Receiving node (owner under the new distribution).
    pub to: usize,
    /// First global row moved.
    pub global_start: usize,
    /// Number of rows moved.
    pub rows: usize,
}

/// Compute the contiguous transfers that turn layout `old` into `new`,
/// both per-node row counts; rows that stay put, possibly at another
/// local offset, are a transfer with `from == to`. Unlike a `GenBlock`,
/// a layout may give a node 0 rows: a dead rank keeps its index, and
/// transfers out of its old interval name it as `from` (the executor
/// reads those rows from checkpoints).
///
/// # Panics
/// Panics if the two layouts disagree on node count or total rows.
#[must_use]
pub fn transfer_plan(old: &[usize], new: &[usize]) -> Vec<Transfer> {
    assert_eq!(old.len(), new.len(), "node counts must match");
    let total = |rows: &[usize]| rows.iter().sum::<usize>();
    assert_eq!(total(old), total(new), "row totals must match");
    let (a, b) = (offsets(old), offsets(new));
    let mut plan = Vec::new();
    for from in 0..old.len() {
        for to in 0..new.len() {
            let (lo, hi) = (a[from].max(b[to]), a[from + 1].min(b[to + 1]));
            if lo < hi {
                plan.push(Transfer {
                    from,
                    to,
                    global_start: lo,
                    rows: hi - lo,
                });
            }
        }
    }
    plan
}

/// Rows that actually change owner (excludes `from == to`).
#[must_use]
pub fn rows_moved(plan: &[Transfer]) -> usize {
    plan.iter().filter(|t| t.from != t.to).map(|t| t.rows).sum()
}

/// The analytical twin of `mheta_apps::redistribute::move_rows` run
/// through its disk adapter `redistribute_var`, and what
/// [`predict_cost_ns`] walks: advance each rank's clock in `clocks`
/// (ns) by what moving one variable of `row_bytes` bytes per row from
/// `old` to `new` charges it, in `move_rows`' order. Each rank reads
/// each block it owns in plan order, sending all but the one that stays
/// (`o_s`; it arrives `transfer_ns(bytes)` later), and writes that one;
/// then it receives each incoming block in plan order
/// (`max(clock, arrival) + o_r`) and writes it. Each charge is rounded
/// as the simulator rounds it: over a quiet cluster's own parameters and
/// a variable not read before (no warm reads), exactly the executed ones.
///
/// # Panics
/// As [`transfer_plan`], or if `arch` or `clocks` has fewer nodes than
/// the layouts.
pub fn move_clocks(
    arch: &ArchParams,
    old: &[usize],
    new: &[usize],
    row_bytes: u64,
    clocks: &mut [f64],
) {
    let (plan, comm) = (transfer_plan(old, new), &arch.comm);
    let bytes = |t: &Transfer| t.rows as u64 * row_bytes;
    let io = |seek: f64, per_byte: f64, t: &Transfer| (seek + bytes(t) as f64 * per_byte).round();
    let mut arrival = vec![0.0; plan.len()];
    for (rank, clock) in clocks[..old.len()].iter_mut().enumerate() {
        let (disk, mut kept) = (&arch.disks[rank], None);
        for (i, t) in plan.iter().enumerate().filter(|(_, t)| t.from == rank) {
            *clock += io(disk.o_read, disk.read_ns_per_byte, t);
            if t.to == rank {
                kept = Some(t);
            } else {
                *clock += comm.o_s.round();
                arrival[i] = *clock + comm.transfer_ns(bytes(t)).round();
            }
        }
        *clock += kept.map_or(0.0, |t| io(disk.o_write, disk.write_ns_per_byte, t));
    }
    for (t, &at) in plan.iter().zip(&arrival).filter(|(t, _)| t.from != t.to) {
        let disk = &arch.disks[t.to];
        let write = io(disk.o_write, disk.write_ns_per_byte, t);
        clocks[t.to] = clocks[t.to].max(at) + comm.o_r.round() + write;
    }
}

/// Predict the time, in ns, of moving every streamed distributed
/// variable of `model`'s program from layout `old` to `new` (per-node
/// rows, zeros allowed): [`move_clocks`] over `model.arch()`, one move
/// per variable, one after another, a variable's fractional width (a
/// sparse row's average) rounded up to whole elements.
///
/// # Errors
/// [`ModelError::Dimension`] for a layout [`Mheta::check_rows`] refuses.
pub fn predict_cost_ns(model: &Mheta, old: &[usize], new: &[usize]) -> Result<f64, ModelError> {
    model.check_rows(old)?;
    model.check_rows(new)?;
    let mut clocks = vec![0.0; old.len()];
    for v in model.structure().distributed_vars().filter(|v| !v.resident) {
        let row_bytes = v.elems_per_row.ceil() as u64 * v.elem_bytes;
        move_clocks(model.arch(), old, new, row_bytes, &mut clocks);
    }
    Ok(clocks.into_iter().fold(0.0, f64::max))
}

/// The predicted net saving, in ns, of switching from `old` to `new`
/// for `remaining_iters` more iterations (positive = switch).
///
/// # Errors
/// As [`predict_cost_ns`].
pub fn switch_benefit_ns(
    model: &Mheta,
    old: &[usize],
    new: &[usize],
    remaining_iters: u32,
) -> Result<f64, ModelError> {
    let ns = |rows| model.predict(rows).map(|p| p.iteration_ns);
    let saving = (ns(old)? - ns(new)?) * f64::from(remaining_iters);
    Ok(saving - predict_cost_ns(model, old, new)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_plan_is_all_self_transfers() {
        let g = [4, 6, 2];
        let plan = transfer_plan(&g, &g);
        assert_eq!(plan.len(), 3);
        assert!(plan.iter().all(|t| t.from == t.to));
        assert_eq!(rows_moved(&plan), 0);
    }

    #[test]
    fn plan_conserves_rows() {
        let old = [4, 4, 4, 4];
        let new = [10, 2, 2, 2];
        let plan = transfer_plan(&old, &new);
        let total: usize = plan.iter().map(|t| t.rows).sum();
        assert_eq!(total, 16);
        // Every node's outgoing rows equal its old share.
        for i in 0..4 {
            let out: usize = plan.iter().filter(|t| t.from == i).map(|t| t.rows).sum();
            assert_eq!(out, old[i]);
            let inc: usize = plan.iter().filter(|t| t.to == i).map(|t| t.rows).sum();
            assert_eq!(inc, new[i]);
        }
    }

    #[test]
    fn plan_blocks_are_contiguous_and_sorted_within_pairs() {
        let plan = transfer_plan(&[5, 5, 6], &[2, 10, 4]);
        // At most one transfer per (from, to) pair for block layouts.
        let mut seen = std::collections::HashSet::new();
        for t in &plan {
            assert!(seen.insert((t.from, t.to)), "duplicate pair {t:?}");
            assert!(t.rows > 0);
        }
    }

    #[test]
    #[should_panic(expected = "row totals must match")]
    fn mismatched_totals_panic() {
        let _ = transfer_plan(&[4, 4], &[4, 5]);
    }

    #[test]
    fn rows_plan_allows_zero_row_dead_ranks() {
        // Rank 1 died: its 4 rows re-spread over ranks 0 and 2.
        let old = [4usize, 4, 4];
        let new = [6usize, 0, 6];
        let plan = transfer_plan(&old, &new);
        let total: usize = plan.iter().map(|t| t.rows).sum();
        assert_eq!(total, 12);
        assert!(plan.iter().all(|t| t.to != 1), "nothing flows to the dead");
        let from_dead: Vec<&Transfer> = plan.iter().filter(|t| t.from == 1).collect();
        assert_eq!(
            from_dead.iter().map(|t| t.rows).sum::<usize>(),
            4,
            "dead rank's interval is fully reassigned"
        );
    }
}
