//! Redistribution: moving a `GEN_BLOCK`-distributed dataset from one
//! distribution to another at run time.
//!
//! The paper's future-work runtime (§6) selects a distribution with
//! MHETA "and then effect\[s\] that distribution on the fly". Switching
//! distributions is only worth it when the predicted savings over the
//! remaining iterations exceed the cost of moving the data, so the
//! runtime needs both a **transfer plan** (who sends which rows to
//! whom) and a **cost model** for executing it.
//!
//! Because both distributions are contiguous block layouts, the rows a
//! node ships to another node form a single contiguous interval: the
//! whole plan is at most `O(n)` transfers.

use mheta_core::Mheta;

use crate::genblock::{offsets, GenBlock};

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
/// both per-node row counts (self-transfers — rows that stay put,
/// possibly at a different local offset — are included with
/// `from == to`). Unlike [`GenBlock`], a layout may give a node 0 rows:
/// a dead rank keeps its index, and transfers out of its old interval
/// name it as `from` (the executor reads those rows from checkpoints).
///
/// # Panics
/// Panics if the two layouts disagree on node count or total rows.
#[must_use]
pub fn transfer_plan(old: &[usize], new: &[usize]) -> Vec<Transfer> {
    assert_eq!(old.len(), new.len(), "node counts must match");
    let total = |rows: &[usize]| rows.iter().sum::<usize>();
    assert_eq!(total(old), total(new), "row totals must match");
    let old_off = offsets(old);
    let new_off = offsets(new);
    let mut plan = Vec::new();
    for from in 0..old.len() {
        let (a0, a1) = (old_off[from], old_off[from + 1]);
        for to in 0..new.len() {
            let (b0, b1) = (new_off[to], new_off[to + 1]);
            let lo = a0.max(b0);
            let hi = a1.min(b1);
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

/// Predict the wall time of executing `transfer_plan(old, new)` for
/// every streamed distributed variable of `model`'s program, in
/// nanoseconds.
///
/// It prices the one plan executor, `mheta_apps::redistribute::move_rows`,
/// as its disk adapter `redistribute_var` runs it: each outgoing block
/// is read from the local disk and shipped, the receiver writes it back,
/// and rows that stay local are rewritten at their new local offsets.
/// The model sums each node's own disk and endpoint work and adds one
/// wire latency for the final incoming block — nodes work concurrently,
/// so the estimate is the max over nodes.
#[must_use]
pub fn predict_cost_ns(model: &Mheta, old: &GenBlock, new: &GenBlock) -> f64 {
    let plan = transfer_plan(old.rows(), new.rows());
    let arch = model.arch();
    let comm = &arch.comm;
    let n = old.len();

    // Bytes per row across all streamed distributed variables.
    let row_bytes: f64 = model
        .structure()
        .distributed_vars()
        .filter(|v| !v.resident)
        .map(|v| v.row_bytes())
        .sum();

    let mut node_ns = vec![0.0f64; n];
    let mut incoming_transfer = vec![0.0f64; n];
    for t in &plan {
        let bytes = t.rows as f64 * row_bytes;
        let disk_from = &arch.disks[t.from];
        let disk_to = &arch.disks[t.to];
        if t.from == t.to {
            // Local relocation: one read + one write.
            node_ns[t.from] += disk_from.o_read
                + bytes * disk_from.read_ns_per_byte
                + disk_from.o_write
                + bytes * disk_from.write_ns_per_byte;
        } else {
            // Sender: read + send overhead. Receiver: recv + write.
            node_ns[t.from] += disk_from.o_read + bytes * disk_from.read_ns_per_byte + comm.o_s;
            node_ns[t.to] += comm.o_r + disk_to.o_write + bytes * disk_to.write_ns_per_byte;
            incoming_transfer[t.to] = incoming_transfer[t.to].max(comm.transfer_ns(bytes as u64));
        }
    }
    (0..n)
        .map(|i| node_ns[i] + incoming_transfer[i])
        .fold(0.0, f64::max)
}

/// Decide whether switching from `old` to `new` pays off for
/// `remaining_iters` more iterations: returns the predicted net saving
/// in nanoseconds (positive = switch).
#[must_use]
pub fn switch_benefit_ns(
    model: &Mheta,
    old: &GenBlock,
    new: &GenBlock,
    remaining_iters: u32,
) -> f64 {
    let stay = model
        .predict(old.rows())
        .map(|p| p.iteration_ns)
        .unwrap_or(f64::INFINITY);
    let go = model
        .predict(new.rows())
        .map(|p| p.iteration_ns)
        .unwrap_or(f64::INFINITY);
    let saving = (stay - go) * f64::from(remaining_iters);
    saving - predict_cost_ns(model, old, new)
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
