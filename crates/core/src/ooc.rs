//! The in-core / out-of-core classification heuristic and ICLA sizing.
//!
//! MHETA "currently uses a simple heuristic to determine if [a
//! variable] is out of core for a given distribution" (§4.2.1), and the
//! paper candidly lists that simplicity as its second accuracy
//! limitation (§5.4). This module is that heuristic, used by both the
//! model and — with *different inputs* — the applications:
//!
//! * the **model** calls it with zero overhead bytes and average
//!   rows-per-element figures (all it knows statically);
//! * the **applications** call it with their actual resident overhead
//!   (replicated vectors, boundary buffers) and, for sparse data,
//!   actual element counts.
//!
//! The divergence between those two calls near the in-core boundary is
//! what produces the paper's misclassification errors.

use std::collections::HashMap;

use mheta_sim::VarId;

/// Chunking plan for one distributed variable on one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VarPlan {
    /// True when the node's whole share fits in memory: no per-iteration
    /// I/O (reads are compulsory only).
    pub in_core: bool,
    /// Rows per in-core local array chunk (`ICLA`); equals the share
    /// when in core.
    pub icla_rows: usize,
    /// Number of disk passes `N_io = ceil(OCLA / ICLA)`; zero when in
    /// core (steady-state iterations touch the disk only when out of
    /// core).
    pub n_io: u64,
    /// Rows of the node's out-of-core local array (its whole share).
    pub ocla_rows: usize,
}

impl VarPlan {
    fn in_core(rows: usize) -> Self {
        VarPlan {
            in_core: true,
            icla_rows: rows,
            n_io: 0,
            ocla_rows: rows,
        }
    }
}

/// Compute the chunking plan for every distributed variable on a node.
///
/// * `memory_bytes` — the node's application memory capacity;
/// * `overhead_bytes` — resident bytes not subject to chunking
///   (replicated arrays, boundary buffers); the model passes 0;
/// * `my_rows` — rows assigned to this node by the distribution;
/// * `row_bytes` — bytes per row of each distributed variable.
///
/// All distributed variables stream together, so they share one
/// ICLA row count: `max(1, floor(available / Σ row_bytes))`.
#[must_use]
pub fn plan_node(
    memory_bytes: u64,
    overhead_bytes: f64,
    my_rows: usize,
    row_bytes: &[(VarId, f64)],
) -> HashMap<VarId, VarPlan> {
    let total_row_bytes: f64 = row_bytes.iter().map(|(_, b)| b).sum();
    let plan = plan_rows(memory_bytes, overhead_bytes, my_rows, total_row_bytes);
    row_bytes.iter().map(|&(v, _)| (v, plan)).collect()
}

/// The one plan every distributed variable of a node shares, from the
/// summed row footprint alone — [`plan_node`] without the per-variable
/// map, for callers (the evaluation kernel) that resolved the
/// variables once and only need the chunking per candidate.
#[must_use]
pub fn plan_rows(
    memory_bytes: u64,
    overhead_bytes: f64,
    my_rows: usize,
    total_row_bytes: f64,
) -> VarPlan {
    if my_rows == 0 {
        return VarPlan::in_core(0);
    }
    let needed = overhead_bytes + my_rows as f64 * total_row_bytes;
    if needed <= memory_bytes as f64 {
        return VarPlan::in_core(my_rows);
    }
    let avail = (memory_bytes as f64 - overhead_bytes).max(0.0);
    let icla_rows = ((avail / total_row_bytes).floor() as usize)
        .max(1)
        .min(my_rows);
    VarPlan {
        in_core: false,
        icla_rows,
        n_io: (my_rows as u64).div_ceil(icla_rows as u64),
        ocla_rows: my_rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_in_memory_is_in_core() {
        let plans = plan_node(10_000, 0.0, 100, &[(1, 80.0)]);
        let p = plans[&1];
        assert!(p.in_core);
        assert_eq!(p.n_io, 0);
        assert_eq!(p.icla_rows, 100);
    }

    #[test]
    fn exceeds_memory_chunks() {
        // 100 rows x 80 B = 8000 B share, 2000 B memory -> 25-row ICLAs.
        let plans = plan_node(2_000, 0.0, 100, &[(1, 80.0)]);
        let p = plans[&1];
        assert!(!p.in_core);
        assert_eq!(p.icla_rows, 25);
        assert_eq!(p.n_io, 4);
        assert_eq!(p.ocla_rows, 100);
    }

    #[test]
    fn n_io_is_ceiling() {
        // 26-row ICLA over 100 rows -> ceil(100/26) = 4.
        let plans = plan_node(2_080, 0.0, 100, &[(1, 80.0)]);
        assert_eq!(plans[&1].icla_rows, 26);
        assert_eq!(plans[&1].n_io, 4);
    }

    #[test]
    fn overhead_shrinks_available_memory() {
        let without = plan_node(2_000, 0.0, 100, &[(1, 80.0)]);
        let with = plan_node(2_000, 800.0, 100, &[(1, 80.0)]);
        assert!(with[&1].icla_rows < without[&1].icla_rows);
    }

    #[test]
    fn overhead_can_flip_classification() {
        // Exactly fits without overhead; overhead forces out of core —
        // the model/application divergence of §5.4.
        let model_view = plan_node(8_000, 0.0, 100, &[(1, 80.0)]);
        let app_view = plan_node(8_000, 1.0, 100, &[(1, 80.0)]);
        assert!(model_view[&1].in_core);
        assert!(!app_view[&1].in_core);
    }

    #[test]
    fn multiple_variables_share_the_budget() {
        // Two variables of 80 B/row: together 160 B/row.
        let plans = plan_node(2_000, 0.0, 100, &[(1, 80.0), (2, 80.0)]);
        assert_eq!(plans[&1].icla_rows, 12);
        assert_eq!(plans[&2].icla_rows, 12);
        assert_eq!(plans[&1].n_io, 9);
    }

    #[test]
    fn tiny_memory_degrades_to_single_row() {
        let plans = plan_node(10, 0.0, 50, &[(1, 80.0)]);
        assert_eq!(plans[&1].icla_rows, 1);
        assert_eq!(plans[&1].n_io, 50);
    }

    #[test]
    fn zero_rows_is_trivially_in_core() {
        let plans = plan_node(100, 0.0, 0, &[(1, 80.0)]);
        assert!(plans[&1].in_core);
        assert_eq!(plans[&1].n_io, 0);
    }

    #[test]
    fn icla_never_exceeds_share() {
        let plans = plan_node(1_000_000, 900_000.0, 5, &[(1, 80.0)]);
        assert!(plans[&1].icla_rows <= 5);
    }
}
