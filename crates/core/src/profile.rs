//! The instrumented-iteration profile: everything MHETA learns from
//! running one iteration of the application with the hooks attached.

use std::collections::HashMap;

use mheta_mpi::Scope;
use mheta_sim::VarId;

/// Per-node measurements from the instrumented iteration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeProfile {
    /// Rank index.
    pub rank: usize,
    /// Computation time per assigned row for each (section, tile,
    /// stage), ns/row — the `T_c / W` of §4.2.1, stored per-row so a
    /// new distribution's `T_c' = (T_c/W) · W'`. Derived as stage wall
    /// time minus I/O time, divided by instrumented rows.
    pub compute_ns_per_row: HashMap<Scope, f64>,
    /// Measured per-element read latency `l_r(v)` for each variable
    /// that performed I/O during the instrumented iteration.
    pub read_ns_per_elem: HashMap<VarId, f64>,
    /// Measured per-element write latency `l_w(v)`.
    pub write_ns_per_elem: HashMap<VarId, f64>,
    /// Per-section outgoing message payload size (bytes), from the
    /// communication-participant extraction of §4.1.2.
    pub section_send_bytes: HashMap<u32, u64>,
}

/// The full profile: one [`NodeProfile`] per rank plus the distribution
/// the instrumented iteration ran with.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InstrumentedProfile {
    /// Per-rank measurements.
    pub nodes: Vec<NodeProfile>,
    /// Rows assigned to each node during the instrumented run (the
    /// paper instruments under a Block distribution, §5.1).
    pub rows: Vec<usize>,
}

impl InstrumentedProfile {
    /// Computation cost per row on `rank` for `scope`, falling back to
    /// the cluster-wide mean for scopes this node never timed (a node
    /// with zero instrumented rows cannot provide its own figure).
    #[must_use]
    pub fn compute_ns_per_row(&self, rank: usize, scope: Scope) -> f64 {
        if let Some(&v) = self.nodes[rank].compute_ns_per_row.get(&scope) {
            if v.is_finite() && v > 0.0 {
                return v;
            }
        }
        let (sum, n) = self
            .nodes
            .iter()
            .filter_map(|p| p.compute_ns_per_row.get(&scope))
            .filter(|v| v.is_finite() && **v > 0.0)
            .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Per-element read latency of `var` on `rank`; falls back to the
    /// cross-node mean (the paper forces every node to perform I/O in
    /// the instrumented run precisely so this is rarely needed, §4.1.1).
    #[must_use]
    pub fn read_ns_per_elem(&self, rank: usize, var: VarId) -> Option<f64> {
        self.nodes[rank]
            .read_ns_per_elem
            .get(&var)
            .copied()
            .or_else(|| mean_over(&self.nodes, |p| p.read_ns_per_elem.get(&var).copied()))
    }

    /// Per-element write latency of `var` on `rank`, with the same
    /// fallback as reads.
    #[must_use]
    pub fn write_ns_per_elem(&self, rank: usize, var: VarId) -> Option<f64> {
        self.nodes[rank]
            .write_ns_per_elem
            .get(&var)
            .copied()
            .or_else(|| mean_over(&self.nodes, |p| p.write_ns_per_elem.get(&var).copied()))
    }

    /// Outgoing message size for `section` (bytes), max across nodes.
    #[must_use]
    pub fn section_send_bytes(&self, section: u32) -> u64 {
        self.nodes
            .iter()
            .filter_map(|p| p.section_send_bytes.get(&section).copied())
            .max()
            .unwrap_or(0)
    }
}

fn mean_over<F>(nodes: &[NodeProfile], get: F) -> Option<f64>
where
    F: Fn(&NodeProfile) -> Option<f64>,
{
    let vals: Vec<f64> = nodes.iter().filter_map(get).collect();
    if vals.is_empty() {
        None
    } else {
        Some(vals.iter().sum::<f64>() / vals.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scope(section: u32, stage: u32) -> Scope {
        Scope {
            section,
            tile: 0,
            stage,
        }
    }

    fn profile_two_nodes() -> InstrumentedProfile {
        let mut a = NodeProfile {
            rank: 0,
            ..Default::default()
        };
        a.compute_ns_per_row.insert(scope(0, 0), 100.0);
        a.read_ns_per_elem.insert(1, 50.0);
        a.section_send_bytes.insert(0, 64);
        let mut b = NodeProfile {
            rank: 1,
            ..Default::default()
        };
        b.compute_ns_per_row.insert(scope(0, 0), 200.0);
        InstrumentedProfile {
            nodes: vec![a, b],
            rows: vec![10, 10],
        }
    }

    #[test]
    fn per_node_value_preferred() {
        let p = profile_two_nodes();
        assert_eq!(p.compute_ns_per_row(0, scope(0, 0)), 100.0);
        assert_eq!(p.compute_ns_per_row(1, scope(0, 0)), 200.0);
    }

    #[test]
    fn missing_scope_falls_back_to_mean() {
        let mut p = profile_two_nodes();
        p.nodes[1].compute_ns_per_row.clear();
        assert_eq!(p.compute_ns_per_row(1, scope(0, 0)), 100.0);
    }

    #[test]
    fn unknown_scope_yields_zero() {
        let p = profile_two_nodes();
        assert_eq!(p.compute_ns_per_row(0, scope(9, 9)), 0.0);
    }

    #[test]
    fn read_latency_falls_back_to_other_nodes() {
        let p = profile_two_nodes();
        assert_eq!(p.read_ns_per_elem(1, 1), Some(50.0));
        assert_eq!(p.read_ns_per_elem(0, 99), None);
    }

    #[test]
    fn send_bytes_max_across_nodes() {
        let p = profile_two_nodes();
        assert_eq!(p.section_send_bytes(0), 64);
        assert_eq!(p.section_send_bytes(7), 0);
    }
}
