//! Emulated architecture presets.
//!
//! The paper evaluates MHETA on seventeen emulated 8-node architectures
//! (twelve of which are reused for the prefetching experiments), four of
//! which are described in detail in Table 1:
//!
//! * **DC** ("different CPUs") — two nodes with lower and two with
//!   higher relative CPU power; memory and disks uniform and ample.
//! * **IO** ("I/O-induced") — uniform CPU power, but half the nodes have
//!   high I/O latency and small memories.
//! * **HY1** (hybrid) — four nodes with varying CPU powers, the other
//!   four with low I/O latency and small memories.
//! * **HY2** (hybrid) — four nodes with varying CPU power, two with high
//!   I/O latency, two with large memories.
//!
//! The remaining architectures sweep the same axes (CPU spread, memory
//! restriction, disk speed) to populate the min/avg/max statistics of
//! Figure 9. Absolute scales are synthetic (see DESIGN.md): only the
//! *ratios* between computation, communication, and I/O matter for the
//! phenomena the paper studies.

use crate::config::{ClusterSpec, NodeSpec};
use crate::fault::FaultSpec;

/// Nodes per emulated cluster, as in the paper's testbed.
pub const CLUSTER_NODES: usize = 8;

/// Baseline application memory per node, bytes. Datasets are sized so a
/// block distribution leaves each baseline node in core.
pub const BASE_MEMORY: u64 = 512 * 1024;

/// A restricted node's memory: forces out-of-core local arrays.
pub const SMALL_MEMORY: u64 = 64 * 1024;

/// An ample node's memory: in core even under very skewed distributions.
pub const LARGE_MEMORY: u64 = 4 * 1024 * 1024;

fn base_nodes() -> Vec<NodeSpec> {
    vec![NodeSpec::default().with_memory(BASE_MEMORY); CLUSTER_NODES]
}

fn cluster(name: &str, nodes: Vec<NodeSpec>) -> ClusterSpec {
    let mut c = ClusterSpec::homogeneous(CLUSTER_NODES);
    c.name = name.to_string();
    c.nodes = nodes;
    c
}

/// Table 1, configuration **DC**: two slower nodes, two faster nodes,
/// the rest at baseline; memory ample everywhere so I/O never dominates.
#[must_use]
pub fn dc() -> ClusterSpec {
    let mut nodes = base_nodes();
    for n in &mut nodes {
        n.memory_bytes = LARGE_MEMORY;
    }
    nodes[0].cpu_power = 0.5;
    nodes[1].cpu_power = 0.5;
    nodes[6].cpu_power = 1.75;
    nodes[7].cpu_power = 1.75;
    cluster("DC", nodes)
}

/// Table 1, configuration **IO**: equal CPU power, half the nodes with
/// high I/O latency and small memories.
#[must_use]
pub fn io() -> ClusterSpec {
    let mut nodes = base_nodes();
    for n in &mut nodes[4..] {
        n.memory_bytes = SMALL_MEMORY;
        *n = n.clone().with_io_factor(3.0);
    }
    cluster("IO", nodes)
}

/// Table 1, configuration **HY1**: four nodes with varying CPU power,
/// four with low I/O latency and small memories.
#[must_use]
pub fn hy1() -> ClusterSpec {
    let mut nodes = base_nodes();
    let powers = [1.0, 1.3, 1.6, 2.0];
    for (n, &p) in nodes[..4].iter_mut().zip(&powers) {
        n.cpu_power = p;
    }
    for n in &mut nodes[4..] {
        n.memory_bytes = SMALL_MEMORY;
        *n = n.clone().with_io_factor(0.5);
    }
    cluster("HY1", nodes)
}

/// Table 1, configuration **HY2**: four nodes with varying CPU power,
/// two with high I/O latency, two with large memories.
#[must_use]
pub fn hy2() -> ClusterSpec {
    let mut nodes = base_nodes();
    let powers = [0.6, 1.0, 1.4, 1.8];
    for (n, &p) in nodes[..4].iter_mut().zip(&powers) {
        n.cpu_power = p;
    }
    for n in &mut nodes[4..6] {
        n.memory_bytes = 2 * SMALL_MEMORY;
        *n = n.clone().with_io_factor(2.0);
    }
    for n in &mut nodes[6..] {
        n.memory_bytes = LARGE_MEMORY;
    }
    cluster("HY2", nodes)
}

/// Short prose description of a Table 1 configuration, for the
/// `table1` experiment binary.
#[must_use]
pub fn table1_description(name: &str) -> &'static str {
    match name {
        "DC" => {
            "Two nodes have a lower relative CPU power, and two other nodes \
             have higher relative CPU power. The rest are unchanged."
        }
        "IO" => {
            "Half of the nodes have high I/O latency and small memories, but \
             all nodes have equal relative CPU power."
        }
        "HY1" => {
            "Four nodes have varying relative CPU powers and the other four \
             have low I/O latencies and small memories."
        }
        "HY2" => {
            "Four nodes have varying relative CPU power and two nodes have \
             high I/O latencies. The other two have large memories."
        }
        _ => "(not a Table 1 configuration)",
    }
}

/// The seventeen emulated architectures of the non-prefetching accuracy
/// experiment (Figure 9, top left). The four named Table 1 configs are
/// included; the rest sweep CPU spread, memory restriction, and disk
/// speed individually and in combination.
#[must_use]
pub fn seventeen_architectures() -> Vec<ClusterSpec> {
    let mut archs = vec![dc(), io(), hy1(), hy2()];

    // A05: graded CPU powers, ample memory (pure load-balance problem).
    let mut nodes = base_nodes();
    for (i, n) in nodes.iter_mut().enumerate() {
        n.cpu_power = 0.6 + 0.2 * i as f64;
        n.memory_bytes = LARGE_MEMORY;
    }
    archs.push(cluster("A05-gradedcpu", nodes));

    // A06: single very slow node.
    let mut nodes = base_nodes();
    for n in &mut nodes {
        n.memory_bytes = LARGE_MEMORY;
    }
    nodes[3].cpu_power = 0.25;
    archs.push(cluster("A06-onesnail", nodes));

    // A07: alternating small memories, uniform CPU.
    let mut nodes = base_nodes();
    for n in nodes.iter_mut().step_by(2) {
        n.memory_bytes = SMALL_MEMORY;
    }
    archs.push(cluster("A07-altmem", nodes));

    // A08: two nodes with tiny memory and very slow disks.
    let mut nodes = base_nodes();
    for n in &mut nodes[..2] {
        n.memory_bytes = SMALL_MEMORY;
        *n = n.clone().with_io_factor(6.0);
    }
    archs.push(cluster("A08-2slowdisk", nodes));

    // A09: graded disks (each node slower than the last), baseline mem.
    let mut nodes = base_nodes();
    for (i, n) in nodes.iter_mut().enumerate() {
        *n = n.clone().with_io_factor(0.5 + 0.5 * i as f64);
        n.memory_bytes = 128 * 1024;
    }
    archs.push(cluster("A09-gradeddisk", nodes));

    // A10: fast CPUs paired with small memories (compute vs I/O tension).
    let mut nodes = base_nodes();
    for n in &mut nodes[4..] {
        n.cpu_power = 2.0;
        n.memory_bytes = SMALL_MEMORY;
    }
    archs.push(cluster("A10-fastsmall", nodes));

    // A11: slow CPUs paired with large memories.
    let mut nodes = base_nodes();
    for n in &mut nodes[..4] {
        n.cpu_power = 0.5;
        n.memory_bytes = LARGE_MEMORY;
    }
    archs.push(cluster("A11-slowlarge", nodes));

    // A12: uniformly memory-starved cluster (everything out of core).
    let mut nodes = base_nodes();
    for n in &mut nodes {
        n.memory_bytes = SMALL_MEMORY;
    }
    archs.push(cluster("A12-allooc", nodes));

    // A13: one node with everything wrong (slow CPU, slow disk, tiny mem).
    let mut nodes = base_nodes();
    nodes[7].cpu_power = 0.4;
    nodes[7].memory_bytes = SMALL_MEMORY;
    nodes[7] = nodes[7].clone().with_io_factor(4.0);
    archs.push(cluster("A13-onebad", nodes));

    // A14: mild heterogeneity on all three axes.
    let mut nodes = base_nodes();
    for (i, n) in nodes.iter_mut().enumerate() {
        n.cpu_power = 0.9 + 0.05 * i as f64;
        n.memory_bytes = BASE_MEMORY - 56 * 1024 * i as u64;
        *n = n.clone().with_io_factor(1.0 + 0.15 * i as f64);
    }
    archs.push(cluster("A14-mild", nodes));

    // A15: strong bimodal CPU split, ample memory.
    let mut nodes = base_nodes();
    for (i, n) in nodes.iter_mut().enumerate() {
        n.cpu_power = if i < 4 { 0.5 } else { 2.0 };
        n.memory_bytes = LARGE_MEMORY;
    }
    archs.push(cluster("A15-bimodal", nodes));

    // A16: heterogeneous disks only (uniform CPU, baseline memory).
    let mut nodes = base_nodes();
    for (i, n) in nodes.iter_mut().enumerate() {
        *n = n.clone().with_io_factor(if i % 2 == 0 { 0.5 } else { 2.5 });
        n.memory_bytes = 96 * 1024;
    }
    archs.push(cluster("A16-diskonly", nodes));

    // A17: hybrid — graded CPUs with graded, inverted memory (fastest
    // node has the least memory).
    let mut nodes = base_nodes();
    for (i, n) in nodes.iter_mut().enumerate() {
        n.cpu_power = 0.7 + 0.2 * i as f64;
        n.memory_bytes = BASE_MEMORY
            .saturating_sub(56 * 1024 * i as u64)
            .max(SMALL_MEMORY);
    }
    archs.push(cluster("A17-inverted", nodes));

    assert_eq!(archs.len(), 17);
    archs
}

/// The twelve architectures reused for the prefetching experiment
/// (Figure 9, top right): the subset of the seventeen in which at least
/// one node is memory-restricted, so prefetching has latency to hide.
#[must_use]
pub fn twelve_prefetch_architectures() -> Vec<ClusterSpec> {
    let picked: Vec<ClusterSpec> = seventeen_architectures()
        .into_iter()
        .filter(|a| a.nodes.iter().any(|n| n.memory_bytes <= 2 * SMALL_MEMORY))
        .collect();
    assert!(
        picked.len() >= 12,
        "need at least 12 memory-restricted architectures, got {}",
        picked.len()
    );
    picked.into_iter().take(12).collect()
}

/// A moderate, deterministic fault profile for robustness experiments:
/// occasional transient disk errors and rare message retransmits.
/// Rates are low enough that retry-enabled runs always converge, high
/// enough that both classes fire in a typical application run.
#[must_use]
pub fn standard_fault_profile() -> FaultSpec {
    FaultSpec {
        disk_read_fault_rate: 0.05,
        disk_write_fault_rate: 0.03,
        msg_resend_rate: 0.02,
        ..FaultSpec::default()
    }
}

/// `base` with a single crash-stop failure of `rank` at iteration `it`
/// and checkpointing every `interval` iterations; the name gains a
/// `+crash` suffix so result tables distinguish failure runs.
#[must_use]
pub fn with_crash(mut base: ClusterSpec, rank: usize, it: u32, interval: u32) -> ClusterSpec {
    base.name = format!("{}+crash", base.name);
    base.faults.crashes = vec![crate::fault::CrashSpec::at_iteration(rank, it)];
    base.faults.checkpoint_interval = interval;
    base
}

/// `base` with a single persistent degradation of `rank` by `factor`
/// from iteration `it`; the name gains a `+deg` suffix so result
/// tables distinguish degraded runs.
#[must_use]
pub fn with_degrade(mut base: ClusterSpec, rank: usize, it: u32, factor: f64) -> ClusterSpec {
    base.name = format!("{}+deg", base.name);
    base.faults
        .degrades
        .push(crate::fault::DegradeSpec::at_iteration(rank, it, factor));
    base
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn all_presets_validate() {
        for a in seventeen_architectures() {
            a.validate().unwrap_or_else(|e| panic!("{}: {e}", a.name));
            assert_eq!(a.len(), CLUSTER_NODES);
        }
    }

    #[test]
    fn names_are_unique() {
        let names: HashSet<String> = seventeen_architectures()
            .into_iter()
            .map(|a| a.name)
            .collect();
        assert_eq!(names.len(), 17);
    }

    #[test]
    fn faulty_presets_validate_and_are_marked() {
        for mut a in [dc(), io(), hy1(), hy2()] {
            a.faults = standard_fault_profile();
            a.validate().unwrap_or_else(|e| panic!("{}: {e}", a.name));
        }
        // Plain presets stay fault-free.
        for a in seventeen_architectures() {
            assert_eq!(
                a.faults,
                FaultSpec::default(),
                "{} unexpectedly faulty",
                a.name
            );
        }
    }

    #[test]
    fn dc_has_cpu_spread_and_no_memory_pressure() {
        let a = dc();
        assert!(!a.uniform_cpu());
        assert!(a.nodes.iter().all(|n| n.memory_bytes >= LARGE_MEMORY));
    }

    #[test]
    fn io_is_cpu_uniform_with_half_restricted() {
        let a = io();
        assert!(a.uniform_cpu());
        let restricted = a
            .nodes
            .iter()
            .filter(|n| n.memory_bytes == SMALL_MEMORY)
            .count();
        assert_eq!(restricted, 4);
    }

    #[test]
    fn hybrids_vary_both_axes() {
        for a in [hy1(), hy2()] {
            assert!(!a.uniform_cpu(), "{} should vary CPU", a.name);
            assert!(
                a.nodes.iter().any(|n| n.memory_bytes <= 2 * SMALL_MEMORY),
                "{} should restrict memory somewhere",
                a.name
            );
        }
    }

    #[test]
    fn prefetch_subset_is_twelve_and_restricted() {
        let archs = twelve_prefetch_architectures();
        assert_eq!(archs.len(), 12);
        for a in &archs {
            assert!(a.nodes.iter().any(|n| n.memory_bytes <= 2 * SMALL_MEMORY));
        }
    }

    #[test]
    fn table1_descriptions_exist() {
        for name in ["DC", "IO", "HY1", "HY2"] {
            assert!(!table1_description(name).is_empty());
            assert!(!table1_description(name).contains("not a Table 1"));
        }
        assert!(table1_description("nope").contains("not a Table 1"));
    }
}
