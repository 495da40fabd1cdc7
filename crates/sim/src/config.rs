//! Cluster configuration: the heterogeneous architecture of the paper's
//! Figure 2 — `n` nodes, each with its own relative CPU power, memory
//! capacity, and local-disk I/O latency, joined by a uniform network.
//!
//! All latency-like fields are fractional nanoseconds (`f64`); the cost
//! model multiplies and sums in `f64` and rounds once when charging a
//! rank's virtual clock.

use crate::error::{SimError, SimResult};
use crate::fault::FaultSpec;

/// One node of the heterogeneous cluster (Figure 2 of the paper).
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct NodeSpec {
    /// Relative CPU power; 1.0 is the baseline node. A node with power
    /// 2.0 performs a unit of work in half the baseline time. The paper
    /// emulates a slower CPU "by forcing the process to do extra work";
    /// we divide the charged compute time instead, which is equivalent.
    pub cpu_power: f64,
    /// Physical memory available to the application for in-core local
    /// arrays (ICLAs), in bytes.
    pub memory_bytes: u64,
    /// Fixed per-access read seek overhead `O_r`, ns.
    pub io_read_seek_ns: f64,
    /// Fixed per-access write seek overhead `O_w`, ns.
    pub io_write_seek_ns: f64,
    /// Per-byte read latency, ns/byte (the paper emulates differing I/O
    /// speeds by scaling transfer sizes; we scale latency, which yields
    /// the same charged duration).
    pub io_read_ns_per_byte: f64,
    /// Per-byte write latency, ns/byte.
    pub io_write_ns_per_byte: f64,
    /// Working sets at or below this size enjoy the cache speedup. This
    /// models the memory-cache hierarchy effect that MHETA explicitly
    /// does NOT capture (paper §5.4, limitation 1).
    pub cache_bytes: u64,
    /// Multiplier (< 1.0) applied to compute cost when the working set
    /// fits in `cache_bytes`.
    pub cache_speedup: f64,
    /// Multiplier (≤ 1.0) applied to a variable's read latency after
    /// its first complete traversal: sequential re-reads benefit from
    /// OS read-ahead and buffer caching. The instrumented iteration
    /// measures *cold* reads, so MHETA slightly overestimates I/O for
    /// the remaining (warm) iterations — the paper's observed
    /// overestimation right before the I-C distribution (§5.2.2).
    pub warm_read_factor: f64,
}

impl Default for NodeSpec {
    fn default() -> Self {
        NodeSpec {
            cpu_power: 1.0,
            memory_bytes: 512 * 1024,
            io_read_seek_ns: 5.0e6,     // 5 ms seek
            io_write_seek_ns: 6.0e6,    // 6 ms seek
            io_read_ns_per_byte: 500.0, // synthetic out-of-core scale
            io_write_ns_per_byte: 550.0,
            cache_bytes: 64 * 1024,
            cache_speedup: 0.93,
            warm_read_factor: 0.9,
        }
    }
}

impl NodeSpec {
    /// Scale this node's CPU power (builder-style).
    #[must_use]
    pub fn with_cpu_power(mut self, p: f64) -> Self {
        self.cpu_power = p;
        self
    }

    /// Set this node's memory capacity (builder-style).
    #[must_use]
    pub fn with_memory(mut self, bytes: u64) -> Self {
        self.memory_bytes = bytes;
        self
    }

    /// Scale both read and write I/O latency by `factor` (builder-style).
    /// `factor > 1` means a slower disk.
    #[must_use]
    pub fn with_io_factor(mut self, factor: f64) -> Self {
        self.io_read_seek_ns *= factor;
        self.io_write_seek_ns *= factor;
        self.io_read_ns_per_byte *= factor;
        self.io_write_ns_per_byte *= factor;
        self
    }
}

/// Uniform interconnect parameters (LogP-style: overheads, latency, and
/// inverse bandwidth).
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct NetSpec {
    /// Sender-side overhead `o_s`, ns: CPU time to prepare and copy the
    /// message into a system buffer.
    pub send_overhead_ns: f64,
    /// Receiver-side overhead `o_r`, ns: CPU time to process an
    /// incoming message.
    pub recv_overhead_ns: f64,
    /// Wire latency `alpha`, ns, paid once per message.
    pub latency_ns: f64,
    /// Inverse bandwidth `beta`, ns per payload byte.
    pub ns_per_byte: f64,
}

impl Default for NetSpec {
    fn default() -> Self {
        NetSpec {
            send_overhead_ns: 20_000.0, // 20 us
            recv_overhead_ns: 20_000.0, // 20 us
            latency_ns: 50_000.0,       // 50 us
            ns_per_byte: 10.0,          // ~100 MB/s
        }
    }
}

impl NetSpec {
    /// Full in-flight transfer time for a message of `bytes` payload
    /// bytes: `alpha + bytes * beta` (excludes endpoint overheads).
    #[must_use]
    pub fn transfer_ns(&self, bytes: u64) -> f64 {
        self.latency_ns + bytes as f64 * self.ns_per_byte
    }
}

/// Deterministic noise applied to every charged cost, modelling the
/// run-to-run perturbations that make the paper's instrumented iteration
/// imperfect (§5.2.1 reports up to 1% error even at the instrumented
/// distribution).
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct NoiseSpec {
    /// Half-width of the multiplicative uniform perturbation: each cost
    /// is scaled by a factor drawn from `[1 - amplitude, 1 + amplitude]`.
    /// Zero disables noise entirely.
    pub amplitude: f64,
}

impl Default for NoiseSpec {
    fn default() -> Self {
        NoiseSpec { amplitude: 0.01 }
    }
}

/// The whole emulated cluster.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct ClusterSpec {
    /// Human-readable name (e.g. "DC", "IO", "HY1").
    pub name: String,
    /// Per-node hardware.
    pub nodes: Vec<NodeSpec>,
    /// Interconnect.
    pub net: NetSpec,
    /// Baseline cost of one unit of application work on a power-1.0
    /// node, ns. Applications count work in algorithm-specific units
    /// (element updates, multiply-adds); this constant sets the scale.
    pub compute_ns_per_unit: f64,
    /// Cost perturbation model.
    pub noise: NoiseSpec,
    /// Master RNG seed; every run of the same program on the same spec
    /// and seed is bit-identical.
    pub seed: u64,
    /// Deterministic fault-injection plan. Disabled by default; see
    /// [`crate::fault`].
    pub faults: FaultSpec,
}

impl ClusterSpec {
    /// A homogeneous cluster of `n` default nodes.
    #[must_use]
    pub fn homogeneous(n: usize) -> Self {
        ClusterSpec {
            name: format!("HOM{n}"),
            nodes: vec![NodeSpec::default(); n],
            net: NetSpec::default(),
            compute_ns_per_unit: 2_000.0,
            noise: NoiseSpec::default(),
            seed: 0x4d48_4554_4121,
            faults: FaultSpec::default(),
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the cluster has no nodes (never valid for execution).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// True when all nodes have identical relative CPU power. The
    /// distribution spectrum degenerates in this case (Blk == Bal,
    /// paper §5.1).
    #[must_use]
    pub fn uniform_cpu(&self) -> bool {
        self.nodes
            .windows(2)
            .all(|w| (w[0].cpu_power - w[1].cpu_power).abs() < 1e-12)
    }

    /// Validate physical plausibility; called by the engine at startup.
    pub fn validate(&self) -> SimResult<()> {
        if self.nodes.is_empty() {
            return Err(SimError::InvalidConfig("cluster has zero nodes".into()));
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if !(n.cpu_power.is_finite() && n.cpu_power > 0.0) {
                return Err(SimError::InvalidConfig(format!(
                    "node {i}: cpu_power must be positive and finite, got {}",
                    n.cpu_power
                )));
            }
            if n.memory_bytes == 0 {
                return Err(SimError::InvalidConfig(format!(
                    "node {i}: memory_bytes must be nonzero"
                )));
            }
            for (label, v) in [
                ("io_read_seek_ns", n.io_read_seek_ns),
                ("io_write_seek_ns", n.io_write_seek_ns),
                ("io_read_ns_per_byte", n.io_read_ns_per_byte),
                ("io_write_ns_per_byte", n.io_write_ns_per_byte),
            ] {
                if !(v.is_finite() && v >= 0.0) {
                    return Err(SimError::InvalidConfig(format!(
                        "node {i}: {label} must be nonnegative and finite, got {v}"
                    )));
                }
            }
            if !(n.cache_speedup.is_finite() && n.cache_speedup > 0.0 && n.cache_speedup <= 1.0) {
                return Err(SimError::InvalidConfig(format!(
                    "node {i}: cache_speedup must be in (0, 1], got {}",
                    n.cache_speedup
                )));
            }
            if !(n.warm_read_factor.is_finite()
                && n.warm_read_factor > 0.0
                && n.warm_read_factor <= 1.0)
            {
                return Err(SimError::InvalidConfig(format!(
                    "node {i}: warm_read_factor must be in (0, 1], got {}",
                    n.warm_read_factor
                )));
            }
        }
        if !(self.compute_ns_per_unit.is_finite() && self.compute_ns_per_unit > 0.0) {
            return Err(SimError::InvalidConfig(
                "compute_ns_per_unit must be positive".into(),
            ));
        }
        if !(self.noise.amplitude.is_finite() && (0.0..1.0).contains(&self.noise.amplitude)) {
            return Err(SimError::InvalidConfig(format!(
                "noise amplitude must be in [0, 1) — a multiplicative half-width; \
                 amplitudes ≥ 1.0 would allow nonpositive cost factors — got {}",
                self.noise.amplitude
            )));
        }
        self.faults.validate(self.nodes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_cluster_validates() {
        let c = ClusterSpec::homogeneous(8);
        assert_eq!(c.len(), 8);
        assert!(c.uniform_cpu());
        c.validate().expect("default cluster must be valid");
    }

    #[test]
    fn zero_nodes_rejected() {
        let mut c = ClusterSpec::homogeneous(2);
        c.nodes.clear();
        assert!(c.validate().is_err());
    }

    #[test]
    fn negative_cpu_power_rejected() {
        let mut c = ClusterSpec::homogeneous(2);
        c.nodes[1].cpu_power = -1.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_memory_rejected() {
        let mut c = ClusterSpec::homogeneous(2);
        c.nodes[0].memory_bytes = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn cache_speedup_bounds_enforced() {
        let mut c = ClusterSpec::homogeneous(2);
        c.nodes[0].cache_speedup = 1.5;
        assert!(c.validate().is_err());
        c.nodes[0].cache_speedup = 0.9;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn noise_amplitude_bounds() {
        let mut c = ClusterSpec::homogeneous(2);
        c.noise.amplitude = 1.0;
        let err = c.validate().unwrap_err();
        assert!(
            err.to_string().contains("amplitude") && err.to_string().contains('1'),
            "{err}"
        );
        c.noise.amplitude = 0.0;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn fault_spec_validated_through_cluster() {
        let mut c = ClusterSpec::homogeneous(2);
        c.faults.msg_resend_rate = 2.0;
        assert!(c.validate().is_err());
        c.faults.msg_resend_rate = 0.1;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn io_factor_scales_all_disk_costs() {
        let n = NodeSpec::default().with_io_factor(2.0);
        let d = NodeSpec::default();
        assert_eq!(n.io_read_seek_ns, d.io_read_seek_ns * 2.0);
        assert_eq!(n.io_write_ns_per_byte, d.io_write_ns_per_byte * 2.0);
    }

    #[test]
    fn uniform_cpu_detects_variation() {
        let mut c = ClusterSpec::homogeneous(4);
        assert!(c.uniform_cpu());
        c.nodes[2].cpu_power = 2.0;
        assert!(!c.uniform_cpu());
    }

    #[test]
    fn transfer_time_is_affine_in_bytes() {
        let net = NetSpec::default();
        let base = net.transfer_ns(0);
        assert_eq!(base, net.latency_ns);
        assert_eq!(net.transfer_ns(100) - base, 100.0 * net.ns_per_byte);
    }
}
