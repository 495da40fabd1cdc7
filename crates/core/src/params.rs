//! Architecture parameters as *measured* by microbenchmarks.
//!
//! MHETA does not read the simulator's cost tables; it derives its
//! parameters the way the paper does — from microbenchmarks ("We use
//! microbenchmarks to measure some basic communication costs, such as
//! send and receive overheads and send latency per byte between nodes",
//! §4.1) and from the instrumented iteration. The only configuration
//! fact the model consumes directly is each node's memory capacity,
//! which the runtime system legitimately knows.

use serde::Serialize;

/// Communication parameters measured by the ping microbenchmark.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CommParams {
    /// Sender-side overhead `o_s`, ns.
    pub o_s: f64,
    /// Receiver-side overhead `o_r`, ns.
    pub o_r: f64,
    /// Per-message wire latency `alpha`, ns.
    pub alpha: f64,
    /// Per-byte transfer cost `beta`, ns/byte.
    pub beta: f64,
}

impl CommParams {
    /// In-flight transfer time for a `bytes`-byte message.
    #[must_use]
    pub fn transfer_ns(&self, bytes: u64) -> f64 {
        self.alpha + bytes as f64 * self.beta
    }
}

/// Per-node disk parameters measured by the disk microbenchmark.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DiskParams {
    /// Read seek overhead `O_r`, ns.
    pub o_read: f64,
    /// Write seek overhead `O_w`, ns.
    pub o_write: f64,
    /// Read latency per byte, ns (fallback when the instrumented run
    /// provides no per-variable latency).
    pub read_ns_per_byte: f64,
    /// Write latency per byte, ns.
    pub write_ns_per_byte: f64,
}

/// Everything the model knows about the architecture.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ArchParams {
    /// Cluster name (for reporting).
    pub name: String,
    /// Communication parameters (uniform network).
    pub comm: CommParams,
    /// Per-node disk parameters.
    pub disks: Vec<DiskParams>,
    /// Per-node application memory capacity, bytes.
    pub memory_bytes: Vec<u64>,
}

impl ArchParams {
    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.memory_bytes.len()
    }

    /// True when the cluster has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.memory_bytes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_is_affine() {
        let c = CommParams {
            o_s: 1.0,
            o_r: 1.0,
            alpha: 100.0,
            beta: 2.0,
        };
        assert_eq!(c.transfer_ns(0), 100.0);
        assert_eq!(c.transfer_ns(50), 200.0);
    }
}
