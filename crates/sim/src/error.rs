//! Error types for the cluster simulator.

use std::fmt;

/// Errors surfaced by the simulator substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum SimError {
    /// A rank index was out of range for the cluster.
    InvalidRank { rank: usize, size: usize },
    /// A disk variable was accessed before being created.
    UnknownVariable { var: u32, rank: usize },
    /// A disk access fell outside the stored variable's extent.
    OutOfBounds {
        var: u32,
        offset: usize,
        len: usize,
        extent: usize,
    },
    /// Every live rank is blocked waiting for a message or barrier that
    /// can never arrive: the simulated program has deadlocked.
    Deadlock { detail: String },
    /// Cluster configuration failed validation.
    InvalidConfig(String),
    /// An injected transient disk I/O failure; retryable. `attempt` is
    /// the 1-based count of consecutive failures on this variable.
    TransientIo { rank: usize, var: u32, attempt: u32 },
    /// This rank suffered a scheduled crash-stop failure: it stops
    /// executing permanently at virtual instant `at_ns`.
    Crashed { rank: usize, at_ns: u64 },
    /// A blocking operation was addressed to a crashed peer; the
    /// failure detector resolved it at virtual instant `at_ns` instead
    /// of letting the wait hang.
    PeerDead {
        rank: usize,
        peer: usize,
        at_ns: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidRank { rank, size } => {
                write!(f, "rank {rank} out of range for cluster of {size} nodes")
            }
            SimError::UnknownVariable { var, rank } => {
                write!(f, "variable {var} not present on node {rank}'s disk")
            }
            SimError::OutOfBounds {
                var,
                offset,
                len,
                extent,
            } => write!(
                f,
                "disk access [{offset}, {}) out of bounds for variable {var} of extent {extent}",
                offset + len
            ),
            SimError::Deadlock { detail } => write!(f, "simulated deadlock: {detail}"),
            SimError::InvalidConfig(msg) => write!(f, "invalid cluster config: {msg}"),
            SimError::TransientIo { rank, var, attempt } => write!(
                f,
                "transient I/O fault on node {rank}, variable {var} (consecutive attempt {attempt})"
            ),
            SimError::Crashed { rank, at_ns } => {
                write!(f, "rank {rank} crashed (crash-stop) at t = {at_ns} ns")
            }
            SimError::PeerDead { rank, peer, at_ns } => write!(
                f,
                "rank {rank}: peer {peer} is dead (failure detected at t = {at_ns} ns)"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Convenience alias used throughout the simulator.
pub type SimResult<T> = Result<T, SimError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::InvalidRank { rank: 9, size: 8 };
        assert!(e.to_string().contains("rank 9"));
        let e = SimError::OutOfBounds {
            var: 3,
            offset: 10,
            len: 5,
            extent: 12,
        };
        assert!(e.to_string().contains("[10, 15)"));
    }

    /// Every variant's `Display` must carry its distinguishing fields;
    /// these strings end up in test failures and operator logs.
    #[test]
    fn display_covers_every_variant() {
        let cases: Vec<(SimError, Vec<&str>)> = vec![
            (
                SimError::InvalidRank { rank: 9, size: 8 },
                vec!["rank 9", "8 nodes"],
            ),
            (
                SimError::UnknownVariable { var: 4, rank: 2 },
                vec!["variable 4", "node 2"],
            ),
            (
                SimError::OutOfBounds {
                    var: 3,
                    offset: 10,
                    len: 5,
                    extent: 12,
                },
                vec!["[10, 15)", "variable 3", "extent 12"],
            ),
            (
                SimError::Deadlock {
                    detail: "all ranks blocked".into(),
                },
                vec!["deadlock", "all ranks blocked"],
            ),
            (
                SimError::InvalidConfig("bad amplitude".into()),
                vec!["invalid cluster config", "bad amplitude"],
            ),
            (
                SimError::TransientIo {
                    rank: 5,
                    var: 7,
                    attempt: 3,
                },
                vec!["transient", "node 5", "variable 7", "attempt 3"],
            ),
            (
                SimError::Crashed {
                    rank: 3,
                    at_ns: 42_000,
                },
                vec!["rank 3", "crash-stop", "42000 ns"],
            ),
            (
                SimError::PeerDead {
                    rank: 1,
                    peer: 3,
                    at_ns: 99_000,
                },
                vec!["rank 1", "peer 3", "99000 ns"],
            ),
        ];
        for (err, needles) in cases {
            let s = err.to_string();
            for needle in needles {
                assert!(s.contains(needle), "{s:?} missing {needle:?}");
            }
        }
    }
}
