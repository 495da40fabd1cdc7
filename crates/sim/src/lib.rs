//! # mheta-sim — virtual-time heterogeneous cluster simulator
//!
//! This crate is the hardware substrate for the MHETA reproduction: an
//! emulation of the paper's Figure 2 architecture — a cluster of nodes
//! that differ in relative CPU power, memory capacity, and local-disk
//! I/O latency, joined by a uniform network.
//!
//! Programs run as real Rust code, one parked worker thread per
//! simulated rank, reused across runs, computing real numerical
//! results; *time*, however, is virtual. Each rank carries its own
//! clock, advanced by a LogP-flavoured cost model for computation, disk
//! transfers, and messages. Blocking receives rendezvous through a
//! shared kernel that reconciles clocks, so the simulated makespan of a
//! message-passing program is exact with respect to the cost model,
//! independent of host scheduling.
//! A program in which no rank ever waits for a later one needs no
//! threads at all: [`run_in_rank_order`] runs it, to the same bits, on
//! the caller's thread.
//!
//! The crate deliberately includes effects MHETA does *not* model —
//! per-operation noise, a cache-tier computation speedup — because the
//! paper's accuracy numbers are defined by exactly those unmodeled
//! effects (§5.4).
//!
//! ## Quick example
//!
//! ```
//! use mheta_sim::{run_cluster, ClusterSpec};
//!
//! let spec = ClusterSpec::homogeneous(4);
//! let run = run_cluster(&spec, false, |ctx| {
//!     ctx.compute(1_000.0, u64::MAX);
//!     if ctx.rank() > 0 {
//!         ctx.send(0, 0, vec![ctx.rank() as u8])?;
//!     } else {
//!         for r in 1..ctx.size() {
//!             ctx.recv(r, 0)?;
//!         }
//!     }
//!     Ok(())
//! })
//! .unwrap();
//! assert!(run.makespan().as_secs_f64() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod config;
pub mod disk;
pub mod engine;
pub mod error;
pub mod fault;
pub mod noise;
pub mod presets;
pub mod time;
pub mod trace;

pub use config::{ClusterSpec, NetSpec, NodeSpec, NoiseSpec};
pub use disk::{DiskStore, MemTracker, VarId};
pub use engine::{
    run_cluster, run_in_rank_order, ClusterRun, Deposit, Hop, HopKind, Payload, Prefetch, RankCtx,
    SimKernel,
};
pub use error::{SimError, SimResult};
pub use fault::{CrashSpec, DegradeSpec, FaultKind, FaultSpec, RankFaults, RecoverSpec};
pub use time::{SimDur, SimTime};
pub use trace::{Event, EventKind, RankTrace, RecoveryKind, RecoverySpan};
