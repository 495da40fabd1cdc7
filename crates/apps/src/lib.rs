//! # mheta-apps — out-of-core iterative benchmark applications
//!
//! The paper's evaluation programs, implemented as real numerical
//! kernels over the `mheta-mpi` substrate:
//!
//! * [`jacobi::Jacobi`] — 2-D stencil, nearest-neighbor exchange,
//!   read-write out-of-core grid, optional prefetching (Figure 6);
//! * [`cg::Cg`] — Conjugate Gradient with a nonuniform sparse matrix
//!   (read-only out of core, reduction-only communication);
//! * [`rna::Rna`] — the pipelined wavefront dynamic program
//!   (multi-tile sections);
//! * [`lanczos::Lanczos`] — the full-scale dense symmetric iterative
//!   method;
//! * [`multigrid::Multigrid`] — the §6 future-work application
//!   (two distributed out-of-core grids).
//!
//! [`harness`] wires applications to the model: instrumented
//! iterations, model assembly, measured runs, and the paper's
//! percent-difference metric. [`adaptive`] holds the fault-tolerant
//! drivers: one crash-tolerant Jacobi loop (checkpoint/restart as
//! [`run_resilient`] runs it; with a detector replica and mid-run
//! rebalancing as [`AdaptiveJacobi`] and [`run_adaptive`] do) and the
//! rebalancing [`AdaptiveCg`]. They and the §6 switch run one
//! transfer-plan executor, [`redistribute::move_rows`].

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod adaptive;
pub mod app;
pub mod cg;
pub mod harness;
pub mod jacobi;
pub mod lanczos;
pub mod multigrid;
pub mod redistribute;
pub mod rna;

pub use adaptive::{
    new_checkpoint_store, AdaptiveCg, AdaptiveConfig, AdaptiveJacobi, AdaptiveOutcome, Checkpoint,
    CheckpointStore, RebalanceEvent, VAR_CKPT, VAR_FETCH,
};
pub use app::RankResult;
pub use cg::Cg;
pub use harness::{
    anchor_inputs, build_model, percent_difference, recovery_report, repredict_after_crash,
    run_adaptive, run_instrumented, run_measured, run_observed, run_resilient, AdaptiveRun,
    Benchmark, Measured, Observed, RecoveryReport,
};
pub use jacobi::Jacobi;
pub use lanczos::Lanczos;
pub use multigrid::Multigrid;
pub use redistribute::redistribute_var;
pub use rna::Rna;
