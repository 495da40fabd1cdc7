//! # MHETA — an execution model for heterogeneous clusters
//!
//! A comprehensive reproduction of *"The MHETA Execution Model for
//! Heterogeneous Clusters"* (Nakazawa, Lowenthal, Zhou — SC|05), built
//! as a Rust workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`sim`] | virtual-time heterogeneous cluster simulator (CPU power, memory, disk latency per node) |
//! | [`mpi`] | MPI-like messaging, collectives, explicit file I/O, MPI-Jack interposition hooks |
//! | [`core`] | **the MHETA model**: program structure, microbenchmarks, instrumented profiles, prediction equations |
//! | [`dist`] | `GEN_BLOCK` distributions, the Figure 8 spectrum, four search algorithms |
//! | [`apps`] | Jacobi, CG, RNA (pipelined), Lanczos, Multigrid benchmarks with real numerics |
//! | [`obs`] | observability: metrics, Perfetto trace export, critical-path analysis, search telemetry |
//! | [`serve`] | the planning service: portfolio search, plan cache, admission control, `pland`/`planctl` |
//!
//! This facade crate re-exports all of them and is what the examples
//! and integration tests build against.
//!
//! ## Quickstart
//!
//! Build a model from one instrumented iteration and predict an
//! arbitrary distribution:
//!
//! ```
//! use mheta::apps::{build_model, run_measured, Benchmark, Jacobi};
//! use mheta::dist::GenBlock;
//! use mheta::sim::ClusterSpec;
//!
//! let mut spec = ClusterSpec::homogeneous(4);
//! spec.noise.amplitude = 0.0;
//! let bench = Benchmark::Jacobi(Jacobi::small());
//!
//! // Microbenchmarks + one instrumented iteration under Blk.
//! let model = mheta::apps::build_model(&bench, &spec, false).unwrap();
//!
//! // Evaluate a candidate distribution in microseconds...
//! let dist = GenBlock::block(bench.total_rows(), 4);
//! let predicted = model.predict(dist.rows()).unwrap().app_secs(4);
//!
//! // ...and compare with the simulated actual time.
//! let actual = run_measured(&bench, &spec, &dist, 4, false).unwrap().secs;
//! let err = (predicted - actual).abs() / actual;
//! assert!(err < 0.10, "prediction within 10%: {err}");
//! # let _ = build_model; // silence unused-import style lints in doctests
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub use mheta_apps as apps;
pub use mheta_core as core;
pub use mheta_dist as dist;
pub use mheta_mpi as mpi;
pub use mheta_obs as obs;
pub use mheta_serve as serve;
pub use mheta_sim as sim;

/// Everything a typical user needs in scope.
pub mod prelude {
    pub use mheta_apps::{
        anchor_inputs, build_model, percent_difference, recovery_report, repredict_after_crash,
        run_adaptive, run_instrumented, run_measured, run_observed, run_resilient, AdaptiveCg,
        AdaptiveConfig, AdaptiveJacobi, AdaptiveRun, Benchmark, Cg, Jacobi, Lanczos, Multigrid,
        Observed, RecoveryReport, Rna,
    };
    pub use mheta_core::{Mheta, Prediction, ProgramStructure};
    pub use mheta_dist::{AnchorInputs, GenBlock, SpectrumPath};
    pub use mheta_obs::{CriticalPath, Metrics};
    pub use mheta_serve::{PlanRequest, Planner, PlannerConfig, SearchParams};
    pub use mheta_sim::{
        presets, ClusterSpec, CrashSpec, FaultSpec, NodeSpec, RecoveryKind, RecoverySpan, SimDur,
        SimTime,
    };
}
