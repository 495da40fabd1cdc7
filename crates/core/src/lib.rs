//! # mheta-core — the MHETA execution model
//!
//! The paper's primary contribution: a system of parameterized
//! equations that predicts the execution time of an iterative,
//! out-of-core scientific application on a heterogeneous cluster,
//! given a candidate data distribution.
//!
//! The model is assembled from three inputs:
//!
//! 1. a [`ProgramStructure`] describing the application's parallel
//!    sections, tiles, stages, variables, and communication patterns
//!    (provided by the application, as in the paper's §5.1);
//! 2. [`ArchParams`] measured by the [`microbench`] module — send and
//!    receive overheads, wire latency, per-byte costs, and per-node
//!    disk seek/latency parameters;
//! 3. an [`InstrumentedProfile`] extracted by [`instrument`] from the
//!    MPI-Jack hook events of a single instrumented iteration —
//!    per-stage computation rates and per-variable I/O latencies.
//!
//! [`Mheta::predict`] then evaluates any `GEN_BLOCK` distribution in
//! microseconds (the paper reports ~5.4 ms per evaluation on 2005
//! hardware), making the model usable inside distribution-search
//! algorithms (see `mheta-dist`).
//!
//! ## Pipeline at a glance
//!
//! ```text
//! ClusterSpec ──microbench──► ArchParams ─────────────┐
//! App + Blk dist ──instrumented iteration──► events   │
//!        events ──instrument::build_profile──► Profile│
//! App ──────────► ProgramStructure ───────────────────┤
//!                                                     ▼
//!                                   Mheta::new(...).predict(dist)
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod error;
pub mod fileio;
pub mod instrument;
pub mod microbench;
pub mod model;
pub mod ooc;
pub mod params;
pub mod profile;
pub mod structure;

pub use error::ModelError;
pub use fileio::{load_model, save_model};
pub use instrument::{build_node_profile, build_profile};
pub use microbench::{measure_arch, measure_comm, measure_disk};
pub use model::{
    Mheta, NodeBreakdown, PredictOptions, Prediction, RankTerms, ReductionModel, SectionTerms,
    StageTerms, TermBreakdown,
};
pub use ooc::{plan_node, VarPlan};
pub use params::{ArchParams, CommParams, DiskParams};
pub use profile::{InstrumentedProfile, NodeProfile};
pub use structure::{CommPattern, ProgramStructure, SectionSpec, StageSpec, Variable};
