//! Observability for MHETA runs.
//!
//! The simulator (`mheta-sim`) and the MPI-Jack layer (`mheta-mpi`)
//! already *record* everything that happens on a run's virtual clocks —
//! per-rank traces and hook-event streams. This crate turns those
//! records into answers:
//!
//! * [`audit`] — the one account of where a run's time went: each
//!   rank's traced time cut into the model's twelve terms
//!   ([`TERM_NAMES`], an exact integer partition), aligned with the
//!   model's per-term prediction so that the residual is attributed to
//!   individual terms (the terms partition the residual exactly),
//!   including wholesale attribution of checkpoint / rollback /
//!   redistribution / reprediction time for fault-tolerant runs;
//! * [`metrics`] — per-rank term breakdowns in the audit's terms,
//!   counters, and latency histograms, with deterministic JSON export;
//! * [`critical_path`] — reconstruction of the cross-rank chain of
//!   operations that decided the makespan, each segment labelled with
//!   the audit term of its event (the segments partition
//!   `[0, makespan]` exactly);
//! * [`perfetto`] — Chrome trace-event JSON that loads directly in
//!   `ui.perfetto.dev`, one process per rank with simulator events and
//!   nested MPI-Jack scopes on separate tracks, and memory counter
//!   tracks;
//! * [`telemetry`] — convergence curves from the four distribution
//!   searches in `mheta-dist`, as JSON and CSV;
//! * [`trace`] — end-to-end request tracing: [`TraceContext`] minting
//!   and hex wire rendering, threaded by the serving layer from
//!   `planctl` through every planner stage;
//! * [`prometheus`] — Prometheus text-format exposition over
//!   [`ServiceMetrics`] snapshots, with `le`-bucketed
//!   histograms derived from the log₂ registries;
//! * [`recorder`] — the always-on [`FlightRecorder`]: a fixed-capacity
//!   mutex-striped ring of recent structured events with exact
//!   retention/drop accounting, dumped as JSON on panic or on demand.
//!
//! Everything here is read-only over the run artifacts and emits
//! byte-deterministic output for a fixed seed, so exports can be
//! golden-file tested.

#![warn(missing_docs)]

pub mod audit;
pub mod critical_path;
pub mod json;
pub mod metrics;
pub mod perfetto;
pub mod prometheus;
pub mod recorder;
pub mod service;
pub mod telemetry;
pub mod trace;

pub use audit::{AuditReport, RankAudit, TermLine, TERM_COUNT, TERM_NAMES};
pub use critical_path::{CriticalPath, PathSegment};
pub use metrics::{Histogram, Metrics, RankBreakdown};
pub use perfetto::perfetto_trace;
pub use prometheus::{service_text, PromText};
pub use recorder::{FlightRecorder, RecordedEvent};
pub use service::{RequestSource, RequestSpan, ServiceMetrics, StrategySpan};
pub use telemetry::{
    convergence_csv, delta_value, latency_value, search_value, searches_json, searches_value,
};
pub use trace::TraceContext;
