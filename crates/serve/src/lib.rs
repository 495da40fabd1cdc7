//! # mheta-serve — the resident distribution-planning service
//!
//! "Plan this app on this cluster" as a service: a request names an
//! application and a cluster configuration, the reply is the best
//! `GEN_BLOCK` layout the portfolio search found plus its predicted
//! makespan. The pieces:
//!
//! * [`request`] — [`PlanRequest`] and its canonical stable content
//!   hash (FNV-1a over a canonical JSON rendering of the fields the
//!   client sent: cluster config, application, prefetch flag and search
//!   parameters);
//! * [`cache`] — a sharded, lock-striped LRU cache of plans and of
//!   deterministic search failures, with hit / miss / eviction counters
//!   and explicit invalidation: a request whose search must fail is
//!   answered from the cache like one whose search succeeded. The cache
//!   lives in memory only; a restarted daemon starts cold;
//! * `singleflight` (crate-private) — concurrent identical requests
//!   coalesce onto one search; followers share the leader's published
//!   result;
//! * [`planner`] — the in-process front end wiring the above around
//!   `mheta_dist::portfolio_search` behind an admission gate: a leader
//!   searches on its own thread once a slot is free, waits in a bounded
//!   FIFO queue while none is, and is shed with a structured
//!   retry-after error, never blocking, when the queue is full. It is
//!   instrumented end to end with `mheta_obs` service metrics
//!   (lifecycle counters, per-stage latency histograms, a Perfetto
//!   request track, trace-context propagation, a Prometheus
//!   exposition, and an always-on flight recorder);
//! * [`wire`] — the JSON-lines-over-TCP protocol spoken by the
//!   `pland` daemon and the `planctl` client binaries, carrying the
//!   trace context and the per-request deadline end to end plus
//!   `metrics` / `dump` telemetry ops, with graceful-drain lifecycle
//!   management and per-connection read/write timeouts.
//!
//! The service has one setting, [`PlannerConfig::workers`], because the
//! right number of searches to run at once depends on the host.
//! Everything else — queue depth, cache size, backoffs, timeouts — is a
//! named constant in the module that reads it.
//!
//! Requests may carry an end-to-end deadline
//! ([`planner::Planner::plan_opts`]): a search the deadline interrupts
//! returns its best incumbent flagged *degraded*; only a request with
//! no incumbent at all fails with `DeadlineExceeded`.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cache;
pub mod planner;
pub mod request;
mod singleflight;
pub mod wire;

pub use cache::PlanCache;
pub use planner::{Plan, PlanError, PlanReply, Planner, PlannerConfig};
pub use request::{benchmark_by_name, cluster_by_name, fnv1a64, PlanRequest, SearchParams};
pub use wire::{parse_request, serve, serve_with, Lifecycle, WireOp};
