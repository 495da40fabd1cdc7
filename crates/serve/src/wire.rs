//! JSON-lines wire protocol and the TCP daemon loop.
//!
//! One request per line, one response per line; both sides are plain
//! JSON rendered and parsed by the shared `mheta_obs::json` machinery
//! (there is no second JSON implementation, and thus no second
//! escaping routine, anywhere in the workspace). Input is bounded
//! before it is believed: a line is at most [`MAX_LINE_BYTES`] and must
//! be UTF-8 (else one `bad_request` reply and the connection closes),
//! and the parser refuses nesting deeper than 128.
//!
//! Requests:
//!
//! ```json
//! {"op":"ping"}
//! {"op":"plan","app":{"name":"jacobi","size":"small"},"arch":"DC",
//!  "prefetch":false,"search":{"evals":64,"seed":7},"deadline_ms":250,
//!  "trace":{"trace_id":"4f2a...","span_id":"9c01..."}}
//! {"op":"stats"}
//! {"op":"metrics"}
//! {"op":"dump"}
//! {"op":"invalidate"}
//! {"op":"shutdown"}
//! ```
//!
//! `arch` is a preset name (`DC`, `IO`, `HY1`, `HY2`) or `HOM<n>` for
//! a homogeneous `n`-node cluster, `1 <= n <=`
//! [`crate::request::MAX_HOM_NODES`]. The optional `search` object takes
//! `evals` (per-strategy budget), `retries`, `seed`, `total_evals`,
//! `stall`, and `target_ns`. The optional `deadline_ms` is the
//! request's end-to-end budget: when it expires mid-search the reply
//! carries the best incumbent flagged `"degraded":true`; when it
//! expires before any incumbent exists the error kind is `"deadline"`.
//! The optional `trace` object propagates a client-minted trace
//! context (hex IDs); without it the daemon mints a root trace per
//! request. Either way the reply echoes `trace_id`, so the client can
//! correlate its call with the daemon's span log, flight-recorder
//! dump, and Perfetto export.
//!
//! A plan reply carries `"source"` — `"fresh"`, `"cache"`, or
//! `"coalesced"` on success; `"failed"`, `"shed"`, or `"cache"` on an
//! error — so clients (and the CI smoke test) can verify cache
//! behavior. A search failure that is a pure function of the request
//! (`{"kind":"search","message":...}`: a model that cannot be built,
//! candidates that never score finite) is cached beside the plans, so
//! its repeat comes back `"source":"cache"` with the original message
//! and costs no search. Shed requests get structured errors the client
//! can act on: `{"ok":false,"error":{"kind":"overloaded","retry_after_ms":N}}`
//! when the queue is full, and `{"kind":"draining","retry_after_ms":N}`
//! while the daemon drains toward shutdown. Every shed also logs a
//! structured event to stderr — sheds are never silent.
//!
//! ## Lifecycle
//!
//! [`serve_with`] runs until [`Lifecycle::begin_drain`] fires (the
//! `shutdown` op, or — in `pland` — SIGTERM/SIGINT). Draining keeps
//! the listener open so late clients receive the structured
//! `draining` error instead of a connection refusal; in-flight plan
//! requests run to completion, bounded by the drain deadline. Control
//! ops (`stats`, `metrics`, `dump`, `ping`) are still served during
//! drain, so operators can observe the drain itself. Per-connection
//! read/write timeouts bound how long a half-open client can hold a
//! handler thread: a timed-out connection is dropped cleanly with one
//! `conn.timeout` flight-recorder event, never a panic.
//!
//! `metrics` returns the Prometheus text exposition as a JSON string
//! under `"prometheus"`; `dump` returns the flight-recorder document
//! (`mheta-flight/v1`) under `"flight"`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mheta_obs::json::{self, from_str, opt_f64_field, opt_u64_field, str_field, Value};
use mheta_obs::trace::{id_hex, parse_id};
use mheta_obs::{RequestSource, TraceContext};

use crate::planner::{PlanError, PlanReply, Planner};
use crate::request::{
    benchmark_by_name, cluster_by_name, PlanRequest, SearchParams, MAX_HOM_NODES,
};

/// One parsed request line.
#[derive(Debug, Clone)]
pub enum WireOp {
    /// Plan an application on a cluster, optionally under a
    /// client-propagated trace context and an end-to-end deadline
    /// budget (milliseconds).
    Plan(Box<PlanRequest>, Option<TraceContext>, Option<u64>),
    /// Report service, cache, executor, and flight-recorder statistics.
    Stats,
    /// Render the Prometheus text-format exposition.
    Metrics,
    /// Dump the flight recorder.
    Dump,
    /// Drop every cached plan.
    Invalidate,
    /// Liveness probe.
    Ping,
    /// Drain and stop the daemon.
    Shutdown,
}

/// Parse one request line into a [`WireOp`].
pub fn parse_request(line: &str) -> Result<WireOp, String> {
    let v = from_str(line).map_err(|e| format!("invalid JSON: {e:?}"))?;
    let op = str_field(&v, "op").map_err(|e| e.to_string())?;
    match op {
        "ping" => Ok(WireOp::Ping),
        "stats" => Ok(WireOp::Stats),
        "metrics" => Ok(WireOp::Metrics),
        "dump" => Ok(WireOp::Dump),
        "invalidate" => Ok(WireOp::Invalidate),
        "shutdown" => Ok(WireOp::Shutdown),
        "plan" => {
            let deadline_ms = opt_u64_field(&v, "deadline_ms").map_err(|e| e.to_string())?;
            Ok(WireOp::Plan(
                Box::new(parse_plan(&v)?),
                parse_trace(&v)?,
                deadline_ms,
            ))
        }
        other => Err(format!("unknown op `{other}`")),
    }
}

/// Parse the optional `trace` object (`trace_id` + `span_id`, hex).
fn parse_trace(v: &Value) -> Result<Option<TraceContext>, String> {
    let Some(t) = v.get("trace") else {
        return Ok(None);
    };
    if matches!(t, Value::Null) {
        return Ok(None);
    }
    let trace_id = str_field(t, "trace_id").map_err(|e| format!("trace.{e}"))?;
    let span_id = str_field(t, "span_id").map_err(|e| format!("trace.{e}"))?;
    let trace_id = parse_id(trace_id).map_err(|e| format!("trace.trace_id: {e}"))?;
    let span_id = parse_id(span_id).map_err(|e| format!("trace.span_id: {e}"))?;
    Ok(Some(TraceContext::from_wire(trace_id, span_id)))
}

fn parse_plan(v: &Value) -> Result<PlanRequest, String> {
    let app = json::field(v, "app").map_err(|e| e.to_string())?;
    let name = str_field(app, "name").map_err(|e| format!("app.{e}"))?;
    let size = json::opt_str_field(app, "size")
        .map_err(|e| format!("app.{e}"))?
        .unwrap_or("small");
    let bench = benchmark_by_name(name, size)
        .ok_or_else(|| format!("unknown app `{name}` (size `{size}`)"))?;

    let arch = str_field(v, "arch").map_err(|e| e.to_string())?;
    let spec = cluster_by_name(arch).ok_or_else(|| {
        format!("unknown arch `{arch}` (want DC, IO, HY1, HY2, or HOM<n> with 1 <= n <= {MAX_HOM_NODES})")
    })?;

    let prefetch = match v.get("prefetch") {
        None | Some(Value::Null) => false,
        Some(Value::Bool(b)) => *b,
        Some(_) => return Err("field `prefetch`: expected boolean".into()),
    };

    let mut search = SearchParams::default();
    if let Some(s) = v.get("search") {
        if let Some(e) = opt_u64_field(s, "evals").map_err(|e| format!("search.{e}"))? {
            search.max_evals_per_strategy = e as usize;
        }
        if let Some(r) = opt_u64_field(s, "retries").map_err(|e| format!("search.{e}"))? {
            search.eval_retries = r as u32;
        }
        if let Some(seed) = opt_u64_field(s, "seed").map_err(|e| format!("search.{e}"))? {
            search.seed = seed;
        }
        if let Some(t) = opt_u64_field(s, "total_evals").map_err(|e| format!("search.{e}"))? {
            search.max_total_evals = t as usize;
        }
        if let Some(st) = opt_u64_field(s, "stall").map_err(|e| format!("search.{e}"))? {
            search.stall_evals = st as usize;
        }
        if let Some(t) = opt_f64_field(s, "target_ns").map_err(|e| format!("search.{e}"))? {
            search.target_ns = t;
        }
    }

    Ok(PlanRequest {
        bench,
        prefetch,
        spec,
        search,
    })
}

/// Render a successful plan reply.
#[must_use]
pub fn plan_response(reply: &PlanReply) -> Value {
    Value::object(vec![
        ("ok", Value::Bool(true)),
        ("source", Value::Str(reply.source.name().to_string())),
        ("key", Value::Str(format!("{:016x}", reply.key))),
        ("trace_id", Value::Str(reply.trace.trace_hex())),
        ("degraded", Value::Bool(reply.degraded)),
        (
            "plan",
            Value::object(vec![
                (
                    "rows",
                    Value::Array(
                        reply
                            .plan
                            .rows
                            .iter()
                            .map(|&r| Value::UInt(r as u64))
                            .collect(),
                    ),
                ),
                ("predicted_ns", Value::Float(reply.plan.predicted_ns)),
                ("winner", Value::Str(reply.plan.winner.name().to_string())),
                ("total_evals", Value::UInt(reply.plan.total_evals as u64)),
            ]),
        ),
    ])
}

/// The wire's name for each planning error, in replies and shed logs.
fn error_kind(err: &PlanError) -> &'static str {
    match err {
        PlanError::Overloaded { .. } => "overloaded",
        PlanError::Search(_) => "search",
        PlanError::DeadlineExceeded { .. } => "deadline",
    }
}

/// Render a planning error and how it was answered (`source`: a
/// stored search failure is served from the cache). `trace` identifies
/// the failed request in the daemon's telemetry (omitted when no
/// request context exists).
#[must_use]
pub fn error_response(
    err: &PlanError,
    source: RequestSource,
    trace: Option<&TraceContext>,
) -> Value {
    let detail = match err {
        PlanError::Overloaded { retry_after_ms } => {
            ("retry_after_ms", Value::UInt(*retry_after_ms))
        }
        PlanError::Search(msg) => ("message", Value::Str(msg.clone())),
        PlanError::DeadlineExceeded { budget_ms } => ("budget_ms", Value::UInt(*budget_ms)),
    };
    let error = Value::object(vec![("kind", Value::Str(error_kind(err).into())), detail]);
    let mut fields = vec![
        ("ok", Value::Bool(false)),
        ("source", Value::Str(source.name().to_string())),
        ("error", error),
    ];
    if let Some(t) = trace {
        fields.push(("trace_id", Value::Str(t.trace_hex())));
    }
    Value::object(fields)
}

/// Render the structured drain shed: the daemon is on its way down and
/// the client should retry elsewhere (or here, after a restart) in
/// `retry_after_ms`.
#[must_use]
pub fn draining_response(retry_after_ms: u64) -> Value {
    Value::object(vec![
        ("ok", Value::Bool(false)),
        (
            "error",
            Value::object(vec![
                ("kind", Value::Str("draining".into())),
                ("retry_after_ms", Value::UInt(retry_after_ms)),
            ]),
        ),
    ])
}

/// Render a protocol-level (parse/validation) error.
#[must_use]
pub fn bad_request_response(msg: &str) -> Value {
    Value::object(vec![
        ("ok", Value::Bool(false)),
        (
            "error",
            Value::object(vec![
                ("kind", Value::Str("bad_request".into())),
                ("message", Value::Str(msg.to_string())),
            ]),
        ),
    ])
}

/// Log one structured shed event to stderr: one JSON line with the
/// shed kind, the request key hash, the queue depth at shed time, and
/// the backoff the client was told. Sheds must be diagnosable from the
/// daemon log alone — dropping them silently hides capacity incidents.
fn log_shed(
    planner: &Planner,
    kind: &str,
    reply_key: u64,
    ctx: &TraceContext,
    retry_after_ms: u64,
) {
    let line = Value::object(vec![
        ("event", Value::Str("request.shed".into())),
        ("kind", Value::Str(kind.to_string())),
        ("trace_id", Value::Str(ctx.trace_hex())),
        ("key", Value::Str(id_hex(reply_key))),
        ("queue_depth", Value::UInt(planner.queue_depth() as u64)),
        ("retry_after_ms", Value::UInt(retry_after_ms)),
    ]);
    eprintln!("{}", line.to_json());
}

/// Execute one parsed op against the planner and render the response.
/// Returns `(response, shutdown_requested)`. Drain-awareness lives in
/// the connection loop (which owns the [`Lifecycle`]); `handle` itself
/// always serves.
pub fn handle(planner: &Planner, op: &WireOp) -> (Value, bool) {
    match op {
        WireOp::Ping => (
            Value::object(vec![("ok", Value::Bool(true)), ("pong", Value::Bool(true))]),
            false,
        ),
        WireOp::Stats => (
            Value::object(vec![("ok", Value::Bool(true)), ("stats", planner.stats())]),
            false,
        ),
        WireOp::Metrics => (
            Value::object(vec![
                ("ok", Value::Bool(true)),
                ("prometheus", Value::Str(planner.prometheus())),
            ]),
            false,
        ),
        WireOp::Dump => (
            Value::object(vec![
                ("ok", Value::Bool(true)),
                ("flight", planner.flight_dump()),
            ]),
            false,
        ),
        WireOp::Invalidate => {
            let n = planner.invalidate_cache();
            (
                Value::object(vec![
                    ("ok", Value::Bool(true)),
                    ("invalidated", Value::UInt(n as u64)),
                ]),
                false,
            )
        }
        WireOp::Shutdown => (
            Value::object(vec![("ok", Value::Bool(true)), ("bye", Value::Bool(true))]),
            true,
        ),
        WireOp::Plan(req, trace, deadline_ms) => {
            // A propagated context becomes the parent of the daemon's
            // span; otherwise the daemon is the trace root.
            let ctx = match trace {
                Some(t) => t.child(),
                None => TraceContext::root(),
            };
            let deadline = deadline_ms.map(Duration::from_millis);
            let resp = match planner.answer(req, ctx, deadline) {
                Ok(reply) => plan_response(&reply),
                Err((e, source)) => {
                    // Only a shed needs the request key (for its log
                    // line), so only a shed pays to canonicalise and
                    // hash the request a second time.
                    if let Some(retry_after_ms) = e.retry_after_ms() {
                        log_shed(planner, error_kind(&e), req.key(), &ctx, retry_after_ms);
                    }
                    error_response(&e, source, Some(&ctx))
                }
            };
            (resp, false)
        }
    }
}

/// Daemon lifecycle tuning.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// How long a drain waits for in-flight plan requests before the
    /// daemon exits anyway, milliseconds.
    pub drain_deadline_ms: u64,
    /// Per-connection read timeout, milliseconds; 0 disables. A
    /// half-open client that sends nothing for this long is dropped
    /// cleanly instead of holding its handler thread forever.
    pub read_timeout_ms: u64,
    /// Per-connection write timeout, milliseconds; 0 disables.
    pub write_timeout_ms: u64,
    /// Backoff suggested to plan requests shed during drain,
    /// milliseconds (roughly a restart's startup time).
    pub drain_retry_after_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            drain_deadline_ms: 5_000,
            read_timeout_ms: 30_000,
            write_timeout_ms: 10_000,
            drain_retry_after_ms: 200,
        }
    }
}

/// Shared daemon lifecycle: the drain flag and the in-flight plan
/// counter. `pland`'s signal watcher flips the flag on SIGTERM/SIGINT;
/// the `shutdown` wire op flips it from a connection thread; the
/// accept loop watches both it and the in-flight count.
#[derive(Debug, Default)]
pub struct Lifecycle {
    draining: AtomicBool,
    inflight: AtomicUsize,
}

impl Lifecycle {
    /// A fresh (serving, idle) lifecycle.
    #[must_use]
    pub fn new() -> Self {
        Lifecycle::default()
    }

    /// Flip into draining mode (idempotent). New plan requests are
    /// shed with the structured `draining` error; in-flight ones run
    /// to completion, bounded by the drain deadline.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has begun.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Plan requests currently executing.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.inflight.load(Ordering::SeqCst)
    }

    /// Count one plan request in flight until the returned guard drops
    /// — however the handler leaves, a panic included, so a drain never
    /// waits on a request that is gone.
    fn enter_plan(&self) -> PlanInFlight<'_> {
        self.inflight.fetch_add(1, Ordering::SeqCst);
        PlanInFlight(self)
    }
}

/// One in-flight plan request on a [`Lifecycle`]'s counter.
struct PlanInFlight<'a>(&'a Lifecycle);

impl Drop for PlanInFlight<'_> {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

fn log_lifecycle_event(planner: &Planner, event: &'static str, detail: Vec<(&str, Value)>) {
    let mut fields = vec![("event", Value::Str(event.to_string()))];
    fields.extend(detail.iter().map(|(k, v)| (*k, v.clone())));
    eprintln!("{}", Value::object(fields).to_json());
    planner.recorder().record_kv(None, event, detail);
}

/// Longest request line the daemon reads, bytes (newline excluded). A
/// plan request is a few hundred bytes; without a cap a client that
/// never sends `\n` grows a buffer for as long as it keeps writing.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

fn handle_connection(
    stream: TcpStream,
    planner: &Planner,
    lifecycle: &Lifecycle,
    cfg: &ServeConfig,
) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // One byte past the cap, so "too long" and "exactly at the cap,
        // newline next" are told apart without reading further.
        let mut capped = (&mut reader).take(MAX_LINE_BYTES as u64 + 1);
        match capped.read_until(b'\n', &mut buf) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) => {
                // A read timeout is a clean disconnect of a half-open
                // client, not a fault: one event, no panic.
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                ) {
                    log_lifecycle_event(
                        planner,
                        "conn.timeout",
                        vec![("read_timeout_ms", Value::UInt(cfg.read_timeout_ms))],
                    );
                }
                return;
            }
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
        }
        let line = if buf.len() > MAX_LINE_BYTES {
            Err(format!("request line exceeds {MAX_LINE_BYTES} bytes"))
        } else {
            std::str::from_utf8(&buf).map_err(|e| format!("request line is not UTF-8: {e}"))
        };
        let line = match line {
            Ok(line) => line,
            Err(msg) => {
                // A line that cannot be a request gets one reply and the
                // connection closes: past the cap there is no telling
                // where the next request starts, and bytes that are not
                // text are not JSON. One write: closing on unread input
                // resets the connection, and a reset discards whatever
                // part of the reply is still queued behind Nagle.
                let reply = bad_request_response(&msg).to_json() + "\n";
                let _ = writer.write_all(reply.as_bytes());
                return;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let (response, stop) = match parse_request(line) {
            Ok(op @ WireOp::Plan(..)) => {
                // Increment BEFORE checking the drain flag: the drain
                // loop sets the flag first and reads the counter
                // second, so every plan is either counted or shed —
                // never silently raced past the drain.
                let _in_flight = lifecycle.enter_plan();
                if lifecycle.is_draining() {
                    log_lifecycle_event(
                        planner,
                        "request.shed.draining",
                        vec![("retry_after_ms", Value::UInt(cfg.drain_retry_after_ms))],
                    );
                    (draining_response(cfg.drain_retry_after_ms), false)
                } else {
                    handle(planner, &op)
                }
            }
            Ok(op) => handle(planner, &op),
            Err(msg) => (bad_request_response(&msg), false),
        };
        if writeln!(writer, "{}", response.to_json()).is_err() || writer.flush().is_err() {
            return;
        }
        if stop {
            lifecycle.begin_drain();
            return;
        }
    }
}

/// Run the daemon accept loop with a default lifecycle and config
/// until a client sends `shutdown`. See [`serve_with`].
pub fn serve(listener: TcpListener, planner: Arc<Planner>) -> std::io::Result<()> {
    serve_with(
        listener,
        planner,
        Arc::new(Lifecycle::new()),
        ServeConfig::default(),
    )
}

/// Run the daemon accept loop until `lifecycle` drains. The listener
/// is non-blocking so the loop observes the drain flag promptly; each
/// connection is served on its own thread with the configured
/// read/write timeouts. During a drain the listener stays open (late
/// plan requests get the structured `draining` error, control ops
/// still work) until in-flight plans hit zero or the drain deadline
/// passes.
pub fn serve_with(
    listener: TcpListener,
    planner: Arc<Planner>,
    lifecycle: Arc<Lifecycle>,
    cfg: ServeConfig,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut drain_started: Option<Instant> = None;
    loop {
        if lifecycle.is_draining() {
            let started = *drain_started.get_or_insert_with(|| {
                log_lifecycle_event(
                    &planner,
                    "drain.begin",
                    vec![
                        ("in_flight", Value::UInt(lifecycle.in_flight() as u64)),
                        ("drain_deadline_ms", Value::UInt(cfg.drain_deadline_ms)),
                    ],
                );
                Instant::now()
            });
            let deadline = started + Duration::from_millis(cfg.drain_deadline_ms);
            let in_flight = lifecycle.in_flight();
            if in_flight == 0 || Instant::now() >= deadline {
                log_lifecycle_event(
                    &planner,
                    "drain.end",
                    vec![
                        ("in_flight", Value::UInt(in_flight as u64)),
                        (
                            "elapsed_ms",
                            Value::UInt(started.elapsed().as_millis() as u64),
                        ),
                    ],
                );
                return Ok(());
            }
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                if cfg.read_timeout_ms > 0 {
                    let _ =
                        stream.set_read_timeout(Some(Duration::from_millis(cfg.read_timeout_ms)));
                }
                if cfg.write_timeout_ms > 0 {
                    let _ =
                        stream.set_write_timeout(Some(Duration::from_millis(cfg.write_timeout_ms)));
                }
                let planner = Arc::clone(&planner);
                let lifecycle = Arc::clone(&lifecycle);
                let cfg = cfg.clone();
                std::thread::spawn(move || handle_connection(stream, &planner, &lifecycle, &cfg));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_control_ops() {
        assert!(matches!(
            parse_request(r#"{"op":"ping"}"#),
            Ok(WireOp::Ping)
        ));
        assert!(matches!(
            parse_request(r#"{"op":"stats"}"#),
            Ok(WireOp::Stats)
        ));
        assert!(matches!(
            parse_request(r#"{"op":"metrics"}"#),
            Ok(WireOp::Metrics)
        ));
        assert!(matches!(
            parse_request(r#"{"op":"dump"}"#),
            Ok(WireOp::Dump)
        ));
        assert!(matches!(
            parse_request(r#"{"op":"invalidate"}"#),
            Ok(WireOp::Invalidate)
        ));
        assert!(matches!(
            parse_request(r#"{"op":"shutdown"}"#),
            Ok(WireOp::Shutdown)
        ));
        assert!(parse_request(r#"{"op":"dance"}"#).is_err());
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"noop":1}"#).is_err());
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        // 200,000 levels would need ~100x a connection thread's stack;
        // before the parser's depth limit this line aborted the daemon.
        for open in ["[", "{\"op\":"] {
            let err = parse_request(&open.repeat(200_000)).unwrap_err();
            assert!(err.contains("nesting too deep"), "{err}");
        }
    }

    #[test]
    fn parses_a_full_plan_request() {
        let op = parse_request(
            r#"{"op":"plan","app":{"name":"jacobi","size":"small"},"arch":"DC",
               "prefetch":true,"deadline_ms":250,"search":{"evals":32,"seed":9,"retries":2,
               "total_evals":100,"stall":40,"target_ns":1.5}}"#,
        )
        .unwrap();
        let WireOp::Plan(req, trace, deadline_ms) = op else {
            panic!("expected plan")
        };
        assert!(trace.is_none());
        assert_eq!(deadline_ms, Some(250));
        assert_eq!(req.bench.name(), "Jacobi");
        assert_eq!(req.spec.name, "DC");
        assert!(req.prefetch);
        assert_eq!(req.search.max_evals_per_strategy, 32);
        assert_eq!(req.search.seed, 9);
        assert_eq!(req.search.eval_retries, 2);
        assert_eq!(req.search.max_total_evals, 100);
        assert_eq!(req.search.stall_evals, 40);
        assert_eq!(req.search.target_ns, 1.5);
    }

    #[test]
    fn parses_and_validates_the_trace_object() {
        let op = parse_request(
            r#"{"op":"plan","app":{"name":"cg"},"arch":"HOM4",
               "trace":{"trace_id":"4f2adeadbeef0001","span_id":"9c01"}}"#,
        )
        .unwrap();
        let WireOp::Plan(_, Some(t), deadline_ms) = op else {
            panic!("expected traced plan")
        };
        assert_eq!(t.trace_id, 0x4f2a_dead_beef_0001);
        assert_eq!(t.span_id, 0x9c01);
        assert_eq!(deadline_ms, None, "no deadline unless requested");

        let err = parse_request(
            r#"{"op":"plan","app":{"name":"cg"},"arch":"HOM4",
               "trace":{"trace_id":"zz","span_id":"1"}}"#,
        )
        .unwrap_err();
        assert!(err.contains("trace.trace_id"), "{err}");
        let err = parse_request(
            r#"{"op":"plan","app":{"name":"cg"},"arch":"HOM4",
               "trace":{"trace_id":"1"}}"#,
        )
        .unwrap_err();
        assert!(err.contains("trace.field `span_id`"), "{err}");
    }

    #[test]
    fn plan_defaults_and_validation_errors() {
        let op = parse_request(r#"{"op":"plan","app":{"name":"cg"},"arch":"HOM4"}"#).unwrap();
        let WireOp::Plan(req, _, _) = op else {
            panic!()
        };
        assert_eq!(req.bench.name(), "CG");
        assert_eq!(req.spec.len(), 4);
        assert!(!req.prefetch);

        let err = parse_request(r#"{"op":"plan","app":{"name":"nope"},"arch":"DC"}"#).unwrap_err();
        assert!(err.contains("unknown app"), "{err}");
        let err = parse_request(r#"{"op":"plan","app":{"name":"cg"},"arch":"XX"}"#).unwrap_err();
        assert!(err.contains("unknown arch"), "{err}");
        let err = parse_request(r#"{"op":"plan","arch":"DC"}"#).unwrap_err();
        assert!(err.contains("app"), "{err}");
    }

    #[test]
    fn shed_error_renders_structured_retry_after() {
        let ctx = TraceContext::root();
        let overloaded = PlanError::Overloaded { retry_after_ms: 50 };
        let v = error_response(&overloaded, RequestSource::Shed, Some(&ctx));
        let json = v.to_json();
        let back = from_str(&json).unwrap();
        assert_eq!(back.get("ok"), Some(&Value::Bool(false)));
        assert_eq!(back.get("source").unwrap().as_str(), Some("shed"));
        let error = back.get("error").unwrap();
        assert_eq!(error.get("kind").unwrap().as_str(), Some("overloaded"));
        assert_eq!(error.get("retry_after_ms").unwrap().as_u64(), Some(50));
        assert_eq!(
            back.get("trace_id").unwrap().as_str(),
            Some(ctx.trace_hex().as_str())
        );
    }

    #[test]
    fn lifecycle_errors_render_structured_kinds() {
        let expired = PlanError::DeadlineExceeded { budget_ms: 250 };
        let v = error_response(&expired, RequestSource::Failed, None);
        let back = from_str(&v.to_json()).unwrap();
        let error = back.get("error").unwrap();
        assert_eq!(error.get("kind").unwrap().as_str(), Some("deadline"));
        assert_eq!(error.get("budget_ms").unwrap().as_u64(), Some(250));

        // A stored search failure: the original message, from the cache.
        let failed = PlanError::Search("no model".into());
        let v = error_response(&failed, RequestSource::Cache, None);
        let back = from_str(&v.to_json()).unwrap();
        assert_eq!(back.get("source").unwrap().as_str(), Some("cache"));
        let error = back.get("error").unwrap();
        assert_eq!(error.get("kind").unwrap().as_str(), Some("search"));
        assert_eq!(error.get("message").unwrap().as_str(), Some("no model"));

        let v = draining_response(200);
        let back = from_str(&v.to_json()).unwrap();
        assert_eq!(back.get("ok"), Some(&Value::Bool(false)));
        let error = back.get("error").unwrap();
        assert_eq!(error.get("kind").unwrap().as_str(), Some("draining"));
        assert_eq!(error.get("retry_after_ms").unwrap().as_u64(), Some(200));
    }

    #[test]
    fn lifecycle_drain_is_idempotent_and_counts_inflight() {
        let l = Lifecycle::new();
        assert!(!l.is_draining());
        assert_eq!(l.in_flight(), 0);
        let (a, b) = (l.enter_plan(), l.enter_plan());
        assert_eq!(l.in_flight(), 2);
        l.begin_drain();
        l.begin_drain();
        assert!(l.is_draining());
        drop((a, b));
        assert_eq!(l.in_flight(), 0);
    }
}
