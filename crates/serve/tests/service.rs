//! End-to-end service behavior: coalescing, cache identity, and the
//! TCP wire protocol. Admission control needs a search held open while
//! the queue fills, so its tests are in `planner.rs`, beside the
//! scripted search.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Barrier};

use mheta_obs::json::{from_str, Value};
use mheta_serve::{benchmark_by_name, wire, PlanRequest, Planner, PlannerConfig, SearchParams};
use mheta_sim::presets;

fn small_request(seed: u64) -> PlanRequest {
    PlanRequest {
        bench: benchmark_by_name("jacobi", "small").unwrap(),
        prefetch: false,
        spec: presets::dc(),
        search: SearchParams {
            seed,
            max_evals_per_strategy: 24,
        },
    }
}

/// `(series, value)` for each sample of a Prometheus exposition; the
/// series is the metric name with its labels.
fn prom_samples(text: &str) -> Vec<(&str, f64)> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (series, value) = l.rsplit_once(' ').unwrap();
            (series, value.parse().unwrap_or_else(|e| panic!("{l}: {e}")))
        })
        .collect()
}

#[test]
fn concurrent_identical_requests_coalesce_to_one_search() {
    let planner = Arc::new(Planner::new(PlannerConfig { workers: 2 }));
    // A heavier budget so the search is still in flight when the
    // followers arrive.
    let req = PlanRequest {
        search: SearchParams {
            max_evals_per_strategy: 400,
            ..small_request(11).search
        },
        ..small_request(11)
    };
    let clients = 8;
    let barrier = Arc::new(Barrier::new(clients));
    let replies: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let planner = Arc::clone(&planner);
                let barrier = Arc::clone(&barrier);
                let req = req.clone();
                s.spawn(move || {
                    barrier.wait();
                    planner.plan(&req).expect("plan succeeds")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // However the threads interleaved, the searches counter proves at
    // most one search ran (a late arrival may hit the cache instead of
    // the flight — still zero extra searches).
    assert_eq!(planner.metrics().searches(), 1, "exactly one search");
    assert_eq!(planner.metrics().requests(), clients as u64);
    let first = &replies[0].plan;
    for r in &replies {
        assert_eq!(&r.plan, first, "all clients share the one result");
    }
}

#[test]
fn cache_hit_is_bitwise_identical_to_a_fresh_search() {
    let planner = Planner::new(PlannerConfig::default());
    let req = small_request(42);

    let fresh = planner.plan(&req).unwrap();
    assert_eq!(fresh.source.name(), "fresh");
    let cached = planner.plan(&req).unwrap();
    assert_eq!(cached.source.name(), "cache");
    assert_eq!(planner.metrics().cache_hits(), 1);

    // Bitwise identity of the cached reply against the fresh one…
    assert_eq!(cached.plan.rows, fresh.plan.rows);
    assert_eq!(
        cached.plan.predicted_ns.to_bits(),
        fresh.plan.predicted_ns.to_bits()
    );
    assert_eq!(cached.key, fresh.key);

    // …and against a second planner, whose cache is cold: the cache
    // returns exactly what a fresh search would compute.
    let cold = Planner::new(PlannerConfig::default());
    let recomputed = cold.plan(&req).unwrap();
    assert_eq!(recomputed.source.name(), "fresh");
    assert_eq!(recomputed.plan.rows, cached.plan.rows);
    assert_eq!(
        recomputed.plan.predicted_ns.to_bits(),
        cached.plan.predicted_ns.to_bits()
    );
}

/// The same holds under each search parameter: the portfolio runs on
/// one thread, so what the cache stores is what any recomputation
/// produces, and changing the budget or the seed is a different request.
#[test]
fn a_cached_plan_is_what_a_recomputation_produces_under_every_search_parameter() {
    let base = small_request(42).search;
    let params = [
        base.clone(),
        SearchParams {
            max_evals_per_strategy: 96,
            ..base.clone()
        },
        SearchParams { seed: 43, ..base },
    ];
    let mut keys = Vec::new();
    for search in params {
        let req = PlanRequest {
            search,
            ..small_request(42)
        };
        let planner = Planner::new(PlannerConfig::default());
        let first = planner.plan(&req).unwrap();
        keys.push(first.key);
        assert_eq!(planner.invalidate_cache(), 1);
        let again = planner.plan(&req).unwrap();
        let elsewhere = Planner::new(PlannerConfig::default()).plan(&req).unwrap();
        for other in [&again, &elsewhere] {
            assert_eq!(other.source.name(), "fresh");
            assert_eq!(other.key, first.key, "{:?}", req.search);
            assert_eq!(other.plan.rows, first.plan.rows, "{:?}", req.search);
            assert_eq!(
                other.plan.predicted_ns.to_bits(),
                first.plan.predicted_ns.to_bits(),
                "{:?}",
                req.search
            );
            assert_eq!(other.plan.winner, first.plan.winner, "{:?}", req.search);
            assert_eq!(
                other.plan.total_evals, first.plan.total_evals,
                "{:?}",
                req.search
            );
        }
    }
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), 3, "each search parameter rekeys");
}

#[test]
fn invalidation_forces_a_fresh_search() {
    let planner = Planner::new(PlannerConfig::default());
    let req = small_request(7);
    let a = planner.plan(&req).unwrap();
    assert_eq!(planner.invalidate_cache(), 1);
    let b = planner.plan(&req).unwrap();
    assert_eq!(b.source.name(), "fresh", "invalidation emptied the cache");
    assert_eq!(planner.metrics().searches(), 2);
    assert_eq!(a.plan, b.plan, "same request, same plan");
}

#[test]
fn wire_round_trip_plan_cache_stats_and_shutdown() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let planner = Arc::new(Planner::new(PlannerConfig::default()));
    let server = std::thread::spawn(move || wire::serve(listener, planner));

    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut round_trip = |req: &str| -> Value {
        writeln!(writer, "{req}").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        from_str(line.trim_end()).expect("daemon speaks JSON")
    };

    let pong = round_trip(r#"{"op":"ping"}"#);
    assert_eq!(pong.get("ok"), Some(&Value::Bool(true)));

    let plan_line = r#"{"op":"plan","app":{"name":"jacobi","size":"small"},"arch":"DC","search":{"evals":24,"seed":9}}"#;
    let first = round_trip(plan_line);
    assert_eq!(first.get("ok"), Some(&Value::Bool(true)));
    assert_eq!(first.get("source").unwrap().as_str(), Some("fresh"));
    let rows = first.get("plan").unwrap().get("rows").unwrap();
    assert!(!rows.as_array().unwrap().is_empty());

    let second = round_trip(plan_line);
    assert_eq!(second.get("source").unwrap().as_str(), Some("cache"));
    assert_eq!(
        second.get("plan").unwrap().to_json(),
        first.get("plan").unwrap().to_json(),
        "cached reply is byte-identical"
    );

    let stats = round_trip(r#"{"op":"stats"}"#);
    let service = stats.get("stats").unwrap().get("service").unwrap();
    let counters = service.get("counters").unwrap();
    assert_eq!(counters.get("cache_hits").unwrap().as_u64(), Some(1));
    assert_eq!(counters.get("searches").unwrap().as_u64(), Some(1));

    let bad = round_trip(r#"{"op":"plan","app":{"name":"zzz"},"arch":"DC"}"#);
    assert_eq!(bad.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(
        bad.get("error").unwrap().get("kind").unwrap().as_str(),
        Some("bad_request")
    );

    let inval = round_trip(r#"{"op":"invalidate"}"#);
    assert_eq!(inval.get("invalidated").unwrap().as_u64(), Some(1));

    let bye = round_trip(r#"{"op":"shutdown"}"#);
    assert_eq!(bye.get("ok"), Some(&Value::Bool(true)));
    server.join().unwrap().unwrap();
}

#[test]
fn perfetto_request_track_covers_the_lifecycle() {
    let planner = Planner::new(PlannerConfig::default());
    let req = small_request(13);
    planner.plan(&req).unwrap();
    planner.plan(&req).unwrap();
    let json = planner.metrics().perfetto_json();
    let v = from_str(&json).unwrap();
    let events = v.get("traceEvents").unwrap().as_array().unwrap();
    let slices: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
        .collect();
    // One fresh request (with a search slice and one slice per
    // portfolio strategy thread) plus one cache hit.
    let on_tid = |tid: u64| {
        slices
            .iter()
            .filter(|e| e.get("tid").unwrap().as_u64() == Some(tid))
            .count()
    };
    assert_eq!(on_tid(0), 2, "request track: one fresh, one cache hit");
    assert!(
        on_tid(1) >= 2,
        "search track: the search slice plus per-strategy slices"
    );
    assert!(json.contains("\"fresh\""));
    assert!(json.contains("\"cache\""));
    // Every request slice carries its trace identity.
    for e in slices
        .iter()
        .filter(|e| e.get("tid").unwrap().as_u64() == Some(0))
    {
        let args = e.get("args").unwrap();
        let trace = args.get("trace_id").unwrap().as_str().unwrap();
        assert_eq!(trace.len(), 16, "hex trace id: {trace}");
    }
}

#[test]
fn wire_round_trip_metrics_and_dump() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let planner = Arc::new(Planner::new(PlannerConfig::default()));
    let server = std::thread::spawn(move || wire::serve(listener, planner));

    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut round_trip = |req: &str| -> Value {
        writeln!(writer, "{req}").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        from_str(line.trim_end()).expect("daemon speaks JSON")
    };

    // One traced plan, fresh and then cached, so the telemetry has
    // something to show and each latency histogram holds two samples.
    for source in ["fresh", "cache"] {
        let reply = round_trip(
            r#"{"op":"plan","app":{"name":"jacobi","size":"small"},"arch":"DC","search":{"evals":24,"seed":4},"trace":{"trace_id":"00c0ffee00c0ffee","span_id":"1"}}"#,
        );
        assert_eq!(reply.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(reply.get("source").unwrap().as_str(), Some(source));
        assert_eq!(
            reply.get("trace_id").unwrap().as_str(),
            Some("00c0ffee00c0ffee"),
            "the reply echoes the propagated trace"
        );
    }

    // `metrics` returns a well-formed Prometheus exposition.
    let metrics = round_trip(r#"{"op":"metrics"}"#);
    assert_eq!(metrics.get("ok"), Some(&Value::Bool(true)));
    let text = metrics.get("prometheus").unwrap().as_str().unwrap();
    assert!(text.contains("# TYPE mheta_serve_requests_total counter"));
    assert!(text.contains("mheta_serve_requests_total{source=\"fresh\"} 1"));
    assert!(text.contains("# TYPE mheta_serve_stage_seconds histogram"));
    assert!(text.contains("mheta_serve_stage_seconds_sum"));
    assert!(text.contains("mheta_serve_stage_seconds_count"));
    assert!(text.contains("le=\"+Inf\""));
    assert!(text.contains("mheta_serve_cache_misses_total 1"));
    assert!(text.contains("mheta_serve_flight_written_total"));
    // The fresh portfolio plan ran on the incremental evaluator: delta
    // hits and full (rebase) evaluations, and both fallback series.
    let samples = prom_samples(text);
    let value = |series: &str| samples.iter().find(|s| s.0 == series).map(|s| s.1);
    assert!(value("mheta_serve_delta_hits_total") > Some(0.0));
    assert!(value("mheta_serve_delta_full_evals_total") > Some(0.0));
    assert!(value(r#"mheta_serve_delta_fallbacks_total{kind="structural"}"#).is_some());
    assert_eq!(
        value(r#"mheta_serve_delta_fallbacks_total{kind="error"}"#),
        Some(0.0)
    );
    // Every histogram family has `_sum`, `_count` and a `+Inf` bucket,
    // and the buckets of each series are cumulative.
    let histograms: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE ")?.strip_suffix(" histogram"))
        .collect();
    assert!(!histograms.is_empty());
    for family in histograms {
        let has = |suffix: &str, with: &str| {
            let name = format!("{family}{suffix}");
            samples
                .iter()
                .any(|s| s.0.starts_with(&name) && s.0.contains(with))
        };
        assert!(has("_sum", ""), "{family} has no _sum");
        assert!(has("_count", ""), "{family} has no _count");
        assert!(
            has("_bucket{", r#"le="+Inf""#),
            "{family} has no +Inf bucket"
        );
    }
    let buckets = samples.iter().filter(|s| s.0.contains("_bucket{"));
    let mut previous: Option<(&str, f64)> = None;
    for &(series, count) in buckets {
        let labels = &series[..series.find("le=").unwrap()];
        if let Some((last_labels, last)) = previous {
            assert!(
                labels != last_labels || count >= last,
                "non-cumulative buckets at {series}"
            );
        }
        previous = Some((labels, count));
    }
    // The per-shard fast-fail guard that the failure cache replaced is
    // gone, and so are its series (the name is split so that it appears
    // nowhere in the source).
    assert!(!text.contains(&["mheta_serve_", "breaker_"].concat()));

    // Evictions have one count: the cache's own, in `stats` and in the
    // exposition alike; the service counters carry none.
    let stats = round_trip(r#"{"op":"stats"}"#);
    let stats = stats.get("stats").unwrap();
    let counters = stats.get("service").unwrap().get("counters").unwrap();
    assert!(counters.get("cache_evictions").is_none());
    let evictions = stats.get("cache").unwrap().get("evictions").unwrap();
    assert_eq!(
        evictions.as_u64().map(|n| n as f64),
        value("mheta_serve_cache_evictions_total")
    );

    // `dump` returns the flight-recorder document, and the trace we
    // propagated identifies this request's lifecycle events in it.
    let dump = round_trip(r#"{"op":"dump"}"#);
    assert_eq!(dump.get("ok"), Some(&Value::Bool(true)));
    let flight = dump.get("flight").unwrap();
    assert_eq!(
        flight.get("schema").unwrap().as_str(),
        Some("mheta-flight/v1")
    );
    let events = flight.get("events").unwrap().as_array().unwrap();
    assert!(!events.is_empty());
    let kinds: Vec<&str> = events
        .iter()
        .filter(|e| e.get("trace_id").map(Value::as_str) == Some(Some("00c0ffee00c0ffee")))
        .map(|e| e.get("kind").unwrap().as_str().unwrap())
        .collect();
    assert!(kinds.contains(&"request.received"), "kinds: {kinds:?}");
    assert!(kinds.contains(&"cache.miss"), "kinds: {kinds:?}");
    assert!(kinds.contains(&"search.done"), "kinds: {kinds:?}");
    assert!(kinds.contains(&"cache.hit"), "kinds: {kinds:?}");

    let bye = round_trip(r#"{"op":"shutdown"}"#);
    assert_eq!(bye.get("ok"), Some(&Value::Bool(true)));
    server.join().unwrap().unwrap();
}

#[test]
fn one_trace_id_connects_reply_spans_recorder_and_perfetto() {
    use mheta_obs::TraceContext;

    let planner = Planner::new(PlannerConfig::default());
    let req = small_request(21);
    let ctx = TraceContext::root();

    let reply = planner.plan_opts(&req, ctx, None).unwrap();
    assert_eq!(
        reply.trace.trace_id, ctx.trace_id,
        "reply carries the trace"
    );

    // The request span on the metrics track carries the same trace.
    let spans = planner.metrics().spans();
    assert_eq!(spans.len(), 1);
    assert_eq!(spans[0].trace_id, ctx.trace_id);
    assert!(
        !spans[0].strategies.is_empty(),
        "fresh request records per-strategy sub-spans"
    );

    // The flight recorder saw the full lifecycle under that trace.
    let dump = planner.flight_dump();
    let hex = ctx.trace_hex();
    let traced: Vec<&str> = dump
        .get("events")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .filter(|e| e.get("trace_id").map(Value::as_str) == Some(Some(hex.as_str())))
        .map(|e| e.get("kind").unwrap().as_str().unwrap())
        .collect();
    assert!(traced.contains(&"request.received"));
    assert!(traced.contains(&"search.done"));

    // And the Perfetto export names the trace on its slices.
    let perfetto = planner.metrics().perfetto_json();
    assert!(perfetto.contains(&hex), "trace id visible in Perfetto");

    // A coalesced follower links to the leader's trace: simulate by
    // serving the same request again from cache (link is exercised in
    // the coalescing test; here assert the cache path keeps its own
    // trace identity).
    let ctx2 = TraceContext::root();
    let cached = planner.plan_opts(&req, ctx2, None).unwrap();
    assert_eq!(cached.source.name(), "cache");
    assert_eq!(cached.trace.trace_id, ctx2.trace_id);
}

#[test]
fn coalesced_followers_link_to_the_leader_trace() {
    use mheta_obs::{RequestSource, TraceContext};

    // Requests that arrive after the search finished hit the cache and
    // link nothing; only the coalesced ones are counted below.
    let planner = Arc::new(Planner::new(PlannerConfig { workers: 2 }));
    let req = PlanRequest {
        search: SearchParams {
            max_evals_per_strategy: 400,
            ..small_request(31).search
        },
        ..small_request(31)
    };
    let clients = 6;
    let barrier = Arc::new(Barrier::new(clients));
    std::thread::scope(|s| {
        for _ in 0..clients {
            let planner = Arc::clone(&planner);
            let barrier = Arc::clone(&barrier);
            let req = req.clone();
            s.spawn(move || {
                barrier.wait();
                planner.plan_opts(&req, TraceContext::root(), None).unwrap()
            });
        }
    });

    let spans = planner.metrics().spans();
    let leader: Vec<_> = spans
        .iter()
        .filter(|s| s.source == RequestSource::Fresh)
        .collect();
    let followers: Vec<_> = spans
        .iter()
        .filter(|s| s.source == RequestSource::Coalesced)
        .collect();
    assert_eq!(leader.len(), 1, "one leader");
    assert!(!followers.is_empty(), "budget big enough to coalesce");
    for f in &followers {
        assert_eq!(
            f.link_trace_id, leader[0].trace_id,
            "every follower links the leader's trace"
        );
        assert_ne!(f.trace_id, leader[0].trace_id, "but keeps its own");
    }

    // Perfetto renders the coalition as flow events bound by the
    // leader's trace id.
    let perfetto = planner.metrics().perfetto_json();
    let v = from_str(&perfetto).unwrap();
    let events = v.get("traceEvents").unwrap().as_array().unwrap();
    let flows_out = events
        .iter()
        .filter(|e| e.get("ph").unwrap().as_str() == Some("s"))
        .count();
    let flows_in = events
        .iter()
        .filter(|e| e.get("ph").unwrap().as_str() == Some("f"))
        .count();
    assert_eq!(flows_out, 1, "one flow start at the leader");
    assert_eq!(flows_in, followers.len(), "one flow finish per follower");
}
