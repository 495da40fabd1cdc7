//! Request-lifecycle hardening, end to end: deadlines (degraded
//! incumbents vs true expiry), cached search failures, graceful drain
//! over the wire, and crash-safe snapshot warm starts.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use mheta_obs::json::{from_str, Value};
use mheta_obs::{RequestSource, TraceContext};
use mheta_serve::{
    benchmark_by_name, snapshot, wire, Lifecycle, PlanError, PlanRequest, Planner, PlannerConfig,
    SearchParams, ServeConfig,
};
use mheta_sim::presets;

fn small_request(seed: u64) -> PlanRequest {
    PlanRequest {
        bench: benchmark_by_name("jacobi", "small").unwrap(),
        prefetch: false,
        spec: presets::dc(),
        search: SearchParams {
            seed,
            max_evals_per_strategy: 24,
            ..SearchParams::default()
        },
    }
}

/// A request whose search budget is far larger than any test deadline,
/// so a deadline reliably expires mid-search.
fn huge_request(seed: u64) -> PlanRequest {
    PlanRequest {
        search: SearchParams {
            max_evals_per_strategy: 1_000_000,
            ..small_request(seed).search
        },
        ..small_request(seed)
    }
}

/// A request whose model construction always fails (negative CPU
/// power fails `ClusterSpec` validation), deterministically producing
/// `PlanError::Search`.
fn doomed_request(seed: u64) -> PlanRequest {
    let mut req = small_request(seed);
    req.spec.nodes[0].cpu_power = -1.0;
    req
}

#[test]
fn mid_search_deadline_returns_the_incumbent_flagged_degraded() {
    let planner = Planner::new(PlannerConfig::default());
    let req = huge_request(17);
    let start = std::time::Instant::now();
    let reply = planner
        .plan_opts(&req, TraceContext::root(), Some(Duration::from_millis(30)))
        .expect("an incumbent exists by the time the deadline fires");
    // 4 x 1,000,000 evaluations would take seconds; the deadline, not
    // the budget, ends the search (generous for a loaded debug build).
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "reply took {:?} against a 30 ms deadline",
        start.elapsed()
    );
    assert!(reply.degraded, "deadline interrupted the full budget");
    assert_eq!(reply.source.name(), "fresh");
    assert!(!reply.plan.rows.is_empty());
    assert!(reply.plan.predicted_ns.is_finite());
    assert_eq!(planner.metrics().degraded(), 1);
    // Degraded plans must never poison the cache.
    assert_eq!(
        planner.cache().len(),
        0,
        "partial-budget incumbent was cached"
    );
}

#[test]
fn expired_deadline_with_no_incumbent_is_a_structured_error() {
    let planner = Planner::new(PlannerConfig::default());
    let req = small_request(23);
    // A zero budget has expired by the time the job dequeues: the
    // worker refuses to search and no incumbent can exist.
    let err = planner
        .plan_opts(&req, TraceContext::root(), Some(Duration::ZERO))
        .unwrap_err();
    assert_eq!(err, PlanError::DeadlineExceeded { budget_ms: 0 });
    assert_eq!(planner.metrics().deadline_exceeded(), 1);
    assert_eq!(
        planner.metrics().searches(),
        0,
        "no worker time burned on an expired request"
    );
}

#[test]
fn deadline_does_not_change_the_cache_key() {
    let planner = Planner::new(PlannerConfig::default());
    let req = small_request(29);
    let fresh = planner.plan(&req).unwrap();
    // The same request WITH a (generous) deadline still hits the cache.
    let cached = planner
        .plan_opts(&req, TraceContext::root(), Some(Duration::from_secs(60)))
        .unwrap();
    assert_eq!(cached.source.name(), "cache");
    assert_eq!(cached.key, fresh.key);
    assert!(!cached.degraded);
}

#[test]
fn a_doomed_request_searches_once_and_sheds_nobody() {
    let planner = Planner::new(PlannerConfig::default());
    let doomed = doomed_request(1);
    // A healthy request in the doomed key's cache shard (the stripe is
    // picked by the key's high bits over the default 8 shards).
    let shard = |req: &PlanRequest| (req.key() >> 32) % 8;
    let healthy = (2..)
        .map(small_request)
        .find(|req| shard(req) == shard(&doomed))
        .unwrap();
    let doomed_replies: Vec<_> = (0..5).map(|_| planner.plan(&doomed)).collect();
    let searches = planner.metrics().searches();
    let sixth = planner.plan(&healthy);

    // A failure says nothing about the other keys of its shard.
    assert_eq!(sixth.map(|r| r.source), Ok(RequestSource::Fresh));
    assert_eq!(searches, 1, "the doomed key searched more than once");
    let Err(PlanError::Search(first)) = &doomed_replies[0] else {
        panic!("the doomed request did not fail its search")
    };
    for (i, reply) in doomed_replies.iter().enumerate().skip(1) {
        let reply = reply.as_ref().map(|r| &r.plan);
        assert_eq!(reply, Err(&PlanError::Search(first.clone())), "reply {i}");
    }
    let sources: Vec<_> = planner.metrics().spans().iter().map(|s| s.source).collect();
    let want = [RequestSource::Failed]
        .into_iter()
        .chain([RequestSource::Cache; 4])
        .chain([RequestSource::Fresh]);
    assert_eq!(sources, want.collect::<Vec<_>>());

    // Invalidation drops the failure like any plan: the next attempt
    // searches again.
    assert_eq!(planner.invalidate_cache(), 2);
    assert!(planner.plan(&doomed).is_err());
    assert_eq!(planner.metrics().searches(), 3);
}

#[test]
fn deadline_free_follower_of_a_degraded_flight_is_not_degraded() {
    let planner = Arc::new(Planner::new(PlannerConfig::default()));
    // Big enough that the full search far outlasts the leader's 15 ms
    // deadline, small enough that the follower's full-budget re-run
    // stays test-sized.
    let req = PlanRequest {
        search: SearchParams {
            max_evals_per_strategy: 50_000,
            ..small_request(47).search
        },
        ..small_request(47)
    };
    let leader = {
        let planner = Arc::clone(&planner);
        let req = req.clone();
        std::thread::spawn(move || {
            planner.plan_opts(&req, TraceContext::root(), Some(Duration::from_millis(15)))
        })
    };
    // Join the flight once the leader's search is actually running.
    while planner.metrics().searches() == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let follower = planner.plan(&req).unwrap();
    let leader_reply = leader.join().unwrap().unwrap();
    assert!(leader_reply.degraded, "leader's deadline cut its search");
    // The follower never opted into a deadline: inheriting the
    // leader's partial-budget incumbent would silently short-change
    // it. It must come back with a full-budget (or cached) answer.
    assert!(
        !follower.degraded,
        "full-budget caller received a degraded plan"
    );
    assert!(follower.plan.predicted_ns.is_finite());
}

#[test]
fn wire_deadline_zero_returns_the_deadline_error_kind() {
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

    let v = round_trip(
        r#"{"op":"plan","app":{"name":"jacobi","size":"small"},"arch":"DC","deadline_ms":0,"search":{"evals":24,"seed":5}}"#,
    );
    assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
    let error = v.get("error").unwrap();
    assert_eq!(error.get("kind").unwrap().as_str(), Some("deadline"));
    assert_eq!(error.get("budget_ms").unwrap().as_u64(), Some(0));

    let bye = round_trip(r#"{"op":"shutdown"}"#);
    assert_eq!(bye.get("ok"), Some(&Value::Bool(true)));
    server.join().unwrap().unwrap();
}

#[test]
fn drain_sheds_new_plans_finishes_inflight_and_exits() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let planner = Arc::new(Planner::new(PlannerConfig::default()));
    let lifecycle = Arc::new(Lifecycle::new());
    let server = {
        let planner = Arc::clone(&planner);
        let lifecycle = Arc::clone(&lifecycle);
        std::thread::spawn(move || {
            wire::serve_with(
                listener,
                planner,
                lifecycle,
                ServeConfig {
                    drain_deadline_ms: 5_000,
                    ..ServeConfig::default()
                },
            )
        })
    };

    // Connection A: a slow plan (huge budget, bounded by its own
    // deadline) that is still in flight when the drain begins.
    let slow = TcpStream::connect(addr).unwrap();
    let mut slow_writer = slow.try_clone().unwrap();
    writeln!(
        slow_writer,
        r#"{{"op":"plan","app":{{"name":"jacobi","size":"small"}},"arch":"DC","deadline_ms":500,"search":{{"evals":1000000,"seed":6}}}}"#
    )
    .unwrap();
    slow_writer.flush().unwrap();
    // Let it reach the planner before draining.
    while lifecycle.in_flight() == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }

    lifecycle.begin_drain();

    // Connection B: a new plan is shed with the structured draining
    // error, but control ops still work.
    let b = TcpStream::connect(addr).unwrap();
    let mut b_writer = b.try_clone().unwrap();
    let mut b_reader = BufReader::new(b);
    let mut round_trip = |req: &str| -> Value {
        writeln!(b_writer, "{req}").unwrap();
        b_writer.flush().unwrap();
        let mut line = String::new();
        b_reader.read_line(&mut line).unwrap();
        from_str(line.trim_end()).expect("daemon speaks JSON")
    };
    let shed = round_trip(
        r#"{"op":"plan","app":{"name":"cg","size":"small"},"arch":"DC","search":{"evals":24,"seed":7}}"#,
    );
    assert_eq!(shed.get("ok"), Some(&Value::Bool(false)));
    let error = shed.get("error").unwrap();
    assert_eq!(error.get("kind").unwrap().as_str(), Some("draining"));
    assert!(error.get("retry_after_ms").unwrap().as_u64().unwrap() > 0);
    let stats = round_trip(r#"{"op":"stats"}"#);
    assert_eq!(
        stats.get("ok"),
        Some(&Value::Bool(true)),
        "control ops served during drain"
    );

    // The in-flight request finishes with an answer (its own deadline
    // degrades it rather than the drain killing it).
    let mut slow_line = String::new();
    BufReader::new(slow).read_line(&mut slow_line).unwrap();
    let slow_reply = from_str(slow_line.trim_end()).unwrap();
    assert_eq!(slow_reply.get("ok"), Some(&Value::Bool(true)));
    assert_eq!(slow_reply.get("degraded"), Some(&Value::Bool(true)));

    // And the accept loop exits once in-flight hits zero.
    server.join().unwrap().unwrap();
    assert_eq!(lifecycle.in_flight(), 0);
}

#[test]
fn idle_connections_time_out_cleanly() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let planner = Arc::new(Planner::new(PlannerConfig::default()));
    let lifecycle = Arc::new(Lifecycle::new());
    let server = {
        let planner = Arc::clone(&planner);
        let lifecycle = Arc::clone(&lifecycle);
        std::thread::spawn(move || {
            wire::serve_with(
                listener,
                planner,
                lifecycle,
                ServeConfig {
                    read_timeout_ms: 100,
                    ..ServeConfig::default()
                },
            )
        })
    };

    // A half-open client: connects, sends nothing. The daemon must
    // drop it after the read timeout instead of pinning a thread.
    let mut idle = TcpStream::connect(addr).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 16];
    let n = idle.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "server closed the idle connection");

    // The daemon is still fully alive for real clients.
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writeln!(writer, r#"{{"op":"ping"}}"#).unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let pong = from_str(line.trim_end()).unwrap();
    assert_eq!(pong.get("ok"), Some(&Value::Bool(true)));

    lifecycle.begin_drain();
    server.join().unwrap().unwrap();
}

#[test]
fn snapshot_warm_start_serves_the_first_request_from_cache() {
    let dir = std::env::temp_dir().join(format!("mheta-warm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("plancache.json");

    // First "boot": plan, then snapshot on the way down.
    let first = Planner::new(PlannerConfig::default());
    let req = small_request(37);
    let fresh = first.plan(&req).unwrap();
    assert_eq!(fresh.source.name(), "fresh");
    assert_eq!(first.save_snapshot(&path).unwrap(), 1);

    // Second "boot": warm-start, and the same request is a cache hit
    // with a bitwise-identical plan — no search runs.
    let second = Planner::new(PlannerConfig::default());
    assert_eq!(second.load_snapshot(&path).unwrap(), 1);
    let warm = second.plan(&req).unwrap();
    assert_eq!(warm.source.name(), "cache");
    assert_eq!(warm.plan.rows, fresh.plan.rows);
    assert_eq!(
        warm.plan.predicted_ns.to_bits(),
        fresh.plan.predicted_ns.to_bits()
    );
    assert_eq!(second.metrics().searches(), 0);

    // Corrupt the file: the next boot rejects it as a value and cold
    // starts — never a crash, never a wrong plan.
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, text.replacen(":", ";", 1)).unwrap();
    let third = Planner::new(PlannerConfig::default());
    let err = third.load_snapshot(&path).unwrap_err();
    assert!(
        matches!(err, snapshot::SnapshotError::Malformed(_)),
        "{err}"
    );
    let cold = third.plan(&req).unwrap();
    assert_eq!(cold.source.name(), "fresh");

    let _ = std::fs::remove_dir_all(&dir);
}
