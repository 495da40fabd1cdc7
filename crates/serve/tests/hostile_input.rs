//! Hostile bytes on the wire: whatever a client sends, the daemon
//! answers `bad_request` or closes — it never crashes, never buffers
//! without bound, and never leaks in-flight work.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use mheta_obs::json::{from_str, Value};
use mheta_serve::request::MAX_EVALS_PER_STRATEGY;
use mheta_serve::wire::{self, MAX_LINE_BYTES};
use mheta_serve::{Lifecycle, Planner, PlannerConfig};

/// One hostile payload and what the daemon owes in return.
struct Case {
    name: &'static str,
    payload: Vec<u8>,
    /// `bad_request` replies expected, one per hostile line.
    bad_requests: usize,
    /// Whether the daemon hangs up after replying (a line it cannot
    /// frame or decode) or keeps serving the connection.
    closes: bool,
}

fn cases() -> Vec<Case> {
    let wrong_types = [
        r#"{"op":7}"#,
        r#"[]"#,
        r#"null"#,
        r#"{"op":"plan"}"#,
        r#"{"op":"plan","app":7,"arch":"DC"}"#,
        r#"{"op":"plan","app":{"name":["jacobi"]},"arch":"DC"}"#,
        r#"{"op":"plan","app":{"name":"jacobi"},"arch":5}"#,
        r#"{"op":"plan","app":{"name":"jacobi"},"arch":"HOM1025"}"#,
        r#"{"op":"plan","app":{"name":"jacobi"},"arch":"DC","prefetch":"yes"}"#,
        r#"{"op":"plan","app":{"name":"cg"},"arch":"DC","prefetch":true}"#,
        r#"{"op":"plan","app":{"name":"jacobi"},"arch":"DC","deadline_ms":"soon"}"#,
        r#"{"op":"plan","app":{"name":"jacobi"},"arch":"DC","search":{"evals":-1}}"#,
        r#"{"op":"plan","app":{"name":"jacobi"},"arch":"DC","search":{"evals":1000001}}"#,
        r#"{"op":"plan","app":{"name":"jacobi"},"arch":"DC","search":{"evals":32,"retries":2}}"#,
        r#"{"op":"plan","app":{"name":"jacobi"},"arch":"DC","trace":{"trace_id":1,"span_id":2}}"#,
    ];
    vec![
        Case {
            name: "64 KiB of `[`, newline-terminated",
            payload: [vec![b'['; MAX_LINE_BYTES], vec![b'\n']].concat(),
            bad_requests: 1,
            closes: false,
        },
        Case {
            name: "a line four times the cap, no newline",
            payload: vec![b'a'; 4 * MAX_LINE_BYTES],
            bad_requests: 1,
            closes: true,
        },
        Case {
            name: "invalid UTF-8",
            payload: b"{\"op\":\"ping\xff\xfe\"}\n".to_vec(),
            bad_requests: 1,
            closes: true,
        },
        Case {
            name: "half a JSON object, then EOF",
            payload: b"{\"op\":\"plan\",\"app\":{\"na".to_vec(),
            bad_requests: 1,
            closes: true,
        },
        Case {
            name: "well-formed JSON, wrong-typed, unknown or out-of-range fields",
            payload: (wrong_types.join("\n") + "\n").into_bytes(),
            bad_requests: wrong_types.len(),
            closes: false,
        },
        Case {
            name: "blank lines",
            payload: b"\n   \n\r\n\t\n".to_vec(),
            bad_requests: 0,
            closes: false,
        },
    ]
}

/// The budget cap admits the cap itself: the hostile line above is one
/// evaluation past a budget that parses.
#[test]
fn the_largest_budget_parses_and_one_more_is_refused() {
    let line = |evals: u64| {
        format!(
            r#"{{"op":"plan","app":{{"name":"jacobi"}},"arch":"DC","search":{{"evals":{evals}}}}}"#
        )
    };
    let cap = MAX_EVALS_PER_STRATEGY as u64;
    assert_eq!(cap, 1_000_000);
    let Ok(wire::WireOp::Plan(req, _, _)) = wire::parse_request(&line(cap)) else {
        panic!("a budget of {cap} parses")
    };
    assert_eq!(req.search.max_evals_per_strategy, MAX_EVALS_PER_STRATEGY);
    for evals in [cap + 1, u64::MAX] {
        let err = wire::parse_request(&line(evals)).unwrap_err();
        assert!(
            err.contains("search.evals") && err.contains("1000000"),
            "{err}"
        );
    }
}

fn round_trip(addr: SocketAddr, request: &str) -> Value {
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    writeln!(writer, "{request}").unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    from_str(line.trim_end()).expect("daemon speaks JSON")
}

fn error_kind(reply: &Value) -> Option<&str> {
    reply.get("error")?.get("kind")?.as_str()
}

#[test]
fn hostile_input_gets_bad_request_and_leaks_nothing() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let planner = Arc::new(Planner::new(PlannerConfig::default()));
    let lifecycle = Arc::new(Lifecycle::new());
    let server = {
        let lifecycle = Arc::clone(&lifecycle);
        std::thread::spawn(move || wire::serve_with(listener, planner, lifecycle))
    };

    for case in cases() {
        let name = case.name;
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        // The daemon may hang up while an over-long payload is still
        // being written; that is its right, so a failed write is not
        // the test's failure.
        let _ = writer.write_all(&case.payload);
        if case.closes {
            let _ = writer.shutdown(Shutdown::Write);
        } else {
            // The connection must survive: a ping sent after the
            // hostile lines is answered, after them.
            writeln!(writer, r#"{{"op":"ping"}}"#).unwrap();
        }
        let mut reader = BufReader::new(stream);
        for i in 0..case.bad_requests {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let reply = from_str(line.trim_end())
                .unwrap_or_else(|e| panic!("{name}: reply {i} is not JSON ({e}): {line:?}"));
            assert_eq!(error_kind(&reply), Some("bad_request"), "{name}: {line}");
        }
        let mut rest = String::new();
        if case.closes {
            // Nothing but the hang-up follows (a reset counts as one).
            let _ = reader.read_to_string(&mut rest);
            assert_eq!(rest, "", "{name}: unexpected extra output");
        } else {
            reader.read_line(&mut rest).unwrap();
            let pong = from_str(rest.trim_end()).expect("daemon speaks JSON");
            assert_eq!(pong.get("pong"), Some(&Value::Bool(true)), "{name}: {rest}");
        }

        // The daemon is alive for the next client and nothing is stuck:
        // no plan in flight, nothing queued, and no hostile line ever
        // reached the planner.
        let pong = round_trip(addr, r#"{"op":"ping"}"#);
        assert_eq!(pong.get("ok"), Some(&Value::Bool(true)), "{name}");
        assert_eq!(lifecycle.in_flight(), 0, "{name}");
        let stats = round_trip(addr, r#"{"op":"stats"}"#);
        let stats = stats.get("stats").unwrap();
        let queue_depth = stats.get("executor").unwrap().get("queue_depth").unwrap();
        assert_eq!(queue_depth.as_u64(), Some(0), "{name}");
        let counters = stats.get("service").unwrap().get("counters").unwrap();
        assert_eq!(
            counters.get("requests").unwrap().as_u64(),
            Some(0),
            "{name}"
        );
    }

    lifecycle.begin_drain();
    server.join().unwrap().unwrap();
}
