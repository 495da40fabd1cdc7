//! `planctl` — client for the `pland` planning daemon.
//!
//! ```text
//! planctl [--addr HOST:PORT] [--max-retries N] [--timeout-ms N] ping
//! planctl [--addr HOST:PORT] plan --app jacobi [--size small] --arch DC
//!         [--prefetch] [--evals N] [--seed N] [--deadline-ms N]
//!         [--no-trace]
//! planctl [--addr HOST:PORT] stats
//! planctl [--addr HOST:PORT] metrics
//! planctl [--addr HOST:PORT] dump
//! planctl [--addr HOST:PORT] invalidate
//! planctl [--addr HOST:PORT] shutdown
//! ```
//!
//! Sends one JSON-lines request and prints the daemon's one-line JSON
//! response on stdout. Exits nonzero when the response has
//! `"ok":false` (so shell scripts can gate on success). Any failure —
//! unreachable daemon, malformed response — is a clear one-line error
//! on stderr, never a panic.
//!
//! ## Retries
//!
//! With `--max-retries N` (default 0: single-shot), planctl retries
//! transient failures: connection refused/reset (the daemon is
//! restarting) and the structured `overloaded` and `draining` sheds. A
//! `search` failure is not retried: the daemon caches the ones that are
//! pure functions of the request, so a retry would get the same answer.
//! Each retry backs off exponentially from 50 ms, or by the server's
//! `retry_after_ms` hint when that is longer, plus up to 25% jitter
//! above it, so a retry never comes before the hint; `--timeout-ms`
//! caps the total time spent including backoffs (0 = no cap). Retries
//! reuse the same request (and trace), so the daemon sees one trace ID
//! across all attempts.
//!
//! `plan` mints a client-side root trace and propagates it in the
//! request's `trace` object; the trace ID is echoed on stderr so the
//! caller can grep the daemon's span log and flight-recorder dump for
//! the same request (`--no-trace` suppresses this and lets the daemon
//! mint its own root). `--evals` (the budget of each of the four
//! strategies) and `--seed` are the whole search; `--deadline-ms`
//! attaches an end-to-end budget, the one thing that stops a search
//! early: the daemon answers with its best incumbent
//! (`"degraded":true`) if the budget expires mid-search.
//!
//! `metrics` prints the daemon's Prometheus text-format exposition
//! verbatim (scrape-ready: pipe it to a file a node_exporter-style
//! textfile collector picks up). `dump` pretty-prints the
//! flight-recorder document (`mheta-flight/v1`).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use mheta_obs::json::{from_str, Value};
use mheta_obs::TraceContext;

fn usage() -> String {
    "planctl [--addr HOST:PORT] [--max-retries N] [--timeout-ms N] \
     <ping|stats|metrics|dump|invalidate|shutdown|plan> \
     [plan: --app NAME [--size small|default] --arch ARCH [--prefetch] \
     [--evals N] [--seed N] [--deadline-ms N] [--no-trace]]"
        .to_string()
}

fn build_request(cmd: &str, args: &mut impl Iterator<Item = String>) -> Result<Value, String> {
    match cmd {
        "ping" | "stats" | "metrics" | "dump" | "invalidate" | "shutdown" => {
            Ok(Value::object(vec![("op", Value::Str(cmd.to_string()))]))
        }
        "plan" => {
            let mut app = None;
            let mut size = "small".to_string();
            let mut arch = None;
            let mut prefetch = false;
            let mut trace = true;
            let mut deadline_ms = None;
            let mut search: Vec<(&str, Value)> = Vec::new();
            while let Some(flag) = args.next() {
                let mut value = |name: &str| {
                    args.next()
                        .ok_or_else(|| format!("{name} requires a value"))
                };
                match flag.as_str() {
                    "--app" => app = Some(value("--app")?),
                    "--size" => size = value("--size")?,
                    "--arch" => arch = Some(value("--arch")?),
                    "--prefetch" => prefetch = true,
                    "--no-trace" => trace = false,
                    "--deadline-ms" => {
                        let n: u64 = value("--deadline-ms")?
                            .parse()
                            .map_err(|e| format!("--deadline-ms: {e}"))?;
                        deadline_ms = Some(n);
                    }
                    "--evals" => {
                        let n: u64 = value("--evals")?
                            .parse()
                            .map_err(|e| format!("--evals: {e}"))?;
                        search.push(("evals", Value::UInt(n)));
                    }
                    "--seed" => {
                        let n: u64 = value("--seed")?
                            .parse()
                            .map_err(|e| format!("--seed: {e}"))?;
                        search.push(("seed", Value::UInt(n)));
                    }
                    other => return Err(format!("unknown plan flag `{other}`")),
                }
            }
            let app = app.ok_or("plan requires --app")?;
            let arch = arch.ok_or("plan requires --arch")?;
            let mut pairs = vec![
                ("op", Value::Str("plan".into())),
                (
                    "app",
                    Value::object(vec![("name", Value::Str(app)), ("size", Value::Str(size))]),
                ),
                ("arch", Value::Str(arch)),
                ("prefetch", Value::Bool(prefetch)),
            ];
            if let Some(d) = deadline_ms {
                pairs.push(("deadline_ms", Value::UInt(d)));
            }
            if !search.is_empty() {
                pairs.push(("search", Value::object(search)));
            }
            if trace {
                let ctx = TraceContext::root();
                eprintln!("planctl: trace_id {}", ctx.trace_hex());
                pairs.push((
                    "trace",
                    Value::object(vec![
                        ("trace_id", Value::Str(ctx.trace_hex())),
                        ("span_id", Value::Str(ctx.span_hex())),
                    ]),
                ));
            }
            Ok(Value::object(pairs))
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

/// One network exchange that failed.
enum AttemptError {
    /// Worth retrying: connect/send/read failures (the daemon may be
    /// restarting).
    Transient(String),
    /// Not worth retrying: a malformed response or empty reply.
    Fatal(String),
}

/// Send `request` once and read the one-line response.
fn attempt(addr: &str, request: &str) -> Result<Value, AttemptError> {
    let stream = TcpStream::connect(addr)
        .map_err(|e| AttemptError::Transient(format!("cannot connect to {addr}: {e}")))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| AttemptError::Transient(e.to_string()))?;
    writeln!(writer, "{request}")
        .and_then(|()| writer.flush())
        .map_err(|e| AttemptError::Transient(format!("send failed: {e}")))?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| AttemptError::Transient(format!("read failed: {e}")))?;
    let line = line.trim_end();
    if line.is_empty() {
        return Err(AttemptError::Transient(
            "daemon closed the connection without replying".into(),
        ));
    }
    from_str(line)
        .map_err(|e| AttemptError::Fatal(format!("malformed response from daemon: {e:?}")))
}

/// A shed the client should honor: the error kind and the server's
/// backoff hint, if the response is a retryable structured shed.
fn retryable_shed(response: &Value) -> Option<(&str, Option<u64>)> {
    if response.get("ok") == Some(&Value::Bool(true)) {
        return None;
    }
    let error = response.get("error")?;
    let kind = error.get("kind").and_then(Value::as_str)?;
    match kind {
        "overloaded" | "draining" => {
            Some((kind, error.get("retry_after_ms").and_then(Value::as_u64)))
        }
        _ => None,
    }
}

/// The delay before retry `attempt_no` (0-based): exponential from
/// 50 ms, or the server's `retry_after_ms` hint when that is longer,
/// plus up to a quarter of it again as jitter picked by `entropy`.
/// Never below the hint, and spread above it, so a fleet of shed
/// clients does not come back at the same instant.
fn backoff(attempt_no: u32, server_hint: Option<u64>, entropy: u64) -> Duration {
    let base = 50u64.saturating_mul(1 << attempt_no.min(6));
    let nominal = base.max(server_hint.unwrap_or(0)).max(1);
    Duration::from_millis(nominal + entropy % (nominal / 4 + 1))
}

/// Jitter source for [`backoff`]: the subsecond wall clock, enough to
/// de-synchronize retrying clients without an RNG.
fn entropy() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| u64::from(d.subsec_nanos()))
}

struct Retry {
    max_retries: u32,
    timeout: Option<Duration>,
    started: Instant,
    used: u32,
}

impl Retry {
    /// Whether another retry fits under both caps after sleeping
    /// `delay`; books the retry (and sleeps) when it does.
    fn backoff_or_give_up(&mut self, delay: Duration, why: &str) -> bool {
        if self.used >= self.max_retries {
            return false;
        }
        if let Some(t) = self.timeout {
            if self.started.elapsed() + delay >= t {
                return false;
            }
        }
        self.used += 1;
        eprintln!(
            "planctl: {why}; retry {}/{} in {} ms",
            self.used,
            self.max_retries,
            delay.as_millis()
        );
        std::thread::sleep(delay);
        true
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let mut addr = "127.0.0.1:7463".to_string();
    let mut max_retries = 0u32;
    let mut timeout_ms = 0u64;
    loop {
        match args.peek().map(String::as_str) {
            Some("--addr") => {
                args.next();
                match args.next() {
                    Some(a) => addr = a,
                    None => {
                        eprintln!("planctl: --addr requires a value");
                        return ExitCode::FAILURE;
                    }
                }
            }
            Some("--max-retries") => {
                args.next();
                match args.next().map(|v| v.parse::<u32>()) {
                    Some(Ok(n)) => max_retries = n,
                    _ => {
                        eprintln!("planctl: --max-retries requires an unsigned value");
                        return ExitCode::FAILURE;
                    }
                }
            }
            Some("--timeout-ms") => {
                args.next();
                match args.next().map(|v| v.parse::<u64>()) {
                    Some(Ok(n)) => timeout_ms = n,
                    _ => {
                        eprintln!("planctl: --timeout-ms requires an unsigned value");
                        return ExitCode::FAILURE;
                    }
                }
            }
            _ => break,
        }
    }
    let Some(cmd) = args.next() else {
        eprintln!("planctl: {}", usage());
        return ExitCode::FAILURE;
    };
    let request = match build_request(&cmd, &mut args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("planctl: {e}");
            return ExitCode::FAILURE;
        }
    };
    let request_json = request.to_json();
    let mut retry = Retry {
        max_retries,
        timeout: (timeout_ms > 0).then(|| Duration::from_millis(timeout_ms)),
        started: Instant::now(),
        used: 0,
    };

    let parsed = loop {
        match attempt(&addr, &request_json) {
            Ok(response) => {
                if let Some((kind, hint)) = retryable_shed(&response) {
                    let delay = backoff(retry.used, hint, entropy());
                    if retry.backoff_or_give_up(delay, &format!("shed ({kind})")) {
                        continue;
                    }
                }
                break response;
            }
            Err(AttemptError::Transient(msg)) => {
                let delay = backoff(retry.used, None, entropy());
                if retry.backoff_or_give_up(delay, &msg) {
                    continue;
                }
                eprintln!("planctl: {msg}");
                return ExitCode::FAILURE;
            }
            Err(AttemptError::Fatal(msg)) => {
                eprintln!("planctl: {msg}");
                return ExitCode::FAILURE;
            }
        }
    };

    let ok = parsed.get("ok") == Some(&Value::Bool(true));
    // `metrics` and `dump` print their payload in its native shape
    // (scrape text / pretty JSON); everything else echoes the line.
    match cmd.as_str() {
        "metrics" if ok => match parsed.get("prometheus").and_then(Value::as_str) {
            Some(text) => print!("{text}"),
            None => {
                eprintln!("planctl: malformed response from daemon: missing `prometheus`");
                return ExitCode::FAILURE;
            }
        },
        "dump" if ok => match parsed.get("flight") {
            Some(flight) => println!("{}", flight.to_json_pretty()),
            None => {
                eprintln!("planctl: malformed response from daemon: missing `flight`");
                return ExitCode::FAILURE;
            }
        },
        _ => println!("{}", parsed.to_json()),
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_never_retries_before_the_server_hint_and_spreads_above_it() {
        for hint in [1, 7, 50, 200, 1_000, 10_000] {
            for attempt_no in 0..4 {
                let delays: Vec<u64> = (0..1_000)
                    .map(|e| backoff(attempt_no, Some(hint), e * 7_919).as_millis() as u64)
                    .collect();
                let nominal = hint.max(50 << attempt_no);
                assert!(
                    delays
                        .iter()
                        .all(|&d| d >= hint && d <= nominal + nominal / 4),
                    "hint {hint} ms, retry {attempt_no}: {:?}..{:?}",
                    delays.iter().min(),
                    delays.iter().max()
                );
                let spread = delays.iter().max().unwrap() - delays.iter().min().unwrap();
                assert!(
                    spread >= nominal / 4 / 2,
                    "hint {hint} ms: spread {spread} ms"
                );
            }
        }
    }

    #[test]
    fn backoff_without_a_hint_doubles_from_fifty_ms_up_to_a_cap() {
        for (attempt_no, nominal) in [(0, 50), (1, 100), (2, 200), (6, 3_200), (9, 3_200)] {
            assert_eq!(backoff(attempt_no, None, 0).as_millis(), nominal);
        }
    }
}
