//! The two binaries end to end: the real `pland` on a port the OS
//! picks, driven by the real `planctl` the way a script drives it.
//! This covers what only the binaries do: argument parsing, the
//! `listening on` line, exit statuses, the signal watcher's drain and
//! `planctl`'s retries. The library behind them
//! is tested directly in `service.rs`, `lifecycle.rs` and
//! `hostile_input.rs`.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Output, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mheta_obs::json::{from_str, Value};

/// The longest any one step may take before the test fails instead of
/// hanging.
const STEP_TIMEOUT: Duration = Duration::from_secs(60);

const DC_PLAN: [&str; 11] = [
    "plan", "--app", "jacobi", "--size", "small", "--arch", "DC", "--evals", "24", "--seed", "7",
];

/// A scratch directory for one test's event log. The process ID keeps
/// two runs of this suite at once from sharing a log.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("daemon-{}-{test}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A running `pland`, killed on drop so that a failing test leaves no
/// daemon behind.
struct Pland {
    child: Child,
    addr: String,
    /// Where its stderr, the structured event log, goes.
    log: PathBuf,
    /// Reads its stdout to the end, so the pipe stays open until `pland`
    /// exits and its last line (`pland: shutdown`) never meets a closed
    /// pipe.
    stdout: Option<JoinHandle<()>>,
}

impl Pland {
    /// Boot `pland --addr 127.0.0.1:0 args…` with its event log in
    /// `dir/pland.log`. Returns once it has bound, with the address its
    /// `listening on` line reports.
    fn boot(dir: &Path, args: &[&str]) -> Pland {
        let log = dir.join("pland.log");
        let mut child = Command::new(env!("CARGO_BIN_EXE_pland"))
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdout(Stdio::piped())
            .stderr(fs::File::create(&log).unwrap())
            .spawn()
            .expect("spawn pland");
        let stdout = child.stdout.take().unwrap();
        let (tx, rx) = mpsc::channel();
        let mut pland = Pland {
            child,
            addr: String::new(),
            log,
            stdout: Some(std::thread::spawn(move || {
                for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                    let _ = tx.send(line);
                }
            })),
        };
        let line = rx
            .recv_timeout(STEP_TIMEOUT)
            .expect("pland printed no line");
        pland.addr = line
            .strip_prefix("pland: listening on ")
            .unwrap_or_else(|| panic!("pland's first line: {line:?}"))
            .to_string();
        pland
    }

    /// Start `planctl --addr <this daemon> args…` without waiting.
    fn start(&self, args: &[&str]) -> Call {
        let child = Command::new(env!("CARGO_BIN_EXE_planctl"))
            .args(["--addr", &self.addr])
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn planctl");
        let (tx, rx) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let _ = tx.send(child.wait_with_output());
        });
        Call {
            args: args.join(" "),
            rx,
            waiter,
        }
    }

    /// Run `planctl --addr <this daemon> args…` to its end.
    fn ctl(&self, args: &[&str]) -> Output {
        self.start(args).output()
    }

    /// `planctl`'s reply to `args`, parsed.
    fn reply(&self, args: &[&str]) -> Value {
        json(&self.ctl(args))
    }

    /// Whether the event log, one JSON object per line, holds an event
    /// named `name` so far.
    fn logged(&self, name: &str) -> bool {
        fs::read_to_string(&self.log)
            .unwrap()
            .lines()
            .filter_map(|line| from_str(line).ok())
            .any(|e| e.get("event").and_then(Value::as_str) == Some(name))
    }

    /// Wait for the daemon to exit on its own.
    fn exit_status(&mut self) -> ExitStatus {
        let started = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait().unwrap() {
                return status;
            }
            assert!(started.elapsed() < STEP_TIMEOUT, "pland did not exit");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Pland {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
    }
}

/// One `planctl` run, collected by [`Call::output`].
struct Call {
    args: String,
    rx: Receiver<std::io::Result<Output>>,
    waiter: JoinHandle<()>,
}

impl Call {
    fn output(self) -> Output {
        let output = self
            .rx
            .recv_timeout(STEP_TIMEOUT)
            .unwrap_or_else(|_| panic!("`planctl {}` did not return", self.args));
        self.waiter.join().unwrap();
        output.unwrap()
    }
}

/// `planctl`'s stdout, parsed as one JSON document.
fn json(out: &Output) -> Value {
    let text = String::from_utf8_lossy(&out.stdout);
    from_str(text.trim_end()).unwrap_or_else(|e| panic!("planctl printed {text:?}: {e:?}"))
}

/// The value at `path` in `v`.
fn at<'a>(v: &'a Value, path: &[&str]) -> &'a Value {
    path.iter()
        .try_fold(v, |v, key| v.get(key))
        .unwrap_or_else(|| panic!("nothing at {path:?} in {}", v.to_json()))
}

/// The string at `path` in `v`.
fn text<'a>(v: &'a Value, path: &[&str]) -> &'a str {
    at(v, path)
        .as_str()
        .unwrap_or_else(|| panic!("no string at {path:?} in {}", v.to_json()))
}

/// Poll `done` until it holds.
fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let started = Instant::now();
    while !done() {
        assert!(
            started.elapsed() < STEP_TIMEOUT,
            "timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn planctl_gets_fresh_then_cached_plans_and_a_cached_search_failure() {
    let dir = scratch_dir("serve");
    let mut pland = Pland::boot(&dir, &[]);
    assert!(pland.ctl(&["ping"]).status.success());

    let first = pland.ctl(&DC_PLAN);
    assert!(first.status.success());
    let first = json(&first);
    assert_eq!(text(&first, &["source"]), "fresh");
    let trace_id = text(&first, &["trace_id"]);
    assert!(
        trace_id.len() == 16
            && trace_id
                .bytes()
                .all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')),
        "trace_id {trace_id:?}"
    );
    assert_eq!(text(&pland.reply(&DC_PLAN), &["source"]), "cache");
    let stats = pland.reply(&["stats"]);
    let hits = at(&stats, &["stats", "service", "counters", "cache_hits"]);
    assert_eq!(hits.as_u64(), Some(1));

    // One node leaves annealing no legal move; the plan still returns.
    let one_node = pland.ctl(&["plan", "--app", "jacobi", "--arch", "HOM1"]);
    assert!(one_node.status.success());
    assert_eq!(json(&one_node).get("ok"), Some(&Value::Bool(true)));

    // 65 nodes for 64 rows can never be planned. The search fails once,
    // and the repeat is that failure, served from the cache.
    let doomed = ["plan", "--app", "jacobi", "--arch", "HOM65"];
    for source in ["failed", "cache"] {
        let out = pland.ctl(&doomed);
        assert!(!out.status.success(), "a failed plan exits nonzero");
        let reply = json(&out);
        assert_eq!(text(&reply, &["error", "kind"]), "search");
        assert_eq!(text(&reply, &["source"]), source);
    }

    let dump = pland.reply(&["dump"]);
    assert_eq!(text(&dump, &["schema"]), "mheta-flight/v1");
    let kinds: Vec<&str> = at(&dump, &["events"])
        .as_array()
        .unwrap()
        .iter()
        .map(|e| text(e, &["kind"]))
        .collect();
    for kind in ["request.received", "cache.hit"] {
        assert!(kinds.contains(&kind), "no {kind} in {kinds:?}");
    }

    assert!(pland.ctl(&["shutdown"]).status.success());
    assert!(pland.exit_status().success());
    let _ = fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn sigterm_drains_in_flight_plans_and_sheds_new_ones() {
    let dir = scratch_dir("drain");
    let mut pland = Pland::boot(&dir, &[]);

    // A slow plan, the wire's largest budget bounded by its own
    // deadline, in flight when the signal lands. Its cache miss is
    // counted after the daemon has counted it in flight.
    let slow = pland.start(&[
        "plan",
        "--app",
        "cg",
        "--arch",
        "IO",
        "--evals",
        "1000000",
        "--deadline-ms",
        "800",
    ]);
    wait_until("the slow plan to arrive", || {
        let stats = pland.reply(&["stats"]);
        at(&stats, &["stats", "cache", "misses"]).as_u64() == Some(1)
    });
    let pid = pland.child.id().to_string();
    let kill = Command::new("kill").args(["-TERM", &pid]).status().unwrap();
    assert!(kill.success());
    wait_until("the drain to begin", || pland.logged("drain.begin"));

    // A new plan is shed with the structured `draining` error...
    let hy1 = [
        "plan", "--app", "jacobi", "--arch", "HY1", "--evals", "24", "--seed", "8",
    ];
    let shed = pland.ctl(&hy1);
    assert!(!shed.status.success());
    let shed = json(&shed);
    assert_eq!(text(&shed, &["error", "kind"]), "draining");
    let hint = at(&shed, &["error", "retry_after_ms"]).as_u64().unwrap();

    // ...and the retrying client waits out the hint before retrying.
    let retried = pland.ctl(&[&["--max-retries", "2", "--timeout-ms", "2000"], &hy1[..]].concat());
    let stderr = String::from_utf8_lossy(&retried.stderr);
    let delay_ms: u64 = stderr
        .lines()
        .find_map(|l| l.strip_prefix("planctl: shed (draining); retry 1/2 in "))
        .and_then(|rest| rest.strip_suffix(" ms"))
        .unwrap_or_else(|| panic!("no first retry in {stderr:?}"))
        .parse()
        .unwrap();
    assert!(
        delay_ms >= hint,
        "retried after {delay_ms} ms, hint {hint} ms"
    );

    // The in-flight plan completes, degraded by its own deadline.
    let slow = slow.output();
    assert!(slow.status.success());
    let slow = json(&slow);
    assert_eq!(slow.get("ok"), Some(&Value::Bool(true)));
    assert_eq!(slow.get("degraded"), Some(&Value::Bool(true)));

    assert!(pland.exit_status().success());
    for name in ["signal.drain", "drain.begin", "drain.end"] {
        assert!(pland.logged(name), "no {name} event");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// The thread count of process `pid`, as the kernel reports it.
#[cfg(target_os = "linux")]
fn threads(pid: u32) -> usize {
    fs::read_to_string(format!("/proc/{pid}/status"))
        .expect("procfs is mounted")
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("a Threads: line")
        .trim()
        .parse()
        .expect("a thread count")
}

/// `--workers` bounds the searches that run at once; it starts no
/// thread. With one connection open, the daemon runs the same threads
/// whatever the count.
#[cfg(target_os = "linux")]
#[test]
fn the_worker_count_starts_no_threads() {
    let counts: Vec<usize> = ["1", "8"]
        .into_iter()
        .map(|workers| {
            let dir = scratch_dir(&format!("threads-{workers}"));
            let pland = Pland::boot(&dir, &["--workers", workers]);
            let conn = TcpStream::connect(&pland.addr).unwrap();
            conn.set_read_timeout(Some(STEP_TIMEOUT)).unwrap();
            (&conn).write_all(b"{\"op\":\"ping\"}\n").unwrap();
            let mut pong = String::new();
            BufReader::new(&conn).read_line(&mut pong).unwrap();
            assert_eq!(
                from_str(pong.trim_end()).unwrap().get("ok"),
                Some(&Value::Bool(true))
            );
            // The connection is still open: its thread is counted.
            let n = threads(pland.child.id());
            drop((conn, pland));
            let _ = fs::remove_dir_all(&dir);
            n
        })
        .collect();
    assert_eq!(counts[0], counts[1], "threads at --workers 1 and 8");
}

#[test]
fn pland_takes_an_address_and_a_worker_count_and_nothing_else() {
    let pland = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_pland"))
            .args(args)
            .output()
            .expect("run pland")
    };
    let help = pland(&["--help"]);
    assert!(help.status.success());
    let usage = String::from_utf8_lossy(&help.stdout);
    let flags: Vec<&str> = usage
        .split(|c: char| c.is_whitespace() || c == '[' || c == ']')
        .filter(|word| word.starts_with("--"))
        .collect();
    assert_eq!(flags, ["--addr", "--workers"], "{usage}");

    // What used to be settable is a constant now, and its flag an error
    // before anything is bound.
    for removed in [
        "--queue",
        "--cache-capacity",
        "--no-cache",
        "--no-coalesce",
        "--recorder-capacity",
        "--drain-deadline-ms",
        "--read-timeout-ms",
        "--write-timeout-ms",
    ] {
        let out = pland(&[removed, "1"]);
        assert!(!out.status.success(), "{removed} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let named = format!("unknown flag `{removed}`");
        assert!(stderr.contains(&named), "{removed}: {stderr}");
        assert!(out.stdout.is_empty(), "{removed}: pland started");
    }
}
