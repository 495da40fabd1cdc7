//! `pland` — the distribution-planning daemon.
//!
//! Listens for JSON-lines requests over TCP (see `mheta_serve::wire`
//! for the protocol) and serves plans until a client sends
//! `{"op":"shutdown"}` or the process receives SIGTERM/SIGINT. Either
//! way the daemon **drains**: new plan requests are shed with a
//! structured `draining` error, in-flight requests run to completion
//! (bounded by `--drain-deadline-ms`), and — when `--snapshot` is set
//! — the plan cache is saved on the way down so the next boot
//! warm-starts from it.
//!
//! ```text
//! pland [--addr HOST:PORT] [--workers N] [--queue N]
//!       [--cache-capacity N] [--no-cache] [--no-coalesce]
//!       [--recorder-capacity N]
//!       [--snapshot PATH] [--snapshot-interval-ms N]
//!       [--drain-deadline-ms N] [--read-timeout-ms N]
//!       [--write-timeout-ms N]
//! ```
//!
//! The flight recorder is always on (`--recorder-capacity` sizes its
//! ring). On panic the daemon dumps the recorder's last events as JSON
//! to stderr before dying, so a crash leaves a black box behind.
//!
//! Lifecycle events (`drain.begin`, `drain.end`, `snapshot.load`,
//! `snapshot.save`, `snapshot.reject`, `conn.timeout`, shed events)
//! are logged to stderr as structured one-line JSON.

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use mheta_obs::json::Value;
use mheta_serve::{wire, Lifecycle, Planner, PlannerConfig, ServeConfig};

/// SIGTERM/SIGINT capture without a libc dependency: a raw binding to
/// `signal(2)` installing a handler whose body is a single atomic
/// store (the only thing that is async-signal-safe anyway).
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static FIRED: AtomicBool = AtomicBool::new(false);

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_sig: i32) {
        FIRED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        let handler = on_signal as extern "C" fn(i32);
        unsafe {
            signal(SIGTERM, handler as usize);
            signal(SIGINT, handler as usize);
        }
    }

    pub fn fired() -> bool {
        FIRED.load(Ordering::SeqCst)
    }
}

fn log_event(event: &str, mut fields: Vec<(&str, Value)>) {
    let mut pairs = vec![("event", Value::Str(event.to_string()))];
    pairs.append(&mut fields);
    eprintln!("{}", Value::object(pairs).to_json());
}

struct Args {
    addr: String,
    cfg: PlannerConfig,
    serve_cfg: ServeConfig,
    snapshot: Option<PathBuf>,
    snapshot_interval_ms: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7463".to_string(),
        cfg: PlannerConfig::default(),
        serve_cfg: ServeConfig::default(),
        snapshot: None,
        snapshot_interval_ms: 5_000,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--workers" => {
                args.cfg.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--queue" => {
                args.cfg.queue_capacity = value("--queue")?
                    .parse()
                    .map_err(|e| format!("--queue: {e}"))?;
            }
            "--cache-capacity" => {
                args.cfg.cache_capacity = value("--cache-capacity")?
                    .parse()
                    .map_err(|e| format!("--cache-capacity: {e}"))?;
            }
            "--recorder-capacity" => {
                args.cfg.recorder_capacity = value("--recorder-capacity")?
                    .parse()
                    .map_err(|e| format!("--recorder-capacity: {e}"))?;
            }
            "--snapshot" => args.snapshot = Some(PathBuf::from(value("--snapshot")?)),
            "--snapshot-interval-ms" => {
                args.snapshot_interval_ms = value("--snapshot-interval-ms")?
                    .parse()
                    .map_err(|e| format!("--snapshot-interval-ms: {e}"))?;
            }
            "--drain-deadline-ms" => {
                args.serve_cfg.drain_deadline_ms = value("--drain-deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--drain-deadline-ms: {e}"))?;
            }
            "--read-timeout-ms" => {
                args.serve_cfg.read_timeout_ms = value("--read-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--read-timeout-ms: {e}"))?;
            }
            "--write-timeout-ms" => {
                args.serve_cfg.write_timeout_ms = value("--write-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--write-timeout-ms: {e}"))?;
            }
            "--no-cache" => args.cfg.cache_enabled = false,
            "--no-coalesce" => args.cfg.coalesce_enabled = false,
            "--help" | "-h" => {
                println!(
                    "pland [--addr HOST:PORT] [--workers N] [--queue N] \
                     [--cache-capacity N] [--no-cache] [--no-coalesce] \
                     [--recorder-capacity N] [--snapshot PATH] \
                     [--snapshot-interval-ms N] [--drain-deadline-ms N] \
                     [--read-timeout-ms N] [--write-timeout-ms N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn save_snapshot(planner: &Planner, path: &std::path::Path, when: &str) {
    match planner.save_snapshot(path) {
        Ok(n) => log_event(
            "snapshot.save",
            vec![
                ("entries", Value::UInt(n as u64)),
                ("path", Value::Str(path.display().to_string())),
                ("when", Value::Str(when.to_string())),
            ],
        ),
        Err(e) => log_event(
            "snapshot.save_failed",
            vec![
                ("path", Value::Str(path.display().to_string())),
                ("error", Value::Str(e.to_string())),
            ],
        ),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pland: {e}");
            return ExitCode::FAILURE;
        }
    };
    #[cfg(unix)]
    sig::install();

    let listener = match TcpListener::bind(&args.addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("pland: cannot bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    // The OS may have picked the port (":0"); report the actual one so
    // scripts can connect.
    match listener.local_addr() {
        Ok(addr) => println!("pland: listening on {addr}"),
        Err(_) => println!("pland: listening on {}", args.addr),
    }
    let planner = Arc::new(Planner::new(args.cfg));

    // Warm start: restore the plan cache from the last snapshot. Any
    // rejection — missing file, truncation, checksum or schema
    // mismatch — is logged and the daemon cold-starts; a bad snapshot
    // can never take the service down.
    if let Some(path) = &args.snapshot {
        match planner.load_snapshot(path) {
            Ok(n) => log_event(
                "snapshot.load",
                vec![
                    ("entries", Value::UInt(n as u64)),
                    ("path", Value::Str(path.display().to_string())),
                ],
            ),
            Err(e) => log_event(
                "snapshot.reject",
                vec![
                    ("path", Value::Str(path.display().to_string())),
                    ("error", Value::Str(e.to_string())),
                ],
            ),
        }
    }

    // Black box: any panic (accept loop or connection thread) dumps
    // the flight recorder to stderr before the default hook prints the
    // backtrace.
    let recorder = Arc::clone(planner.recorder());
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        eprintln!("pland: panic — dumping flight recorder");
        eprintln!("{}", recorder.dump_json());
        default_hook(info);
    }));

    let lifecycle = Arc::new(Lifecycle::new());

    // Signal watcher: the handler itself only stores a flag; this
    // thread turns the flag into a drain.
    #[cfg(unix)]
    {
        let lifecycle = Arc::clone(&lifecycle);
        std::thread::spawn(move || loop {
            if sig::fired() {
                log_event("signal.drain", vec![]);
                lifecycle.begin_drain();
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        });
    }

    // Periodic snapshots bound how much warm-start coverage a crash
    // (as opposed to a drain) can lose.
    if let Some(path) = args.snapshot.clone() {
        if args.snapshot_interval_ms > 0 {
            let planner = Arc::clone(&planner);
            let lifecycle = Arc::clone(&lifecycle);
            let interval = Duration::from_millis(args.snapshot_interval_ms);
            std::thread::spawn(move || loop {
                std::thread::sleep(interval);
                if lifecycle.is_draining() {
                    return; // the final save happens after the drain
                }
                save_snapshot(&planner, &path, "periodic");
            });
        }
    }

    let result = wire::serve_with(listener, Arc::clone(&planner), lifecycle, args.serve_cfg);
    // Drain finished (or hit its deadline): persist the cache so the
    // next boot warm-starts.
    if let Some(path) = &args.snapshot {
        save_snapshot(&planner, path, "drain");
    }
    match result {
        Ok(()) => {
            println!("pland: shutdown");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pland: accept loop failed: {e}");
            ExitCode::FAILURE
        }
    }
}
