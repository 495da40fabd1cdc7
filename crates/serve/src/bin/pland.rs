//! `pland` — the distribution-planning daemon.
//!
//! Listens for JSON-lines requests over TCP (see `mheta_serve::wire`
//! for the protocol) and serves plans until a client sends
//! `{"op":"shutdown"}` or the process receives SIGTERM/SIGINT. Either
//! way the daemon **drains**: new plan requests are shed with a
//! structured `draining` error, in-flight requests run to completion
//! (bounded by `wire::DRAIN_DEADLINE_MS`), and the process exits 0.
//! The plan cache lives in memory only: a restarted daemon starts cold.
//!
//! `USAGE` below is the whole command line, and what `--help` prints:
//! the address to listen on and how many searches may run at once. Every
//! other setting is a constant of `mheta_serve::planner` or
//! `mheta_serve::wire`.
//!
//! The flight recorder is always on. On panic the daemon dumps the
//! recorder's last events as JSON to stderr before dying, so a crash
//! leaves a black box behind.
//!
//! Lifecycle events (`signal.drain`, `drain.begin`, `drain.end`,
//! `conn.timeout`, `accept.error`, shed events) are logged to stderr
//! as structured one-line JSON.

use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use mheta_serve::{wire, Lifecycle, Planner, PlannerConfig};

/// The command line; any other flag is an error.
const USAGE: &str = "pland [--addr HOST:PORT] [--workers N]";

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

struct Args {
    addr: String,
    cfg: PlannerConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7463".to_string(),
        cfg: PlannerConfig::default(),
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
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pland: {e}\nusage: {USAGE}");
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
                eprintln!(r#"{{"event":"signal.drain"}}"#);
                lifecycle.begin_drain();
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        });
    }

    match wire::serve_with(listener, planner, lifecycle) {
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
