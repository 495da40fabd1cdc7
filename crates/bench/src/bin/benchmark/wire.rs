//! The two workloads that go over the wire: `plan_cold` (every request
//! a miss) and `serve_hot` (every request a hit), against an
//! in-process `mheta_serve::serve` on a loopback socket.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mheta_apps::{anchor_inputs, run_instrumented};
use mheta_core::{build_profile, measure_arch, Mheta};
use mheta_dist::{GenBlock, SpectrumPath};
use mheta_obs::json::{from_str, Value};
use mheta_obs::{RequestSource, TraceContext};
use mheta_serve::wire::{handle, plan_response};
use mheta_serve::{
    fnv1a64, parse_request, serve, Plan, PlanCache, PlanReply, PlanRequest, Planner, PlannerConfig,
    WireOp,
};

use crate::cases::{app_arch, GRID};
use crate::golden::{Golden, Tally};
use crate::run::{sample, sample_arms, splitmix64, timed, Ledger, Workload};
use crate::search::portfolio_traced;
use crate::spans::{layer_self_per_request, Tracer};
use crate::stats::{median, median_ns};

/// `(app, arch)` keys both wire workloads rotate over.
const KEYS: usize = GRID;
const PING: &str = "{\"op\":\"ping\"}\n";
const SHUTDOWN: &str = "{\"op\":\"shutdown\"}\n";
/// Request ids of the in-process replay, clear of the wire calls'.
const REPLAY_IDS: u64 = 1 << 32;

/// A well-behaved client: `TCP_NODELAY`, each request line one
/// `write_all`, so any stall it reports is the server's.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    reply: String,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A reply that never comes must fail the run, not hang it.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            reply: String::new(),
        })
    }

    /// Send one newline-terminated request and wait for its reply line.
    fn call(&mut self, line: &str) -> io::Result<&str> {
        debug_assert!(line.ends_with('\n'));
        self.writer.write_all(line.as_bytes())?;
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.reply.trim_end())
    }
}

/// The daemon under test (default `PlannerConfig`) and the one
/// connection to it.
struct Daemon {
    planner: Arc<Planner>,
    client: Client,
    server: JoinHandle<io::Result<()>>,
}

impl Daemon {
    fn start() -> Self {
        let planner = Arc::new(Planner::new(PlannerConfig::default()));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("bound address");
        let served = Arc::clone(&planner);
        let server = std::thread::spawn(move || serve(listener, served));
        let mut client = Client::connect(addr).expect("connect to the daemon");
        let pong = client.call(PING).expect("ping round trip");
        assert!(
            pong.contains("\"pong\":true"),
            "daemon answered ping with {pong}"
        );
        Daemon {
            planner,
            client,
            server,
        }
    }

    fn stop(mut self) {
        self.client.call(SHUTDOWN).expect("shutdown round trip");
        drop(self.client);
        self.server
            .join()
            .expect("accept loop panicked")
            .expect("accept loop failed");
    }
}

fn plan_line(key: usize, search_seed: u64) -> String {
    let (app, arch) = app_arch(key);
    format!(
        "{{\"op\":\"plan\",\"app\":{{\"name\":\"{app}\",\"size\":\"small\"}},\
         \"arch\":\"{arch}\",\"search\":{{\"seed\":{search_seed}}}}}\n"
    )
}

fn parse_plan(line: &str) -> PlanRequest {
    match parse_request(line) {
        Ok(WireOp::Plan(req, _, _)) => *req,
        other => panic!("generated request did not parse as a plan: {other:?}"),
    }
}

/// What a plan reply must show: `ok`, the expected `source`, not
/// degraded; returns the `plan` object re-rendered (byte-comparable).
fn check_reply(reply: &str, want_source: &str) -> Result<String, String> {
    let v = from_str(reply).map_err(|e| format!("reply is not JSON ({e:?}): {reply}"))?;
    if v.get("ok") != Some(&Value::Bool(true)) {
        return Err(format!("reply not ok: {reply}"));
    }
    let source = v.get("source").and_then(Value::as_str).unwrap_or("");
    if source != want_source {
        return Err(format!("source {source}, want {want_source}: {reply}"));
    }
    if v.get("degraded") != Some(&Value::Bool(false)) {
        return Err(format!("degraded reply: {reply}"));
    }
    v.get("plan")
        .map(Value::to_json)
        .ok_or_else(|| format!("reply without a plan: {reply}"))
}

/// A started daemon with the 16 seed-1 keys planned once.
struct Warm {
    daemon: Daemon,
    /// The `plan` object of each key's set-up (`fresh`) reply.
    fresh: Vec<String>,
}

impl Warm {
    fn set_up() -> Self {
        let mut daemon = Daemon::start();
        let fresh = (0..KEYS)
            .map(|key| {
                let reply = daemon
                    .client
                    .call(&plan_line(key, 1))
                    .expect("set-up request");
                check_reply(reply, "fresh").unwrap_or_else(|why| panic!("set-up: {why}"))
            })
            .collect();
        Warm { daemon, fresh }
    }

    fn verify(&self, golden: &mut Golden, tally: &mut Tally) {
        for (key, plan) in self.fresh.iter().enumerate() {
            let (app, arch) = app_arch(key);
            golden.check(format!("wire/{app}@{arch}"), plan.clone(), tally);
        }
    }

    /// One timed request; the reply is checked off the clock.
    fn request(&mut self, line: &str, want_source: &str) -> (u64, Result<String, String>) {
        let (ns, reply) = timed(|| self.daemon.client.call(line));
        let plan = reply
            .map_err(|e| format!("request failed: {e}"))
            .and_then(|reply| check_reply(reply, want_source));
        (ns, plan)
    }

    /// Ping round trips, wire calls under client-side spans, then the
    /// daemon's own counters. Returns the wire calls' median, ms.
    fn wire_layers(
        &mut self,
        slice: Duration,
        tracer: &mut Tracer,
        ledger: &mut Ledger,
        tally: &mut Tally,
        mut call: impl FnMut(&mut Warm, u64) -> (u64, Result<(), String>),
    ) -> f64 {
        let ping = sample(slice, 20, 2000, |_| {
            self.daemon.client.call(PING).expect("ping round trip");
        });
        ledger.set_median("serve.rtt_ping_us", &ping, 1e3);

        let mut wire_ns = Vec::new();
        sample(slice, KEYS, 4000, |i| {
            let (ns, outcome) =
                tracer.request("client.request", i as u64, |_| call(self, i as u64));
            wire_ns.push(ns);
            tally.record(outcome);
        });
        ledger.calls += wire_ns.len() as u64;

        let planner = &self.daemon.planner;
        let (metrics, cache) = (planner.metrics(), planner.cache());
        let (hits, misses) = (cache.hits() as f64, cache.misses() as f64);
        for (name, value) in [
            ("serve.searches", metrics.searches() as f64),
            ("serve.cache_hits", hits),
            ("serve.cache_misses", misses),
            ("serve.coalesced", metrics.coalesced() as f64),
            ("serve.shed", metrics.shed() as f64),
            ("serve.evictions", cache.evictions() as f64),
            ("serve.hit_ratio", hits / (hits + misses).max(1.0)),
        ] {
            ledger.set(name, value, 1);
        }
        median_ns(&wire_ns, 1e6)
    }
}

/// Spans of the serving shell both replays cross, the metric each
/// one's median is reported as, and the metric's unit in ns.
const SHELL_SPANS: [(&str, &str, f64); 5] = [
    ("serve.parse", "serve.parse_us", 1e3),
    ("serve.canonical", "serve.canonical_us", 1e3),
    ("serve.hash", "serve.hash_us", 1e3),
    ("serve.cache_get", "serve.cache_get_us", 1e3),
    ("serve.encode", "serve.encode_us", 1e3),
];
/// Spans only the miss path crosses.
const SEARCH_SPANS: [(&str, &str, f64); 7] = [
    ("core.measure_arch", "core.measure_arch_ms", 1e6),
    ("apps.run_instrumented", "apps.run_instrumented_ms", 1e6),
    ("core.build_profile", "core.build_profile_us", 1e3),
    ("core.model_new", "core.model_new_us", 1e3),
    ("apps.build_model", "apps.build_model_ms", 1e6),
    ("dist.anchors", "dist.anchors_us", 1e3),
    ("dist.portfolio", "dist.portfolio_default_ms", 1e6),
];

/// Record the medians of the replay's spans and how much of the wire
/// median they explain.
fn replay_ledger<'a>(
    tracer: &Tracer,
    spans: impl IntoIterator<Item = &'a (&'static str, &'static str, f64)>,
    untraced_ns: &[u64],
    wire_ms: f64,
    ledger: &mut Ledger,
) {
    for &(span, metric, per) in spans {
        ledger.set_median(metric, &tracer.durations(span), per);
    }
    let traced_ns = tracer.durations("request");
    let (traced, untraced) = (median_ns(&traced_ns, 1.0), median_ns(untraced_ns, 1.0));
    ledger.set(
        "trace.overhead_pct",
        100.0 * (traced - untraced) / untraced,
        traced_ns.len(),
    );
    let layers = layer_self_per_request(&tracer.spans, |name| {
        name.contains('.') && !name.starts_with("client.")
    });
    ledger.set(
        "trace.coverage_pct",
        100.0 * median_ns(&layers, 1e6) / wire_ms,
        layers.len(),
    );
    ledger.calls += (traced_ns.len() + untraced_ns.len()) as u64;
}

/// Every request a miss: unique search seeds over the 16 keys.
pub struct PlanCold {
    warm: Warm,
    seed: u64,
}

/// Request line of cold call `i`. The search seed carries a hash of
/// `--seed` in its high half and a counter from 2 in its low half, so
/// none repeats within a run and none is the set-up's seed 1.
fn cold_line(seed: u64, i: u64) -> String {
    debug_assert!(i < (1 << 32) - 2);
    plan_line(i as usize % KEYS, splitmix64(seed) << 32 | (i + 2))
}

fn cold_call(warm: &mut Warm, seed: u64, i: u64) -> (u64, Result<(), String>) {
    let (ns, plan) = warm.request(&cold_line(seed, i), "fresh");
    (ns, plan.map(drop))
}

/// The miss path as the benchmark can see it from outside: the public
/// calls `wire::handle` → `Planner::plan` → `run_search` make, in
/// order, each under its own span.
fn cold_replay(tr: &mut Tracer, id: u64, line: &str, cache: &PlanCache) -> usize {
    tr.request("request", id, |tr| {
        let req = tr.span("serve.parse", |_| parse_plan(line));
        let canon = tr.span("serve.canonical", |_| req.canonical_json());
        let key = tr.span("serve.hash", |_| fnv1a64(canon.as_bytes()));
        let cached = tr.span("serve.cache_get", |_| cache.get(key, &canon));
        assert!(cached.is_none(), "a unique key was cached");
        let model = tr.span("apps.build_model", |tr| {
            let arch = tr
                .span("core.measure_arch", |_| measure_arch(&req.spec))
                .expect("microbenchmarks run");
            let blk = GenBlock::block(req.bench.total_rows(), req.spec.len());
            let recorders = tr
                .span("apps.run_instrumented", |_| {
                    run_instrumented(&req.bench, &req.spec, &blk, req.prefetch)
                })
                .expect("instrumented iteration runs");
            let profile = tr.span("core.build_profile", |_| {
                build_profile(&arch, &recorders, blk.rows())
            });
            tr.span("core.model_new", |_| {
                Mheta::new(req.bench.structure(req.prefetch), arch, profile)
            })
            .expect("model assembles")
        });
        let path = tr.span("dist.anchors", |_| {
            SpectrumPath::new(&anchor_inputs(&model))
        });
        let out = tr.span("dist.portfolio", |tr| {
            portfolio_traced(tr, &path, &model, req.search.to_portfolio())
        });
        let reply = PlanReply {
            plan: Plan {
                rows: out.best.best.rows().to_vec(),
                predicted_ns: out.best.score_ns,
                winner: out.winner,
                total_evals: out.total_evals,
            },
            source: RequestSource::Fresh,
            key,
            trace: TraceContext::root(),
            degraded: false,
        };
        cache.insert(key, &canon, reply.plan.clone());
        tr.span("serve.encode", |_| plan_response(&reply).to_json());
        out.total_evals
    })
}

impl Workload for PlanCold {
    const NAME: &'static str = "plan_cold";
    const CALLS_PER_SWEEP: usize = KEYS;
    const P50_PER_CALL: bool = true;
    const P50_NAME: &'static str = "plan_cold_ms_p50";
    const P95_NAME: &'static str = "plan_cold_ms_p95";

    fn set_up(seed: u64) -> Self {
        PlanCold {
            warm: Warm::set_up(),
            seed,
        }
    }

    fn verify(&mut self, golden: &mut Golden, tally: &mut Tally, _: &mut Ledger) {
        self.warm.verify(golden, tally);
    }

    fn call(&mut self, i: u64) -> (u64, Result<(), String>) {
        cold_call(&mut self.warm, self.seed, i)
    }

    fn layers(
        &mut self,
        budget: Duration,
        tracer: &mut Tracer,
        ledger: &mut Ledger,
        tally: &mut Tally,
    ) {
        let slice = budget / 5;
        let seed = self.seed;
        let wire_ms = self
            .warm
            .wire_layers(slice, tracer, ledger, tally, |warm, i| {
                cold_call(warm, seed, i)
            });

        // In turn: `Planner::plan` on a unique key, in process; the
        // miss path replayed call by call, untraced; the same, traced.
        // Each arm's seeds continue past every one used before it.
        let planner = Arc::clone(&self.warm.daemon.planner);
        let cache = PlanCache::new(8, 256);
        let mut off = Tracer::new(false);
        let mut evals = Vec::new();
        let [planner_cold, untraced, _] = sample_arms(3 * slice, KEYS, 400, |i, arm| {
            let line = cold_line(seed, ((1 + arm as u64) << 20) + i as u64);
            match arm {
                0 => {
                    let planned = planner.plan(&parse_plan(&line));
                    tally.record(planned.map(drop).map_err(|e| e.to_string()));
                }
                1 => drop(cold_replay(&mut off, 0, &line, &cache)),
                _ => evals.push(cold_replay(tracer, REPLAY_IDS + i as u64, &line, &cache) as f64),
            }
        });
        ledger.set_median("serve.planner_cold_ms", &planner_cold, 1e6);
        ledger.calls += planner_cold.len() as u64;
        ledger.set(
            "dist.portfolio_default_evals",
            median(&mut evals),
            evals.len(),
        );
        let spans = SHELL_SPANS.iter().chain(&SEARCH_SPANS);
        replay_ledger(tracer, spans, &untraced, wire_ms, ledger);

        let planner_ms = ledger.get("serve.planner_cold_ms");
        let search_ms = ledger.get("apps.build_model_ms")
            + ledger.get("dist.anchors_us") / 1e3
            + ledger.get("dist.portfolio_default_ms");
        ledger.set("serve.dispatch_ms", planner_ms - search_ms, 1);
        ledger.set("serve.wire_overhead_cold_ms", wire_ms - planner_ms, 1);
    }

    fn tear_down(self) {
        self.warm.daemon.stop();
    }
}

/// Every request a hit: the 16 keys planned in set-up, round-robin.
pub struct ServeHot {
    warm: Warm,
    lines: Vec<String>,
}

/// The hit path from outside: parse → canonical JSON → FNV → cache →
/// encode.
fn hot_replay(tr: &mut Tracer, id: u64, line: &str, cache: &PlanCache) {
    tr.request("request", id, |tr| {
        let req = tr.span("serve.parse", |_| parse_plan(line));
        let canon = tr.span("serve.canonical", |_| req.canonical_json());
        let key = tr.span("serve.hash", |_| fnv1a64(canon.as_bytes()));
        let plan = tr
            .span("serve.cache_get", |_| cache.get(key, &canon))
            .expect("a warmed key is cached");
        let reply = PlanReply {
            plan,
            source: RequestSource::Cache,
            key,
            trace: TraceContext::root(),
            degraded: false,
        };
        tr.span("serve.encode", |_| plan_response(&reply).to_json())
    });
}

fn hot_call(warm: &mut Warm, lines: &[String], i: u64) -> (u64, Result<(), String>) {
    let key = i as usize % KEYS;
    let (ns, plan) = warm.request(&lines[key], "cache");
    let outcome = plan.and_then(|plan| {
        if plan == warm.fresh[key] {
            Ok(())
        } else {
            Err(format!(
                "hit differs from the fresh plan of key {key}: {plan}"
            ))
        }
    });
    (ns, outcome)
}

impl Workload for ServeHot {
    const NAME: &'static str = "serve_hot";
    const CALLS_PER_SWEEP: usize = KEYS;
    const P50_PER_CALL: bool = true;
    const P50_NAME: &'static str = "hit_ms_p50";
    const P95_NAME: &'static str = "hit_ms_p95";

    fn set_up(_seed: u64) -> Self {
        ServeHot {
            warm: Warm::set_up(),
            lines: (0..KEYS).map(|key| plan_line(key, 1)).collect(),
        }
    }

    fn verify(&mut self, golden: &mut Golden, tally: &mut Tally, _: &mut Ledger) {
        self.warm.verify(golden, tally);
    }

    fn call(&mut self, i: u64) -> (u64, Result<(), String>) {
        hot_call(&mut self.warm, &self.lines, i)
    }

    fn layers(
        &mut self,
        budget: Duration,
        tracer: &mut Tracer,
        ledger: &mut Ledger,
        tally: &mut Tally,
    ) {
        let slice = budget / 6;
        let lines = &self.lines;
        let wire_ms = self
            .warm
            .wire_layers(slice, tracer, ledger, tally, |warm, i| {
                hot_call(warm, lines, i)
            });

        let planner = Arc::clone(&self.warm.daemon.planner);
        let ops: Vec<WireOp> = self
            .lines
            .iter()
            .map(|line| parse_request(line).expect("generated request parses"))
            .collect();
        let reqs: Vec<PlanRequest> = self.lines.iter().map(|line| parse_plan(line)).collect();

        let cache = PlanCache::new(8, 256);
        let planner_hit = sample(slice, KEYS, 4000, |i| {
            let req = &reqs[i % KEYS];
            let reply = planner.plan(req).expect("a warmed key plans");
            assert_eq!(reply.source, RequestSource::Cache, "a warmed key missed");
            if i < KEYS {
                cache.insert(reply.key, &req.canonical_json(), reply.plan);
            }
        });
        ledger.set_median("serve.planner_hit_us", &planner_hit, 1e3);
        let handle_hit = sample(slice, KEYS, 4000, |i| {
            std::hint::black_box(handle(&planner, &ops[i % KEYS]));
        });
        ledger.set_median("serve.handle_hit_us", &handle_hit, 1e3);
        let prometheus = sample(slice / 4, 20, 400, |_| {
            std::hint::black_box(planner.prometheus());
        });
        ledger.set_median("serve.prometheus_us", &prometheus, 1e3);

        let mut off = Tracer::new(false);
        let [untraced, _] = sample_arms(2 * slice, KEYS, 4000, |i, arm| {
            let line = &self.lines[i % KEYS];
            if arm == 0 {
                hot_replay(&mut off, 0, line, &cache);
            } else {
                hot_replay(tracer, REPLAY_IDS + i as u64, line, &cache);
            }
        });
        replay_ledger(tracer, &SHELL_SPANS, &untraced, wire_ms, ledger);
        ledger.calls += (planner_hit.len() + handle_hit.len()) as u64;
        ledger.set(
            "serve.wire_overhead_hit_ms",
            wire_ms - ledger.get("serve.handle_hit_us") / 1e3,
            1,
        );
    }

    fn tear_down(self) {
        self.warm.daemon.stop();
    }
}
