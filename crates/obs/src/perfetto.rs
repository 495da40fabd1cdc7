//! Chrome trace-event (Perfetto) JSON export.
//!
//! Converts a run's [`RankTrace`]s and hook-event streams into the
//! [trace-event format] that `ui.perfetto.dev` and `chrome://tracing`
//! load directly:
//!
//! * each **rank** becomes a process (`pid = rank`) with up to three
//!   tracks: `tid 0` carries the raw simulator events (compute, disk,
//!   comm), `tid 1` carries the semantic MPI-Jack scopes (iteration →
//!   section → tile → stage) as nested slices plus the intercepted
//!   operations and retries, and `tid 2` — present only for
//!   fault-tolerant runs — carries the recovery spans (checkpoint /
//!   rollback / redistribution / reprediction), partitioning the
//!   recovery time exactly;
//! * every slice is a complete event (`"ph": "X"`) with microsecond
//!   `ts`/`dur` derived from the virtual-time nanoseconds, so the
//!   export is self-contained and deterministic — no pairing of
//!   begin/end events is left to the viewer.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! Output is byte-deterministic for a fixed seed: ranks are walked in
//! order, object keys are fixed, and floats render with Rust's
//! shortest-round-trip formatting.

use crate::json::Value;
use mheta_mpi::{HookEvent, ScopeKind, SuspicionSample};
use mheta_sim::{EventKind, RankTrace, RecoveryKind, RecoverySpan, SimTime};

/// Microseconds for a trace-event `ts`/`dur` field from integer
/// nanoseconds. f64 division is IEEE-exact per input, so rendering is
/// deterministic across platforms.
fn us(ns: u64) -> Value {
    Value::Float(ns as f64 / 1000.0)
}

fn metadata(pid: usize, tid: Option<usize>, what: &str, name: String) -> Value {
    let mut pairs = vec![
        ("name", Value::Str(what.to_string())),
        ("ph", Value::Str("M".into())),
        ("pid", Value::UInt(pid as u64)),
    ];
    if let Some(tid) = tid {
        pairs.push(("tid", Value::UInt(tid as u64)));
    }
    pairs.push(("args", Value::object(vec![("name", Value::Str(name))])));
    Value::object(pairs)
}

/// A complete slice (`ph: "X"`).
fn slice(
    name: &str,
    cat: &str,
    pid: usize,
    tid: usize,
    start: SimTime,
    end: SimTime,
    args: Value,
) -> Value {
    Value::object(vec![
        ("name", Value::Str(name.to_string())),
        ("cat", Value::Str(cat.to_string())),
        ("ph", Value::Str("X".into())),
        ("ts", us(start.as_nanos())),
        ("dur", us((end - start).as_nanos())),
        ("pid", Value::UInt(pid as u64)),
        ("tid", Value::UInt(tid as u64)),
        ("args", args),
    ])
}

/// A counter sample (`ph: "C"`): Perfetto renders consecutive samples
/// of the same `(pid, name)` as a stepped counter track.
fn counter(name: &str, pid: usize, at: SimTime, series: Vec<(&str, Value)>) -> Value {
    Value::object(vec![
        ("name", Value::Str(name.to_string())),
        ("cat", Value::Str("sim".into())),
        ("ph", Value::Str("C".into())),
        ("ts", us(at.as_nanos())),
        ("pid", Value::UInt(pid as u64)),
        ("args", Value::object(series)),
    ])
}

fn sim_event(rank: usize, ev: &mheta_sim::Event) -> Value {
    if let EventKind::MemLevel { in_use, high_water } = &ev.kind {
        // Memory gauge: a counter track per rank, not a slice. The
        // level holds until the next sample, which is exactly the
        // trace-event counter semantic.
        return counter(
            "memory",
            rank,
            ev.start,
            vec![
                ("in_use_bytes", Value::UInt(*in_use)),
                ("high_water_bytes", Value::UInt(*high_water)),
            ],
        );
    }
    let (name, args) = match &ev.kind {
        EventKind::Compute { work_units } => (
            "compute",
            Value::object(vec![("work_units", Value::Float(*work_units))]),
        ),
        EventKind::DiskRead { var, bytes } => (
            "disk_read",
            Value::object(vec![
                ("var", Value::UInt(u64::from(*var))),
                ("bytes", Value::UInt(*bytes)),
            ]),
        ),
        EventKind::DiskWrite { var, bytes } => (
            "disk_write",
            Value::object(vec![
                ("var", Value::UInt(u64::from(*var))),
                ("bytes", Value::UInt(*bytes)),
            ]),
        ),
        EventKind::PrefetchIssue {
            var,
            bytes,
            latency_ns,
        } => (
            "prefetch_issue",
            Value::object(vec![
                ("var", Value::UInt(u64::from(*var))),
                ("bytes", Value::UInt(*bytes)),
                ("latency_us", us(*latency_ns)),
            ]),
        ),
        EventKind::PrefetchWait { var, blocked_ns } => (
            "prefetch_wait",
            Value::object(vec![
                ("var", Value::UInt(u64::from(*var))),
                ("blocked_us", us(*blocked_ns)),
            ]),
        ),
        EventKind::Send { to, tag, bytes } => (
            "send",
            Value::object(vec![
                ("to", Value::UInt(*to as u64)),
                ("tag", Value::UInt(u64::from(*tag))),
                ("bytes", Value::UInt(*bytes)),
            ]),
        ),
        EventKind::Recv {
            from,
            tag,
            bytes,
            blocked_ns,
        } => (
            "recv",
            Value::object(vec![
                ("from", Value::UInt(*from as u64)),
                ("tag", Value::UInt(u64::from(*tag))),
                ("bytes", Value::UInt(*bytes)),
                ("blocked_us", us(*blocked_ns)),
            ]),
        ),
        EventKind::Fault { fault } => (
            "fault",
            Value::object(vec![("fault", Value::Str(format!("{fault:?}")))]),
        ),
        EventKind::MemLevel { .. } => unreachable!("returned as a counter above"),
    };
    slice(name, "sim", rank, 0, ev.start, ev.end, args)
}

fn scope_label(kind: ScopeKind, id: u32) -> String {
    let k = match kind {
        ScopeKind::Iteration => "iteration",
        ScopeKind::Section => "section",
        ScopeKind::Tile => "tile",
        ScopeKind::Stage => "stage",
    };
    format!("{k} {id}")
}

/// Convert one rank's hook events into complete slices on `tid 1` by
/// pairing scope enter/exit brackets on a stack. Unbalanced exits are
/// ignored; unclosed brackets at the end of the stream are closed at
/// the last seen timestamp so the export stays loadable.
fn hook_slices(rank: usize, events: &[HookEvent], out: &mut Vec<Value>) {
    let mut stack: Vec<(ScopeKind, u32, SimTime)> = Vec::new();
    let mut last = SimTime::ZERO;
    for ev in events {
        match ev {
            HookEvent::ScopeEnter { kind, id, at } => {
                last = last.max(*at);
                stack.push((*kind, *id, *at));
            }
            HookEvent::ScopeExit { kind, id, at } => {
                last = last.max(*at);
                // Pop to the matching bracket (tolerates skipped exits).
                if let Some(pos) = stack.iter().rposition(|(k, i, _)| k == kind && i == id) {
                    let opened: Vec<_> = stack.drain(pos..).collect();
                    for (k, i, started) in opened.into_iter().rev() {
                        out.push(slice(
                            &scope_label(k, i),
                            "scope",
                            rank,
                            1,
                            started,
                            *at,
                            Value::object(vec![]),
                        ));
                    }
                }
            }
            HookEvent::Op { info, start, end } => {
                last = last.max(*end);
                let mut args = vec![
                    ("section", Value::UInt(u64::from(info.scope.section))),
                    ("tile", Value::UInt(u64::from(info.scope.tile))),
                    ("stage", Value::UInt(u64::from(info.scope.stage))),
                    ("bytes", Value::UInt(info.bytes)),
                ];
                if let Some(var) = info.var {
                    args.push(("var", Value::UInt(u64::from(var))));
                }
                if let Some(peer) = info.peer {
                    args.push(("peer", Value::UInt(peer as u64)));
                }
                args.push(("blocked_us", us(info.blocked.as_nanos())));
                out.push(slice(
                    &format!("op:{:?}", info.kind),
                    "op",
                    rank,
                    1,
                    *start,
                    *end,
                    Value::object(args),
                ));
            }
            HookEvent::Retry {
                kind,
                attempt,
                backoff,
                at,
                ..
            } => {
                last = last.max(*at);
                out.push(slice(
                    &format!("retry:{kind:?}"),
                    "retry",
                    rank,
                    1,
                    *at,
                    *at,
                    Value::object(vec![
                        ("attempt", Value::UInt(u64::from(*attempt))),
                        ("backoff_us", us(backoff.as_nanos())),
                    ]),
                ));
            }
        }
    }
    // Close any brackets left open at the end of the stream.
    while let Some((k, i, started)) = stack.pop() {
        out.push(slice(
            &scope_label(k, i),
            "scope",
            rank,
            1,
            started,
            last.max(started),
            Value::object(vec![]),
        ));
    }
}

/// Build the trace-event document for one run; render it with
/// `.to_json()` and load the file in `ui.perfetto.dev`.
///
/// * `traces` are the per-rank simulator traces (tracing must have been
///   enabled);
/// * `hooks[rank]` is that rank's hook-event stream (`tid 1`);
/// * `spans[rank]` is that rank's recovery-span list
///   (`AdaptiveOutcome::spans` in `mheta-apps`). Crash-recovery slices
///   (checkpoint / rollback / redistribution / reprediction) go to a
///   `tid 2` "recovery" track that partitions its recovery time
///   exactly, and [`RecoveryKind::Rebalance`] slices to a `tid 3`
///   "rebalance" track;
/// * `suspicion[rank]` is the phi-accrual detector's timeline
///   (`AdaptiveOutcome::suspicion`), rendered as the counter tracks
///   `suspicion_phi` and `slow_ratio`, one series per observed member.
///
/// Pass `&[]` for what a run lacks. A rank with no hooks, spans or
/// samples gets no track or counter for them, so a plain run's document
/// carries nothing of the fault-tolerant ones.
#[must_use]
pub fn perfetto_trace(
    traces: &[RankTrace],
    hooks: &[Vec<HookEvent>],
    spans: &[Vec<RecoverySpan>],
    suspicion: &[Vec<SuspicionSample>],
) -> Value {
    let mut events = Vec::new();
    for trace in traces {
        events.push(metadata(
            trace.rank,
            None,
            "process_name",
            format!("rank {}", trace.rank),
        ));
        events.push(metadata(
            trace.rank,
            Some(0),
            "thread_name",
            "sim events".into(),
        ));
        if hooks.get(trace.rank).is_some_and(|h| !h.is_empty()) {
            events.push(metadata(
                trace.rank,
                Some(1),
                "thread_name",
                "mpi hooks".into(),
            ));
        }
        let rank_spans = spans.get(trace.rank).map_or(&[][..], Vec::as_slice);
        let has_recovery = rank_spans
            .iter()
            .any(|sp| sp.kind != RecoveryKind::Rebalance);
        let has_rebalance = rank_spans
            .iter()
            .any(|sp| sp.kind == RecoveryKind::Rebalance);
        if has_recovery {
            events.push(metadata(
                trace.rank,
                Some(2),
                "thread_name",
                "recovery".into(),
            ));
        }
        if has_rebalance {
            events.push(metadata(
                trace.rank,
                Some(3),
                "thread_name",
                "rebalance".into(),
            ));
        }
        for ev in &trace.events {
            events.push(sim_event(trace.rank, ev));
        }
        if let Some(rank_hooks) = hooks.get(trace.rank) {
            hook_slices(trace.rank, rank_hooks, &mut events);
        }
        for sp in rank_spans {
            let tid = if sp.kind == RecoveryKind::Rebalance {
                3
            } else {
                2
            };
            events.push(slice(
                sp.kind.name(),
                "recovery",
                trace.rank,
                tid,
                SimTime(sp.start_ns),
                SimTime(sp.end_ns),
                Value::object(vec![("len_us", us(sp.len_ns()))]),
            ));
        }
        for s in suspicion.get(trace.rank).map_or(&[][..], Vec::as_slice) {
            let key = format!("m{}", s.member);
            events.push(counter(
                "suspicion_phi",
                trace.rank,
                SimTime(s.at_ns),
                vec![(&key, Value::Float(s.phi))],
            ));
            events.push(counter(
                "slow_ratio",
                trace.rank,
                SimTime(s.at_ns),
                vec![(&key, Value::Float(s.ratio))],
            ));
        }
    }
    Value::object(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::Str("ms".into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mheta_sim::Event;

    fn small_trace() -> RankTrace {
        RankTrace {
            rank: 0,
            events: vec![
                Event {
                    start: SimTime(0),
                    end: SimTime(1500),
                    kind: EventKind::Compute { work_units: 3.0 },
                },
                Event {
                    start: SimTime(1500),
                    end: SimTime(2000),
                    kind: EventKind::Send {
                        to: 1,
                        tag: 7,
                        bytes: 64,
                    },
                },
            ],
            finish: SimTime(2000),
        }
    }

    #[test]
    fn document_shape_and_units() {
        let doc = perfetto_trace(&[small_trace()], &[], &[], &[]);
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // process_name + thread_name metadata + 2 slices.
        assert_eq!(events.len(), 4);
        let compute = &events[2];
        assert_eq!(compute.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(compute.get("ts").unwrap().as_f64(), Some(0.0));
        assert_eq!(compute.get("dur").unwrap().as_f64(), Some(1.5));
        assert_eq!(compute.get("pid").unwrap().as_u64(), Some(0));
        assert_eq!(compute.get("tid").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn scopes_become_nested_slices() {
        let hooks = vec![vec![
            HookEvent::ScopeEnter {
                kind: ScopeKind::Section,
                id: 0,
                at: SimTime(0),
            },
            HookEvent::ScopeEnter {
                kind: ScopeKind::Stage,
                id: 1,
                at: SimTime(100),
            },
            HookEvent::ScopeExit {
                kind: ScopeKind::Stage,
                id: 1,
                at: SimTime(900),
            },
            HookEvent::ScopeExit {
                kind: ScopeKind::Section,
                id: 0,
                at: SimTime(1000),
            },
        ]];
        let doc = perfetto_trace(&[small_trace()], &hooks, &[], &[]);
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let scopes: Vec<_> = events
            .iter()
            .filter(|e| e.get("cat").and_then(Value::as_str) == Some("scope"))
            .collect();
        assert_eq!(scopes.len(), 2);
        assert_eq!(scopes[0].get("name").unwrap().as_str(), Some("stage 1"));
        assert_eq!(scopes[1].get("name").unwrap().as_str(), Some("section 0"));
        // The stage slice is contained in the section slice.
        let (s_ts, s_dur) = (
            scopes[1].get("ts").unwrap().as_f64().unwrap(),
            scopes[1].get("dur").unwrap().as_f64().unwrap(),
        );
        let (t_ts, t_dur) = (
            scopes[0].get("ts").unwrap().as_f64().unwrap(),
            scopes[0].get("dur").unwrap().as_f64().unwrap(),
        );
        assert!(t_ts >= s_ts && t_ts + t_dur <= s_ts + s_dur);
    }

    #[test]
    fn unclosed_scopes_are_closed_at_stream_end() {
        let hooks = vec![vec![HookEvent::ScopeEnter {
            kind: ScopeKind::Iteration,
            id: 4,
            at: SimTime(10),
        }]];
        let doc = perfetto_trace(&[small_trace()], &hooks, &[], &[]);
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(Value::as_str) == Some("iteration 4")));
    }

    #[test]
    fn mem_levels_become_counter_events() {
        let t = RankTrace {
            rank: 2,
            events: vec![
                Event {
                    start: SimTime(100),
                    end: SimTime(100),
                    kind: EventKind::MemLevel {
                        in_use: 4096,
                        high_water: 4096,
                    },
                },
                Event {
                    start: SimTime(900),
                    end: SimTime(900),
                    kind: EventKind::MemLevel {
                        in_use: 0,
                        high_water: 4096,
                    },
                },
            ],
            finish: SimTime(1000),
        };
        let doc = perfetto_trace(&[t], &[], &[], &[]);
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let counters: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("C"))
            .collect();
        assert_eq!(counters.len(), 2);
        assert_eq!(counters[0].get("name").unwrap().as_str(), Some("memory"));
        assert_eq!(counters[0].get("pid").unwrap().as_u64(), Some(2));
        assert_eq!(counters[0].get("ts").unwrap().as_f64(), Some(0.1));
        let args = counters[0].get("args").unwrap();
        assert_eq!(args.get("in_use_bytes").unwrap().as_u64(), Some(4096));
        assert_eq!(args.get("high_water_bytes").unwrap().as_u64(), Some(4096));
        assert_eq!(
            counters[1]
                .get("args")
                .unwrap()
                .get("in_use_bytes")
                .unwrap()
                .as_u64(),
            Some(0)
        );
        // Counter events carry no dur/tid.
        assert!(counters[0].get("dur").is_none());
        assert!(counters[0].get("tid").is_none());
    }

    #[test]
    fn export_is_byte_deterministic() {
        let t = vec![small_trace()];
        let json = || perfetto_trace(&t, &[], &[], &[]).to_json();
        assert_eq!(json(), json());
    }

    #[test]
    fn adaptive_export_adds_suspicion_and_rebalance_tracks() {
        use mheta_mpi::HealthState;
        let spans = vec![vec![
            RecoverySpan {
                start_ns: 100,
                end_ns: 300,
                kind: RecoveryKind::Checkpoint,
            },
            RecoverySpan {
                start_ns: 800,
                end_ns: 1000,
                kind: RecoveryKind::Rebalance,
            },
        ]];
        let susp = vec![vec![SuspicionSample {
            iteration: 3,
            at_ns: 750,
            member: 1,
            phi: 9.25,
            ratio: 4.0,
            state: HealthState::Suspected,
        }]];
        let doc = perfetto_trace(&[small_trace()], &[], &spans, &susp);
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // Rebalance slice lands on its own tid-3 track, crash recovery
        // stays on tid 2, and both thread_name records are present.
        let rebal = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("rebalance"))
            .unwrap();
        assert_eq!(rebal.get("tid").unwrap().as_u64(), Some(3));
        let ckpt = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("checkpoint"))
            .unwrap();
        assert_eq!(ckpt.get("tid").unwrap().as_u64(), Some(2));
        for tid in [2u64, 3u64] {
            assert!(events.iter().any(|e| {
                e.get("ph").and_then(Value::as_str) == Some("M")
                    && e.get("tid").and_then(Value::as_u64) == Some(tid)
            }));
        }
        // The suspicion sample becomes phi and ratio counter events,
        // keyed by member.
        let phi = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("suspicion_phi"))
            .unwrap();
        assert_eq!(phi.get("ph").unwrap().as_str(), Some("C"));
        assert_eq!(phi.get("ts").unwrap().as_f64(), Some(0.75));
        assert_eq!(
            phi.get("args").unwrap().get("m1").unwrap().as_f64(),
            Some(9.25)
        );
        let ratio = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("slow_ratio"))
            .unwrap();
        assert_eq!(
            ratio.get("args").unwrap().get("m1").unwrap().as_f64(),
            Some(4.0)
        );
        // A rank whose sample list is empty gets no counter, exactly as
        // a run without a detector.
        assert_eq!(
            perfetto_trace(&[small_trace()], &[], &spans, &[vec![]]).to_json(),
            perfetto_trace(&[small_trace()], &[], &spans, &[]).to_json(),
        );
    }

    #[test]
    fn recovery_spans_get_their_own_track() {
        use mheta_sim::RecoveryKind;
        let spans = vec![vec![
            RecoverySpan {
                start_ns: 500,
                end_ns: 800,
                kind: RecoveryKind::Checkpoint,
            },
            RecoverySpan {
                start_ns: 1500,
                end_ns: 1700,
                kind: RecoveryKind::Rollback,
            },
        ]];
        let doc = perfetto_trace(&[small_trace()], &[], &spans, &[]);
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let recovery: Vec<_> = events
            .iter()
            .filter(|e| e.get("cat").and_then(Value::as_str) == Some("recovery"))
            .collect();
        assert_eq!(recovery.len(), 2);
        assert_eq!(
            recovery[0].get("name").unwrap().as_str(),
            Some("checkpoint")
        );
        assert_eq!(recovery[0].get("tid").unwrap().as_u64(), Some(2));
        assert_eq!(recovery[0].get("ts").unwrap().as_f64(), Some(0.5));
        assert_eq!(recovery[0].get("dur").unwrap().as_f64(), Some(0.3));
        assert_eq!(recovery[1].get("name").unwrap().as_str(), Some("rollback"));
        // The tid-2 thread_name metadata is present...
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(Value::as_str) == Some("M")
                && e.get("tid").and_then(Value::as_u64) == Some(2)
        }));
        // ...but only for fault-tolerant runs: a rank whose span list
        // is empty renders byte-identically to a run without spans
        // (golden stability).
        assert_eq!(
            perfetto_trace(&[small_trace()], &[], &[vec![]], &[]).to_json(),
            perfetto_trace(&[small_trace()], &[], &[], &[]).to_json(),
        );
    }
}
