//! Always-on flight recorder: a fixed-capacity ring of recent
//! structured events for post-mortem diagnosis.
//!
//! The recorder answers "what was the service doing just before X?"
//! without any sampling decision made up front: every notable event
//! (request lifecycle, shed, cache hit/miss, a deadline cutting a search,
//! detector transition, …) is recorded into a bounded ring, and the
//! ring is dumped as JSON on panic, on a planning error, or on demand
//! (`planctl dump`).
//!
//! ## Retention contract
//!
//! Events get a **monotonically increasing sequence number** from an
//! atomic counter, and the ring is **direct-mapped** on that sequence:
//! event `seq` lives in slot `seq mod capacity`, grouped into
//! mutex-striped banks so concurrent writers rarely contend. A slot
//! only ever replaces an older sequence number with a newer one, so
//! once all writers quiesce the ring holds **exactly the most recent
//! `capacity` events**, regardless of thread interleaving, and the
//! `dropped` counter equals exactly `written - retained` (each write
//! either fills an empty slot or retires exactly one event). The
//! property test `crates/obs/tests/recorder_props.rs` pins both
//! invariants under concurrent writers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Value;
use crate::trace::{id_hex, TraceContext};

/// One recorded event.
#[derive(Debug, Clone)]
pub struct RecordedEvent {
    /// Monotonic sequence number (process-lifetime unique per recorder).
    pub seq: u64,
    /// Nanoseconds since the recorder was created.
    pub at_ns: u64,
    /// Trace this event belongs to (0 when untraced).
    pub trace_id: u64,
    /// Span within the trace (0 when untraced).
    pub span_id: u64,
    /// Stable event kind, e.g. `"request.shed"` or `"cache.hit"`.
    pub kind: &'static str,
    /// Structured payload.
    pub detail: Value,
}

impl RecordedEvent {
    /// The event as a JSON value (ids in wire hex).
    #[must_use]
    pub fn to_value(&self) -> Value {
        Value::object(vec![
            ("seq", Value::UInt(self.seq)),
            ("at_ns", Value::UInt(self.at_ns)),
            ("trace_id", Value::Str(id_hex(self.trace_id))),
            ("span_id", Value::Str(id_hex(self.span_id))),
            ("kind", Value::Str(self.kind.to_string())),
            ("detail", self.detail.clone()),
        ])
    }
}

/// One lock-striped bank of direct-mapped slots.
struct Stripe {
    slots: Mutex<Vec<Option<RecordedEvent>>>,
}

/// The always-on flight recorder.
pub struct FlightRecorder {
    epoch: Instant,
    stripes: Vec<Stripe>,
    /// Slots per stripe; total capacity = stripes * per_stripe.
    per_stripe: usize,
    seq: AtomicU64,
    dropped: AtomicU64,
    retained: AtomicU64,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity())
            .field("written", &self.written())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl FlightRecorder {
    /// The service's ring capacity unless sized otherwise, events.
    pub const DEFAULT_CAPACITY: usize = 1024;
    /// The service's lock-stripe count.
    pub const DEFAULT_STRIPES: usize = 8;

    /// A recorder retaining (at least) `capacity` events across
    /// `stripes` lock-striped banks. Capacity is rounded up to a
    /// multiple of the stripe count (both clamped to at least 1);
    /// [`FlightRecorder::capacity`] reports the actual value.
    #[must_use]
    pub fn new(capacity: usize, stripes: usize) -> Self {
        let stripes = stripes.max(1);
        let per_stripe = capacity.max(1).div_ceil(stripes);
        FlightRecorder {
            epoch: Instant::now(),
            stripes: (0..stripes)
                .map(|_| Stripe {
                    slots: Mutex::new(vec![None; per_stripe]),
                })
                .collect(),
            per_stripe,
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            retained: AtomicU64::new(0),
        }
    }

    /// Total events the ring retains.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.stripes.len() * self.per_stripe
    }

    /// Nanoseconds since the recorder was created (the event clock).
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record one event; returns its sequence number.
    pub fn record(&self, trace: Option<&TraceContext>, kind: &'static str, detail: Value) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let event = RecordedEvent {
            seq,
            at_ns: self.now_ns(),
            trace_id: trace.map_or(0, |t| t.trace_id),
            span_id: trace.map_or(0, |t| t.span_id),
            kind,
            detail,
        };
        let n = self.stripes.len() as u64;
        let stripe = &self.stripes[(seq % n) as usize];
        let slot_idx = ((seq / n) as usize) % self.per_stripe;
        let mut slots = stripe.slots.lock().expect("recorder stripe poisoned");
        match &slots[slot_idx] {
            None => {
                self.retained.fetch_add(1, Ordering::Relaxed);
                slots[slot_idx] = Some(event);
            }
            // Keep whichever sequence is newer; either way exactly one
            // event is retired, keeping dropped == written - retained.
            Some(old) if old.seq < seq => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                slots[slot_idx] = Some(event);
            }
            Some(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        seq
    }

    /// Record with a key/value payload (convenience over
    /// [`FlightRecorder::record`]).
    pub fn record_kv(
        &self,
        trace: Option<&TraceContext>,
        kind: &'static str,
        pairs: Vec<(&str, Value)>,
    ) -> u64 {
        self.record(trace, kind, Value::object(pairs))
    }

    /// Events written so far (retained + dropped).
    #[must_use]
    pub fn written(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Events retired from the ring so far — exactly
    /// `written() - retained()`.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events currently held in the ring.
    #[must_use]
    pub fn retained(&self) -> u64 {
        self.retained.load(Ordering::Relaxed)
    }

    /// The retained events, sorted by sequence number.
    #[must_use]
    pub fn snapshot(&self) -> Vec<RecordedEvent> {
        let mut events: Vec<RecordedEvent> = Vec::with_capacity(self.capacity());
        for stripe in &self.stripes {
            let slots = stripe.slots.lock().expect("recorder stripe poisoned");
            events.extend(slots.iter().flatten().cloned());
        }
        events.sort_by_key(|e| e.seq);
        events
    }

    /// The full dump document (`schema: mheta-flight/v1`): capacity,
    /// written/dropped/retained tallies, and every retained event in
    /// sequence order.
    #[must_use]
    pub fn dump_value(&self) -> Value {
        let events = self.snapshot();
        Value::object(vec![
            ("schema", Value::Str("mheta-flight/v1".into())),
            ("capacity", Value::UInt(self.capacity() as u64)),
            ("written", Value::UInt(self.written())),
            ("dropped", Value::UInt(self.dropped())),
            ("retained", Value::UInt(events.len() as u64)),
            (
                "events",
                Value::Array(events.iter().map(RecordedEvent::to_value).collect()),
            ),
        ])
    }

    /// [`FlightRecorder::dump_value`] as indented JSON — the panic /
    /// post-mortem artifact.
    #[must_use]
    pub fn dump_json(&self) -> String {
        self.dump_value().to_json_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(r: &FlightRecorder, kind: &'static str) -> u64 {
        r.record(None, kind, Value::object(vec![]))
    }

    #[test]
    fn keeps_the_most_recent_capacity_events() {
        let r = FlightRecorder::new(8, 2);
        assert_eq!(r.capacity(), 8);
        for _ in 0..20 {
            ev(&r, "tick");
        }
        let seqs: Vec<u64> = r.snapshot().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<u64>>());
        assert_eq!(r.written(), 20);
        assert_eq!(r.retained(), 8);
        assert_eq!(r.dropped(), 12);
    }

    #[test]
    fn under_capacity_nothing_drops() {
        let r = FlightRecorder::new(16, 4);
        for _ in 0..5 {
            ev(&r, "tick");
        }
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.retained(), 5);
        assert_eq!(r.snapshot().len(), 5);
    }

    #[test]
    fn capacity_rounds_up_to_stripe_multiple() {
        let r = FlightRecorder::new(10, 4);
        assert_eq!(r.capacity(), 12);
        let r = FlightRecorder::new(0, 0);
        assert_eq!(r.capacity(), 1);
    }

    #[test]
    fn events_carry_trace_identity_and_detail() {
        let r = FlightRecorder::new(8, 1);
        let ctx = TraceContext::root();
        r.record_kv(
            Some(&ctx),
            "request.shed",
            vec![("retry_after_ms", Value::UInt(50))],
        );
        let events = r.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].trace_id, ctx.trace_id);
        assert_eq!(events[0].kind, "request.shed");
        assert_eq!(
            events[0].detail.get("retry_after_ms").unwrap().as_u64(),
            Some(50)
        );
    }

    #[test]
    fn dump_is_valid_json_with_schema_and_tallies() {
        let r = FlightRecorder::new(4, 2);
        for _ in 0..6 {
            ev(&r, "tick");
        }
        let v = crate::json::from_str(&r.dump_json()).expect("dump parses");
        assert_eq!(v.get("schema").unwrap().as_str(), Some("mheta-flight/v1"));
        assert_eq!(v.get("written").unwrap().as_u64(), Some(6));
        assert_eq!(v.get("dropped").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("retained").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("events").unwrap().as_array().unwrap().len(), 4);
    }
}
