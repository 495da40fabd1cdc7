//! Per-shard circuit breaker over the search path.
//!
//! Consecutive search failures against one cache-key shard mean that
//! shard's requests are *doomed* — most often a malformed cluster spec
//! or program variant that fails model construction every time.
//! Queueing more of them burns worker threads and queue slots that
//! healthy requests need, so the breaker sheds them fast with a
//! structured error instead.
//!
//! The state machine is the classic three-state breaker, kept per
//! shard (shard selection matches [`crate::cache::PlanCache`]: the
//! key's high bits):
//!
//! ```text
//!            threshold consecutive failures
//!   Closed ────────────────────────────────▶ Open
//!     ▲                                       │ open_ms elapsed
//!     │ probe succeeds                        ▼
//!     └────────────────────────────────── HalfOpen ──▶ Open (probe fails)
//! ```
//!
//! * **Closed** — requests flow; failures are counted, any success
//!   resets the count.
//! * **Open** — every admission is denied immediately with the time
//!   remaining until the next probe as `retry_after_ms`.
//! * **HalfOpen** — exactly one probe request is admitted; concurrent
//!   requests keep shedding until the probe reports. Success closes
//!   the breaker, failure re-opens it for another full window. A probe
//!   that ends with *no* search verdict — shed on a full queue, or its
//!   deadline expired first — must call [`CircuitBreaker::on_abandoned`]
//!   to release the probe slot, or the shard would wait forever for a
//!   report that is never coming and fast-fail every future request.
//!
//! Time is injected by the caller (nanoseconds on the planner's
//! metrics clock), so every transition is a pure function of
//! `(state, event, now_ns)` — which is what the state-machine
//! proptests exercise.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use mheta_obs::json::Value;

/// Breaker tuning.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive failures (per shard) that trip the breaker open.
    /// 0 disables the breaker entirely: every admission is allowed.
    pub failure_threshold: u32,
    /// How long a tripped shard stays open before admitting a probe,
    /// milliseconds. Also the `retry_after_ms` hint while half-open.
    pub open_ms: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            open_ms: 1000,
        }
    }
}

/// The externally visible state of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests shed fast.
    Open,
    /// Probing: one request in flight decides open vs closed.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase name for stats and logs.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

#[derive(Debug)]
enum Shard {
    Closed { consecutive_failures: u32 },
    Open { until_ns: u64 },
    HalfOpen { probe_in_flight: bool },
}

/// Sharded three-state circuit breaker. All methods take `now_ns`
/// explicitly (the planner passes its metrics clock), which keeps the
/// state machine deterministic and directly testable.
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    shards: Vec<Mutex<Shard>>,
    trips: AtomicU64,
    closes: AtomicU64,
    fast_fails: AtomicU64,
    probes: AtomicU64,
}

impl CircuitBreaker {
    /// A breaker striped across `shards` (clamped to at least 1),
    /// matching the plan cache's shard selection.
    #[must_use]
    pub fn new(shards: usize, cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cfg,
            shards: (0..shards.max(1))
                .map(|_| {
                    Mutex::new(Shard::Closed {
                        consecutive_failures: 0,
                    })
                })
                .collect(),
            trips: AtomicU64::new(0),
            closes: AtomicU64::new(0),
            fast_fails: AtomicU64::new(0),
            probes: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<Shard> {
        // Same selection as the plan cache: FNV-1a's high bits.
        let idx = (key >> 32) as usize % self.shards.len();
        &self.shards[idx]
    }

    fn open_ns(&self) -> u64 {
        self.cfg.open_ms.saturating_mul(1_000_000)
    }

    /// Ask to run a search for `key` at `now_ns`. `Ok(())` admits
    /// (closed, or the half-open probe); `Err(retry_after_ms)` denies
    /// with the backoff the client should honor.
    pub fn admit(&self, key: u64, now_ns: u64) -> Result<(), u64> {
        if self.cfg.failure_threshold == 0 {
            return Ok(());
        }
        let mut shard = self.shard(key).lock().expect("breaker shard poisoned");
        match *shard {
            Shard::Closed { .. } => Ok(()),
            Shard::Open { until_ns } if now_ns < until_ns => {
                self.fast_fails.fetch_add(1, Ordering::Relaxed);
                Err(((until_ns - now_ns).div_ceil(1_000_000)).max(1))
            }
            Shard::Open { .. } => {
                // The window elapsed: this caller becomes the probe.
                *shard = Shard::HalfOpen {
                    probe_in_flight: true,
                };
                self.probes.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Shard::HalfOpen {
                probe_in_flight: false,
            } => {
                *shard = Shard::HalfOpen {
                    probe_in_flight: true,
                };
                self.probes.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Shard::HalfOpen {
                probe_in_flight: true,
            } => {
                self.fast_fails.fetch_add(1, Ordering::Relaxed);
                Err(self.cfg.open_ms.max(1))
            }
        }
    }

    /// Report an admitted search's success. Closes the shard (from any
    /// state) and resets its failure count. Returns whether *this* call
    /// closed a tripped shard — the caller that sees `true` owns the
    /// `breaker.close` event, however many requests race on the shard.
    pub fn on_success(&self, key: u64) -> bool {
        if self.cfg.failure_threshold == 0 {
            return false;
        }
        let mut shard = self.shard(key).lock().expect("breaker shard poisoned");
        let closed = matches!(*shard, Shard::Open { .. } | Shard::HalfOpen { .. });
        if closed {
            self.closes.fetch_add(1, Ordering::Relaxed);
        }
        *shard = Shard::Closed {
            consecutive_failures: 0,
        };
        closed
    }

    /// Report an admitted search's failure at `now_ns`. Counts toward
    /// the trip threshold when closed; re-opens immediately when the
    /// half-open probe fails; extends the window when already open
    /// (a straggler admitted before the trip). Returns whether *this*
    /// call tripped the shard open (the `breaker.open` event's owner).
    pub fn on_failure(&self, key: u64, now_ns: u64) -> bool {
        if self.cfg.failure_threshold == 0 {
            return false;
        }
        let until_ns = now_ns.saturating_add(self.open_ns());
        let mut shard = self.shard(key).lock().expect("breaker shard poisoned");
        let (next, tripped) = match *shard {
            Shard::Closed {
                consecutive_failures,
            } if consecutive_failures + 1 < self.cfg.failure_threshold => (
                Shard::Closed {
                    consecutive_failures: consecutive_failures + 1,
                },
                false,
            ),
            Shard::Closed { .. } | Shard::HalfOpen { .. } => (Shard::Open { until_ns }, true),
            Shard::Open { until_ns: old } => (
                Shard::Open {
                    until_ns: old.max(until_ns),
                },
                false,
            ),
        };
        *shard = next;
        if tripped {
            self.trips.fetch_add(1, Ordering::Relaxed);
        }
        tripped
    }

    /// Report that an admitted request ended without a search verdict:
    /// it was shed on a full executor queue, or its deadline expired
    /// before the search reported. Says nothing about the shard's
    /// health, but if the request held the half-open probe slot it
    /// must be released so the next request can probe — otherwise the
    /// shard stays `HalfOpen` with a phantom probe forever.
    pub fn on_abandoned(&self, key: u64) {
        if self.cfg.failure_threshold == 0 {
            return;
        }
        let mut shard = self.shard(key).lock().expect("breaker shard poisoned");
        if matches!(
            *shard,
            Shard::HalfOpen {
                probe_in_flight: true
            }
        ) {
            *shard = Shard::HalfOpen {
                probe_in_flight: false,
            };
        }
    }

    /// The state of `key`'s shard as of `now_ns` (an open window past
    /// its expiry reports `HalfOpen`, matching what the next `admit`
    /// would do).
    #[must_use]
    pub fn state(&self, key: u64, now_ns: u64) -> BreakerState {
        let shard = self.shard(key).lock().expect("breaker shard poisoned");
        match *shard {
            Shard::Closed { .. } => BreakerState::Closed,
            Shard::Open { until_ns } if now_ns < until_ns => BreakerState::Open,
            Shard::Open { .. } | Shard::HalfOpen { .. } => BreakerState::HalfOpen,
        }
    }

    /// Shards actively tripped at `now_ns`: an open window still
    /// running, or a half-open probe in flight. An expired-but-idle
    /// window does not count — the next request there is admitted as
    /// the probe, so the shard is no longer shedding anything.
    #[must_use]
    pub fn tripped_shards(&self, now_ns: u64) -> usize {
        self.shards
            .iter()
            .filter(|s| match *s.lock().expect("breaker shard poisoned") {
                Shard::Closed { .. } => false,
                Shard::Open { until_ns } => now_ns < until_ns,
                Shard::HalfOpen { probe_in_flight } => probe_in_flight,
            })
            .count()
    }

    /// Closed→open transitions so far.
    #[must_use]
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    /// Open/half-open→closed transitions so far.
    #[must_use]
    pub fn closes(&self) -> u64 {
        self.closes.load(Ordering::Relaxed)
    }

    /// Admissions denied (shed fast) so far.
    #[must_use]
    pub fn fast_fails(&self) -> u64 {
        self.fast_fails.load(Ordering::Relaxed)
    }

    /// Half-open probes admitted so far.
    #[must_use]
    pub fn probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// Counters and occupancy as a JSON value.
    #[must_use]
    pub fn stats(&self, now_ns: u64) -> Value {
        Value::object(vec![
            (
                "failure_threshold",
                Value::UInt(u64::from(self.cfg.failure_threshold)),
            ),
            ("open_ms", Value::UInt(self.cfg.open_ms)),
            ("shards", Value::UInt(self.shards.len() as u64)),
            (
                "tripped_shards",
                Value::UInt(self.tripped_shards(now_ns) as u64),
            ),
            ("trips", Value::UInt(self.trips())),
            ("closes", Value::UInt(self.closes())),
            ("fast_fails", Value::UInt(self.fast_fails())),
            ("probes", Value::UInt(self.probes())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(
            1,
            BreakerConfig {
                failure_threshold: 3,
                open_ms: 100,
            },
        )
    }

    #[test]
    fn trips_after_threshold_consecutive_failures() {
        let b = breaker();
        for i in 0..3 {
            assert_eq!(b.admit(0, i * MS), Ok(()));
            b.on_failure(0, i * MS);
        }
        assert_eq!(b.state(0, 3 * MS), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        let retry = b.admit(0, 3 * MS).unwrap_err();
        assert!((1..=100).contains(&retry), "retry_after {retry}ms");
        assert_eq!(b.fast_fails(), 1);
    }

    #[test]
    fn success_resets_the_failure_count() {
        let b = breaker();
        b.on_failure(0, 0);
        b.on_failure(0, MS);
        b.on_success(0);
        b.on_failure(0, 2 * MS);
        b.on_failure(0, 3 * MS);
        assert_eq!(b.state(0, 4 * MS), BreakerState::Closed);
    }

    #[test]
    fn half_open_admits_exactly_one_probe() {
        let b = breaker();
        for i in 0..3 {
            b.on_failure(0, i);
        }
        let after = 101 * MS;
        assert_eq!(b.admit(0, after), Ok(()), "probe admitted");
        assert!(b.admit(0, after).is_err(), "second concurrent denied");
        assert_eq!(b.probes(), 1);
        b.on_success(0);
        assert_eq!(b.state(0, after), BreakerState::Closed);
        assert_eq!(b.closes(), 1);
    }

    #[test]
    fn failed_probe_reopens_for_a_full_window() {
        let b = breaker();
        for i in 0..3 {
            b.on_failure(0, i);
        }
        let after = 150 * MS;
        assert_eq!(b.admit(0, after), Ok(()));
        b.on_failure(0, after);
        assert_eq!(b.state(0, after + 99 * MS), BreakerState::Open);
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn each_transition_is_reported_by_the_call_that_made_it() {
        let b = breaker();
        assert!(!b.on_failure(0, 0));
        assert!(!b.on_failure(0, MS));
        assert!(b.on_failure(0, 2 * MS), "the third failure trips");
        assert!(!b.on_failure(0, 3 * MS), "a straggler only extends");
        assert_eq!(b.admit(0, 200 * MS), Ok(()), "probe admitted");
        assert!(b.on_failure(0, 200 * MS), "a failed probe re-trips");
        assert!(b.on_success(0), "closing a tripped shard");
        assert!(!b.on_success(0), "nothing left to close");
        assert_eq!((b.trips(), b.closes()), (2, 1));
    }

    #[test]
    fn abandoned_probe_releases_the_slot() {
        let b = breaker();
        for i in 0..3 {
            b.on_failure(0, i);
        }
        let after = 101 * MS;
        assert_eq!(b.admit(0, after), Ok(()), "probe admitted");
        assert!(b.admit(0, after).is_err(), "slot held while probing");
        // The probe ends without a verdict (shed / deadline): the slot
        // must come back, or the shard fast-fails forever.
        b.on_abandoned(0);
        assert_eq!(b.admit(0, after), Ok(()), "released slot re-probes");
        assert_eq!(b.probes(), 2);
        b.on_success(0);
        assert_eq!(b.state(0, after), BreakerState::Closed);
    }

    #[test]
    fn abandon_outside_a_probe_changes_nothing() {
        let b = breaker();
        b.on_failure(0, 0);
        b.on_abandoned(0);
        assert_eq!(b.state(0, MS), BreakerState::Closed);
        // The failure count survives the abandon: two more trip it.
        b.on_failure(0, MS);
        b.on_failure(0, 2 * MS);
        assert_eq!(b.state(0, 3 * MS), BreakerState::Open);
    }

    #[test]
    fn tripped_shards_excludes_expired_idle_windows() {
        let b = breaker();
        for i in 0..3 {
            b.on_failure(0, i);
        }
        assert_eq!(b.tripped_shards(50 * MS), 1, "window still running");
        assert_eq!(b.tripped_shards(101 * MS), 0, "expired and idle");
        assert_eq!(b.admit(0, 101 * MS), Ok(()));
        assert_eq!(b.tripped_shards(101 * MS), 1, "probe in flight");
        b.on_abandoned(0);
        assert_eq!(b.tripped_shards(101 * MS), 0, "probe released, idle");
    }

    #[test]
    fn zero_threshold_disables_the_breaker() {
        let b = CircuitBreaker::new(
            4,
            BreakerConfig {
                failure_threshold: 0,
                open_ms: 100,
            },
        );
        for i in 0..100 {
            assert_eq!(b.admit(7, i), Ok(()));
            b.on_failure(7, i);
        }
        assert_eq!(b.trips(), 0);
        assert_eq!(b.state(7, 1000 * MS), BreakerState::Closed);
    }

    #[test]
    fn shards_are_independent() {
        let b = CircuitBreaker::new(8, BreakerConfig::default());
        let key_a = 0u64;
        let key_b = 1u64 << 32; // different high bits → different shard
        for i in 0..5 {
            b.on_failure(key_a, i);
        }
        assert_eq!(b.state(key_a, 10), BreakerState::Open);
        assert_eq!(b.state(key_b, 10), BreakerState::Closed);
        assert_eq!(b.admit(key_b, 10), Ok(()));
    }
}
