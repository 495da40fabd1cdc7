//! Single-flight coalescing of identical in-flight requests.
//!
//! The first caller to [`SingleFlight::enter`] a key becomes the
//! **leader** and actually does the work; every caller arriving while
//! the leader is in flight becomes a **follower** and just waits for
//! the leader's published result. Keys are the request's canonical
//! JSON (not its hash), so two genuinely different requests can never
//! coalesce.
//!
//! The contract that keeps followers from hanging: a leader MUST call
//! [`SingleFlight::complete`] on every exit path — success, search
//! failure, and admission-control shed alike all publish a result.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// One in-flight computation's publication slot.
pub struct Flight<T> {
    slot: Mutex<Option<T>>,
    done: Condvar,
}

impl<T: Clone> Flight<T> {
    fn new() -> Self {
        Flight {
            slot: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    /// Block until the leader publishes or `deadline` passes. `None`
    /// means no deadline (never returns `None`); `Some(None)` return
    /// means the deadline expired with the flight still unresolved —
    /// the follower gives up *without* disturbing the leader, which
    /// keeps working for the rest of the coalition.
    pub fn wait_until(&self, deadline: Option<Instant>) -> Option<T> {
        let mut slot = self.slot.lock().expect("flight slot poisoned");
        loop {
            if let Some(v) = slot.as_ref() {
                return Some(v.clone());
            }
            match deadline {
                None => slot = self.done.wait(slot).expect("flight slot poisoned"),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return None;
                    }
                    let (guard, _) = self
                        .done
                        .wait_timeout(slot, d - now)
                        .expect("flight slot poisoned");
                    slot = guard;
                }
            }
        }
    }

    fn publish(&self, value: T) {
        let mut slot = self.slot.lock().expect("flight slot poisoned");
        *slot = Some(value);
        drop(slot);
        self.done.notify_all();
    }
}

/// Whether `enter` made the caller the leader or a follower.
pub enum Entry<T> {
    /// This caller owns the work and must `complete` the flight.
    Leader(Arc<Flight<T>>),
    /// Another caller is already working this key; wait on the flight.
    Follower(Arc<Flight<T>>),
}

/// The single-flight registry: canonical key → in-flight computation.
pub struct SingleFlight<T> {
    flights: Mutex<HashMap<String, Arc<Flight<T>>>>,
}

impl<T: Clone> SingleFlight<T> {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        SingleFlight {
            flights: Mutex::new(HashMap::new()),
        }
    }

    /// Join the flight for `key`, creating it (and becoming leader) if
    /// none is in progress.
    pub fn enter(&self, key: &str) -> Entry<T> {
        let mut flights = self.flights.lock().expect("flight map poisoned");
        if let Some(f) = flights.get(key) {
            Entry::Follower(Arc::clone(f))
        } else {
            let f = Arc::new(Flight::new());
            flights.insert(key.to_string(), Arc::clone(&f));
            Entry::Leader(f)
        }
    }

    /// Publish the leader's result and retire the flight: the key is
    /// removed first, so requests arriving after this point start a
    /// fresh flight (or hit the cache) rather than reading a stale one.
    pub fn complete(&self, key: &str, flight: &Arc<Flight<T>>, value: T) {
        {
            let mut flights = self.flights.lock().expect("flight map poisoned");
            // Only remove our own flight; a successor leader may have
            // re-registered the key already.
            if flights.get(key).is_some_and(|cur| Arc::ptr_eq(cur, flight)) {
                flights.remove(key);
            }
        }
        flight.publish(value);
    }

    /// Number of keys currently in flight (the tests' "no flight
    /// outlives its leader" law).
    #[cfg(test)]
    pub fn in_flight(&self) -> usize {
        self.flights.lock().expect("flight map poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn leader_then_followers_share_one_result() {
        let sf = Arc::new(SingleFlight::<u64>::new());
        let leaders = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(8));
        let results: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let sf = Arc::clone(&sf);
                    let leaders = Arc::clone(&leaders);
                    let barrier = Arc::clone(&barrier);
                    s.spawn(move || {
                        barrier.wait();
                        match sf.enter("k") {
                            Entry::Leader(f) => {
                                leaders.fetch_add(1, Ordering::Relaxed);
                                // Linger so the others have time to join.
                                std::thread::sleep(std::time::Duration::from_millis(20));
                                sf.complete("k", &f, 42);
                                42
                            }
                            Entry::Follower(f) => f.wait_until(None).unwrap(),
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(results.iter().all(|&r| r == 42));
        assert_eq!(leaders.load(Ordering::Relaxed), 1, "exactly one leader");
        assert_eq!(sf.in_flight(), 0, "flight retired");
    }

    #[test]
    fn different_keys_do_not_coalesce() {
        let sf = SingleFlight::<u64>::new();
        let Entry::Leader(fa) = sf.enter("a") else {
            panic!("first entrant must lead")
        };
        let Entry::Leader(fb) = sf.enter("b") else {
            panic!("distinct key must get its own flight")
        };
        sf.complete("a", &fa, 1);
        sf.complete("b", &fb, 2);
        assert_eq!(fa.wait_until(None), Some(1));
        assert_eq!(fb.wait_until(None), Some(2));
    }

    #[test]
    fn key_is_reusable_after_completion() {
        let sf = SingleFlight::<u64>::new();
        let Entry::Leader(f) = sf.enter("k") else {
            panic!()
        };
        sf.complete("k", &f, 7);
        assert!(matches!(sf.enter("k"), Entry::Leader(_)));
    }
}
