//! Sharded, lock-striped LRU plan cache.
//!
//! Entries are keyed by the canonical FNV-1a content hash of the
//! request ([`crate::request::PlanRequest::key`]); the canonical JSON
//! itself is stored alongside and compared on every probe, so a hash
//! collision degrades to a miss instead of serving the wrong plan.
//!
//! An entry is an `Answer`: the request's plan, or the message of a
//! search failure that every recomputation would repeat (DESIGN.md
//! §13). Both share one LRU, one invalidation and one set of counters;
//! only plans are exported to a snapshot.
//!
//! The map is striped into `shards` independent `Mutex`-protected
//! shards selected by the key's high bits, so concurrent requests for
//! different keys rarely contend. Each shard runs its own exact LRU
//! over a small vector (capacities are tens of entries per shard;
//! linear scans are cheaper than pointer-chasing at that size).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use mheta_obs::json::Value;

use crate::planner::Plan;

/// What the cache holds for one request: its plan, or the message of
/// the deterministic search failure every recomputation would repeat.
pub(crate) type Answer = Result<Plan, String>;

struct Entry {
    key: u64,
    canon: String,
    answer: Answer,
    last_used: u64,
}

struct Shard {
    entries: Vec<Entry>,
    tick: u64,
}

/// Lock-striped LRU cache of finished plans and deterministic search
/// failures.
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl PlanCache {
    /// A cache of `shards` stripes holding at most `capacity` entries
    /// in total (rounded up to a multiple of the shard count). Both
    /// arguments are clamped to at least 1.
    #[must_use]
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        let capacity_per_shard = capacity.max(1).div_ceil(shards);
        PlanCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: Vec::new(),
                        tick: 0,
                    })
                })
                .collect(),
            capacity_per_shard,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<Shard> {
        // High bits: FNV-1a mixes them well, and the low bits already
        // pick the LRU slot ordering inside a shard.
        let idx = (key >> 32) as usize % self.shards.len();
        &self.shards[idx]
    }

    /// Probe for the plan of `key`; `canon` disambiguates hash
    /// collisions. A stored failure is not a plan: `None`.
    #[must_use]
    pub fn get(&self, key: u64, canon: &str) -> Option<Plan> {
        self.answer(key, canon)?.ok()
    }

    /// Probe for whatever is stored for `key`, plan or failure. Bumps
    /// the hit/miss counters and the entry's recency on hit.
    #[must_use]
    pub(crate) fn answer(&self, key: u64, canon: &str) -> Option<Answer> {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        if let Some(e) = shard
            .entries
            .iter_mut()
            .find(|e| e.key == key && e.canon == canon)
        {
            e.last_used = tick;
            let answer = e.answer.clone();
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(answer);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Insert (or refresh) the plan for `key`, evicting the shard's
    /// least-recently-used entry if it is full.
    pub fn insert(&self, key: u64, canon: &str, plan: Plan) {
        self.store(key, canon, Ok(plan));
    }

    /// Insert (or refresh) the deterministic search failure for `key`,
    /// exactly as [`PlanCache::insert`] does a plan.
    pub(crate) fn insert_failure(&self, key: u64, canon: &str, message: String) {
        self.store(key, canon, Err(message));
    }

    fn store(&self, key: u64, canon: &str, answer: Answer) {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        if let Some(e) = shard
            .entries
            .iter_mut()
            .find(|e| e.key == key && e.canon == canon)
        {
            e.answer = answer;
            e.last_used = tick;
            return;
        }
        if shard.entries.len() >= self.capacity_per_shard {
            let lru = shard
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("full shard is nonempty");
            shard.entries.swap_remove(lru);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        shard.entries.push(Entry {
            key,
            canon: canon.to_string(),
            answer,
            last_used: tick,
        });
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Drop every cached plan and failure (e.g. after a model change);
    /// returns how many entries were invalidated.
    pub fn invalidate_all(&self) -> usize {
        let mut dropped = 0;
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard poisoned");
            dropped += shard.entries.len();
            shard.entries.clear();
        }
        self.invalidations
            .fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// Drop the entry for one key, if present.
    pub fn invalidate(&self, key: u64, canon: &str) -> bool {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        let before = shard.entries.len();
        shard
            .entries
            .retain(|e| !(e.key == key && e.canon == canon));
        let dropped = before - shard.entries.len();
        self.invalidations
            .fetch_add(dropped as u64, Ordering::Relaxed);
        dropped > 0
    }

    /// Export every plan as `(key, canonical JSON, plan)`,
    /// least-recently-used first within each shard — so re-`insert`ing
    /// the export in order (see [`crate::snapshot`]) reproduces each
    /// shard's recency ordering. Stored failures are left out.
    #[must_use]
    pub fn export(&self) -> Vec<(u64, String, Plan)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard poisoned");
            let mut entries: Vec<&Entry> = shard.entries.iter().collect();
            entries.sort_by_key(|e| e.last_used);
            out.extend(entries.into_iter().filter_map(|e| {
                let plan = e.answer.as_ref().ok()?;
                Some((e.key, e.canon.clone(), plan.clone()))
            }));
        }
        out
    }

    /// Entries currently cached, plans and failures.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").entries.len())
            .sum()
    }

    /// True when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Capacity evictions so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Counters and occupancy as a JSON value.
    #[must_use]
    pub fn stats(&self) -> Value {
        Value::object(vec![
            ("entries", Value::UInt(self.len() as u64)),
            ("shards", Value::UInt(self.shards.len() as u64)),
            (
                "capacity",
                Value::UInt((self.capacity_per_shard * self.shards.len()) as u64),
            ),
            ("hits", Value::UInt(self.hits())),
            ("misses", Value::UInt(self.misses())),
            (
                "insertions",
                Value::UInt(self.insertions.load(Ordering::Relaxed)),
            ),
            ("evictions", Value::UInt(self.evictions())),
            (
                "invalidations",
                Value::UInt(self.invalidations.load(Ordering::Relaxed)),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mheta_dist::Strategy;

    fn plan(score: f64) -> Plan {
        Plan {
            rows: vec![1, 2, 3],
            predicted_ns: score,
            winner: Strategy::Gbs,
            total_evals: 1,
        }
    }

    #[test]
    fn hit_miss_and_counters() {
        let c = PlanCache::new(4, 16);
        assert!(c.get(7, "a").is_none());
        c.insert(7, "a", plan(1.0));
        let got = c.get(7, "a").unwrap();
        assert_eq!(got.predicted_ns, 1.0);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        // Same hash, different canonical content: a collision is a miss.
        assert!(c.get(7, "b").is_none());
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_least_recently_used_per_shard() {
        // One shard, capacity 2: inserting a third entry evicts the
        // stalest one.
        let c = PlanCache::new(1, 2);
        c.insert(1, "k1", plan(1.0));
        c.insert(2, "k2", plan(2.0));
        assert!(c.get(1, "k1").is_some()); // refresh key 1
        c.insert(3, "k3", plan(3.0)); // evicts key 2
        assert_eq!(c.evictions(), 1);
        assert!(c.get(1, "k1").is_some());
        assert!(c.get(2, "k2").is_none());
        assert!(c.get(3, "k3").is_some());
    }

    #[test]
    fn invalidation_drops_entries_and_counts() {
        let c = PlanCache::new(4, 16);
        c.insert(1, "k1", plan(1.0));
        c.insert(2, "k2", plan(2.0));
        assert!(c.invalidate(1, "k1"));
        assert!(!c.invalidate(1, "k1"));
        assert_eq!(c.invalidate_all(), 1);
        assert!(c.is_empty());
        let stats = c.stats();
        assert_eq!(stats.get("invalidations").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn insert_refreshes_existing_entry() {
        let c = PlanCache::new(2, 8);
        c.insert(5, "k", plan(1.0));
        c.insert(5, "k", plan(9.0));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(5, "k").unwrap().predicted_ns, 9.0);
    }

    #[test]
    fn a_failure_is_an_entry_but_neither_a_plan_nor_exported() {
        let c = PlanCache::new(1, 2);
        c.insert(1, "k1", plan(1.0));
        c.insert_failure(2, "k2", "no model".into());
        assert_eq!(c.answer(2, "k2"), Some(Err("no model".into())));
        assert!(c.get(2, "k2").is_none());
        assert_eq!(c.len(), 2);
        assert_eq!(c.export().len(), 1, "the snapshot holds plans only");
        // One LRU for both: a third entry evicts the stalest, key 1.
        c.insert(3, "k3", plan(3.0));
        assert!(c.get(1, "k1").is_none());
        assert!(c.invalidate(2, "k2"));
        assert!(c.answer(2, "k2").is_none());
    }
}
