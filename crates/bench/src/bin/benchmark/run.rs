//! The closed-loop runner shared by the four workloads.
//!
//! One caller, one outstanding call: callers of a planning daemon, a
//! search, or a simulator run each wait for the reply. The program
//! already spawns 8 rank threads per simulated run, 4 strategy threads
//! per search and 4 planner workers on a 2-core box, so a second
//! generator thread would measure the scheduler.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::golden::{Golden, Tally};
use crate::spans::Tracer;
use crate::stats::median_ns;

/// Per-layer readings of one run: `name → (value, samples)`.
#[derive(Debug, Default)]
pub struct Ledger {
    pub entries: BTreeMap<&'static str, (f64, usize)>,
    /// Calls the traced replay made, for `host.ctx_switches_per_op`.
    pub calls: u64,
}

impl Ledger {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.entries.insert(name, (value, samples));
    }

    /// Record the median of nanosecond samples in units of `per` ns.
    pub fn set_median(&mut self, name: &'static str, samples_ns: &[u64], per: f64) {
        if !samples_ns.is_empty() {
            self.set(name, median_ns(samples_ns, per), samples_ns.len());
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.entries.get(name).map_or(0.0, |e| e.0)
    }
}

/// One benchmark workload. A *call* is one request, search, or
/// simulated run; a *sweep* is one pass over the workload's cases.
/// The reported median is over sweeps, because per-call cost differs
/// several-fold across applications (and, over the wire, flips between
/// two delayed-ACK timer ticks), so a median of single calls sits in a
/// gap of the mixture and jumps from run to run.
pub trait Workload: Sized {
    const NAME: &'static str;
    const CALLS_PER_SWEEP: usize;
    /// Report the median sweep divided by its calls (a request
    /// latency) rather than whole (a sweep time).
    const P50_PER_CALL: bool;
    /// Names of this workload's median and tail in the full report.
    const P50_NAME: &'static str;
    const P95_NAME: &'static str;

    /// Bring the system to the state the workload needs; timed as
    /// `setup_s`.
    fn set_up(seed: u64) -> Self;

    /// Check the deterministic outputs against the golden file and
    /// record the exact metrics.
    fn verify(&mut self, golden: &mut Golden, tally: &mut Tally, ledger: &mut Ledger);

    /// Make call `i` of the rotation: its wall time in ns (checking the
    /// reply is off the clock) and whether the output was correct.
    fn call(&mut self, i: u64) -> (u64, Result<(), String>);

    /// The traced replay: the same work decomposed into spans around
    /// calls into each crate's public functions, within `budget`.
    fn layers(
        &mut self,
        budget: Duration,
        tracer: &mut Tracer,
        ledger: &mut Ledger,
        tally: &mut Tally,
    );

    fn tear_down(self) {}
}

/// One step of the SplitMix64 generator: how `--seed` becomes request
/// seeds and sweep orders.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Time `f` on the monotonic clock.
pub fn timed<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_nanos() as u64, out)
}

/// Call `f(i)` for `i = 0, 1, …` until `budget` has passed or `max`
/// calls were made (at least `min`), collecting the wall time of each.
pub fn sample(budget: Duration, min: usize, max: usize, mut f: impl FnMut(usize)) -> Vec<u64> {
    let start = Instant::now();
    let mut ns = Vec::new();
    while ns.len() < max && (ns.len() < min || start.elapsed() < budget) {
        let i = ns.len();
        ns.push(timed(|| f(i)).0);
    }
    ns
}

/// [`sample`] `N` arms in turn, so drift in the host hits all alike:
/// `f(i, arm)` makes call `i` of each arm before call `i + 1` of any.
/// The later arms of a round find pages and caches the first one
/// warmed, so which arm goes first changes with the bit count of `i`
/// (the Thue–Morse sequence), which no period of the case rotation
/// lines up with. Returns each arm's wall times.
pub fn sample_arms<const N: usize>(
    budget: Duration,
    min: usize,
    max: usize,
    mut f: impl FnMut(usize, usize),
) -> [Vec<u64>; N] {
    let arm_of = |slot: usize| (slot % N + (slot / N).count_ones() as usize) % N;
    let all = sample(budget, N * min, N * max, |slot| f(slot / N, arm_of(slot)));
    let mut arms = [(); N].map(|()| Vec::with_capacity(all.len() / N + 1));
    for (slot, ns) in all.into_iter().enumerate() {
        arms[arm_of(slot)].push(ns);
    }
    arms
}

/// Drive `w` closed-loop from call `*next` for `window`, recording
/// every call's wall time and outcome.
pub fn closed_loop<W: Workload>(
    w: &mut W,
    next: &mut u64,
    window: Duration,
    tally: &mut Tally,
) -> Vec<u64> {
    let start = Instant::now();
    let mut call_ns = Vec::new();
    while start.elapsed() < window {
        let (ns, outcome) = w.call(*next);
        *next += 1;
        call_ns.push(ns);
        tally.record(outcome);
    }
    call_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_honours_min_and_max() {
        assert_eq!(sample(Duration::ZERO, 3, 10, |_| ()).len(), 3);
        assert_eq!(sample(Duration::from_secs(60), 0, 5, |_| ()).len(), 5);
    }

    #[test]
    fn arms_take_turns_over_the_same_calls_and_rotate_who_goes_first() {
        let mut seen = Vec::new();
        let [a, b] = sample_arms(Duration::ZERO, 2, 9, |i, arm| seen.push((i, arm)));
        assert_eq!(seen, vec![(0, 0), (0, 1), (1, 1), (1, 0)]);
        assert_eq!((a.len(), b.len()), (2, 2));
        let mut seen = Vec::new();
        let arms: [Vec<u64>; 3] = sample_arms(Duration::ZERO, 4, 9, |i, arm| seen.push((i, arm)));
        let firsts: Vec<_> = seen.iter().step_by(3).map(|&(_, arm)| arm).collect();
        assert_eq!(firsts, vec![0, 1, 1, 2]);
        assert!(arms.iter().all(|arm| arm.len() == 4));
    }
}
