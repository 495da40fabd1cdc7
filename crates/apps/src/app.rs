//! Shared application infrastructure.
//!
//! Every benchmark follows the paper's computational model (§3.1):
//! iterative, explicit I/O, one-dimensional `GEN_BLOCK` distribution,
//! owner-computes with the Local Placement rule (each node's share
//! lives on its local disk). The helpers here keep the applications'
//! out-of-core behavior aligned with the model's heuristic — except
//! for the real-world details (resident overheads, sparse actuals)
//! that the paper identifies as MHETA's error sources.

use mheta_core::ooc::{plan_node, VarPlan};
use mheta_core::ProgramStructure;
use mheta_mpi::{Comm, Recorder};
use mheta_sim::VarId;
use std::collections::HashMap;

/// What each rank reports after running a benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RankResult {
    /// Virtual time when the measured iteration loop began (after
    /// setup, compulsory loads, and the synchronizing barrier).
    pub t0_ns: u64,
    /// Virtual time when the loop finished.
    pub t1_ns: u64,
    /// Application-specific check value (residual, checksum, …),
    /// identical across distributions up to floating-point
    /// reassociation.
    pub check: f64,
}

impl RankResult {
    /// Measured loop duration in seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        (self.t1_ns - self.t0_ns) as f64 / 1e9
    }
}

/// Deterministic value generator: a 64-bit mix of the coordinates,
/// mapped into `[0, 1)`. Data depends only on *global* coordinates, so
/// checksums are distribution-independent.
#[must_use]
pub fn hash01(seed: u64, a: u64, b: u64) -> f64 {
    unit(hash_bits(seed, a, b))
}

/// `2⁵³`: [`hash_bits`] lies in `[0, HASH_ONE)`, and [`hash01`] is it
/// divided by this.
const HASH_ONE: u64 = 1 << 53;

/// The three multipliers of [`hash_bits`]'s pre-mix, one per argument.
const K_SEED: u64 = 0x9e37_79b9_7f4a_7c15;
const K_A: u64 = 0xbf58_476d_1ce4_e5b9;
const K_B: u64 = 0x94d0_49bb_1331_11eb;

/// `q · 2⁻⁵³`, as [`hash01`] maps a [`hash_bits`] integer.
#[inline]
pub(crate) fn unit(q: u64) -> f64 {
    q as f64 / HASH_ONE as f64
}

/// The 53-bit integer `q` behind [`hash01`], which is exactly `q · 2⁻⁵³`:
/// `q` converts to `f64` exactly and the division only moves the
/// exponent. So a test on `hash01` can be made on `q` instead, as an
/// integer compare ([`Threshold`]).
pub(crate) fn hash_bits(seed: u64, a: u64, b: u64) -> u64 {
    finish(premix(seed, a, b))
}

/// The linear half of [`hash_bits`]: `seed·K₁ + a·K₂ + b·K₃` mod 2⁶⁴.
#[inline]
fn premix(seed: u64, a: u64, b: u64) -> u64 {
    seed.wrapping_mul(K_SEED)
        .wrapping_add(a.wrapping_mul(K_A))
        .wrapping_add(b.wrapping_mul(K_B))
}

/// The nonlinear half of [`hash_bits`], applied to its pre-mix.
#[inline]
fn finish(mut z: u64) -> u64 {
    z ^= z >> 30;
    z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    z >> 11
}

/// [`hash_bits`] along a run of consecutive coordinates, one of `a` or
/// `b` stepping by one: an endless iterator of the same integers. The
/// pre-mix is linear in each coordinate mod 2⁶⁴, so stepping a
/// coordinate adds its multiplier to it — one wrapping add per entry
/// instead of three multiplies, exact also where the coordinate wraps
/// past `u64::MAX`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HashRun {
    z: u64,
    step: u64,
}

impl HashRun {
    /// `hash_bits(seed, a + k, b)` for `k = 0, 1, …`.
    pub(crate) fn along_a(seed: u64, a: u64, b: u64) -> Self {
        HashRun {
            z: premix(seed, a, b),
            step: K_A,
        }
    }

    /// `hash_bits(seed, a, b + k)` for `k = 0, 1, …`.
    pub(crate) fn along_b(seed: u64, a: u64, b: u64) -> Self {
        HashRun {
            z: premix(seed, a, b),
            step: K_B,
        }
    }
}

impl Iterator for HashRun {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        let q = finish(self.z);
        self.z = self.z.wrapping_add(self.step);
        Some(q)
    }
}

/// The test `hash01(..) < p` as an integer compare on [`hash_bits`],
/// its threshold computed once: `q · 2⁻⁵³ < p` exactly when
/// `q < ⌈p · 2⁵³⌉`, the product exact because it only moves the
/// exponent. The float-to-integer cast saturates, so a NaN or
/// non-positive `p` admits nothing and a `p` of 1 or more admits every
/// `q`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Threshold(u64);

impl Threshold {
    pub(crate) fn new(p: f64) -> Self {
        Threshold((p * HASH_ONE as f64).ceil() as u64)
    }

    /// `q · 2⁻⁵³ < p`, for every `q` in `[0, 2⁵³)`.
    #[inline]
    pub(crate) fn admits(self, q: u64) -> bool {
        q < self.0
    }
}

/// Compute this rank's out-of-core plans.
///
/// The budget starts from the structure's declared overheads (the same
/// figure the model uses); `extra_overhead_bytes` adds implementation
/// buffers the structure cannot express, and `actual_row_bytes`
/// overrides the structure's *average* per-row footprint with the
/// rank's actual figure (sparse data) — the two places application
/// reality legitimately diverges from the model's heuristic (§5.4).
///
/// Honors the instrumented run's force-OOC transformation (§4.1.1):
/// during instrumentation every distributed variable takes the chunked
/// I/O path so the hooks can measure its latencies, with a single
/// whole-share chunk when it would otherwise be in core.
#[must_use]
pub fn rank_plans<R: Recorder>(
    comm: &Comm<'_, R>,
    structure: &ProgramStructure,
    my_rows: usize,
    extra_overhead_bytes: f64,
    actual_row_bytes: &[(VarId, f64)],
) -> HashMap<VarId, VarPlan> {
    let memory = comm.ctx_ref().node().memory_bytes;
    let mut row_bytes = structure.footprint_row_bytes();
    for (var, bytes) in actual_row_bytes {
        if let Some(slot) = row_bytes.iter_mut().find(|(v, _)| v == var) {
            slot.1 = *bytes;
        }
    }
    let overhead = structure.overhead_bytes(my_rows) + extra_overhead_bytes;
    let mut plans = plan_node(memory, overhead, my_rows, &row_bytes);
    if comm.force_ooc() {
        for plan in plans.values_mut() {
            if plan.in_core && plan.ocla_rows > 0 {
                plan.in_core = false;
                plan.icla_rows = plan.ocla_rows;
                plan.n_io = 1;
            }
        }
    }
    plans
}

/// Row-chunk boundaries for streaming `rows` rows in `icla_rows`-row
/// pieces: `(start, len)` pairs.
#[must_use]
pub fn chunks(rows: usize, icla_rows: usize) -> Vec<(usize, usize)> {
    assert!(icla_rows > 0, "ICLA must hold at least one row");
    let mut out = Vec::with_capacity(rows.div_ceil(icla_rows));
    let mut start = 0;
    while start < rows {
        let len = icla_rows.min(rows - start);
        out.push((start, len));
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash01_is_deterministic_and_bounded() {
        for a in 0..50u64 {
            for b in 0..10u64 {
                let v = hash01(7, a, b);
                assert!((0.0..1.0).contains(&v));
                assert_eq!(v, hash01(7, a, b));
            }
        }
        assert_ne!(hash01(7, 1, 2), hash01(7, 2, 1));
        assert_ne!(hash01(7, 1, 2), hash01(8, 1, 2));
    }

    #[test]
    fn hash01_is_hash_bits_scaled() {
        for seed in [0, 7, 0xC6, u64::MAX] {
            for a in (0..40u64).chain([u64::MAX - 1, u64::MAX]) {
                for b in (0..40u64).chain([u64::MAX]) {
                    let q = hash_bits(seed, a, b);
                    assert!(q < HASH_ONE);
                    assert_eq!(hash01(seed, a, b).to_bits(), unit(q).to_bits());
                }
            }
        }
    }

    /// `hash_bits` as it was written before its pre-mix and finaliser
    /// were split for [`HashRun`]: the reference for both.
    fn reference_hash_bits(seed: u64, a: u64, b: u64) -> u64 {
        let mut z = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(a.wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(b.wrapping_mul(0x94d0_49bb_1331_11eb));
        z ^= z >> 30;
        z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^= z >> 27;
        z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        z >> 11
    }

    /// A run along `a` and a run along `b` are `hash_bits` at each
    /// step, from starts at zero, in the middle and just below
    /// `u64::MAX`, so that some runs wrap past it.
    #[test]
    fn hash_run_is_hash_bits_along_either_coordinate() {
        let starts = [0, 1, 7, 0xC6, 1 << 40, u64::MAX - 20, u64::MAX];
        for seed in [0, 7, 0xC6, 0x57 ^ 0xC6, u64::MAX] {
            for a in starts {
                for b in starts {
                    let at = format!("seed {seed:#x} a {a:#x} b {b:#x}");
                    for (k, q) in HashRun::along_a(seed, a, b).take(40).enumerate() {
                        let a = a.wrapping_add(k as u64);
                        assert_eq!(q, reference_hash_bits(seed, a, b), "along a +{k}, {at}");
                        assert_eq!(q, hash_bits(seed, a, b), "along a +{k}, {at}");
                    }
                    for (k, q) in HashRun::along_b(seed, a, b).take(40).enumerate() {
                        let b = b.wrapping_add(k as u64);
                        assert_eq!(q, reference_hash_bits(seed, a, b), "along b +{k}, {at}");
                        assert_eq!(q, hash_bits(seed, a, b), "along b +{k}, {at}");
                    }
                }
            }
        }
    }

    /// The threshold rule holds on the integers either side of the
    /// threshold and at both ends, for fills that are exact multiples
    /// of `2⁻⁵³`, their neighbours one bit either side, and fills no
    /// hash reaches or every hash does.
    #[test]
    fn threshold_admits_as_the_scaled_hash_compares() {
        let mut fills = vec![
            0.0,
            -0.0,
            1.0,
            0.33,
            0.4,
            -0.5,
            2.0,
            f64::NAN,
            f64::INFINITY,
        ];
        for k in [1u64, 2, 3, 12_345, 1 << 51, (1 << 52) + 1, HASH_ONE - 1] {
            let p = unit(k);
            fills.extend([
                p,
                f64::from_bits(p.to_bits() - 1),
                f64::from_bits(p.to_bits() + 1),
            ]);
        }
        for fill in fills {
            let keep = Threshold::new(fill);
            let t = keep.0;
            let qs = [0, t.saturating_sub(1), t, t.saturating_add(1), HASH_ONE - 1];
            for q in qs.into_iter().filter(|&q| q < HASH_ONE) {
                assert_eq!(
                    keep.admits(q),
                    unit(q) < fill,
                    "fill {fill:e} q {q} threshold {t}"
                );
            }
        }
    }

    /// RNA's score index: the top two of the 53 bits are `hash01 · 4`
    /// truncated, at both ends and either side of each quarter.
    #[test]
    fn top_two_bits_are_the_quarter() {
        let mut qs = vec![0, HASH_ONE - 1];
        for k in 1..4u64 {
            qs.extend([k * (1 << 51) - 1, k * (1 << 51)]);
        }
        for q in qs {
            assert_eq!((q >> 51) as u8, (unit(q) * 4.0) as u8, "q {q}");
        }
    }

    #[test]
    fn chunks_cover_exactly() {
        for (rows, icla) in [(10, 3), (10, 10), (10, 20), (1, 1), (7, 2)] {
            let cs = chunks(rows, icla);
            assert_eq!(cs.iter().map(|c| c.1).sum::<usize>(), rows);
            assert_eq!(cs[0].0, 0);
            for w in cs.windows(2) {
                assert_eq!(w[0].0 + w[0].1, w[1].0);
            }
            assert!(cs.iter().all(|c| c.1 <= icla && c.1 > 0));
        }
    }

    #[test]
    fn rank_result_secs() {
        let r = RankResult {
            t0_ns: 1_000_000_000,
            t1_ns: 3_500_000_000,
            check: 0.0,
        };
        assert!((r.secs() - 2.5).abs() < 1e-12);
    }
}
