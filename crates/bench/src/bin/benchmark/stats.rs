//! Order statistics, sweep chunking, and bound comparison.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps 99.9 % of 10 000 at rank 9990 despite 99.9 not
    // being a binary fraction.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Sort `samples` and return their median.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    percentile(samples, 50.0)
}

/// Median of nanosecond samples, scaled by `per` (1e3 → µs, 1e6 → ms).
pub fn median_ns(samples: &[u64], per: f64) -> f64 {
    let mut v: Vec<f64> = samples.iter().map(|&ns| ns as f64 / per).collect();
    median(&mut v)
}

/// Whether `n` samples leave at least ten beyond their `p`-th
/// percentile — the support a reported tail needs.
pub fn supported(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= 10
}

/// The highest percentile of the ladder that `n` samples support, or
/// `None` when even the lowest rung has fewer than ten samples beyond.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| supported(n, p))
}

/// Total time of each complete run of `ops_per_sweep` consecutive
/// operations; a trailing partial sweep is dropped. Any such run of a
/// round-robin holds every case exactly once, so sweeps are comparable
/// wherever the window starts.
pub fn sweep_totals(op_ns: &[u64], ops_per_sweep: usize) -> Vec<u64> {
    op_ns
        .chunks_exact(ops_per_sweep)
        .map(|sweep| sweep.iter().sum())
        .collect()
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

/// How far a metric may worsen before it counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the base value.
    Share(f64),
    /// Deterministic: must repeat bit for bit.
    Exact,
}

/// How much worse `new` is than `base`, as a share of `base`
/// (negative when it improved).
pub fn worsening(better: Better, base: f64, new: f64) -> f64 {
    let delta = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    if base == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            delta.signum() * f64::INFINITY
        }
    } else {
        delta / base.abs()
    }
}

/// Whether `new` stays within `bound` of `base`.
pub fn within_bound(better: Better, bound: Bound, base: f64, new: f64) -> bool {
    match bound {
        Bound::Exact => base.to_bits() == new.to_bits(),
        Bound::Share(share) => worsening(better, base, new) <= share,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        // 200 samples: p95 is rank 190, ten beyond. 199: rank 190, nine.
        assert!(supported(200, 95.0));
        assert!(!supported(199, 95.0));
        assert!(supported(1000, 99.0));
        assert!(!supported(999, 99.0));
        assert!(!supported(0, 50.0));
        assert_eq!(tail_percentile(680), Some(95.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(39), None);
    }

    #[test]
    fn sweeps_drop_the_trailing_partial_chunk() {
        assert_eq!(sweep_totals(&[1, 2, 3, 4, 5, 6, 7], 3), vec![6, 15]);
        assert_eq!(sweep_totals(&[1, 2], 3), Vec::<u64>::new());
        assert_eq!(sweep_totals(&[5, 6], 1), vec![5, 6]);
    }

    #[test]
    fn bounds_respect_direction() {
        let ten = Bound::Share(0.10);
        assert!(within_bound(Better::Lower, ten, 100.0, 110.0));
        assert!(!within_bound(Better::Lower, ten, 100.0, 110.1));
        assert!(within_bound(Better::Lower, ten, 100.0, 50.0));
        assert!(within_bound(Better::Higher, ten, 100.0, 90.0));
        assert!(!within_bound(Better::Higher, ten, 100.0, 89.9));
        assert!(within_bound(Better::Higher, ten, 100.0, 200.0));
        assert!(within_bound(Better::Lower, Bound::Exact, 2.61, 2.61));
        assert!(!within_bound(
            Better::Lower,
            Bound::Exact,
            2.61,
            2.610_000_000_000_000_3
        ));
        // An improvement is still a change to an exact metric.
        assert!(!within_bound(Better::Higher, Bound::Exact, 3.21, 3.5));
        assert!(within_bound(Better::Lower, ten, 0.0, 0.0));
        assert!(!within_bound(Better::Lower, ten, 0.0, 1.0));
    }
}
