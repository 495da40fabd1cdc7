//! `GEN_BLOCK` distributions.
//!
//! The paper assumes a one-dimensional data distribution in which the
//! rows of each distributed array are divided into variable-sized
//! contiguous blocks — HPF's `GEN_BLOCK` (§3.1). A [`GenBlock`] is the
//! per-node row count vector; every node owns at least one row (the
//! owner-computes rule needs every participant addressable, and the
//! benchmark communication protocols assume a full chain of nodes).

use std::fmt;

/// A validated `GEN_BLOCK` distribution: `rows[i]` rows on node `i`,
/// each at least 1.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GenBlock {
    rows: Vec<usize>,
}

/// Errors constructing a [`GenBlock`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenBlockError {
    /// The node list was empty.
    Empty,
    /// Some node was assigned zero rows.
    ZeroRows {
        /// Offending node.
        node: usize,
    },
}

impl fmt::Display for GenBlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenBlockError::Empty => write!(f, "GEN_BLOCK with zero nodes"),
            GenBlockError::ZeroRows { node } => {
                write!(f, "GEN_BLOCK assigns zero rows to node {node}")
            }
        }
    }
}

impl std::error::Error for GenBlockError {}

impl GenBlock {
    /// Validate and wrap a row-count vector.
    pub fn new(rows: Vec<usize>) -> Result<Self, GenBlockError> {
        if rows.is_empty() {
            return Err(GenBlockError::Empty);
        }
        if let Some(node) = rows.iter().position(|&r| r == 0) {
            return Err(GenBlockError::ZeroRows { node });
        }
        Ok(GenBlock { rows })
    }

    /// The even split of `total` rows over `n` nodes (the paper's
    /// `Blk`); the first `total % n` nodes take one extra row.
    ///
    /// # Panics
    /// Panics if `total < n` — every node must own at least one row.
    #[must_use]
    pub fn block(total: usize, n: usize) -> Self {
        assert!(n > 0 && total >= n, "need at least one row per node");
        let base = total / n;
        let extra = total % n;
        GenBlock {
            rows: (0..n).map(|i| base + usize::from(i < extra)).collect(),
        }
    }

    /// Rows per node.
    #[must_use]
    pub fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Always false (validated nonempty).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Total rows.
    #[must_use]
    pub fn total(&self) -> usize {
        self.rows.iter().sum()
    }

    /// Global index of each node's first row (length `n + 1`; the last
    /// entry is the total, so node `i` owns `[offsets[i], offsets[i+1])`).
    #[must_use]
    pub fn offsets(&self) -> Vec<usize> {
        offsets(&self.rows)
    }

    /// Which node owns global row `row`.
    ///
    /// # Panics
    /// Panics if `row >= total()`.
    #[must_use]
    pub fn owner(&self, row: usize) -> usize {
        let mut acc = 0;
        for (i, &r) in self.rows.iter().enumerate() {
            acc += r;
            if row < acc {
                return i;
            }
        }
        panic!("row {row} out of range for {} total rows", self.total());
    }

    /// Largest-remainder apportionment: distribute `total` rows over
    /// `weights` (nonnegative, not all zero), guaranteeing every node at
    /// least one row. This is the shared machinery behind the anchor
    /// distributions and spectrum interpolation.
    ///
    /// # Panics
    /// Panics if `total < weights.len()` or all weights are zero or
    /// negative.
    #[must_use]
    pub fn apportion(total: usize, weights: &[f64]) -> Self {
        let mut rows = Vec::new();
        Apportion::default().rows_into(total, weights, &mut rows);
        GenBlock { rows }
    }
}

/// [`GenBlock::apportion`] with its working buffers kept between calls,
/// for the searches that apportion once per candidate.
#[derive(Debug, Default)]
pub(crate) struct Apportion {
    fractions: Vec<f64>,
    order: Vec<usize>,
}

impl Apportion {
    /// Overwrite `rows` with the apportionment of `total` over
    /// `weights`; same result and panics as [`GenBlock::apportion`].
    pub(crate) fn rows_into(&mut self, total: usize, weights: &[f64], rows: &mut Vec<usize>) {
        let n = weights.len();
        assert!(n > 0 && total >= n, "need at least one row per node");
        let wsum: f64 = weights.iter().map(|w| w.max(0.0)).sum();
        assert!(wsum > 0.0, "weights must not all be zero");
        // Reserve one row per node, apportion the rest by weight: each
        // quota's whole part now, its fractional part for the
        // remainders. A quota is ≥ 0 and finite, so truncation is
        // `floor`.
        let spare = total - n;
        let fractions = &mut self.fractions;
        fractions.clear();
        fractions.reserve(n);
        rows.clear();
        rows.reserve(n);
        for w in weights {
            let quota = w.max(0.0) / wsum * spare as f64;
            assert!(quota.is_finite(), "quotas are finite");
            let whole = quota as usize;
            rows.push(whole);
            fractions.push(quota - whole as f64);
        }
        let assigned: usize = rows.iter().sum();
        // Hand out remainders to the largest fractional parts, ties to
        // the lower index: an insertion sort over the precomputed
        // fractions, which moves an index only past a strictly smaller
        // fraction. Node counts are small, so this beats a comparison
        // sort that would recompute both fractions per comparison.
        let order = &mut self.order;
        order.clear();
        order.extend(0..n);
        for i in 1..n {
            let mut at = i;
            while at > 0 && fractions[order[at - 1]] < fractions[i] {
                order[at] = order[at - 1];
                at -= 1;
            }
            order[at] = i;
        }
        for &i in order.iter().take(spare - assigned) {
            rows[i] += 1;
        }
        for r in rows.iter_mut() {
            *r += 1; // the reserved row
        }
    }
}

impl fmt::Display for GenBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "]")
    }
}

/// [`GenBlock::offsets`] over raw per-node row counts, which may be 0.
pub(crate) fn offsets(rows: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(rows.len() + 1);
    let mut acc = 0;
    out.push(0);
    for &r in rows {
        acc += r;
        out.push(acc);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The apportionment as a comparison sort over freshly floored
    /// quotas: the reference [`Apportion::rows_into`] must match.
    fn sorted_reference(total: usize, weights: &[f64]) -> Vec<usize> {
        let n = weights.len();
        assert!(n > 0 && total >= n, "need at least one row per node");
        let wsum: f64 = weights.iter().map(|w| w.max(0.0)).sum();
        assert!(wsum > 0.0, "weights must not all be zero");
        let spare = total - n;
        let quotas: Vec<f64> = weights
            .iter()
            .map(|w| w.max(0.0) / wsum * spare as f64)
            .collect();
        let mut rows: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
        let assigned: usize = rows.iter().sum();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by(|&a, &b| {
            let fa = quotas[a] - quotas[a].floor();
            let fb = quotas[b] - quotas[b].floor();
            fb.partial_cmp(&fa)
                .expect("quotas are finite")
                .then(a.cmp(&b))
        });
        for &i in order.iter().take(spare - assigned) {
            rows[i] += 1;
        }
        rows.iter().map(|r| r + 1).collect()
    }

    /// Weights as the searches draw them (exponential) and uniform, with
    /// exact fractional ties (small integers repeat), zeros and negatives
    /// (both weigh nothing), over 1 to 16 nodes.
    fn weights() -> impl Strategy<Value = Vec<f64>> {
        let weight = prop_oneof![
            (1e-12..1.0f64).prop_map(|u: f64| -u.ln()),
            0.0..1e3f64,
            (1u32..5).prop_map(f64::from),
            (1u32..5).prop_map(f64::from),
            Just(0.0),
            Just(-1.0),
        ];
        proptest::collection::vec(weight, 1..=16)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn apportion_matches_the_sorted_reference(
            weights in weights(),
            extra in 0usize..100_000,
        ) {
            let total = weights.len() + extra;
            let reference = std::panic::catch_unwind(|| sorted_reference(total, &weights));
            let mut rows = Vec::new();
            let ours = std::panic::catch_unwind(move || {
                Apportion::default().rows_into(total, &weights, &mut rows);
                rows
            });
            match (reference, ours) {
                (Ok(want), Ok(got)) => prop_assert_eq!(got, want),
                (Err(_), Err(_)) => {}
                (want, got) => prop_assert!(false, "reference {:?}, rows_into {:?}", want, got),
            }
        }
    }

    #[test]
    fn apportion_panics_where_the_reference_does() {
        let cases: [(usize, &[f64]); 5] = [
            (2, &[1.0, 1.0, 1.0]),
            (10, &[0.0, 0.0]),
            (10, &[-1.0, f64::NAN]),
            (10, &[f64::INFINITY, 1.0]),
            (10, &[f64::INFINITY, f64::INFINITY, 2.0]),
        ];
        for (total, weights) in cases {
            let reference = std::panic::catch_unwind(|| sorted_reference(total, weights));
            let ours = std::panic::catch_unwind(|| GenBlock::apportion(total, weights));
            assert!(reference.is_err(), "{total} over {weights:?}: reference");
            assert!(ours.is_err(), "{total} over {weights:?}: rows_into");
        }
        // One node has nothing to compare, so the sort let a NaN quota
        // through and handed out 2 of 10 rows; the assert does not.
        assert_eq!(sorted_reference(10, &[f64::INFINITY]), vec![2]);
        assert!(std::panic::catch_unwind(|| GenBlock::apportion(10, &[f64::INFINITY])).is_err());
    }

    #[test]
    fn block_splits_evenly_with_remainder_up_front() {
        let g = GenBlock::block(10, 4);
        assert_eq!(g.rows(), &[3, 3, 2, 2]);
        assert_eq!(g.total(), 10);
    }

    #[test]
    fn zero_rows_rejected() {
        assert!(matches!(
            GenBlock::new(vec![3, 0, 2]),
            Err(GenBlockError::ZeroRows { node: 1 })
        ));
        assert!(matches!(GenBlock::new(vec![]), Err(GenBlockError::Empty)));
    }

    #[test]
    fn offsets_bracket_each_node() {
        let g = GenBlock::new(vec![4, 2, 3]).unwrap();
        assert_eq!(g.offsets(), vec![0, 4, 6, 9]);
    }

    #[test]
    fn owner_respects_boundaries() {
        let g = GenBlock::new(vec![4, 2, 3]).unwrap();
        assert_eq!(g.owner(0), 0);
        assert_eq!(g.owner(3), 0);
        assert_eq!(g.owner(4), 1);
        assert_eq!(g.owner(5), 1);
        assert_eq!(g.owner(6), 2);
        assert_eq!(g.owner(8), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn owner_panics_past_end() {
        let _ = GenBlock::new(vec![2, 2]).unwrap().owner(4);
    }

    #[test]
    fn apportion_preserves_total_and_minimum() {
        let g = GenBlock::apportion(100, &[1.0, 2.0, 4.0, 0.0]);
        assert_eq!(g.total(), 100);
        assert!(g.rows().iter().all(|&r| r >= 1));
        // Heavier weights get more rows.
        assert!(g.rows()[2] > g.rows()[1]);
        assert!(g.rows()[1] > g.rows()[0]);
        assert_eq!(g.rows()[3], 1); // zero weight keeps only the reserve
    }

    #[test]
    fn apportion_exact_total_equals_nodes() {
        let g = GenBlock::apportion(3, &[5.0, 1.0, 1.0]);
        assert_eq!(g.rows(), &[1, 1, 1]);
    }

    #[test]
    fn apportion_equal_weights_is_block() {
        let g = GenBlock::apportion(10, &[1.0; 4]);
        let b = GenBlock::block(10, 4);
        assert_eq!(g.total(), b.total());
        let max = g.rows().iter().max().unwrap();
        let min = g.rows().iter().min().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn display_is_compact() {
        let g = GenBlock::new(vec![1, 2, 3]).unwrap();
        assert_eq!(g.to_string(), "[1 2 3]");
    }
}
