//! Incremental (delta) evaluation of `GEN_BLOCK` distributions.
//!
//! Distribution search is evaluation-bound: every candidate a search
//! visits costs one full MHETA prediction, even when the candidate
//! differs from the incumbent by a single boundary row. This module
//! exploits the model's structure to make those evaluations cheap:
//!
//! * A rank's per-section stage work (its [`RankCost`] **leaves**) is a
//!   pure function of that rank's row count — [`Mheta::rank_cost`]
//!   never reads any other rank. Leaves cached from the last accepted
//!   distribution can therefore be reused verbatim for every rank a
//!   candidate did not touch.
//! * All cross-rank coupling — neighbor waits, collectives, pipeline
//!   recurrences — lives in the clock-propagation pass
//!   ([`Mheta::score_from_costs`]), which is cheap and **always re-run
//!   in full**. This is the conservative *dirty closure*: collectives
//!   and pipeline stages conceptually dirty all ranks, and we honor
//!   that by never caching any communication term. Reuse is taken only
//!   for the provably rank-local leaves.
//!
//! Because full evaluation ([`Mheta::predict_with`]) is itself built
//! from the same `rank_cost` + assembly path, an incremental
//! evaluation is **bitwise-identical** (`f64::to_bits`) to a full one
//! — not merely close. The differential suite in
//! `tests/delta_eval_props.rs` pins this.
//!
//! The entry points are [`DeltaModel`] (what a model must expose to be
//! delta-evaluable) and [`DeltaEvaluator`] (the caching session,
//! usually obtained through [`Evaluator::delta_session`] and driven by
//! [`CountingEvaluator`](crate::fitness::CountingEvaluator)). A session
//! detects what changed by diffing a candidate's rows against its
//! cached base, so searches hand it plain row vectors.
//!
//! [`Mheta::predict_with`]: mheta_core::Mheta::predict_with

use mheta_core::{Mheta, PredictOptions, RankCost};

use crate::fitness::{EvalError, Evaluator};

/// What a model must expose to be evaluated incrementally: per-rank
/// cost leaves and an assembly step.
///
/// The contract that makes delta evaluation safe:
///
/// 1. `rank_cost(rank, rows)` must be a pure function of its
///    arguments — bitwise-reproducible and independent of every other
///    rank's row count.
/// 2. `assemble(rows, costs)` given leaves equal to fresh
///    `rank_cost` outputs must return a score bitwise-identical to
///    [`Evaluator::try_eval_ns`] on the same rows. All cross-rank
///    coupling must live here (it is re-run in full on every
///    evaluation), never inside the leaves.
pub trait DeltaModel: Evaluator {
    /// Compute one rank's cost leaves under `rows` rows.
    fn rank_cost(&self, rank: usize, rows: usize) -> Result<RankCost, EvalError>;

    /// Assemble the score from per-rank leaves (fresh or cached).
    fn assemble(&self, rows: &[usize], costs: &[&RankCost]) -> Result<f64, EvalError>;
}

impl DeltaModel for Mheta {
    fn rank_cost(&self, rank: usize, rows: usize) -> Result<RankCost, EvalError> {
        Ok(Mheta::rank_cost(self, rank, rows))
    }

    fn assemble(&self, rows: &[usize], costs: &[&RankCost]) -> Result<f64, EvalError> {
        self.score_from_costs(rows, costs, PredictOptions::default())
            .map_err(|e| EvalError(e.to_string()))
    }
}

/// Tallies of how a delta session spent its evaluations: the
/// `delta_hits / full_evals / terms_reused / fallback_*` counters
/// surfaced through search outcomes, telemetry, and the serving
/// metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct DeltaStats {
    /// Evaluations answered from cached leaves (including pure memo
    /// hits on an unchanged distribution).
    pub delta_hits: u64,
    /// Evaluations that recomputed every rank's leaves.
    pub full_evals: u64,
    /// Individual cost leaves (per-rank per-section per-stage terms)
    /// reused from the cache instead of recomputed.
    pub terms_reused: u64,
    /// Full evaluations because no accepted base was cached yet.
    pub fallback_cold: u64,
    /// Full evaluations because the candidate's rank count differed
    /// from the cached base.
    pub fallback_shape: u64,
    /// Full evaluations because every rank's row count changed
    /// (nothing reusable — e.g. a random restart).
    pub fallback_all_dirty: u64,
    /// Evaluations that errored; each also poisons the cache so no
    /// stale leaf can leak into a later result.
    pub fallback_error: u64,
}

impl DeltaStats {
    /// Fold another session's tallies into this one (exact: plain
    /// counter sums).
    pub fn merge(&mut self, other: &DeltaStats) {
        self.delta_hits += other.delta_hits;
        self.full_evals += other.full_evals;
        self.terms_reused += other.terms_reused;
        self.fallback_cold += other.fallback_cold;
        self.fallback_shape += other.fallback_shape;
        self.fallback_all_dirty += other.fallback_all_dirty;
        self.fallback_error += other.fallback_error;
    }

    /// Total successful evaluations the session answered.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.delta_hits + self.full_evals
    }

    /// Total full evaluations by fallback reason (cold + shape +
    /// all-dirty; errors are counted separately — they answer
    /// nothing).
    #[must_use]
    pub fn fallbacks(&self) -> u64 {
        self.fallback_cold + self.fallback_shape + self.fallback_all_dirty
    }

    /// Fraction of successful evaluations answered incrementally
    /// (0 when no evaluations ran).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.delta_hits as f64 / total as f64
        }
    }
}

/// A stateful incremental-evaluation session: the mutable counterpart
/// of [`Evaluator`], obtained via [`Evaluator::delta_session`].
///
/// The session caches the leaves of the last *accepted* distribution
/// ([`DeltaSession::note_accept`]); candidate evaluations diff against
/// that base and reuse every untouched rank's leaves. Results are
/// bitwise-identical to [`Evaluator::try_eval_ns`] — a session is an
/// optimization, never a different objective.
pub trait DeltaSession {
    /// Evaluate `rows`, reusing cached leaves where provably safe.
    fn try_eval_ns(&mut self, rows: &[usize]) -> Result<f64, EvalError>;

    /// Declare `rows` the new accepted base: future evaluations diff
    /// against it. Cheap when `rows` was the last evaluated candidate
    /// (its fresh leaves are promoted); otherwise the base is rebuilt.
    fn note_accept(&mut self, rows: &[usize]);

    /// Counter snapshot for telemetry.
    fn stats(&self) -> DeltaStats;
}

/// Cached leaves of the accepted base distribution.
struct Cache {
    rows: Vec<usize>,
    costs: Vec<RankCost>,
    score: f64,
}

/// Fresh leaves of the most recently delta-evaluated candidate,
/// promotable by `note_accept` without recomputation.
struct Pending {
    rows: Vec<usize>,
    fresh: Vec<(usize, RankCost)>,
    score: f64,
}

/// The caching incremental evaluator over any [`DeltaModel`].
///
/// Holds the leaves of the last accepted distribution plus a
/// *pending* slot for the last evaluated candidate. Any evaluation
/// error poisons both — the next evaluation starts cold rather than
/// risk assembling stale leaves.
pub struct DeltaEvaluator<'a, M: DeltaModel + ?Sized> {
    model: &'a M,
    cache: Option<Cache>,
    pending: Option<Pending>,
    stats: DeltaStats,
}

impl<'a, M: DeltaModel + ?Sized> DeltaEvaluator<'a, M> {
    /// A cold session over `model` (the first evaluation is a full
    /// one and installs the cache).
    pub fn new(model: &'a M) -> Self {
        DeltaEvaluator {
            model,
            cache: None,
            pending: None,
            stats: DeltaStats::default(),
        }
    }

    /// Drop all cached state; the next evaluation starts cold.
    fn poison(&mut self) {
        self.cache = None;
        self.pending = None;
    }

    /// Keep what the kernel computed for `rows`: a full evaluation's
    /// leaves become the new base unconditionally (they were paid for
    /// anyway), a partial one's wait in the pending slot, and an error
    /// poisons both.
    fn keep(&mut self, rows: &[usize], result: &Result<f64, EvalError>, leaves: EvalLeaves) {
        match (result, leaves) {
            (Ok(score), EvalLeaves::Full(costs)) => {
                self.cache = Some(Cache {
                    rows: rows.to_vec(),
                    costs,
                    score: *score,
                });
                self.pending = None;
            }
            (Ok(score), EvalLeaves::Fresh(fresh)) => {
                self.pending = Some(Pending {
                    rows: rows.to_vec(),
                    fresh,
                    score: *score,
                });
            }
            (Ok(_), EvalLeaves::None) => {}
            (Err(_), _) => self.poison(),
        }
    }
}

/// What one stateless evaluation produced besides its score: the
/// leaves the caller may install or promote.
enum EvalLeaves {
    /// Nothing to keep (memo hit or error).
    None,
    /// A partial evaluation's fresh leaves for the dirty ranks.
    Fresh(Vec<(usize, RankCost)>),
    /// A full evaluation's complete leaf set.
    Full(Vec<RankCost>),
}

/// One stateless delta evaluation against an optional cached base:
/// the kernel behind both candidate evaluation and rebasing. Returns
/// the score, the stats delta for the caller to fold in (a rebase
/// keeps only the error tally), and the computed leaves, so the
/// session can install or promote them without recomputation.
fn eval_against_base<M: DeltaModel + ?Sized>(
    model: &M,
    base: Option<(&[usize], &[RankCost], f64)>,
    rows: &[usize],
) -> (Result<f64, EvalError>, DeltaStats, EvalLeaves) {
    let mut st = DeltaStats::default();
    let full = |st: &mut DeltaStats| -> (Result<f64, EvalError>, EvalLeaves) {
        let mut costs = Vec::with_capacity(rows.len());
        for (i, &r) in rows.iter().enumerate() {
            match model.rank_cost(i, r) {
                Ok(c) => costs.push(c),
                Err(e) => {
                    st.fallback_error += 1;
                    return (Err(e), EvalLeaves::None);
                }
            }
        }
        let score = {
            let refs: Vec<&RankCost> = costs.iter().collect();
            model.assemble(rows, &refs)
        };
        match score {
            Ok(score) => {
                st.full_evals += 1;
                (Ok(score), EvalLeaves::Full(costs))
            }
            Err(e) => {
                st.fallback_error += 1;
                (Err(e), EvalLeaves::None)
            }
        }
    };

    let Some((brows, bcosts, bscore)) = base else {
        st.fallback_cold += 1;
        let (r, l) = full(&mut st);
        return (r, st, l);
    };
    if brows.len() != rows.len() {
        st.fallback_shape += 1;
        let (r, l) = full(&mut st);
        return (r, st, l);
    }
    let n = rows.len();
    let dirty: Vec<bool> = (0..n).map(|i| rows[i] != brows[i]).collect();
    let n_dirty = dirty.iter().filter(|&&d| d).count();
    if n_dirty == 0 {
        st.delta_hits += 1;
        st.terms_reused += bcosts.iter().map(|c| c.leaves() as u64).sum::<u64>();
        return (Ok(bscore), st, EvalLeaves::None);
    }
    if n_dirty == n {
        st.fallback_all_dirty += 1;
        let (r, l) = full(&mut st);
        return (r, st, l);
    }
    let mut fresh: Vec<(usize, RankCost)> = Vec::with_capacity(n_dirty);
    for (i, &d) in dirty.iter().enumerate() {
        if d {
            match model.rank_cost(i, rows[i]) {
                Ok(c) => fresh.push((i, c)),
                Err(e) => {
                    st.fallback_error += 1;
                    return (Err(e), st, EvalLeaves::None);
                }
            }
        }
    }
    let score = {
        let mut refs: Vec<&RankCost> = bcosts.iter().collect();
        for (i, c) in &fresh {
            refs[*i] = c;
        }
        model.assemble(rows, &refs)
    };
    match score {
        Ok(score) => {
            st.delta_hits += 1;
            st.terms_reused += dirty
                .iter()
                .enumerate()
                .filter(|&(_, &d)| !d)
                .map(|(i, _)| bcosts[i].leaves() as u64)
                .sum::<u64>();
            (Ok(score), st, EvalLeaves::Fresh(fresh))
        }
        Err(e) => {
            st.fallback_error += 1;
            (Err(e), st, EvalLeaves::None)
        }
    }
}

impl<M: DeltaModel + ?Sized> DeltaSession for DeltaEvaluator<'_, M> {
    fn try_eval_ns(&mut self, rows: &[usize]) -> Result<f64, EvalError> {
        let base = self
            .cache
            .as_ref()
            .map(|c| (c.rows.as_slice(), c.costs.as_slice(), c.score));
        let (result, st, leaves) = eval_against_base(self.model, base, rows);
        self.stats.merge(&st);
        self.keep(rows, &result, leaves);
        result
    }

    fn note_accept(&mut self, rows: &[usize]) {
        if let Some(p) = self.pending.take() {
            if p.rows == rows {
                if let Some(cache) = self.cache.as_mut() {
                    for (i, c) in p.fresh {
                        cache.costs[i] = c;
                    }
                    cache.rows = p.rows;
                    cache.score = p.score;
                    return;
                }
            }
        }
        // Not the candidate we just evaluated: rebase outright unless
        // the base is already there — the kernel's cold path, with only
        // its error tally kept (a rebase answers no candidate). Errors
        // leave the session cold.
        let already = self.cache.as_ref().is_some_and(|c| c.rows == rows);
        if !already {
            let (result, st, leaves) = eval_against_base(self.model, None, rows);
            self.stats.fallback_error += st.fallback_error;
            self.keep(rows, &result, leaves);
        }
    }

    fn stats(&self) -> DeltaStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_merge_and_rates() {
        let mut a = DeltaStats {
            delta_hits: 3,
            full_evals: 1,
            terms_reused: 30,
            fallback_cold: 1,
            ..DeltaStats::default()
        };
        let b = DeltaStats {
            delta_hits: 1,
            fallback_error: 2,
            ..DeltaStats::default()
        };
        a.merge(&b);
        assert_eq!(a.delta_hits, 4);
        assert_eq!(a.total(), 5);
        assert_eq!(a.fallbacks(), 1);
        assert_eq!(a.fallback_error, 2);
        assert!((a.hit_rate() - 0.8).abs() < 1e-12);
        assert_eq!(DeltaStats::default().hit_rate(), 0.0);
    }
}
