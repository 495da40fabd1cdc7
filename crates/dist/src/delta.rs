//! Incremental (delta) evaluation of `GEN_BLOCK` distributions.
//!
//! Distribution search is evaluation-bound: every candidate a search
//! visits costs one full MHETA prediction, even when the candidate
//! differs from the incumbent by a single boundary row. This module
//! exploits the model's structure to make those evaluations cheap:
//!
//! * A rank's per-section stage work (its cost **leaves**, see
//!   [`Mheta::rank_cost`]) is a pure function of that rank's row count
//!   — [`Mheta::rank_cost_into`] never reads any other rank. Leaves cached from the last accepted distribution can
//!   therefore be reused verbatim for every rank a candidate did not
//!   touch.
//! * All cross-rank coupling — neighbor waits, collectives, pipeline
//!   recurrences — lives in the clock-propagation pass
//!   ([`Mheta::score_from_leaves`]), which is cheap and **always re-run
//!   in full**. This is the conservative *dirty closure*: collectives
//!   and pipeline stages conceptually dirty all ranks, and we honor
//!   that by never caching any communication term. Reuse is taken only
//!   for the provably rank-local leaves.
//!
//! Because full evaluation ([`Mheta::predict_with`]) runs the same two
//! routines, an incremental evaluation is **bitwise-identical**
//! (`f64::to_bits`) to a full one — not merely close. The differential
//! suite in `tests/delta_eval_props.rs` pins this.
//!
//! The entry points are [`DeltaModel`] (what a model must expose to be
//! delta-evaluable) and [`DeltaEvaluator`] (the caching session,
//! usually obtained through [`Evaluator::delta_session`] and driven by
//! the searches). A session detects what changed by diffing a
//! candidate's rows against its cached base, so searches hand it plain
//! row vectors. It owns every buffer an evaluation touches — two leaf
//! slabs and the model's scratch block, sized by the first candidate —
//! so once warm it evaluates without allocating
//! (`tests/eval_no_alloc.rs`).
//!
//! [`Mheta::predict_with`]: mheta_core::Mheta::predict_with

use mheta_core::Mheta;

use crate::fitness::{finite_score, EvalError, Evaluator};

/// What a model must expose to be evaluated incrementally: per-rank
/// cost leaves, written into slabs the session owns, and an assembly
/// step over a whole slab.
///
/// The contract that makes delta evaluation safe:
///
/// 1. `rank_cost(rank, rows, out)` must be a pure function of `(rank,
///    rows)` — bitwise-reproducible and independent of every other
///    rank's row count.
/// 2. `assemble(rows, leaves, ..)` given leaves equal to fresh
///    `rank_cost` outputs must return a score bitwise-identical to
///    [`Evaluator::try_eval_ns`] on the same rows. All cross-rank
///    coupling must live here (it is re-run in full on every
///    evaluation), never inside the leaves.
pub trait DeltaModel: Evaluator {
    /// `f64` slots one rank's cost leaves occupy in a slab.
    fn leaf_len(&self) -> usize;

    /// Cost terms one rank's leaves stand for — what a reused rank adds
    /// to [`DeltaStats::terms_reused`].
    fn leaf_terms(&self) -> usize;

    /// Compute one rank's cost leaves under `rows` rows into `out`
    /// (exactly [`DeltaModel::leaf_len`] slots).
    fn rank_cost(&self, rank: usize, rows: usize, out: &mut [f64]) -> Result<(), EvalError>;

    /// Assemble the score from every rank's leaves (fresh or cached),
    /// rank-major in `leaves`. `scratch` is the session's reusable
    /// buffer block: the model may grow it once and must not rely on
    /// its contents.
    fn assemble(
        &self,
        rows: &[usize],
        leaves: &[f64],
        scratch: &mut Vec<f64>,
    ) -> Result<f64, EvalError>;
}

impl DeltaModel for Mheta {
    fn leaf_len(&self) -> usize {
        Mheta::leaf_len(self)
    }

    fn leaf_terms(&self) -> usize {
        Mheta::leaf_terms(self)
    }

    fn rank_cost(&self, rank: usize, rows: usize, out: &mut [f64]) -> Result<(), EvalError> {
        if rank >= self.arch().len() {
            return Err(EvalError(format!(
                "rank {rank} of a {}-node model",
                self.arch().len()
            )));
        }
        self.rank_cost_into(rank, rows, out);
        Ok(())
    }

    fn assemble(
        &self,
        rows: &[usize],
        leaves: &[f64],
        scratch: &mut Vec<f64>,
    ) -> Result<f64, EvalError> {
        let score = self
            .score_from_leaves(rows, leaves, scratch)
            .map_err(|e| EvalError(e.to_string()))?;
        finite_score(score)
    }
}

/// Tallies of how a delta session spent its evaluations: the
/// `delta_hits / full_evals / terms_reused / fallback_*` counters
/// surfaced through search outcomes, telemetry, and the serving
/// metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
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

/// One distribution's rows, every rank's cost leaves (rank-major,
/// [`DeltaModel::leaf_len`] slots each) and the score they assemble to.
#[derive(Default)]
struct Slab {
    rows: Vec<usize>,
    leaves: Vec<f64>,
    score: f64,
}

/// The caching incremental evaluator over any [`DeltaModel`].
///
/// Holds two slabs: the last accepted distribution (`base`) and the
/// last evaluated candidate (`cand`), whose untouched ranks are copied
/// from the base and whose dirty ranks are computed fresh — so making a
/// candidate the base, by promotion or after a full evaluation, is a
/// swap of the two. Any evaluation error poisons both: the next
/// evaluation starts cold rather than risk assembling stale leaves.
pub struct DeltaEvaluator<'a, M: DeltaModel + ?Sized> {
    model: &'a M,
    base: Slab,
    cand: Slab,
    /// `base` holds an accepted distribution.
    warm: bool,
    /// `cand` holds a successfully delta-evaluated candidate that
    /// `note_accept` may promote without recomputation.
    pending: bool,
    scratch: Vec<f64>,
    stats: DeltaStats,
}

impl<'a, M: DeltaModel + ?Sized> DeltaEvaluator<'a, M> {
    /// A cold session over `model` (the first evaluation is a full
    /// one and installs the base).
    pub fn new(model: &'a M) -> Self {
        DeltaEvaluator {
            model,
            base: Slab::default(),
            cand: Slab::default(),
            warm: false,
            pending: false,
            scratch: Vec::new(),
            stats: DeltaStats::default(),
        }
    }

    /// Fill the candidate slab for `rows` — ranks unchanged from the
    /// base copied when `reuse`, every other rank computed — and
    /// assemble its score.
    fn fill(&mut self, rows: &[usize], reuse: bool) -> Result<f64, EvalError> {
        let width = self.model.leaf_len();
        self.cand.rows.clear();
        self.cand.rows.extend_from_slice(rows);
        self.cand.leaves.resize(rows.len() * width, 0.0);
        for (i, &r) in rows.iter().enumerate() {
            let slots = i * width..(i + 1) * width;
            if reuse && r == self.base.rows[i] {
                self.cand.leaves[slots.clone()].copy_from_slice(&self.base.leaves[slots]);
            } else {
                self.model.rank_cost(i, r, &mut self.cand.leaves[slots])?;
            }
        }
        self.model
            .assemble(rows, &self.cand.leaves, &mut self.scratch)
    }

    /// One evaluation against the cached base, or from scratch when
    /// `cold` — the kernel behind both candidate evaluation and
    /// rebasing. Returns the score and the stats delta for the caller
    /// to fold in (a rebase keeps only the error tally). A full
    /// evaluation's leaves become the new base unconditionally (they
    /// were paid for anyway), a partial one's wait in the candidate
    /// slab, and an error poisons both.
    fn eval(&mut self, rows: &[usize], cold: bool) -> (Result<f64, EvalError>, DeltaStats) {
        let mut st = DeltaStats::default();
        let n = rows.len();
        let terms = self.model.leaf_terms() as u64;
        let mut clean = 0;
        if cold || !self.warm {
            st.fallback_cold += 1;
        } else if self.base.rows.len() != n {
            st.fallback_shape += 1;
        } else {
            clean = rows
                .iter()
                .zip(&self.base.rows)
                .filter(|(a, b)| a == b)
                .count() as u64;
            if clean == n as u64 {
                st.delta_hits += 1;
                st.terms_reused += clean * terms;
                return (Ok(self.base.score), st);
            }
            if clean == 0 {
                st.fallback_all_dirty += 1;
            }
        }
        let result = self.fill(rows, clean > 0);
        match result {
            Ok(score) => {
                self.cand.score = score;
                if clean > 0 {
                    st.delta_hits += 1;
                    st.terms_reused += clean * terms;
                    self.pending = true;
                } else {
                    st.full_evals += 1;
                    self.install();
                }
            }
            Err(_) => {
                st.fallback_error += 1;
                self.warm = false;
                self.pending = false;
            }
        }
        (result, st)
    }

    /// Make the candidate slab the base. The old base becomes the next
    /// candidate's buffer, so it is sized here too and later
    /// evaluations of this shape never allocate.
    fn install(&mut self) {
        std::mem::swap(&mut self.base, &mut self.cand);
        self.cand.rows.clear();
        self.cand.rows.reserve(self.base.rows.len());
        self.cand.leaves.resize(self.base.leaves.len(), 0.0);
        self.warm = true;
        self.pending = false;
    }
}

impl<M: DeltaModel + ?Sized> DeltaSession for DeltaEvaluator<'_, M> {
    fn try_eval_ns(&mut self, rows: &[usize]) -> Result<f64, EvalError> {
        let (result, st) = self.eval(rows, false);
        self.stats.merge(&st);
        result
    }

    fn note_accept(&mut self, rows: &[usize]) {
        let promote = self.pending && self.cand.rows == rows;
        self.pending = false;
        if promote {
            self.install();
        } else if !(self.warm && self.base.rows == rows) {
            // Not the candidate we just evaluated, and not the base
            // already: rebase outright — the kernel's cold path, with
            // only its error tally kept (a rebase answers no
            // candidate). Errors leave the session cold.
            let (_, st) = self.eval(rows, true);
            self.stats.fallback_error += st.fallback_error;
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
