//! Generalized Binary Search over the distribution spectrum.
//!
//! GBS exploits the structure of the problem: the interesting
//! distributions lie on the one-dimensional path through the Figure 8
//! anchors, and execution time along that path is close to unimodal
//! per leg (it trades load balance against I/O monotonically). GBS
//! first scores every anchor, then runs a bracketing binary search
//! (golden-section refinement) inside the legs adjacent to the best
//! anchor.

use crate::fitness::{CountingEvaluator, Evaluator, SearchCtl};
use crate::search::{outcome, History, SearchOutcome};
use crate::spectrum::SpectrumPath;

/// Tuning for [`gbs_search`].
#[derive(Debug, Clone)]
pub struct GbsConfig {
    /// Maximum evaluator calls.
    pub max_evals: usize,
    /// Stop when the bracket is narrower than this fraction of a leg.
    pub tolerance: f64,
}

impl Default for GbsConfig {
    fn default() -> Self {
        GbsConfig {
            max_evals: 64,
            tolerance: 0.02,
        }
    }
}

/// Run GBS along `path` with `eval` as the fitness function.
pub fn gbs_search<E: Evaluator + ?Sized>(
    path: &SpectrumPath,
    eval: &E,
    cfg: GbsConfig,
) -> SearchOutcome {
    run(path, eval, &cfg, None)
}

/// [`gbs_search`], publishing every evaluation to the portfolio's
/// control block when one is running it.
pub(crate) fn run<E: Evaluator + ?Sized>(
    path: &SpectrumPath,
    eval: &E,
    cfg: &GbsConfig,
    ctl: Option<&SearchCtl>,
) -> SearchOutcome {
    let counter = CountingEvaluator::new(eval, ctl);
    let mut history = History::new();
    let legs = path.legs().max(1) as f64;

    struct Best {
        t: f64,
        score: f64,
    }
    let mut best = Best {
        t: 0.0,
        score: f64::INFINITY,
    };
    fn consider(
        path: &SpectrumPath,
        counter: &CountingEvaluator<'_>,
        history: &mut History,
        best: &mut Best,
        t: f64,
    ) -> f64 {
        let g = path.at(t);
        let s = counter.eval_ns(g.rows());
        history.observe(counter, s);
        // Rebase the delta session on every probe: neighboring
        // spectrum points differ in only a few boundary rows, so the
        // next probe reuses most of this one's leaves. Promotion is
        // free — the probe's fresh leaves are already pending. (A
        // failed eval poisons the session; don't rebase on it.)
        if s.is_finite() {
            counter.note_accept(g.rows());
        }
        if s < best.score {
            best.score = s;
            best.t = t;
        }
        s
    }

    // Score every anchor first.
    for i in 0..=path.legs() {
        if counter.count() >= cfg.max_evals || counter.cancelled() {
            break;
        }
        consider(path, &counter, &mut history, &mut best, i as f64 / legs);
    }

    // Refine around the best anchor with golden-section search on the
    // bracket formed by its neighbors.
    let lo = (best.t - 1.0 / legs).max(0.0);
    let hi = (best.t + 1.0 / legs).min(1.0);
    let phi = 0.618_033_988_749_894_9_f64;
    let (mut a, mut b) = (lo, hi);
    let mut c = b - phi * (b - a);
    let mut d = a + phi * (b - a);
    let mut fc = consider(path, &counter, &mut history, &mut best, c);
    let mut fd = consider(path, &counter, &mut history, &mut best, d);
    while (b - a) > cfg.tolerance / legs && counter.count() < cfg.max_evals && !counter.cancelled()
    {
        if fc <= fd {
            b = d;
            d = c;
            fd = fc;
            c = b - phi * (b - a);
            fc = consider(path, &counter, &mut history, &mut best, c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + phi * (b - a);
            fd = consider(path, &counter, &mut history, &mut best, d);
        }
    }

    outcome(&counter, history, path.at(best.t), best.score)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anchors::AnchorInputs;

    fn path() -> SpectrumPath {
        SpectrumPath::new(&AnchorInputs {
            total_rows: 256,
            ns_per_row: vec![1.0, 2.0, 1.0, 0.5],
            capacity_rows: vec![32, 128, 128, 128],
        })
    }

    #[test]
    fn finds_minimum_of_synthetic_landscape() {
        let p = path();
        // Fitness: squared distance to the distribution at t = 0.5.
        let target = p.at(0.5);
        let f = move |rows: &[usize]| -> f64 {
            rows.iter()
                .zip(target.rows())
                .map(|(&a, &b)| {
                    let d = a as f64 - b as f64;
                    d * d
                })
                .sum()
        };
        let out = gbs_search(&p, &f, GbsConfig::default());
        assert!(out.score_ns <= 8.0, "score {}", out.score_ns);
        assert!(out.evaluations <= 64);
    }

    #[test]
    fn respects_eval_budget() {
        let p = path();
        let f = |_: &[usize]| 1.0;
        let out = gbs_search(
            &p,
            &f,
            GbsConfig {
                max_evals: 7,
                tolerance: 1e-6,
            },
        );
        assert!(out.evaluations <= 9, "evals {}", out.evaluations);
    }

    #[test]
    fn anchor_minimum_is_found_exactly() {
        let p = path();
        // Fitness minimized exactly at the Bal anchor (t = 0.75).
        let bal = p.anchors()[3].1.clone();
        let f = move |rows: &[usize]| -> f64 {
            if rows == bal.rows() {
                0.0
            } else {
                100.0
            }
        };
        let out = gbs_search(&p, &f, GbsConfig::default());
        assert_eq!(out.score_ns, 0.0);
    }

    #[test]
    fn survives_failing_evaluations() {
        use crate::fitness::{EvalError, FallibleFn};
        use std::cell::Cell;

        let p = path();
        let target = p.at(0.5);
        let calls = Cell::new(0usize);
        let f = FallibleFn(|rows: &[usize]| {
            calls.set(calls.get() + 1);
            if calls.get().is_multiple_of(3) {
                return Err(EvalError("injected".into()));
            }
            Ok(rows
                .iter()
                .zip(target.rows())
                .map(|(&a, &b)| {
                    let d = a as f64 - b as f64;
                    d * d
                })
                .sum())
        });
        let out = gbs_search(&p, &f, GbsConfig::default());
        assert!(out.failed_evals > 0);
        assert!(out.score_ns.is_finite());
        assert_eq!(out.last_failure.unwrap().0, "injected");
    }
}
