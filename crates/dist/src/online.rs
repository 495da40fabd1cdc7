//! Online GEN_BLOCK re-search: incremental re-optimization during a
//! run.
//!
//! MHETA's headline property is that evaluating a candidate
//! distribution costs milliseconds, which makes re-running the search
//! *while the application executes* affordable. This module supplies
//! the policy half of that loop: given the failure detector's current
//! slowdown estimates (observed-vs-predicted drift), decide whether a
//! replan is worth attempting, run a **budget-capped** incremental
//! search **warm-started from the current distribution**, and decide
//! whether the predicted gain justifies paying the redistribution
//! cost.
//!
//! The search itself is deliberately simple — seed with the
//! effective-weight apportionment, then greedy load-levelling moves —
//! because the evaluation function already encodes the hard part (the
//! model), and mid-run replans must be cheap and deterministic: every
//! rank runs the same replan on the same inputs and must commit to the
//! same distribution without communicating.

use crate::genblock::GenBlock;
use crate::search::move_rows;

/// Minimum observed slowdown ratio (member sample over healthy
/// baseline) before a replan is considered at all.
pub const DRIFT_THRESHOLD: f64 = 1.25;
/// Hard cap on evaluation-function calls per replan.
pub const EVAL_BUDGET: u32 = 64;
/// Minimum predicted makespan improvement, as a fraction of the current
/// prediction, required to commit a replan (the hysteresis that
/// prevents rebalance oscillation).
pub const MIN_GAIN: f64 = 0.03;
/// Minimum iterations between replan *attempts*. An attempt restarts
/// the cooldown even when it commits nothing, so a one-off detector
/// transition (a rejoin) that lands inside it is never acted on.
pub const COOLDOWN_ITERS: u32 = 3;

/// Outcome of one budget-capped incremental re-search.
#[derive(Debug, Clone, PartialEq)]
pub struct Replan {
    /// Best distribution found (row counts per member).
    pub rows: Vec<usize>,
    /// Evaluation-function calls actually spent.
    pub evals: u32,
    /// Predicted per-iteration cost of the *current* distribution, ns.
    pub current_ns: f64,
    /// Predicted per-iteration cost of `rows`, ns.
    pub best_ns: f64,
}

impl Replan {
    /// Predicted fractional improvement over the current distribution.
    #[must_use]
    pub fn gain(&self) -> f64 {
        if self.current_ns <= 0.0 {
            return 0.0;
        }
        (self.current_ns - self.best_ns) / self.current_ns
    }

    /// True when the replan predicts at least [`MIN_GAIN`] improvement
    /// — enough to be worth the redistribution traffic.
    #[must_use]
    pub fn commits(&self) -> bool {
        self.gain() >= MIN_GAIN && self.rows.iter().sum::<usize>() > 0
    }
}

/// Incremental re-search capped at [`EVAL_BUDGET`] evaluations,
/// warm-started from `current`. `weights` are the members' *effective*
/// compute weights (healthy weight divided by the detector's slowdown
/// estimate); `eval` predicts the per-iteration cost of a candidate in
/// ns. Fully deterministic: candidates are generated in a fixed order
/// and ties keep the incumbent.
///
/// The search seeds with the effective-weight apportionment — on a
/// well-calibrated model that single candidate is already near the
/// oracle — then levels residual imbalance with greedy row moves from
/// the most-loaded to the least-loaded member until the budget runs
/// out or no move helps.
pub fn replan(current: &[usize], weights: &[f64], eval: &mut dyn FnMut(&[usize]) -> f64) -> Replan {
    let n = current.len();
    assert_eq!(n, weights.len(), "one weight per member");
    let total: usize = current.iter().sum();
    let mut evals = 0u32;
    let mut eval_counted = |rows: &[usize], evals: &mut u32| {
        *evals += 1;
        eval(rows)
    };

    let current_ns = eval_counted(current, &mut evals);
    let mut best: Vec<usize> = current.to_vec();
    let mut best_ns = current_ns;

    // Seed candidate: apportion by effective weights (requires at
    // least one row per member, so it only applies when feasible; the
    // budget always covers it).
    if total >= n && weights.iter().any(|&w| w > 0.0) {
        let seeded = GenBlock::apportion(total, weights).rows().to_vec();
        let ns = eval_counted(&seeded, &mut evals);
        if ns < best_ns {
            best_ns = ns;
            best = seeded;
        }
    }

    // Greedy levelling: move `step` rows from the member with the
    // highest load per weight to the one with the lowest; shrink the
    // step when a move stops helping.
    let mut step = (total / (4 * n.max(1))).max(1);
    while evals < EVAL_BUDGET && step >= 1 {
        let load = |rows: &[usize], i: usize| {
            if weights[i] > 0.0 {
                rows[i] as f64 / weights[i]
            } else {
                f64::INFINITY
            }
        };
        let donor = (0..n)
            .filter(|&i| best[i] > 1)
            .max_by(|&a, &b| load(&best, a).total_cmp(&load(&best, b)))
            .unwrap_or(0);
        let recipient = (0..n)
            .min_by(|&a, &b| load(&best, a).total_cmp(&load(&best, b)))
            .unwrap_or(0);
        let mut candidate = best.clone();
        if !move_rows(&mut candidate, donor, recipient, step) {
            step /= 2;
            continue;
        }
        let ns = eval_counted(&candidate, &mut evals);
        if ns < best_ns {
            best_ns = ns;
            best = candidate;
        } else {
            step /= 2;
        }
    }

    Replan {
        rows: best,
        evals,
        current_ns,
        best_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cost model for tests: makespan of a perfectly parallel iteration,
    /// max over members of rows / weight.
    fn makespan(weights: &[f64]) -> impl Fn(&[usize]) -> f64 + '_ {
        move |rows: &[usize]| {
            rows.iter()
                .zip(weights)
                .map(|(&r, &w)| if w > 0.0 { r as f64 / w } else { f64::INFINITY })
                .fold(0.0, f64::max)
                * 1e6
        }
    }

    #[test]
    fn replan_moves_work_off_the_slow_member() {
        // Uniform current split, but member 2 is 4x degraded.
        let current = vec![100, 100, 100, 100];
        let weights = vec![1.0, 1.0, 0.25, 1.0];
        let f = makespan(&weights);
        let mut eval = |rows: &[usize]| f(rows);
        let replan = replan(&current, &weights, &mut eval);
        assert!(replan.evals <= EVAL_BUDGET);
        assert_eq!(replan.rows.iter().sum::<usize>(), 400);
        assert!(
            replan.rows[2] < 50,
            "slow member must shed rows: {:?}",
            replan.rows
        );
        assert!(replan.gain() > 0.4, "gain {}", replan.gain());
        assert!(replan.commits());
    }

    #[test]
    fn replan_on_balanced_load_predicts_no_gain() {
        let weights = vec![1.0, 1.0, 1.0, 1.0];
        let current = vec![100, 100, 100, 100];
        let f = makespan(&weights);
        let mut eval = |rows: &[usize]| f(rows);
        let replan = replan(&current, &weights, &mut eval);
        assert!(replan.gain() < MIN_GAIN, "gain {}", replan.gain());
        assert!(!replan.commits());
    }

    /// 100 rows all on member 0 of 128: too few rows for the seed
    /// candidate, and every one-row move off member 0 helps, so only the
    /// budget stops the levelling (uncapped it would spend 100).
    #[test]
    fn replan_respects_eval_budget() {
        let weights = vec![1.0; 128];
        let mut current = vec![0; 128];
        current[0] = 100;
        let mut calls = 0u32;
        let f = makespan(&weights);
        let mut eval = |rows: &[usize]| {
            calls += 1;
            f(rows)
        };
        let replan = replan(&current, &weights, &mut eval);
        assert_eq!(calls, replan.evals);
        assert_eq!(calls, EVAL_BUDGET, "the budget must bind");
        assert_eq!(replan.rows[0], 100 - (EVAL_BUDGET as usize - 1));
    }

    #[test]
    fn replan_is_deterministic() {
        let weights = vec![1.0, 0.3, 1.75, 0.5];
        let current = vec![64, 64, 64, 64];
        let run = || {
            let f = makespan(&weights);
            let mut eval = |rows: &[usize]| f(rows);
            replan(&current, &weights, &mut eval)
        };
        assert_eq!(run(), run());
    }

    /// The drift gate (`drift >= DRIFT_THRESHOLD`) sits at the caller;
    /// what a replan itself must clear is the hysteresis.
    #[test]
    fn drift_gate_and_hysteresis() {
        let gained = |best_ns: f64| Replan {
            rows: vec![10, 10],
            evals: 1,
            current_ns: 100.0,
            best_ns,
        };
        assert!(!gained(99.0).commits(), "1% gain is under hysteresis");
        assert!(gained(95.0).commits(), "5% gain clears it");
        let empty = Replan {
            rows: vec![0, 0],
            ..gained(50.0)
        };
        assert!(!empty.commits(), "no rows, nothing to commit");
    }
}
