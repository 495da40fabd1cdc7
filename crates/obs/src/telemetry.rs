//! Search telemetry export.
//!
//! The four distribution searches in `mheta-dist` record a convergence
//! curve (one [`IterPoint`] per evaluator call) alongside their
//! failure tallies. This module renders those curves as JSON (for
//! programmatic consumption) and CSV (for plotting), in the shape the
//! search-comparison paper \[26\] reports: best-so-far and running-mean
//! fitness against evaluations spent.
//!
//! [`IterPoint`]: mheta_dist::IterPoint

use std::fmt::Write as _;

use crate::json::{Serialize, Value};
use crate::metrics::Histogram;
use mheta_dist::{DeltaStats, SearchOutcome};

/// A latency histogram as a JSON value: count, mean, and the
/// p50/p95/p99 quantiles, in ns.
#[must_use]
pub fn latency_value(h: &Histogram) -> Value {
    Value::object(vec![
        ("count", Value::UInt(h.count)),
        ("mean_ns", Value::Float(h.mean_ns())),
        ("p50_ns", Value::UInt(h.p50_ns())),
        ("p95_ns", Value::UInt(h.p95_ns())),
        ("p99_ns", Value::UInt(h.p99_ns())),
        ("max_ns", Value::UInt(h.max_ns)),
    ])
}

/// Incremental-evaluation tallies as a JSON value: the
/// `delta_hits / full_evals / terms_reused / fallback_*` counters a
/// delta session accumulated, plus the derived hit rate. All zero when
/// the evaluator has no incremental support.
#[must_use]
pub fn delta_value(d: &DeltaStats) -> Value {
    Value::object(vec![
        ("delta_hits", Value::UInt(d.delta_hits)),
        ("full_evals", Value::UInt(d.full_evals)),
        ("terms_reused", Value::UInt(d.terms_reused)),
        ("fallback_cold", Value::UInt(d.fallback_cold)),
        ("fallback_shape", Value::UInt(d.fallback_shape)),
        ("fallback_all_dirty", Value::UInt(d.fallback_all_dirty)),
        ("fallback_error", Value::UInt(d.fallback_error)),
        ("hit_rate", Value::Float(d.hit_rate())),
    ])
}

/// One search's outcome as a JSON value: best distribution, score,
/// evaluation and failure tallies, delta-evaluation tallies, and the
/// full convergence curve — a pure function of the search's inputs, so
/// two runs render byte-identical documents.
#[must_use]
pub fn search_value(name: &str, out: &SearchOutcome) -> Value {
    Value::object(vec![
        ("search", Value::Str(name.to_string())),
        (
            "best_rows",
            Value::Array(
                out.best
                    .rows()
                    .iter()
                    .map(|&r| Value::UInt(r as u64))
                    .collect(),
            ),
        ),
        ("score_ns", Value::Float(out.score_ns)),
        ("evaluations", Value::UInt(out.evaluations as u64)),
        ("failed_evals", Value::UInt(out.failed_evals as u64)),
        (
            "last_failure",
            match &out.last_failure {
                Some(e) => Value::Str(e.to_string()),
                None => Value::Null,
            },
        ),
        ("delta", delta_value(&out.delta)),
        ("history", out.history.to_value()),
    ])
}

/// A set of named search outcomes as one JSON document:
/// `{"searches": [...]}` with one [`search_value`] entry each.
#[must_use]
pub fn searches_value(runs: &[(&str, &SearchOutcome)]) -> Value {
    Value::object(vec![(
        "searches",
        Value::Array(
            runs.iter()
                .map(|(name, out)| search_value(name, out))
                .collect(),
        ),
    )])
}

/// [`searches_value`] rendered as indented JSON.
#[must_use]
pub fn searches_json(runs: &[(&str, &SearchOutcome)]) -> String {
    searches_value(runs).to_json_pretty()
}

/// Convergence curves as long-format CSV, one row per evaluation:
/// `search,evals,best_ns,mean_ns,failed`. Non-finite fitness
/// values (the pre-first-success `INFINITY` sentinel) render as `inf`.
#[must_use]
pub fn convergence_csv(runs: &[(&str, &SearchOutcome)]) -> String {
    let mut out = String::from("search,evals,best_ns,mean_ns,failed\n");
    for (name, run) in runs {
        for p in &run.history {
            let _ = writeln!(
                out,
                "{},{},{},{},{}",
                name,
                p.evals,
                csv_f64(p.best_ns),
                csv_f64(p.mean_ns),
                p.failed,
            );
        }
    }
    out
}

fn csv_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "inf".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mheta_dist::{random_search, RandomConfig};

    fn outcome() -> SearchOutcome {
        let f = |rows: &[usize]| rows[0] as f64;
        random_search(64, 4, &f, RandomConfig::default())
    }

    #[test]
    fn search_value_includes_curve_and_tallies() {
        let out = outcome();
        let v = search_value("random", &out);
        assert_eq!(v.get("search").unwrap().as_str(), Some("random"));
        let hist = v.get("history").unwrap().as_array().unwrap();
        assert_eq!(hist.len(), out.evaluations);
        let last = hist.last().unwrap();
        assert_eq!(last.get("best_ns").unwrap().as_f64(), Some(out.score_ns));
        assert_eq!(
            v.get("best_rows").unwrap().as_array().unwrap().len(),
            out.best.len()
        );
        assert_eq!(v.get("last_failure"), Some(&Value::Null));
    }

    #[test]
    fn csv_has_header_and_one_row_per_eval() {
        let out = outcome();
        let csv = convergence_csv(&[("random", &out)]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "search,evals,best_ns,mean_ns,failed");
        assert_eq!(lines.len(), 1 + out.evaluations);
        assert!(lines[1].starts_with("random,1,"));
    }

    #[test]
    fn json_is_deterministic() {
        let (a, b) = (outcome(), outcome());
        assert_eq!(
            searches_json(&[("random", &a)]),
            searches_json(&[("random", &b)]),
            "seeded searches export identically"
        );
    }

    #[test]
    fn latency_block_reports_percentiles() {
        let mut h = Histogram::default();
        for ns in [3, 40, 500, 6_000, 70_000] {
            h.record(ns);
        }
        let lat = latency_value(&h);
        assert_eq!(lat.get("count").unwrap().as_u64(), Some(5));
        let p50 = lat.get("p50_ns").unwrap().as_u64().unwrap();
        let p95 = lat.get("p95_ns").unwrap().as_u64().unwrap();
        let p99 = lat.get("p99_ns").unwrap().as_u64().unwrap();
        assert!(p50 <= p95 && p95 <= p99, "quantiles are ordered");
        assert_eq!(lat.get("max_ns").unwrap().as_u64(), Some(70_000));
        assert!(lat.get("mean_ns").unwrap().as_f64().is_some());
    }

    #[test]
    fn delta_block_reports_counters_and_hit_rate() {
        let d = DeltaStats {
            delta_hits: 6,
            full_evals: 2,
            terms_reused: 48,
            fallback_cold: 1,
            fallback_all_dirty: 1,
            ..DeltaStats::default()
        };
        let v = delta_value(&d);
        assert_eq!(v.get("delta_hits").unwrap().as_u64(), Some(6));
        assert_eq!(v.get("full_evals").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("terms_reused").unwrap().as_u64(), Some(48));
        assert_eq!(v.get("fallback_cold").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("hit_rate").unwrap().as_f64(), Some(0.75));

        // A closure evaluator has no incremental support: its delta
        // block must be present and all-zero.
        let out = outcome();
        let sv = search_value("random", &out);
        let dv = sv.get("delta").unwrap();
        assert_eq!(dv.get("delta_hits").unwrap().as_u64(), Some(0));
        assert_eq!(dv.get("full_evals").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn non_finite_fitness_renders_as_inf() {
        assert_eq!(csv_f64(f64::INFINITY), "inf");
        assert_eq!(csv_f64(2.5), "2.5");
    }
}
