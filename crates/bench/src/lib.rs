//! # mheta-bench — the experiment harness
//!
//! Shared plumbing for `bench_suite`, whose one deterministic document
//! holds every table and figure of the paper's evaluation (see
//! DESIGN.md's experiment index), and for `search_compare`: the
//! canonical spectrum sweep comparing MHETA predictions with simulated
//! actual times, min/avg/max aggregation, and a tiny flag parser.

#![warn(missing_docs)]
#![warn(clippy::all)]

use mheta_apps::{anchor_inputs, percent_difference, run_measured, Benchmark};
use mheta_core::{Mheta, PredictOptions};
use mheta_dist::SpectrumPath;
use mheta_sim::{ClusterSpec, SimError, SimResult};

/// One evaluated distribution along the canonical spectrum.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Canonical label ("Blk", "I-C", …).
    pub label: String,
    /// MHETA's predicted application time, seconds.
    pub pred_secs: f64,
    /// The simulator's actual application time, seconds.
    pub act_secs: f64,
}

impl SweepPoint {
    /// The paper's §5.2.1 accuracy metric for this point.
    #[must_use]
    pub fn percent_difference(&self) -> f64 {
        percent_difference(self.pred_secs, self.act_secs)
    }
}

/// Canonical x-axis labels for `steps_per_leg` samples per leg.
#[must_use]
pub fn canonical_labels(steps_per_leg: usize) -> Vec<(String, f64)> {
    let anchors = ["Blk", "I-C", "I-C/Bal", "Bal", "Blk"];
    let steps = steps_per_leg.max(1);
    let mut out = Vec::new();
    for leg in 0..4 {
        out.push((anchors[leg].to_string(), leg as f64 / 4.0));
        for s in 1..steps {
            let t = (leg as f64 + s as f64 / steps as f64) / 4.0;
            out.push((
                format!("{}>{} {s}/{steps}", anchors[leg], anchors[leg + 1]),
                t,
            ));
        }
    }
    out.push(("Blk".to_string(), 1.0));
    out
}

/// Reduced iteration counts (10/6/4/4 against §5.1's 100/10/5/10) that
/// keep experiment wall time sensible; predictions and actuals both
/// scale with the count, so the accuracy structure does not change.
#[must_use]
pub fn experiment_iters(bench: &Benchmark) -> u32 {
    match bench.name() {
        "Jacobi" => 10,
        "CG" => 6,
        _ => 4,
    }
}

/// `model`'s predicted application times at each canonical point,
/// under the ablation switches `opts`.
pub fn canonical_predictions(
    model: &Mheta,
    steps_per_leg: usize,
    iters: u32,
    opts: PredictOptions,
) -> SimResult<Vec<f64>> {
    let path = SpectrumPath::full(&anchor_inputs(model));
    canonical_labels(steps_per_leg)
        .iter()
        .map(|(_, frac)| {
            model
                .predict_with(path.at(*frac).rows(), opts)
                .map(|p| p.app_secs(iters))
                .map_err(|e| SimError::InvalidConfig(e.to_string()))
        })
        .collect()
}

/// Sweep the canonical spectrum with `model` (built for `bench` on
/// `spec`): predicted and actual times at each canonical point.
pub fn canonical_sweep(
    model: &Mheta,
    bench: &Benchmark,
    spec: &ClusterSpec,
    steps_per_leg: usize,
    iters: u32,
    prefetch: bool,
) -> SimResult<Vec<SweepPoint>> {
    let path = SpectrumPath::full(&anchor_inputs(model));
    let predicted = canonical_predictions(model, steps_per_leg, iters, PredictOptions::default())?;
    canonical_labels(steps_per_leg)
        .into_iter()
        .zip(predicted)
        .map(|((label, frac), pred_secs)| {
            let act_secs = run_measured(bench, spec, &path.at(frac), iters, prefetch)?.secs;
            Ok(SweepPoint {
                label,
                pred_secs,
                act_secs,
            })
        })
        .collect()
}

/// Min/avg/max summary of a set of values.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    /// Smallest value.
    pub min: f64,
    /// Mean value.
    pub avg: f64,
    /// Largest value.
    pub max: f64,
    /// Sample count.
    pub n: usize,
}

impl Stats {
    /// Summarize `values` (empty input yields zeros).
    #[must_use]
    pub fn of(values: &[f64]) -> Stats {
        if values.is_empty() {
            return Stats::default();
        }
        let min = values.iter().copied().fold(f64::MAX, f64::min);
        let max = values.iter().copied().fold(f64::MIN, f64::max);
        let avg = values.iter().sum::<f64>() / values.len() as f64;
        Stats {
            min,
            avg,
            max,
            n: values.len(),
        }
    }
}

/// Tiny flag parser: `--name value` pairs.
#[derive(Debug, Default)]
pub struct Flags {
    args: Vec<String>,
}

impl Flags {
    /// Capture the process arguments (skipping `argv[0]`).
    #[must_use]
    pub fn from_env() -> Flags {
        Flags {
            args: std::env::args().skip(1).collect(),
        }
    }

    /// Build from an explicit list (tests).
    #[must_use]
    pub fn from_vec(args: Vec<String>) -> Flags {
        Flags { args }
    }

    /// The value following `--name`, if any.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<&str> {
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    /// Parsed numeric value of `--name`, or `default`.
    #[must_use]
    pub fn usize_or(&self, name: &str, default: usize) -> usize {
        self.value(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

/// The apps selected by `--apps jacobi,cg,...` (default: the paper's
/// four).
#[must_use]
pub fn select_apps(flags: &Flags) -> Vec<Benchmark> {
    let all = Benchmark::paper_four();
    match flags.value("--apps") {
        None => all,
        Some(list) => {
            let wanted: Vec<String> = list.split(',').map(str::to_lowercase).collect();
            all.into_iter()
                .filter(|b| wanted.iter().any(|w| w == &b.name().to_lowercase()))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_labels_cover_the_loop() {
        let labels = canonical_labels(3);
        assert_eq!(labels.len(), 13);
        assert_eq!(labels[0].0, "Blk");
        assert_eq!(labels[3].0, "I-C");
        assert_eq!(labels[12].0, "Blk");
        assert_eq!(labels[12].1, 1.0);
        for w in labels.windows(2) {
            assert!(w[0].1 < w[1].1);
        }
    }

    #[test]
    fn stats_of_values() {
        let s = Stats::of(&[1.0, 2.0, 6.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 6.0);
        assert!((s.avg - 3.0).abs() < 1e-12);
        assert_eq!(s.n, 3);
        assert_eq!(Stats::of(&[]).n, 0);
    }

    #[test]
    fn flags_parse() {
        let f = Flags::from_vec(vec!["--budget".into(), "5".into(), "--apps".into()]);
        assert_eq!(f.value("--budget"), Some("5"));
        assert_eq!(f.value("--apps"), None);
        assert_eq!(f.usize_or("--budget", 3), 5);
        assert_eq!(f.usize_or("--missing", 7), 7);
    }

    #[test]
    fn app_selection_filters() {
        let f = Flags::from_vec(vec!["--apps".into(), "cg,rna".into()]);
        let apps = select_apps(&f);
        assert_eq!(apps.len(), 2);
        assert!(apps.iter().any(|b| b.name() == "CG"));
        assert!(apps.iter().any(|b| b.name() == "RNA"));
    }

    #[test]
    fn sweep_on_tiny_cluster_produces_consistent_points() {
        use mheta_apps::Jacobi;
        let mut spec = mheta_sim::ClusterSpec::homogeneous(2);
        spec.noise.amplitude = 0.0;
        let bench = Benchmark::Jacobi(Jacobi::small());
        let model = mheta_apps::build_model(&bench, &spec, false).unwrap();
        let pts = canonical_sweep(&model, &bench, &spec, 1, 2, false).unwrap();
        assert_eq!(pts.len(), 5);
        for p in &pts {
            assert!(p.pred_secs > 0.0 && p.act_secs > 0.0);
            assert!(
                p.percent_difference() < 15.0,
                "{}: {}",
                p.label,
                p.percent_difference()
            );
        }
    }
}
