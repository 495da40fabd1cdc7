//! # mheta-bench — the experiment harness
//!
//! Shared plumbing for the binaries that regenerate every table and
//! figure of the paper's evaluation (see DESIGN.md's experiment index):
//! canonical spectrum sweeps comparing MHETA predictions with simulated
//! actual times, aggregation across emulated architectures, and plain
//! text rendering of the paper's tables and line plots.

#![warn(missing_docs)]
#![warn(clippy::all)]

use mheta_apps::{anchor_inputs, build_model, percent_difference, run_measured, Benchmark};
use mheta_dist::SpectrumPath;
use mheta_sim::{ClusterSpec, SimResult};

/// One evaluated distribution along the canonical spectrum.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Canonical label ("Blk", "I-C", …).
    pub label: String,
    /// Position in `[0, 1]` on the canonical four-leg axis.
    pub frac: f64,
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

/// Reduced iteration counts that keep experiment wall time sensible;
/// `paper` selects the counts of §5.1 (100/10/5/10).
#[must_use]
pub fn experiment_iters(bench: &Benchmark, paper: bool) -> u32 {
    if paper {
        bench.paper_iters()
    } else {
        match bench.name() {
            "Jacobi" => 10,
            "CG" => 6,
            _ => 4,
        }
    }
}

/// Build the model for `bench` on `spec`, then sweep the canonical
/// spectrum: predicted and actual times at each canonical point.
pub fn canonical_sweep(
    bench: &Benchmark,
    spec: &ClusterSpec,
    steps_per_leg: usize,
    iters: u32,
    prefetch: bool,
) -> SimResult<Vec<SweepPoint>> {
    let model = build_model(bench, spec, prefetch)?;
    let inp = anchor_inputs(&model);
    let path = SpectrumPath::full(&inp);
    let mut out = Vec::new();
    for (label, frac) in canonical_labels(steps_per_leg) {
        let dist = path.at(frac);
        let pred_secs = model
            .predict(dist.rows())
            .map_err(|e| mheta_sim::SimError::InvalidConfig(e.to_string()))?
            .app_secs(iters);
        let act_secs = run_measured(bench, spec, &dist, iters, prefetch)?.secs;
        out.push(SweepPoint {
            label,
            frac,
            pred_secs,
            act_secs,
        });
    }
    Ok(out)
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

/// Render a labeled horizontal bar (for the plain text "figures").
#[must_use]
pub fn bar(value: f64, scale_max: f64, width: usize) -> String {
    if scale_max <= 0.0 {
        return String::new();
    }
    let filled = ((value / scale_max) * width as f64).round() as usize;
    "#".repeat(filled.min(width))
}

/// Tiny flag parser: `--name value` and boolean `--name` switches.
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

    /// True when `--name` is present.
    #[must_use]
    pub fn has(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
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

/// Rendering of the Figure 10 / Figure 11 predicted-vs-actual series.
pub mod figures {
    use super::{bar, canonical_sweep, experiment_iters, select_apps, Flags};

    /// Run the predicted-vs-actual sweep for each configuration and
    /// render the two-line plain text series (Figures 10 and 11).
    pub fn run_configs(
        configs: &[mheta_sim::ClusterSpec],
        flags: &Flags,
        steps: usize,
        paper_iters: bool,
    ) {
        for spec in configs {
            println!("\n=== Configuration {} ===", spec.name);
            for bench in select_apps(flags) {
                let iters = experiment_iters(&bench, paper_iters);
                let points = canonical_sweep(&bench, spec, steps, iters, false)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", bench.name(), spec.name));
                let max_t = points
                    .iter()
                    .flat_map(|p| [p.pred_secs, p.act_secs])
                    .fold(0.0f64, f64::max);
                let best_pred = points
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.pred_secs.total_cmp(&b.1.pred_secs))
                    .map(|(i, _)| i)
                    .expect("points nonempty");
                let best_act = points
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.act_secs.total_cmp(&b.1.act_secs))
                    .map(|(i, _)| i)
                    .expect("points nonempty");

                println!(
                    "\n{} on {} ({} iterations): predicted (P) vs actual (A), seconds",
                    bench.name(),
                    spec.name,
                    iters
                );
                for (i, p) in points.iter().enumerate() {
                    let mark = match (i == best_pred, i == best_act) {
                        (true, true) => " (BEST)",
                        (true, false) => " [P-best]",
                        (false, true) => " [A-best]",
                        _ => "",
                    };
                    println!(
                        "  {:<16} P {:>7.2}s |{:<30}|{}",
                        p.label,
                        p.pred_secs,
                        bar(p.pred_secs, max_t, 30),
                        mark
                    );
                    println!(
                        "  {:<16} A {:>7.2}s |{:<30}| diff {:.1}%",
                        "",
                        p.act_secs,
                        bar(p.act_secs, max_t, 30),
                        p.percent_difference()
                    );
                }
                if best_pred == best_act {
                    println!("  model picks the true best distribution (solid circle)");
                } else {
                    println!(
                        "  model best '{}' vs actual best '{}' (dashed circle: actual at model's pick {:.2}s vs true best {:.2}s)",
                        points[best_pred].label,
                        points[best_act].label,
                        points[best_pred].act_secs,
                        points[best_act].act_secs
                    );
                }
            }
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
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(20.0, 10.0, 10), "##########");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }

    #[test]
    fn flags_parse() {
        let f = Flags::from_vec(vec!["--steps".into(), "5".into(), "--prefetch".into()]);
        assert!(f.has("--prefetch"));
        assert!(!f.has("--paper-iters"));
        assert_eq!(f.usize_or("--steps", 3), 5);
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
        let pts = canonical_sweep(&bench, &spec, 1, 2, false).unwrap();
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
