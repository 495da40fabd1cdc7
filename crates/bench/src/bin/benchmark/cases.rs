//! The application × cluster grid every workload rotates over.

use mheta_apps::{build_model, Benchmark};
use mheta_core::Mheta;
use mheta_dist::GenBlock;
use mheta_serve::{benchmark_by_name, cluster_by_name};
use mheta_sim::ClusterSpec;

pub const APPS: [&str; 4] = ["jacobi", "cg", "rna", "lanczos"];
pub const ARCHS: [&str; 4] = ["DC", "IO", "HY1", "HY2"];
/// `APPS × ARCHS`.
pub const GRID: usize = 16;

/// `(app, arch)` of rotation slot `i`: clusters vary fastest.
pub fn app_arch(i: usize) -> (&'static str, &'static str) {
    (APPS[i / ARCHS.len() % APPS.len()], ARCHS[i % ARCHS.len()])
}

/// One paper-size application on one cluster, with its model built.
pub struct Case {
    /// Golden-key label, `app@arch` or `app+prefetch@arch`.
    pub label: String,
    pub app: &'static str,
    pub bench: Benchmark,
    pub spec: ClusterSpec,
    pub prefetch: bool,
    /// The Block distribution.
    pub blk: GenBlock,
    pub model: Mheta,
}

impl Case {
    pub fn build(app: &'static str, arch: &'static str, prefetch: bool) -> Case {
        let bench = benchmark_by_name(app, "default").expect("a known application");
        let spec = cluster_by_name(arch).expect("a known cluster preset");
        let model = build_model(&bench, &spec, prefetch).expect("the model builds");
        Case {
            label: format!("{app}{}@{arch}", if prefetch { "+prefetch" } else { "" }),
            app,
            blk: GenBlock::block(bench.total_rows(), spec.len()),
            bench,
            spec,
            prefetch,
            model,
        }
    }

    /// The 16 paper-size models, in rotation order.
    pub fn grid() -> Vec<Case> {
        (0..GRID)
            .map(|i| {
                let (app, arch) = app_arch(i);
                Case::build(app, arch, false)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_covers_every_app_on_every_arch_once_per_sixteen() {
        let mut seen: Vec<_> = (0..GRID).map(app_arch).collect();
        assert_eq!(seen[0], ("jacobi", "DC"));
        assert_eq!(seen[5], ("cg", "IO"));
        assert_eq!(app_arch(GRID), app_arch(0));
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), GRID);
    }
}
