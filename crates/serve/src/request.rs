//! Planning requests and their canonical cache key.
//!
//! The cache key is a **canonical stable content hash**: the fields of
//! the request itself — cluster configuration, application, prefetch
//! flag and search parameters — are rendered to canonical compact JSON
//! (struct declaration order, via the workspace serializer) and hashed
//! with 64-bit FNV-1a. Nothing derived from them is rendered: the
//! program structure is a pure function of the application and the
//! prefetch flag, so a key over those is at least as fine as one over
//! the structure. Two requests collide in the cache only if that
//! canonical rendering is byte-identical, which the cache verifies
//! besides the hash, so equal keys really mean equal requests.

use mheta_apps::{Benchmark, Cg, Jacobi, Lanczos, Multigrid, Rna};
use mheta_dist::PortfolioConfig;
use mheta_obs::json::{Serialize, Value};
use mheta_sim::ClusterSpec;

/// Portfolio-search parameters of a planning request: the budget and
/// the seed, everything that affects the result and nothing that does
/// not. The canonical hash covers exactly these, and a plan is a pure
/// function of them, so the cache stores what a recomputation would
/// produce.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SearchParams {
    /// Evaluation budget granted to each of the four strategies.
    pub max_evals_per_strategy: usize,
    /// Base RNG seed for the stochastic strategies.
    pub seed: u64,
}

impl Default for SearchParams {
    fn default() -> Self {
        let p = PortfolioConfig::default();
        SearchParams {
            max_evals_per_strategy: p.max_evals_per_strategy,
            seed: p.seed,
        }
    }
}

impl SearchParams {
    /// The equivalent portfolio configuration. The deadline is not a
    /// search *parameter* — it is per-request operational state (see
    /// [`crate::planner::Planner::plan_opts`]) and deliberately absent
    /// from both this struct and the canonical cache key.
    #[must_use]
    pub fn to_portfolio(&self) -> PortfolioConfig {
        PortfolioConfig {
            max_evals_per_strategy: self.max_evals_per_strategy,
            seed: self.seed,
            deadline: None,
        }
    }
}

/// "Plan this app on this cluster": one planning request.
#[derive(Debug, Clone)]
pub struct PlanRequest {
    /// The application to distribute.
    pub bench: Benchmark,
    /// Whether the prefetching program variant is modeled (Jacobi).
    pub prefetch: bool,
    /// The cluster to plan for.
    pub spec: ClusterSpec,
    /// Portfolio-search parameters.
    pub search: SearchParams,
}

impl PlanRequest {
    /// A request with default search parameters.
    #[must_use]
    pub fn new(bench: Benchmark, spec: ClusterSpec) -> Self {
        PlanRequest {
            bench,
            prefetch: false,
            spec,
            search: SearchParams::default(),
        }
    }

    /// Short human-readable label for logs and trace tracks, e.g.
    /// `"Jacobi@DC"`.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}@{}", self.bench.name(), self.spec.name)
    }

    /// The canonical JSON value the cache key hashes: cluster config,
    /// application, prefetch flag and search parameters, in that fixed
    /// order. Field order inside each section is struct declaration
    /// order (the workspace serializer preserves it), so the rendering
    /// is a stable, total function of the request's semantic content.
    #[must_use]
    pub fn canonical_value(&self) -> Value {
        Value::object(vec![
            ("cluster", self.spec.to_value()),
            ("bench", self.bench.to_value()),
            ("prefetch", Value::Bool(self.prefetch)),
            ("search", self.search.to_value()),
        ])
    }

    /// The canonical compact-JSON rendering (the hash input).
    #[must_use]
    pub fn canonical_json(&self) -> String {
        self.canonical_value().to_json()
    }

    /// The canonical stable content hash: 64-bit FNV-1a over
    /// [`PlanRequest::canonical_json`].
    #[must_use]
    pub fn key(&self) -> u64 {
        fnv1a64(self.canonical_json().as_bytes())
    }
}

/// 64-bit FNV-1a.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Look up a benchmark by wire name (case-insensitive) and size
/// (`"small"` or `"default"`/`"paper"`).
#[must_use]
pub fn benchmark_by_name(name: &str, size: &str) -> Option<Benchmark> {
    let small = match size.to_ascii_lowercase().as_str() {
        "small" => true,
        "default" | "paper" => false,
        _ => return None,
    };
    Some(match name.to_ascii_lowercase().as_str() {
        "jacobi" => Benchmark::Jacobi(if small {
            Jacobi::small()
        } else {
            Jacobi::default()
        }),
        "cg" => Benchmark::Cg(if small { Cg::small() } else { Cg::default() }),
        "rna" => Benchmark::Rna(if small { Rna::small() } else { Rna::default() }),
        "lanczos" => Benchmark::Lanczos(if small {
            Lanczos::small()
        } else {
            Lanczos::default()
        }),
        "multigrid" => Benchmark::Multigrid(if small {
            Multigrid::small()
        } else {
            Multigrid::default()
        }),
        _ => return None,
    })
}

/// Largest `n` of a `HOM<n>` cluster name. The spec is built before
/// anything else looks at it, at ~72 B per node, so an unbounded `n`
/// from the wire is an allocation of the client's choosing.
pub const MAX_HOM_NODES: usize = 1024;

/// Largest per-strategy budget a request may ask for (`search.evals`).
/// Genetic, annealing and random search spend their whole budget, and
/// every evaluation appends one point to the strategy's convergence
/// history, so an unbounded budget is a worker's time and memory of the
/// client's choosing.
pub const MAX_EVALS_PER_STRATEGY: usize = 1_000_000;

/// Look up a cluster preset by wire name (case-insensitive): the Table
/// 1 architectures `DC`, `IO`, `HY1`, `HY2`, or `HOM<n>` for a
/// homogeneous `n`-node cluster, `1 <= n <=` [`MAX_HOM_NODES`].
#[must_use]
pub fn cluster_by_name(name: &str) -> Option<ClusterSpec> {
    match name.to_ascii_uppercase().as_str() {
        "DC" => Some(mheta_sim::presets::dc()),
        "IO" => Some(mheta_sim::presets::io()),
        "HY1" => Some(mheta_sim::presets::hy1()),
        "HY2" => Some(mheta_sim::presets::hy2()),
        other => {
            let n: usize = other.strip_prefix("HOM")?.parse().ok()?;
            (1..=MAX_HOM_NODES)
                .contains(&n)
                .then(|| ClusterSpec::homogeneous(n))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mheta_sim::presets;

    fn req() -> PlanRequest {
        PlanRequest::new(Benchmark::Jacobi(Jacobi::small()), presets::dc())
    }

    #[test]
    fn key_is_stable_across_clones_and_calls() {
        let r = req();
        assert_eq!(r.key(), r.key());
        assert_eq!(r.key(), r.clone().key());
    }

    #[test]
    fn key_changes_with_any_semantic_field() {
        let base = req().key();

        let mut r = req();
        r.spec.nodes[3].cpu_power *= 2.0;
        assert_ne!(r.key(), base, "cluster node change must rekey");

        let mut r = req();
        r.spec.seed ^= 1;
        assert_ne!(r.key(), base, "cluster seed change must rekey");

        let mut r = req();
        r.search.seed ^= 1;
        assert_ne!(r.key(), base, "search seed change must rekey");

        let mut r = req();
        r.search.max_evals_per_strategy += 1;
        assert_ne!(r.key(), base, "budget change must rekey");

        let r = PlanRequest::new(Benchmark::Cg(Cg::small()), presets::dc());
        assert_ne!(r.key(), base, "program change must rekey");

        let mut r = req();
        r.prefetch = true;
        assert_ne!(r.key(), base, "Jacobi prefetch must rekey");
    }

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn wire_lookups() {
        assert!(benchmark_by_name("Jacobi", "small").is_some());
        assert!(benchmark_by_name("cg", "default").is_some());
        assert!(benchmark_by_name("cg", "huge").is_none());
        assert!(benchmark_by_name("fortran", "small").is_none());
        assert_eq!(cluster_by_name("dc").unwrap().name, "DC");
        assert_eq!(cluster_by_name("HOM4").unwrap().len(), 4);
        assert!(cluster_by_name("HOM0").is_none());
        assert!(cluster_by_name("ZZ").is_none());
    }

    #[test]
    fn hom_is_bounded_before_anything_is_built() {
        let max = cluster_by_name(&format!("HOM{MAX_HOM_NODES}")).unwrap();
        assert_eq!(max.len(), MAX_HOM_NODES);
        // Past the bound nothing is allocated, however large the ask.
        for n in [MAX_HOM_NODES + 1, 1_000_000_000, usize::MAX] {
            assert!(cluster_by_name(&format!("hom{n}")).is_none(), "HOM{n}");
        }
    }
}
