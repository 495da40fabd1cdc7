//! Property tests for the canonical stable content hash: the plan
//! cache key must be a pure function of the request's semantic content
//! — invariant under cloning and a JSON round-trip of the canonical
//! rendering, and sensitive to every semantic field.

use mheta_apps::Benchmark;
use mheta_serve::{benchmark_by_name, PlanRequest, SearchParams};
use mheta_sim::{presets, ClusterSpec};
use proptest::prelude::*;

const APPS: [&str; 5] = ["jacobi", "cg", "rna", "lanczos", "multigrid"];
const SIZES: [&str; 2] = ["small", "paper"];

/// The application's data seed and the extent of its distribution axis.
fn seed_and_extent(bench: &mut Benchmark) -> (&mut u64, &mut usize) {
    match bench {
        Benchmark::Jacobi(a) => (&mut a.seed, &mut a.rows),
        Benchmark::Cg(a) => (&mut a.seed, &mut a.n),
        Benchmark::Rna(a) => (&mut a.seed, &mut a.rows),
        Benchmark::Lanczos(a) => (&mut a.seed, &mut a.n),
        Benchmark::Multigrid(a) => (&mut a.seed, &mut a.rows),
    }
}

fn arb_spec() -> impl Strategy<Value = ClusterSpec> {
    (
        2usize..10,
        0u8..5,
        1_000.0f64..10_000.0,
        0u64..1_000,
        0.0f64..0.2,
    )
        .prop_map(|(n, preset, compute, seed, noise)| {
            let mut spec = match preset {
                0 => presets::dc(),
                1 => presets::io(),
                2 => presets::hy1(),
                3 => presets::hy2(),
                _ => ClusterSpec::homogeneous(n),
            };
            spec.compute_ns_per_unit = compute;
            spec.seed = seed;
            spec.noise.amplitude = noise;
            spec
        })
}

fn arb_request() -> impl Strategy<Value = PlanRequest> {
    (
        arb_spec(),
        0usize..APPS.len(),
        0usize..SIZES.len(),
        any::<bool>(),
        1u64..1_000,
        8usize..128,
    )
        .prop_map(|(spec, app, size, prefetch, seed, evals)| {
            let bench = benchmark_by_name(APPS[app], SIZES[size]).expect("known app");
            let prefetch = prefetch && bench.supports_prefetch();
            PlanRequest {
                bench,
                prefetch,
                spec,
                search: SearchParams {
                    seed,
                    max_evals_per_strategy: evals,
                },
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn key_is_invariant_under_clone(req in arb_request()) {
        let copy = req.clone();
        prop_assert_eq!(req.key(), copy.key());
        prop_assert_eq!(req.canonical_json(), copy.canonical_json());
    }

    #[test]
    fn key_is_invariant_under_json_round_trip(req in arb_request()) {
        // Parse the canonical rendering and re-render: a stable
        // canonical form must survive its own serialization untouched,
        // so the hash of the round-tripped document is the hash.
        let canon = req.canonical_json();
        let reparsed = mheta_obs::json::from_str(&canon).expect("canonical JSON parses");
        prop_assert_eq!(&reparsed.to_json(), &canon);
        prop_assert_eq!(mheta_serve::fnv1a64(reparsed.to_json().as_bytes()), req.key());
    }

    #[test]
    fn key_changes_when_any_field_changes(req in arb_request()) {
        let base = req.key();

        let mut r = req.clone();
        r.spec.seed ^= 0x1;
        prop_assert!(r.key() != base);

        let mut r = req.clone();
        r.spec.compute_ns_per_unit += 1.0;
        prop_assert!(r.key() != base);

        let mut r = req.clone();
        r.spec.nodes[0].cpu_power += 0.25;
        prop_assert!(r.key() != base);

        let mut r = req.clone();
        r.search.seed ^= 0x1;
        prop_assert!(r.key() != base);

        let mut r = req.clone();
        r.search.max_evals_per_strategy += 1;
        prop_assert!(r.key() != base);

        let mut r = req.clone();
        *seed_and_extent(&mut r.bench).0 ^= 0x1;
        prop_assert!(r.key() != base);

        let mut r = req.clone();
        *seed_and_extent(&mut r.bench).1 += 1;
        prop_assert!(r.key() != base);

        if req.bench.supports_prefetch() {
            let mut r = req.clone();
            r.prefetch = !r.prefetch;
            prop_assert!(r.key() != base);
        }
    }

    #[test]
    fn distinct_programs_never_share_a_key(
        spec in arb_spec(),
        a in (0usize..APPS.len(), 0usize..SIZES.len()),
        b in (0usize..APPS.len(), 0usize..SIZES.len()),
    ) {
        prop_assume!(a != b);
        let bench = |(app, size): (usize, usize)| benchmark_by_name(APPS[app], SIZES[size]).unwrap();
        let ra = PlanRequest::new(bench(a), spec.clone());
        let rb = PlanRequest::new(bench(b), spec);
        prop_assert!(ra.key() != rb.key());
    }
}
