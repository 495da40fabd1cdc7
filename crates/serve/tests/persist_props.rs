//! Property tests for the crash-safety story: the `mheta-plancache/v1`
//! snapshot format round-trips bitwise and rejects every corrupted
//! variant as a *value* (cold start, never a crash, never a wrong
//! plan).

use std::collections::BTreeMap;

use mheta_dist::Strategy as PortfolioStrategy;
use mheta_serve::snapshot::{self, SnapshotError};
use mheta_serve::{Plan, PlanCache};
use proptest::prelude::*;

fn arb_plan() -> impl Strategy<Value = Plan> {
    (
        proptest::collection::vec(0usize..4096, 1..12),
        // Spread across many exponents so the bitwise round-trip sees
        // mantissas a decimal rendering would mangle.
        (1.0e-3f64..1.0e15, 0u8..4, 0usize..1_000_000),
    )
        .prop_map(|(rows, (predicted_ns, winner, total_evals))| Plan {
            rows,
            predicted_ns,
            winner: [
                PortfolioStrategy::Gbs,
                PortfolioStrategy::Genetic,
                PortfolioStrategy::Annealing,
                PortfolioStrategy::Random,
            ][winner as usize],
            total_evals,
        })
}

/// Entries collapse through a BTreeMap so duplicate keys overwrite
/// before insertion (the cache would LRU-overwrite them anyway). Canon
/// strings stay printable ASCII: snapshot fidelity is under test here,
/// not the vendored JSON library's unicode escaping.
fn arb_entries() -> impl Strategy<Value = BTreeMap<u64, (String, Plan)>> {
    let canon = proptest::collection::vec(0x20u8..0x7f, 0..40)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ASCII"));
    proptest::collection::vec((any::<u64>(), canon, arb_plan()), 0..16).prop_map(|list| {
        list.into_iter()
            .map(|(key, canon, plan)| (key, (canon, plan)))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Save → parse → restore reproduces every plan bitwise (including
    /// the f64 prediction), and re-snapshotting the restored cache is
    /// byte-identical: the format is a fixed point.
    #[test]
    fn snapshot_round_trips_bitwise(entries in arb_entries()) {
        let cache = PlanCache::new(4, 128);
        for (key, (canon, plan)) in &entries {
            cache.insert(*key, canon, plan.clone());
        }
        let text = snapshot::snapshot_value(&cache).to_json();

        let restored = PlanCache::new(4, 128);
        let parsed = snapshot::parse(&text).expect("own snapshot parses");
        snapshot::restore(&restored, parsed);

        prop_assert_eq!(restored.len(), entries.len());
        for (key, (canon, plan)) in &entries {
            let got = restored.get(*key, canon).expect("entry survived");
            prop_assert_eq!(&got.rows, &plan.rows);
            prop_assert_eq!(got.predicted_ns.to_bits(), plan.predicted_ns.to_bits());
            prop_assert_eq!(&got.winner, &plan.winner);
        }
        let again = snapshot::snapshot_value(&restored).to_json();
        prop_assert_eq!(text, again);
    }

    /// Truncating the file anywhere makes it a rejected value — the
    /// loader never panics and never yields a partial cache. (All
    /// snapshot bytes are ASCII, so any cut lands on a char boundary.)
    #[test]
    fn truncated_snapshots_are_rejected(entries in arb_entries(), frac in 0.0f64..1.0) {
        let cache = PlanCache::new(4, 128);
        for (key, (canon, plan)) in &entries {
            cache.insert(*key, canon, plan.clone());
        }
        let text = snapshot::snapshot_value(&cache).to_json();
        let cut = ((text.len() as f64) * frac) as usize;
        prop_assume!(cut < text.len()); // cutting nothing is the round-trip case
        let truncated = &text[..cut];
        match snapshot::parse(truncated) {
            Err(_) => {}
            Ok(parsed) => prop_assert!(
                false,
                "truncated snapshot accepted with {} entries",
                parsed.len()
            ),
        }
    }

    /// Any single-byte corruption is detected: the text either stops
    /// parsing (`Malformed`/`Schema`) or parses to a payload whose
    /// recomputed checksum no longer matches (`Checksum`). A flip may
    /// leave the text identical only if it maps the byte to itself,
    /// which XOR with a nonzero mask cannot.
    #[test]
    fn bit_flips_are_rejected(entries in arb_entries(), pos in 0.0f64..1.0, mask in 1u8..=127) {
        let cache = PlanCache::new(4, 128);
        for (key, (canon, plan)) in &entries {
            cache.insert(*key, canon, plan.clone());
        }
        let text = snapshot::snapshot_value(&cache).to_json();
        let mut bytes = text.into_bytes();
        let at = (((bytes.len() as f64) * pos) as usize).min(bytes.len() - 1);
        bytes[at] ^= mask;
        let Ok(corrupt) = String::from_utf8(bytes) else {
            return Ok(()); // not UTF-8 at all: read_to_string rejects it upstream
        };
        match snapshot::parse(&corrupt) {
            Err(SnapshotError::Malformed(_))
            | Err(SnapshotError::Schema(_))
            | Err(SnapshotError::Checksum { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected rejection class: {}", other),
            Ok(_) => {
                // The only way corruption parses AND checksums is if the
                // flip landed inside the stored checksum's own hex digits
                // and produced... the same checksum — impossible — OR the
                // flip changed whitespace-insensitive structure that the
                // canonical re-rendering normalises away. Our renderer
                // emits no optional whitespace, so reaching here is a bug.
                prop_assert!(false, "corrupted snapshot accepted");
            }
        }
    }
}
