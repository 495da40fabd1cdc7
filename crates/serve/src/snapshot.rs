//! Crash-safe plan-cache persistence: the `mheta-plancache/v1` file.
//!
//! `pland` snapshots its plan cache to disk — periodically and on
//! graceful drain — and warm-starts from the snapshot at boot, so a
//! restart's first request for a previously planned workload is a
//! cache hit instead of a full portfolio search.
//!
//! The file is one compact-JSON document:
//!
//! ```json
//! {"schema":"mheta-plancache/v1",
//!  "checksum":"<16-hex FNV-1a-64 of the payload rendering>",
//!  "payload":{"entries":[
//!    {"key":"<16-hex cache key>","canon":"<canonical request JSON>",
//!     "plan":{"rows":[..],"predicted_ns_bits":"<16-hex f64 bits>",
//!             "winner":"gbs","total_evals":N}}]}}
//! ```
//!
//! Three properties make it crash-safe:
//!
//! * **Atomic replace** — [`save`] writes to a `.tmp` sibling, fsyncs
//!   it, renames it over the target, and fsyncs the directory, so
//!   neither a crash mid-write nor a power loss right after the rename
//!   leaves a torn or empty file — always the old snapshot or the new
//!   one, whole.
//! * **Self-verifying** — the checksum is FNV-1a-64 over the payload's
//!   canonical compact rendering. [`load`] re-renders the parsed
//!   payload and recomputes; any truncation or byte flip either breaks
//!   the JSON (→ [`SnapshotError::Malformed`]) or changes the
//!   re-rendering (→ [`SnapshotError::Checksum`]).
//! * **Bitwise-exact** — `predicted_ns` travels as the hex of its IEEE
//!   754 bits, never as a decimal float, so save → load is the
//!   identity on every plan (the round-trip proptests pin this).
//!
//! Only plans are saved. A cached search failure (DESIGN.md §13) is
//! left out: a restarted daemon pays one model build per doomed key and
//! caches the failure again, and the format stays the one it was.
//!
//! Every rejection is a value, not a panic: the daemon logs it and
//! cold-starts. A snapshot can degrade startup latency, never
//! correctness — the cache's canon-string comparison still guards
//! every probe, so even a semantically stale-but-wellformed snapshot
//! can only miss, not serve a wrong plan.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use mheta_obs::json::{from_str, str_field, u64_field, Value};

use crate::cache::PlanCache;
use crate::planner::Plan;
use crate::request::{fnv1a64, strategy_by_name};

/// The snapshot schema identifier.
pub const SCHEMA: &str = "mheta-plancache/v1";

/// Why a snapshot file was rejected. Every case means "cold start",
/// never a crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file could not be read (missing, permissions, not UTF-8).
    Unreadable(String),
    /// The contents were not a well-formed snapshot document
    /// (truncated, bad JSON, missing or mistyped fields).
    Malformed(String),
    /// The schema field named a different (or future) format.
    Schema(String),
    /// The payload did not hash to the stored checksum: the file was
    /// corrupted after it was written.
    Checksum {
        /// The checksum the file claims.
        stored: String,
        /// The checksum the payload actually hashes to.
        computed: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Unreadable(e) => write!(f, "unreadable snapshot: {e}"),
            SnapshotError::Malformed(e) => write!(f, "malformed snapshot: {e}"),
            SnapshotError::Schema(s) => {
                write!(f, "snapshot schema `{s}` is not `{SCHEMA}`")
            }
            SnapshotError::Checksum { stored, computed } => {
                write!(
                    f,
                    "snapshot checksum mismatch: stored {stored}, computed {computed}"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

fn hex16(v: u64) -> String {
    format!("{v:016x}")
}

fn parse_hex16(field: &str, s: &str) -> Result<u64, SnapshotError> {
    u64::from_str_radix(s, 16)
        .map_err(|_| SnapshotError::Malformed(format!("field `{field}`: expected 16-hex u64")))
}

fn plan_value(plan: &Plan) -> Value {
    Value::object(vec![
        (
            "rows",
            Value::Array(plan.rows.iter().map(|&r| Value::UInt(r as u64)).collect()),
        ),
        // IEEE 754 bits, not a decimal rendering: the round trip must
        // be the identity on every float.
        (
            "predicted_ns_bits",
            Value::Str(hex16(plan.predicted_ns.to_bits())),
        ),
        ("winner", Value::Str(plan.winner.name().to_string())),
        ("total_evals", Value::UInt(plan.total_evals as u64)),
    ])
}

fn parse_plan(v: &Value) -> Result<Plan, SnapshotError> {
    let malformed = |e: &dyn fmt::Display| SnapshotError::Malformed(format!("plan: {e}"));
    let rows = v
        .get("rows")
        .and_then(Value::as_array)
        .ok_or_else(|| SnapshotError::Malformed("plan: field `rows`: expected array".into()))?
        .iter()
        .map(|r| r.as_u64().map(|r| r as usize))
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| SnapshotError::Malformed("plan: rows must be unsigned".into()))?;
    let bits_hex = str_field(v, "predicted_ns_bits").map_err(|e| malformed(&e))?;
    let predicted_ns = f64::from_bits(parse_hex16("predicted_ns_bits", bits_hex)?);
    let winner_name = str_field(v, "winner").map_err(|e| malformed(&e))?;
    let winner = strategy_by_name(winner_name)
        .ok_or_else(|| SnapshotError::Malformed(format!("plan: unknown winner `{winner_name}`")))?;
    let total_evals = u64_field(v, "total_evals").map_err(|e| malformed(&e))? as usize;
    Ok(Plan {
        rows,
        predicted_ns,
        winner,
        total_evals,
    })
}

/// Render the cache's current contents as the full snapshot document
/// (schema + checksum + payload).
#[must_use]
pub fn snapshot_value(cache: &PlanCache) -> Value {
    let entries = cache
        .export()
        .into_iter()
        .map(|(key, canon, plan)| {
            Value::object(vec![
                ("key", Value::Str(hex16(key))),
                ("canon", Value::Str(canon)),
                ("plan", plan_value(&plan)),
            ])
        })
        .collect();
    let payload = Value::object(vec![("entries", Value::Array(entries))]);
    let checksum = hex16(fnv1a64(payload.to_json().as_bytes()));
    Value::object(vec![
        ("schema", Value::Str(SCHEMA.into())),
        ("checksum", Value::Str(checksum)),
        ("payload", payload),
    ])
}

/// Save the cache to `path` atomically (write a `.tmp` sibling, fsync
/// it, rename over the target, fsync the directory). Returns the
/// number of entries saved.
pub fn save(cache: &PlanCache, path: &Path) -> io::Result<usize> {
    let doc = snapshot_value(cache);
    let n = doc
        .get("payload")
        .and_then(|p| p.get("entries"))
        .and_then(Value::as_array)
        .map_or(0, <[Value]>::len);
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        io::Write::write_all(&mut f, doc.to_json().as_bytes())?;
        // Without this, a power loss can make the rename durable while
        // the data is not, leaving a truncated snapshot behind the new
        // name (the loader rejects it, but the warm start is lost).
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // And make the rename itself durable: fsync the parent directory.
    #[cfg(unix)]
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        fs::File::open(dir)?.sync_all()?;
    }
    Ok(n)
}

/// Parse and verify a snapshot document, returning its entries.
pub fn parse(text: &str) -> Result<Vec<(u64, String, Plan)>, SnapshotError> {
    let doc = from_str(text).map_err(|e| SnapshotError::Malformed(format!("{e:?}")))?;
    let schema = str_field(&doc, "schema")
        .map_err(|e| SnapshotError::Malformed(e.to_string()))?
        .to_string();
    if schema != SCHEMA {
        return Err(SnapshotError::Schema(schema));
    }
    let stored = str_field(&doc, "checksum")
        .map_err(|e| SnapshotError::Malformed(e.to_string()))?
        .to_string();
    let payload = doc
        .get("payload")
        .ok_or_else(|| SnapshotError::Malformed("field `payload`: missing".into()))?;
    // Verify against the payload's canonical re-rendering: the writer
    // produced exactly this rendering, so any surviving corruption
    // shows up as a different hash here.
    let computed = hex16(fnv1a64(payload.to_json().as_bytes()));
    if stored != computed {
        return Err(SnapshotError::Checksum { stored, computed });
    }
    let entries = payload
        .get("entries")
        .and_then(Value::as_array)
        .ok_or_else(|| {
            SnapshotError::Malformed("field `payload.entries`: expected array".into())
        })?;
    entries
        .iter()
        .map(|e| {
            let key_hex =
                str_field(e, "key").map_err(|e| SnapshotError::Malformed(e.to_string()))?;
            let key = parse_hex16("key", key_hex)?;
            let canon = str_field(e, "canon")
                .map_err(|e| SnapshotError::Malformed(e.to_string()))?
                .to_string();
            let plan = parse_plan(
                e.get("plan")
                    .ok_or_else(|| SnapshotError::Malformed("field `plan`: missing".into()))?,
            )?;
            Ok((key, canon, plan))
        })
        .collect()
}

/// Load and verify the snapshot at `path`, returning its entries.
pub fn load(path: &Path) -> Result<Vec<(u64, String, Plan)>, SnapshotError> {
    let text = fs::read_to_string(path).map_err(|e| SnapshotError::Unreadable(e.to_string()))?;
    parse(&text)
}

/// Insert loaded entries into `cache` (in snapshot order, which
/// preserves per-shard recency). Returns how many were restored.
pub fn restore(cache: &PlanCache, entries: Vec<(u64, String, Plan)>) -> usize {
    let n = entries.len();
    for (key, canon, plan) in entries {
        cache.insert(key, &canon, plan);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use mheta_dist::Strategy;

    fn plan(score: f64) -> Plan {
        Plan {
            rows: vec![40, 30, 20, 10],
            predicted_ns: score,
            winner: Strategy::Annealing,
            total_evals: 97,
        }
    }

    fn populated() -> PlanCache {
        let c = PlanCache::new(4, 16);
        c.insert(0x1111_2222_3333_4444, r#"{"a":1}"#, plan(123.456));
        c.insert(0xaaaa_bbbb_cccc_dddd, r#"{"b":"x\"y"}"#, plan(0.1 + 0.2));
        c
    }

    #[test]
    fn round_trip_is_bitwise_identical() {
        let c = populated();
        let text = snapshot_value(&c).to_json();
        let entries = parse(&text).unwrap();
        assert_eq!(entries.len(), 2);
        let restored = PlanCache::new(4, 16);
        assert_eq!(restore(&restored, entries), 2);
        let orig = c.export();
        let back = restored.export();
        assert_eq!(orig.len(), back.len());
        for ((k1, c1, p1), (k2, c2, p2)) in orig.iter().zip(back.iter()) {
            assert_eq!(k1, k2);
            assert_eq!(c1, c2);
            assert_eq!(p1.rows, p2.rows);
            assert_eq!(
                p1.predicted_ns.to_bits(),
                p2.predicted_ns.to_bits(),
                "float must round-trip bitwise"
            );
            assert_eq!(p1.winner, p2.winner);
            assert_eq!(p1.total_evals, p2.total_evals);
        }
        // And the re-snapshot is byte-identical.
        assert_eq!(text, snapshot_value(&restored).to_json());
    }

    #[test]
    fn save_and_load_through_a_file() {
        let dir = std::env::temp_dir().join(format!("mheta-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plancache.json");
        let c = populated();
        assert_eq!(save(&c, &path).unwrap(), 2);
        let entries = load(&path).unwrap();
        assert_eq!(entries.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_unreadable_not_a_panic() {
        let err = load(Path::new("/nonexistent/mheta/plancache.json")).unwrap_err();
        assert!(matches!(err, SnapshotError::Unreadable(_)));
    }

    #[test]
    fn truncation_is_rejected() {
        let text = snapshot_value(&populated()).to_json();
        for cut in [1, text.len() / 2, text.len() - 1] {
            let err = parse(&text[..cut]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Malformed(_)),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let text = snapshot_value(&populated())
            .to_json()
            .replace("mheta-plancache/v1", "mheta-plancache/v9");
        assert!(matches!(
            parse(&text).unwrap_err(),
            SnapshotError::Schema(_)
        ));
    }

    #[test]
    fn payload_tamper_is_rejected_by_checksum() {
        let text = snapshot_value(&populated()).to_json();
        let tampered = text.replacen("\"total_evals\":97", "\"total_evals\":98", 1);
        assert_ne!(text, tampered, "tamper must apply");
        assert!(matches!(
            parse(&tampered).unwrap_err(),
            SnapshotError::Checksum { .. }
        ));
    }

    #[test]
    fn a_cached_failure_is_not_saved() {
        let c = populated();
        c.insert_failure(0x5555, "{}", "no model".into());
        let entries = parse(&snapshot_value(&c).to_json()).unwrap();
        assert_eq!(entries.len(), 2);
        assert!(entries.iter().all(|(key, ..)| *key != 0x5555));
    }

    #[test]
    fn empty_cache_snapshots_and_restores() {
        let c = PlanCache::new(2, 4);
        let entries = parse(&snapshot_value(&c).to_json()).unwrap();
        assert!(entries.is_empty());
    }
}
