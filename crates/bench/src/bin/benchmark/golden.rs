//! Golden outputs: the deterministic facts every run must reproduce.
//!
//! `golden.json` is a flat map from a case key (`simulate/jacobi@DC`)
//! to the canonical rendering of what that case must produce —
//! simulated-seconds bits, application check value, event count, and
//! the seed-1 plans. A mismatch is a failed operation. `--bless`
//! rewrites the file and is legal only in a `benchmark`-archetype PR.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use mheta_obs::json::{from_str, Value};

/// Failures and attempts of one run; keeps the first failure's text.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.first_failure.get_or_insert(why);
        }
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

pub struct Golden {
    /// `None` while blessing: everything seen is accepted.
    expected: Option<BTreeMap<String, String>>,
    seen: BTreeMap<String, String>,
}

impl Golden {
    /// The golden file compiled into this binary.
    pub fn embedded() -> Self {
        let doc = from_str(include_str!("golden.json")).expect("golden.json is valid JSON");
        let Value::Object(pairs) = doc else {
            panic!("golden.json is not an object");
        };
        let expected = pairs
            .into_iter()
            .map(|(k, v)| {
                let v = v.as_str().expect("golden values are strings").to_string();
                (k, v)
            })
            .collect();
        Golden {
            expected: Some(expected),
            seen: BTreeMap::new(),
        }
    }

    pub fn blessing() -> Self {
        Golden {
            expected: None,
            seen: BTreeMap::new(),
        }
    }

    /// Compare one case's output with the golden file, counting it as
    /// an attempted operation.
    pub fn check(&mut self, key: String, actual: String, tally: &mut Tally) {
        let outcome = match self.expected.as_ref().map(|e| e.get(&key)) {
            None => Ok(()),
            Some(Some(want)) if *want == actual => Ok(()),
            Some(Some(want)) => Err(format!(
                "golden mismatch at {key}: want {want}, got {actual}"
            )),
            Some(None) => Err(format!("no golden entry for {key} (got {actual})")),
        };
        tally.record(outcome);
        self.seen.insert(key, actual);
    }

    /// Write everything seen as the new golden file.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let doc = Value::Object(
            self.seen
                .iter()
                .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                .collect(),
        );
        std::fs::write(path, doc.to_json_pretty() + "\n")
    }
}

/// An `f64`'s exact bit pattern, for golden entries.
pub fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mismatches_and_missing_entries_fail_and_blessing_accepts() {
        let mut golden = Golden {
            expected: Some(BTreeMap::from([("a".to_string(), "1".to_string())])),
            seen: BTreeMap::new(),
        };
        let mut tally = Tally::default();
        golden.check("a".into(), "1".into(), &mut tally);
        assert_eq!((tally.attempted, tally.failed), (1, 0));
        golden.check("a".into(), "2".into(), &mut tally);
        golden.check("b".into(), "1".into(), &mut tally);
        assert_eq!((tally.attempted, tally.failed), (3, 2));
        assert!(tally.first_failure.unwrap().contains("want 1, got 2"));

        let mut tally = Tally::default();
        let mut blessing = Golden::blessing();
        blessing.check("new".into(), "x".into(), &mut tally);
        assert_eq!(tally.failed, 0);
        assert_eq!(blessing.seen["new"], "x");
    }
}
