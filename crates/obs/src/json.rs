//! Shared JSON machinery for every MHETA surface that speaks JSON.
//!
//! There is exactly one JSON value type, parser, and (escaping)
//! renderer in the workspace — the ones in the `serde` stand-in crate.
//! This module is the single front door to them: the audit, telemetry,
//! metrics, and Perfetto exporters render through it, and the serving
//! wire protocol (`mheta-serve`) parses and renders through it too, so
//! no JSON escaping logic is ever duplicated.
//!
//! On top of the re-exports it adds the *extraction* helpers a wire
//! protocol needs: field lookups that return a typed error naming the
//! missing or mistyped field instead of a bare `Option`.

pub use serde::{from_str, to_string, to_string_pretty, ParseError, Serialize, Value};

use std::fmt;

/// Why a JSON document did not match the shape a caller required.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldError {
    /// Dotted path of the offending field (e.g. `"arch.nodes"`).
    pub field: String,
    /// What was wrong: `"missing"` or the expected type name.
    pub expected: String,
}

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "field `{}`: expected {}", self.field, self.expected)
    }
}

impl std::error::Error for FieldError {}

fn missing(field: &str) -> FieldError {
    FieldError {
        field: field.to_string(),
        expected: "missing".to_string(),
    }
}

fn mistyped(field: &str, expected: &str) -> FieldError {
    FieldError {
        field: field.to_string(),
        expected: expected.to_string(),
    }
}

/// Required member lookup: the value at `field`, or a "missing" error.
pub fn field<'a>(v: &'a Value, field_name: &str) -> Result<&'a Value, FieldError> {
    v.get(field_name).ok_or_else(|| missing(field_name))
}

/// Required string field.
pub fn str_field<'a>(v: &'a Value, field_name: &str) -> Result<&'a str, FieldError> {
    field(v, field_name)?
        .as_str()
        .ok_or_else(|| mistyped(field_name, "string"))
}

/// Optional string field: `None` when absent, an error when mistyped.
pub fn opt_str_field<'a>(v: &'a Value, field_name: &str) -> Result<Option<&'a str>, FieldError> {
    match v.get(field_name) {
        None | Some(Value::Null) => Ok(None),
        Some(val) => val
            .as_str()
            .map(Some)
            .ok_or_else(|| mistyped(field_name, "string")),
    }
}

/// Optional unsigned-integer field: `None` when absent, an error when
/// mistyped.
pub fn opt_u64_field(v: &Value, field_name: &str) -> Result<Option<u64>, FieldError> {
    match v.get(field_name) {
        None | Some(Value::Null) => Ok(None),
        Some(val) => val
            .as_u64()
            .map(Some)
            .ok_or_else(|| mistyped(field_name, "unsigned integer")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Value {
        from_str(r#"{"op":"plan","evals":64,"frac":0.5,"fast":true,"note":null}"#).unwrap()
    }

    #[test]
    fn required_fields_extract_typed_values() {
        let v = doc();
        assert_eq!(str_field(&v, "op").unwrap(), "plan");
        assert_eq!(str_field(&v, "note").unwrap_err().expected, "string");
    }

    #[test]
    fn errors_name_the_field_and_expectation() {
        let v = doc();
        let e = str_field(&v, "absent").unwrap_err();
        assert_eq!(e.field, "absent");
        assert_eq!(e.expected, "missing");
        let e = opt_u64_field(&v, "op").unwrap_err();
        assert_eq!(e.field, "op");
        assert_eq!(e.expected, "unsigned integer");
        assert!(e.to_string().contains("op"));
    }

    #[test]
    fn optional_fields_distinguish_absent_from_mistyped() {
        let v = doc();
        assert_eq!(opt_str_field(&v, "absent").unwrap(), None);
        assert_eq!(opt_str_field(&v, "note").unwrap(), None, "null is absent");
        assert_eq!(opt_str_field(&v, "op").unwrap(), Some("plan"));
        assert!(opt_str_field(&v, "evals").is_err());
        assert_eq!(opt_u64_field(&v, "evals").unwrap(), Some(64));
        assert_eq!(opt_u64_field(&v, "absent").unwrap(), None);
    }
}
