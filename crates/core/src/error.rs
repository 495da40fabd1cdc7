//! Error types for model assembly and evaluation.

use std::fmt;

/// Errors from building or evaluating a [`crate::Mheta`] model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// The program structure failed validation.
    Structure(String),
    /// Inputs disagree on dimensions (node counts, row totals, …).
    Dimension(String),
    /// An MHETA file could not be read back (see [`crate::fileio`]).
    File(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Structure(s) => write!(f, "invalid program structure: {s}"),
            ModelError::Dimension(s) => write!(f, "dimension mismatch: {s}"),
            ModelError::File(s) => write!(f, "invalid MHETA file: {s}"),
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_detail() {
        let e = ModelError::Dimension("8 vs 4".into());
        assert!(e.to_string().contains("8 vs 4"));
    }
}
