//! Errors for semi-ring operations.

use std::fmt;

/// Convenience alias.
pub type Result<T> = std::result::Result<T, SemiringError>;

/// Errors raised by semi-ring algebra and sketch computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SemiringError {
    /// Addition requires both operands to cover the same feature set.
    FeatureMismatch {
        /// Features of the left operand.
        left: Vec<String>,
        /// Features of the right operand.
        right: Vec<String>,
    },
    /// Multiplication requires disjoint feature sets (join adds new columns).
    FeatureOverlap(Vec<String>),
    /// A requested feature is not covered by the triple.
    FeatureNotFound(String),
    /// Underlying relational error.
    Relation(String),
    /// Invalid argument (e.g. empty feature list where one is required).
    InvalidArgument(String),
    /// A join key with a NULL component (NULL keys never join).
    NullKey(String),
    /// A join key listed twice in one sketch.
    DuplicateKey(String),
}

impl fmt::Display for SemiringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemiringError::FeatureMismatch { left, right } => {
                write!(f, "feature sets differ: {left:?} vs {right:?}")
            }
            SemiringError::FeatureOverlap(shared) => {
                write!(f, "feature sets overlap on {shared:?} (join must add new columns)")
            }
            SemiringError::FeatureNotFound(name) => write!(f, "feature not found: {name}"),
            SemiringError::Relation(msg) => write!(f, "relation error: {msg}"),
            SemiringError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            SemiringError::NullKey(key) => write!(f, "join key {key} has a NULL component"),
            SemiringError::DuplicateKey(key) => write!(f, "join key {key} is listed twice"),
        }
    }
}

impl std::error::Error for SemiringError {}

impl From<mileena_relation::RelationError> for SemiringError {
    fn from(e: mileena_relation::RelationError) -> Self {
        SemiringError::Relation(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_features() {
        let e = SemiringError::FeatureOverlap(vec!["x".into()]);
        assert!(e.to_string().contains('x'));
    }
}
