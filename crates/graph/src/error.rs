//! Typed errors for recoverable graph conditions, plus the crate's single
//! panic funnel for invariant violations.

use std::fmt;

/// Recoverable errors from graph construction and transition-matrix
/// assembly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// Two shapes are incompatible for the attempted operation (e.g. a
    /// non-square CSR adjacency, or coordinates for the wrong node count).
    ShapeMismatch {
        /// Name of the operation.
        op: &'static str,
        /// Left-hand shape.
        lhs: Vec<usize>,
        /// Right-hand shape.
        rhs: Vec<usize>,
    },
    /// A parameter that must be at least one (kernel size, node count) was
    /// zero.
    EmptyDimension(&'static str),
    /// Negative weights where a road adjacency needs non-negative ones: a
    /// transition matrix built from them would not be a diffusion process.
    NegativeWeight(&'static str),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "{op}: incompatible shapes {lhs:?} and {rhs:?}")
            }
            GraphError::EmptyDimension(what) => write!(f, "{what} must be >= 1"),
            GraphError::NegativeWeight(what) => write!(f, "{what} has negative weights"),
        }
    }
}

impl std::error::Error for GraphError {}

/// The crate's single panic funnel for unrecoverable invariant violations.
///
/// Construction keeps its documented panic-on-misuse contract, but every
/// such abort goes through this one function so the `xlint` `no-panic` rule
/// needs exactly one allowlist entry for the whole crate.
#[cold]
#[track_caller]
pub(crate) fn violation(detail: impl fmt::Display) -> ! {
    panic!("{detail}")
}

/// Unwrap a result whose failure is an internal invariant violation.
#[track_caller]
pub(crate) fn require<T, E: fmt::Display>(result: Result<T, E>, context: &str) -> T {
    match result {
        Ok(v) => v,
        Err(e) => violation(format_args!("{context}: {e}")),
    }
}
