//! Error types for tensor operations.

use std::fmt;

/// Errors produced by tensor construction and shape-sensitive operations.
///
/// Most hot-path operators (`add`, `matmul`, ...) panic on shape mismatch to
/// keep the training loop free of `Result` plumbing, mirroring the behaviour
/// of mainstream tensor libraries; the fallible constructors and reshaping
/// entry points return [`TensorError`] so callers handling external input can
/// recover gracefully.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Element count does not match the product of the requested shape.
    ShapeDataMismatch {
        /// Requested dimensions.
        shape: Vec<usize>,
        /// Number of elements provided.
        len: usize,
    },
    /// Two shapes are incompatible for the attempted operation.
    ShapeMismatch {
        /// Name of the operation.
        op: &'static str,
        /// Left-hand shape.
        lhs: Vec<usize>,
        /// Right-hand shape.
        rhs: Vec<usize>,
    },
    /// An axis index was out of range for the given rank.
    AxisOutOfRange {
        /// Offending axis.
        axis: usize,
        /// Rank of the tensor.
        rank: usize,
    },
    /// Empty input where at least one element is required.
    Empty(&'static str),
    /// Non-finite (NaN/Inf) values where finite data is required, e.g. when
    /// building a sparse matrix: a corrupted adjacency must fail loudly
    /// instead of poisoning every downstream product.
    NonFinite {
        /// Name of the rejecting operation.
        op: &'static str,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeDataMismatch { shape, len } => write!(
                f,
                "shape {:?} implies {} elements but {} were provided",
                shape,
                shape.iter().product::<usize>(),
                len
            ),
            TensorError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "{op}: incompatible shapes {lhs:?} and {rhs:?}")
            }
            TensorError::AxisOutOfRange { axis, rank } => {
                write!(f, "axis {axis} out of range for rank {rank}")
            }
            TensorError::Empty(what) => write!(f, "empty input: {what}"),
            TensorError::NonFinite { op } => {
                write!(f, "{op}: input contains non-finite (NaN/Inf) values")
            }
        }
    }
}

impl std::error::Error for TensorError {}

/// The crate's single panic funnel for unrecoverable precondition violations.
///
/// Hot-path operators keep their documented panic-on-shape-bug contract, but
/// every such abort is routed through this one function so the `xlint`
/// `no-panic` rule needs exactly one allowlist entry for the whole crate and
/// the panic message format stays uniform.
#[cold]
#[track_caller]
pub(crate) fn violation(detail: impl fmt::Display) -> ! {
    panic!("{detail}")
}

/// Unwrap a shape-checked result, routing failures through [`violation`].
///
/// Used where the operation's documented contract is "panics on shape
/// mismatch" and the caller has no `Result` channel (operator hot paths).
#[track_caller]
pub(crate) fn require<T>(result: Result<T, TensorError>, op: &str) -> T {
    match result {
        Ok(v) => v,
        Err(e) => violation(format_args!("{op}: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = TensorError::ShapeDataMismatch {
            shape: vec![2, 3],
            len: 5,
        };
        assert!(e.to_string().contains("6 elements"));
        assert!(e.to_string().contains('5'));

        let e = TensorError::ShapeMismatch {
            op: "matmul",
            lhs: vec![2, 3],
            rhs: vec![4, 5],
        };
        assert!(e.to_string().contains("matmul"));

        let e = TensorError::AxisOutOfRange { axis: 3, rank: 2 };
        assert!(e.to_string().contains("axis 3"));

        let e = TensorError::Empty("concat");
        assert!(e.to_string().contains("concat"));

        let e = TensorError::NonFinite {
            op: "sparse_from_dense",
        };
        assert!(e.to_string().contains("non-finite"));
    }
}
