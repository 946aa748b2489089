//! Error types for linear algebra operations.

use std::error::Error;
use std::fmt;

/// Errors produced by factorizations and solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Matrix dimensions do not match the operation.
    DimensionMismatch {
        /// What was attempted.
        op: &'static str,
        /// Description of the shapes involved.
        detail: String,
    },
    /// A factorization hit a (numerically) singular pivot.
    Singular {
        /// Row/column index of the failing pivot.
        index: usize,
    },
    /// An iterative solver failed to converge.
    NoConvergence {
        /// Iterations performed.
        iterations: usize,
        /// Final relative residual.
        residual: f64,
    },
    /// A non-finite value appeared in the input.
    NotFinite,
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { op, detail } => {
                write!(f, "dimension mismatch in {op}: {detail}")
            }
            LinalgError::Singular { index } => {
                write!(f, "singular pivot at index {index}")
            }
            LinalgError::NoConvergence { iterations, residual } => {
                write!(f, "no convergence after {iterations} iterations (residual {residual:.3e})")
            }
            LinalgError::NotFinite => write!(f, "non-finite value in input"),
        }
    }
}

impl Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        for e in [
            LinalgError::Singular { index: 3 },
            LinalgError::NoConvergence { iterations: 10, residual: 0.5 },
            LinalgError::NotFinite,
            LinalgError::DimensionMismatch { op: "gemm", detail: "2x3 * 4x5".into() },
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }

    #[test]
    fn send_sync() {
        fn check<T: Send + Sync>() {}
        check::<LinalgError>();
    }
}
