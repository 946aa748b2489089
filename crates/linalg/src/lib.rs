//! # bemcap-linalg — dense linear algebra substrate
//!
//! Self-contained dense linear algebra for the `bemcap` workspace: row-major
//! matrices, cache-blocked products, LU with partial pivoting (the "standard
//! direct method" the paper relies on for the tiny instantiable-basis
//! system), Householder QR / least squares (used by the rational fitting of
//! §4.2.4), and preconditioned GMRES for the FASTCAP-style baselines.
//!
//! ```
//! use bemcap_linalg::{Matrix, LuFactor};
//!
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let lu = LuFactor::new(a)?;
//! let x = lu.solve_vec(&[1.0, 2.0])?;
//! assert!((4.0 * x[0] + 1.0 * x[1] - 1.0).abs() < 1e-12);
//! # Ok::<(), bemcap_linalg::LinalgError>(())
//! ```

// The factorization/substitution kernels index several slices from one
// textbook loop index; iterator rewrites obscure the formulas.
#![allow(clippy::needless_range_loop)]

pub mod blas;
pub mod error;
pub mod kernels;
pub mod krylov;
pub mod lu;
pub mod matrix;
pub mod qr;
pub mod sparse;

pub use error::LinalgError;
pub use krylov::{
    gmres, gmres_grouped, gmres_with, BlockJacobiPrecond, DenseOperator, DiagonalPrecond,
    IdentityPrecond, KrylovConfig, KrylovStats, LinearOperator, OperatorPrecond, PrecondKind,
    Preconditioner,
};
pub use lu::LuFactor;
pub use matrix::Matrix;
pub use qr::{least_squares, QrFactor};
pub use sparse::{SparseBuilder, SparseMatrix};

/// Euclidean norm of a slice (chunked reduction — see [`kernels::norm2`]).
pub fn norm2(v: &[f64]) -> f64 {
    kernels::norm2(v)
}

/// Dot product of two slices (chunked reduction — see [`kernels::dot`]).
///
/// # Panics
///
/// Panics if the slices have different lengths; the message names both.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    kernels::dot(a, b)
}

/// `y += alpha * x` (elementwise, bit-identical to the scalar loop —
/// see [`kernels::axpy`]).
///
/// # Panics
///
/// Panics if the slices have different lengths; the message names both.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    kernels::axpy(alpha, x, y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_helpers() {
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, 2.0], &mut y);
        assert_eq!(y, vec![3.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "dot: length mismatch (a.len()=1, b.len()=2)")]
    fn dot_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }
}
