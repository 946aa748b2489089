//! Krylov subspace iterative solvers (GMRES).
//!
//! These power the FASTCAP-style baselines: multipole- and FFT-accelerated
//! solvers replace the dense matrix by a fast approximate matvec operator
//! and iterate. The paper's §1 observes that precisely this structure — a
//! large residual vector shared across compute nodes every iteration — is
//! what ruins their parallel scalability; we reproduce that structure
//! faithfully via the [`LinearOperator`] abstraction.
//!
//! The Arnoldi orthogonalization and solution-update loops run on the
//! chunked [`crate::kernels`] `dot`/`axpy`/`norm2` (via the crate-root
//! re-exports), so every GMRES iteration gets the multi-accumulator
//! reductions without this module knowing about blocking.

use crate::error::LinalgError;
use crate::lu::LuFactor;
use crate::matrix::Matrix;
use crate::{axpy, dot, norm2};

/// Abstract matrix-vector product, the interface between Krylov solvers and
/// the dense/FMM/pFFT backends.
pub trait LinearOperator {
    /// Dimension of the (square) operator.
    fn dim(&self) -> usize;

    /// Computes `y = A x`.
    ///
    /// # Panics
    ///
    /// Implementations may panic when `x.len() != dim()` or
    /// `y.len() != dim()`.
    fn apply(&self, x: &[f64], y: &mut [f64]);

    /// Applies an approximate inverse for preconditioning, `y = M⁻¹ x`.
    /// The default is the identity (no preconditioning).
    fn precondition(&self, x: &[f64], y: &mut [f64]) {
        y.copy_from_slice(x);
    }
}

/// An approximate inverse `y = M⁻¹ x` applied on the right of GMRES.
///
/// Splitting the preconditioner from the [`LinearOperator`] lets one
/// operator (an FMM or pFFT matvec) run under different preconditioners —
/// the identity, its own diagonal, or a block-Jacobi built from exact
/// near-field entries — without rebuilding anything.
pub trait Preconditioner {
    /// Computes `y = M⁻¹ x`.
    ///
    /// # Panics
    ///
    /// Implementations may panic when `x.len() != y.len()` or when the
    /// length does not match the preconditioner's dimension.
    fn apply_inv(&self, x: &[f64], y: &mut [f64]);
}

/// No preconditioning: `M = I`.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityPrecond;

impl Preconditioner for IdentityPrecond {
    fn apply_inv(&self, x: &[f64], y: &mut [f64]) {
        y.copy_from_slice(x);
    }
}

/// Jacobi (diagonal) preconditioning from a stored inverse diagonal.
#[derive(Debug, Clone)]
pub struct DiagonalPrecond {
    inv_diag: Vec<f64>,
}

impl DiagonalPrecond {
    /// Wraps an already-inverted diagonal (`inv_diag[i] = 1/A_ii`).
    pub fn new(inv_diag: Vec<f64>) -> DiagonalPrecond {
        DiagonalPrecond { inv_diag }
    }

    /// Builds from the raw diagonal; exact zeros fall back to 1 so the
    /// preconditioner stays well-defined.
    pub fn from_diagonal(diag: &[f64]) -> DiagonalPrecond {
        DiagonalPrecond {
            inv_diag: diag.iter().map(|&d| if d != 0.0 { 1.0 / d } else { 1.0 }).collect(),
        }
    }

    /// The stored inverse diagonal.
    pub fn inv_diag(&self) -> &[f64] {
        &self.inv_diag
    }
}

impl Preconditioner for DiagonalPrecond {
    fn apply_inv(&self, x: &[f64], y: &mut [f64]) {
        for i in 0..x.len() {
            y[i] = x[i] * self.inv_diag[i];
        }
    }
}

/// Block-Jacobi preconditioning: the operator's diagonal blocks (over
/// contiguous index ranges) are LU-factored once and back-substituted on
/// every application.
#[derive(Debug, Clone)]
pub struct BlockJacobiPrecond {
    /// Start index of each block (blocks are contiguous and in order).
    starts: Vec<usize>,
    factors: Vec<LuFactor>,
    dim: usize,
}

impl BlockJacobiPrecond {
    /// Factors the given contiguous diagonal blocks, consuming them.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] for a non-square block;
    /// * [`LinalgError::Singular`] when a block is singular.
    pub fn new(blocks: Vec<Matrix>) -> Result<BlockJacobiPrecond, LinalgError> {
        let mut starts = Vec::with_capacity(blocks.len());
        let mut factors = Vec::with_capacity(blocks.len());
        let mut dim = 0;
        for block in blocks {
            starts.push(dim);
            dim += block.rows();
            factors.push(LuFactor::new(block)?);
        }
        Ok(BlockJacobiPrecond { starts, factors, dim })
    }

    /// Total dimension covered by the blocks.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of diagonal blocks.
    pub fn block_count(&self) -> usize {
        self.factors.len()
    }
}

impl Preconditioner for BlockJacobiPrecond {
    fn apply_inv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.dim, "block-jacobi dimension mismatch");
        for (start, factor) in self.starts.iter().zip(&self.factors) {
            let end = start + factor.dim();
            let sol =
                factor.solve_vec(&x[*start..end]).expect("block shape fixed at factorization");
            y[*start..end].copy_from_slice(&sol);
        }
    }
}

/// Adapter: an operator's own [`LinearOperator::precondition`] viewed as a
/// [`Preconditioner`] (the historical behavior of [`gmres`]).
#[derive(Clone, Copy)]
pub struct OperatorPrecond<'a>(pub &'a dyn LinearOperator);

impl Preconditioner for OperatorPrecond<'_> {
    fn apply_inv(&self, x: &[f64], y: &mut [f64]) {
        self.0.precondition(x, y);
    }
}

/// Which preconditioner an iterative backend builds — the typed,
/// digestible description that travels through solver configs and the
/// wire protocol (the actual [`Preconditioner`] is built at prepare
/// time from the operator's entries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PrecondKind {
    /// No preconditioning.
    Identity,
    /// Jacobi from the operator's exact diagonal (the default).
    #[default]
    Diagonal,
    /// Block-Jacobi over contiguous index blocks of the given size.
    BlockJacobi {
        /// Panels per diagonal block (clamped to at least 1).
        block: usize,
    },
}

/// Iterative-solver caps shared by every Krylov-backed backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KrylovConfig {
    /// Relative residual tolerance ‖b − Ax‖/‖b‖.
    pub tol: f64,
    /// GMRES restart length.
    pub restart: usize,
    /// Cap on total matvecs per right-hand side.
    pub max_iters: usize,
}

impl Default for KrylovConfig {
    fn default() -> KrylovConfig {
        KrylovConfig { tol: 1e-6, restart: 40, max_iters: 600 }
    }
}

/// A dense matrix viewed as a [`LinearOperator`] with Jacobi (diagonal)
/// preconditioning.
#[derive(Debug, Clone)]
pub struct DenseOperator {
    a: Matrix,
    inv_diag: Vec<f64>,
}

impl DenseOperator {
    /// Wraps a square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `a` is not square.
    pub fn new(a: Matrix) -> Result<DenseOperator, LinalgError> {
        if a.rows() != a.cols() {
            return Err(LinalgError::DimensionMismatch {
                op: "dense_operator",
                detail: format!("{}x{}", a.rows(), a.cols()),
            });
        }
        let inv_diag = (0..a.rows())
            .map(|i| {
                let d = a.get(i, i);
                if d != 0.0 {
                    1.0 / d
                } else {
                    1.0
                }
            })
            .collect();
        Ok(DenseOperator { a, inv_diag })
    }

    /// The wrapped matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.a
    }
}

impl LinearOperator for DenseOperator {
    fn dim(&self) -> usize {
        self.a.rows()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let r = self.a.matvec(x);
        y.copy_from_slice(&r);
    }

    fn precondition(&self, x: &[f64], y: &mut [f64]) {
        for i in 0..x.len() {
            y[i] = x[i] * self.inv_diag[i];
        }
    }
}

/// Statistics returned by the Krylov solvers.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KrylovStats {
    /// Matrix-vector products performed (the iteration count).
    pub matvecs: usize,
    /// Times the GMRES Arnoldi basis was discarded and rebuilt (0 when
    /// convergence happened inside the first restart cycle).
    pub restarts: usize,
    /// Final relative residual ‖b − Ax‖/‖b‖.
    pub residual: f64,
}

impl KrylovStats {
    /// Accumulates another solve's counters into this one (residual keeps
    /// the worst of the two — the number that bounds every solution).
    pub fn absorb(&mut self, other: KrylovStats) {
        self.matvecs += other.matvecs;
        self.restarts += other.restarts;
        self.residual = self.residual.max(other.residual);
    }
}

/// Restarted, right-preconditioned GMRES(m) with the operator's own
/// [`LinearOperator::precondition`] as `M⁻¹`.
///
/// # Errors
///
/// * [`LinalgError::DimensionMismatch`] if `b.len() != op.dim()`;
/// * [`LinalgError::NoConvergence`] if the residual has not dropped below
///   `tol` after `max_iters` total inner iterations.
pub fn gmres(
    op: &dyn LinearOperator,
    b: &[f64],
    restart: usize,
    tol: f64,
    max_iters: usize,
) -> Result<(Vec<f64>, KrylovStats), LinalgError> {
    gmres_with(op, &OperatorPrecond(op), b, &KrylovConfig { tol, restart, max_iters })
}

/// Restarted, right-preconditioned GMRES(m) with an explicit
/// [`Preconditioner`] — the one Krylov driver behind every iterative
/// backend (FMM and pFFT both solve through here).
///
/// # Errors
///
/// * [`LinalgError::DimensionMismatch`] if `b.len() != op.dim()`;
/// * [`LinalgError::NoConvergence`] if the residual has not dropped below
///   `cfg.tol` after `cfg.max_iters` total inner iterations.
pub fn gmres_with(
    op: &dyn LinearOperator,
    pre: &dyn Preconditioner,
    b: &[f64],
    cfg: &KrylovConfig,
) -> Result<(Vec<f64>, KrylovStats), LinalgError> {
    let n = op.dim();
    let (tol, max_iters) = (cfg.tol, cfg.max_iters);
    if b.len() != n {
        return Err(LinalgError::DimensionMismatch {
            op: "gmres",
            detail: format!("rhs length {} != {n}", b.len()),
        });
    }
    let m = cfg.restart.max(1).min(n.max(1));
    let bnorm = norm2(b);
    if bnorm == 0.0 {
        return Ok((vec![0.0; n], KrylovStats::default()));
    }
    let mut x = vec![0.0; n];
    let mut matvecs = 0;
    let mut cycles = 0usize;
    let mut scratch = vec![0.0; n];
    let mut precond = vec![0.0; n];
    loop {
        // r = b - A x
        op.apply(&x, &mut scratch);
        matvecs += 1;
        let mut r: Vec<f64> = b.iter().zip(&scratch).map(|(bi, ai)| bi - ai).collect();
        let beta = norm2(&r);
        let restarts = cycles.saturating_sub(1);
        if beta / bnorm < tol {
            return Ok((x, KrylovStats { matvecs, restarts, residual: beta / bnorm }));
        }
        if matvecs >= max_iters {
            return Err(LinalgError::NoConvergence { iterations: matvecs, residual: beta / bnorm });
        }
        for ri in &mut r {
            *ri /= beta;
        }
        // Arnoldi with right preconditioning: K_j = span{ A M^-1 v }.
        let mut v: Vec<Vec<f64>> = vec![r];
        let mut h = vec![vec![0.0; m]; m + 1]; // h[i][j]
        let mut cs = vec![0.0; m];
        let mut sn = vec![0.0; m];
        let mut g = vec![0.0; m + 1];
        g[0] = beta;
        let mut j_done = 0;
        for j in 0..m {
            pre.apply_inv(&v[j], &mut precond);
            op.apply(&precond, &mut scratch);
            matvecs += 1;
            let mut w = scratch.clone();
            // Modified Gram-Schmidt.
            for (i, vi) in v.iter().enumerate() {
                let hij = dot(&w, vi);
                h[i][j] = hij;
                axpy(-hij, vi, &mut w);
            }
            let hj1 = norm2(&w);
            h[j + 1][j] = hj1;
            // Apply previous Givens rotations to column j.
            for i in 0..j {
                let t = cs[i] * h[i][j] + sn[i] * h[i + 1][j];
                h[i + 1][j] = -sn[i] * h[i][j] + cs[i] * h[i + 1][j];
                h[i][j] = t;
            }
            // New rotation to annihilate h[j+1][j].
            let denom = (h[j][j] * h[j][j] + hj1 * hj1).sqrt();
            if denom == 0.0 {
                cs[j] = 1.0;
                sn[j] = 0.0;
            } else {
                cs[j] = h[j][j] / denom;
                sn[j] = hj1 / denom;
            }
            h[j][j] = cs[j] * h[j][j] + sn[j] * h[j + 1][j];
            h[j + 1][j] = 0.0;
            g[j + 1] = -sn[j] * g[j];
            g[j] *= cs[j];
            j_done = j + 1;
            let rel = g[j + 1].abs() / bnorm;
            if hj1 == 0.0 || rel < tol || matvecs >= max_iters {
                break;
            }
            for wi in &mut w {
                *wi /= hj1;
            }
            v.push(w);
        }
        // Solve the small triangular system for the update coefficients.
        let k = j_done;
        let mut y = vec![0.0; k];
        for i in (0..k).rev() {
            let mut acc = g[i];
            for l in (i + 1)..k {
                acc -= h[i][l] * y[l];
            }
            y[i] = acc / h[i][i];
        }
        // x += M^-1 (V y)
        let mut update = vec![0.0; n];
        for (l, yl) in y.iter().enumerate() {
            axpy(*yl, &v[l], &mut update);
        }
        pre.apply_inv(&update, &mut precond);
        axpy(1.0, &precond, &mut x);
        cycles += 1;
        // Outer loop re-checks the true residual.
    }
}

/// The shared multi-right-hand-side capacitance driver: one preconditioned
/// GMRES solve per group (conductor), accumulating the grouped quadratic
/// form `C[g][k] = Σ_{i: group_of[i]=g} w_i x^{(k)}_i` where `x^{(k)}`
/// solves `A x = b^{(k)}` with `b^{(k)}_i = w_i [group_of[i] = k]`.
///
/// This is exactly the solve loop the FASTCAP-style baselines used to
/// duplicate: `w` are the Galerkin panel areas, groups are conductors, and
/// the result is the short-circuit capacitance matrix. Stats are
/// aggregated across all right-hand sides (matvecs and restarts summed,
/// residual the worst observed).
///
/// # Errors
///
/// * [`LinalgError::DimensionMismatch`] if `weights`/`group_of` do not
///   match `op.dim()` or a group index is out of range;
/// * any GMRES failure ([`LinalgError::NoConvergence`]).
pub fn gmres_grouped(
    op: &dyn LinearOperator,
    pre: &dyn Preconditioner,
    weights: &[f64],
    group_of: &[usize],
    groups: usize,
    cfg: &KrylovConfig,
) -> Result<(Matrix, KrylovStats), LinalgError> {
    let n = op.dim();
    if weights.len() != n || group_of.len() != n {
        return Err(LinalgError::DimensionMismatch {
            op: "gmres_grouped",
            detail: format!("weights {} / groups {} != {n}", weights.len(), group_of.len()),
        });
    }
    if let Some(&bad) = group_of.iter().find(|&&g| g >= groups) {
        return Err(LinalgError::DimensionMismatch {
            op: "gmres_grouped",
            detail: format!("group index {bad} out of range 0..{groups}"),
        });
    }
    let mut c = Matrix::zeros(groups, groups);
    let mut stats = KrylovStats::default();
    for k in 0..groups {
        let rhs: Vec<f64> =
            weights.iter().zip(group_of).map(|(&w, &g)| if g == k { w } else { 0.0 }).collect();
        let (x, s) = gmres_with(op, pre, &rhs, cfg)?;
        stats.absorb(s);
        for (i, &g) in group_of.iter().enumerate() {
            c.add_to(g, k, weights[i] * x[i]);
        }
    }
    Ok((c, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                4.0 + i as f64 * 0.1
            } else {
                1.0 / (1.0 + (i as f64 - j as f64).abs().powi(2))
            }
        })
    }

    #[test]
    fn gmres_solves_spd() {
        let n = 30;
        let a = spd(n);
        let x_true: Vec<f64> = (0..n).map(|i| ((i * i) as f64 * 0.01).sin()).collect();
        let b = a.matvec(&x_true);
        let op = DenseOperator::new(a).unwrap();
        let (x, stats) = gmres(&op, &b, 20, 1e-12, 500).unwrap();
        assert!(stats.residual < 1e-12);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-8);
        }
    }

    #[test]
    fn gmres_nonsymmetric() {
        let a =
            Matrix::from_rows(&[&[2.0, 1.0, 0.0], &[0.1, 3.0, -1.0], &[0.0, 0.5, 4.0]]).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let op = DenseOperator::new(a.clone()).unwrap();
        let (x, _) = gmres(&op, &b, 3, 1e-13, 200).unwrap();
        let ax = a.matvec(&x);
        for (ai, bi) in ax.iter().zip(&b) {
            assert!((ai - bi).abs() < 1e-10);
        }
    }

    #[test]
    fn gmres_with_restart_smaller_than_dim() {
        let n = 25;
        let a = spd(n);
        let b = vec![1.0; n];
        let op = DenseOperator::new(a).unwrap();
        let (x, stats) = gmres(&op, &b, 5, 1e-10, 2000).unwrap();
        assert!(stats.residual < 1e-10);
        assert!(!x.iter().any(|v| v.is_nan()));
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let op = DenseOperator::new(Matrix::identity(4)).unwrap();
        let (x, stats) = gmres(&op, &[0.0; 4], 4, 1e-12, 10).unwrap();
        assert_eq!(x, vec![0.0; 4]);
        assert_eq!(stats.matvecs, 0);
    }

    #[test]
    fn no_convergence_reported() {
        let op = DenseOperator::new(spd(20)).unwrap();
        let err = gmres(&op, &[1.0; 20], 2, 1e-30, 3);
        assert!(matches!(err, Err(LinalgError::NoConvergence { .. })));
    }

    #[test]
    fn dimension_checked() {
        let op = DenseOperator::new(Matrix::identity(3)).unwrap();
        assert!(gmres(&op, &[1.0; 2], 2, 1e-10, 10).is_err());
        assert!(DenseOperator::new(Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn gmres_wrapper_is_bit_identical_to_explicit_operator_precond() {
        let n = 25;
        let a = spd(n);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let op = DenseOperator::new(a).unwrap();
        let (x1, s1) = gmres(&op, &b, 7, 1e-11, 1000).unwrap();
        let cfg = KrylovConfig { tol: 1e-11, restart: 7, max_iters: 1000 };
        let (x2, s2) = gmres_with(&op, &OperatorPrecond(&op), &b, &cfg).unwrap();
        assert_eq!(x1, x2);
        assert_eq!((s1.matvecs, s1.residual.to_bits()), (s2.matvecs, s2.residual.to_bits()));
    }

    #[test]
    fn restarts_are_counted() {
        let n = 25;
        let a = spd(n);
        let b = vec![1.0; n];
        let op = DenseOperator::new(a).unwrap();
        // A restart length far below the dimension forces several cycles.
        let (_, tight) = gmres(&op, &b, 3, 1e-12, 2000).unwrap();
        assert!(tight.restarts > 0, "restart 3 on n=25 must cycle: {tight:?}");
        // Full-length GMRES converges inside the first cycle.
        let (_, full) = gmres(&op, &b, n, 1e-12, 2000).unwrap();
        assert_eq!(full.restarts, 0, "{full:?}");
    }

    #[test]
    fn diagonal_precond_matches_operator_precondition() {
        let n = 20;
        let a = spd(n);
        let diag: Vec<f64> = (0..n).map(|i| a.get(i, i)).collect();
        let op = DenseOperator::new(a).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let cfg = KrylovConfig { tol: 1e-12, restart: 10, max_iters: 1000 };
        let (x1, _) = gmres_with(&op, &OperatorPrecond(&op), &b, &cfg).unwrap();
        let (x2, _) = gmres_with(&op, &DiagonalPrecond::from_diagonal(&diag), &b, &cfg).unwrap();
        // DenseOperator's internal precondition is exactly the diagonal.
        assert_eq!(x1, x2);
    }

    #[test]
    fn identity_and_block_jacobi_preconds_still_converge() {
        let n = 24;
        let a = spd(n);
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 3) as f64 * 0.05).sin()).collect();
        let b = a.matvec(&x_true);
        let blocks: Vec<Matrix> = (0..n / 4)
            .map(|blk| Matrix::from_fn(4, 4, |i, j| a.get(blk * 4 + i, blk * 4 + j)))
            .collect();
        let bj = BlockJacobiPrecond::new(blocks).unwrap();
        assert_eq!(bj.dim(), n);
        assert_eq!(bj.block_count(), 6);
        let op = DenseOperator::new(a).unwrap();
        let cfg = KrylovConfig { tol: 1e-12, restart: 12, max_iters: 2000 };
        for pre in [&IdentityPrecond as &dyn Preconditioner, &bj] {
            let (x, stats) = gmres_with(&op, pre, &b, &cfg).unwrap();
            assert!(stats.residual < 1e-12);
            for (xi, ti) in x.iter().zip(&x_true) {
                assert!((xi - ti).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn block_jacobi_rejects_singular_blocks() {
        assert!(BlockJacobiPrecond::new(vec![Matrix::zeros(2, 2)]).is_err());
    }

    #[test]
    fn grouped_driver_matches_the_hand_rolled_loop() {
        // 8 unknowns in 2 groups with unit-ish weights: the grouped driver
        // must produce exactly the per-RHS loop it replaces.
        let n = 8;
        let a = spd(n);
        let weights: Vec<f64> = (0..n).map(|i| 1.0 + 0.1 * i as f64).collect();
        let group_of = [0, 0, 1, 1, 0, 1, 0, 1];
        let op = DenseOperator::new(a).unwrap();
        let cfg = KrylovConfig { tol: 1e-12, restart: 8, max_iters: 500 };
        let pre = OperatorPrecond(&op);
        let (c, stats) = gmres_grouped(&op, &pre, &weights, &group_of, 2, &cfg).unwrap();
        let mut want = Matrix::zeros(2, 2);
        let mut matvecs = 0;
        for k in 0..2 {
            let rhs: Vec<f64> = weights
                .iter()
                .zip(&group_of)
                .map(|(&w, &g)| if g == k { w } else { 0.0 })
                .collect();
            let (x, s) = gmres_with(&op, &pre, &rhs, &cfg).unwrap();
            matvecs += s.matvecs;
            for (i, &g) in group_of.iter().enumerate() {
                want.add_to(g, k, weights[i] * x[i]);
            }
        }
        assert_eq!(c.as_slice(), want.as_slice());
        assert_eq!(stats.matvecs, matvecs);
        // Symmetric operator, symmetric grouping: C is symmetric to solver
        // tolerance.
        assert!(c.is_symmetric(1e-9));
    }

    #[test]
    fn grouped_driver_checks_shapes() {
        let op = DenseOperator::new(Matrix::identity(3)).unwrap();
        let cfg = KrylovConfig::default();
        let pre = IdentityPrecond;
        assert!(gmres_grouped(&op, &pre, &[1.0; 2], &[0, 0, 0], 1, &cfg).is_err());
        assert!(gmres_grouped(&op, &pre, &[1.0; 3], &[0, 2, 0], 2, &cfg).is_err());
    }
}
