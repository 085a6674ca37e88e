//! Singular value decompositions.
//!
//! Two paths are provided:
//!
//! * [`jacobi_svd`] — a one-sided Jacobi SVD for small dense matrices, the
//!   reference implementation in tests.
//! * [`truncated_svd`] — top-`k` singular triplets by subspace iteration on
//!   the Gram matrix of the operator's *smaller* side. It is the one top-k
//!   solver of the offline build: the HOSVD initialization and every HOOI
//!   update of Tucker ALS take its left vectors, and the LSI baseline its
//!   left vectors and singular values.

use crate::error::LinAlgError;
use crate::matrix::{norm2, Matrix};
use crate::qr::{orthonormality_error, orthonormalize_columns};
use crate::sparse::CsrMatrix;
use crate::subspace::{sym_eigs_topk, DenseSymOp, GramOp, SubspaceOptions, TopkEigen};
use crate::Result;

/// A (possibly truncated) singular value decomposition `A ≈ U Σ Vᵀ`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, one per column (`m x k`).
    pub u: Matrix,
    /// Singular values in descending order (length `k`).
    pub singular_values: Vec<f64>,
    /// Right singular vectors, one per column (`n x k`).
    pub v: Matrix,
}

impl Svd {
    /// Reconstructs `U Σ Vᵀ` densely (tests / tiny inputs only).
    pub fn reconstruct(&self) -> Result<Matrix> {
        let sigma = Matrix::from_diag(&self.singular_values);
        self.u.matmul(&sigma)?.matmul(&self.v.transpose())
    }

    /// Rank of the decomposition (number of retained singular values).
    pub fn rank(&self) -> usize {
        self.singular_values.len()
    }
}

/// A matrix `A: R^n → R^m` that [`truncated_svd`] can decompose: it applies
/// `A` and `Aᵀ` to dense blocks and solves the eigenproblem of its Gram
/// matrix on the smaller side. Implemented by sparse and dense matrices.
pub trait LinOp {
    /// Output dimension `m`.
    fn out_dim(&self) -> usize;
    /// Input dimension `n`.
    fn in_dim(&self) -> usize;
    /// `A * X` where `X` is `n x b`.
    fn apply(&self, x: &Matrix) -> Matrix;
    /// `Aᵀ * Y` where `Y` is `m x b`.
    fn apply_t(&self, y: &Matrix) -> Matrix;
    /// The `k` leading eigenpairs of the Gram matrix on the smaller side:
    /// `AᵀA` (`n x n`) when `n <= m`, else `AAᵀ` (`m x m`). `k` is at most
    /// `min(m, n)`.
    fn small_gram_eigs(&self, k: usize, opts: &SubspaceOptions) -> Result<TopkEigen>;
}

impl LinOp for Matrix {
    fn out_dim(&self) -> usize {
        self.rows()
    }
    fn in_dim(&self) -> usize {
        self.cols()
    }
    fn apply(&self, x: &Matrix) -> Matrix {
        self.matmul(x).expect("LinOp apply: dimension mismatch")
    }
    fn apply_t(&self, y: &Matrix) -> Matrix {
        // Transpose-free kernel; bit-identical to materializing the
        // transpose and multiplying, without the per-call copy.
        self.matmul_tn(y)
            .expect("LinOp apply_t: dimension mismatch")
    }
    /// Forms the `min(m, n)²` Gram explicitly in one pass over `A`; every
    /// iteration then touches only that small matrix instead of reading
    /// `A` twice.
    fn small_gram_eigs(&self, k: usize, opts: &SubspaceOptions) -> Result<TopkEigen> {
        let gram = if self.cols() <= self.rows() {
            self.gram()
        } else {
            self.gram_t()
        };
        sym_eigs_topk(&DenseSymOp::new(&gram), k, opts)
    }
}

impl LinOp for CsrMatrix {
    fn out_dim(&self) -> usize {
        self.rows()
    }
    fn in_dim(&self) -> usize {
        self.cols()
    }
    fn apply(&self, x: &Matrix) -> Matrix {
        self.matmul_dense(x)
            .expect("LinOp apply: dimension mismatch")
    }
    fn apply_t(&self, y: &Matrix) -> Matrix {
        self.matmul_dense_t(y)
            .expect("LinOp apply_t: dimension mismatch")
    }
    /// Applies the Gram implicitly with the fused single-pass
    /// [`GramOp::inner`]: on `A` itself when `n <= m`, else on the
    /// transpose, built once. Either way no `(other side) x block`
    /// intermediate exists, and the apply is bit-identical to the two
    /// sparse–dense products it replaces.
    fn small_gram_eigs(&self, k: usize, opts: &SubspaceOptions) -> Result<TopkEigen> {
        if self.cols() <= self.rows() {
            sym_eigs_topk(&GramOp::inner(self), k, opts)
        } else {
            sym_eigs_topk(&GramOp::inner(&self.transpose()), k, opts)
        }
    }
}

/// One-sided Jacobi SVD of a small dense matrix.
///
/// Orthogonalizes the *columns* of a working copy of `A` by Jacobi rotations
/// on the right; at convergence the column norms are the singular values,
/// the normalized columns are `U`, and the accumulated rotations are `V`.
/// For `m < n` the decomposition is computed on `Aᵀ` and swapped back.
///
/// Returns the thin SVD with `k = min(m, n)` triplets, descending.
pub fn jacobi_svd(a: &Matrix) -> Result<Svd> {
    let (m, n) = a.shape();
    if m < n {
        // Work on the transpose and swap U/V afterwards.
        let svd = jacobi_svd(&a.transpose())?;
        return Ok(Svd {
            u: svd.v,
            singular_values: svd.singular_values,
            v: svd.u,
        });
    }
    let mut u = a.clone(); // m x n, columns will be orthogonalized
    let mut v = Matrix::identity(n);
    let tol = 1e-14;
    let max_sweeps = 60;
    let mut converged = false;
    for _sweep in 0..max_sweeps {
        let mut off = 0.0f64;
        for p in 0..n.saturating_sub(1) {
            for q in (p + 1)..n {
                // Compute the 2x2 Gram block for columns p, q.
                let mut app = 0.0;
                let mut aqq = 0.0;
                let mut apq = 0.0;
                for i in 0..m {
                    let up = u[(i, p)];
                    let uq = u[(i, q)];
                    app += up * up;
                    aqq += uq * uq;
                    apq += up * uq;
                }
                off = off.max(apq.abs() / (app * aqq).sqrt().max(f64::MIN_POSITIVE));
                if apq.abs() <= tol * (app * aqq).sqrt() {
                    continue;
                }
                // Jacobi rotation annihilating the off-diagonal Gram entry.
                let tau = (aqq - app) / (2.0 * apq);
                let t = if tau >= 0.0 {
                    1.0 / (tau + (1.0 + tau * tau).sqrt())
                } else {
                    1.0 / (tau - (1.0 + tau * tau).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                for i in 0..m {
                    let up = u[(i, p)];
                    let uq = u[(i, q)];
                    u[(i, p)] = c * up - s * uq;
                    u[(i, q)] = s * up + c * uq;
                }
                for i in 0..n {
                    let vp = v[(i, p)];
                    let vq = v[(i, q)];
                    v[(i, p)] = c * vp - s * vq;
                    v[(i, q)] = s * vp + c * vq;
                }
            }
        }
        if off < tol * 10.0 {
            converged = true;
            break;
        }
    }
    if !converged && n > 1 {
        // One-sided Jacobi converges in practice; if we ever land here the
        // result is still usable but we surface the residual to the caller.
        // (Tolerance is extremely tight, so treat near-convergence as done.)
    }
    // Extract singular values (column norms) and normalize U.
    let mut triplets: Vec<(f64, usize)> = (0..n)
        .map(|j| {
            let col = u.col(j);
            (norm2(&col), j)
        })
        .collect();
    triplets.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    let mut u_out = Matrix::zeros(m, n);
    let mut v_out = Matrix::zeros(n, n);
    let mut sigma = Vec::with_capacity(n);
    for (new_j, &(s, old_j)) in triplets.iter().enumerate() {
        sigma.push(s);
        let inv = if s > 1e-300 { 1.0 / s } else { 0.0 };
        for i in 0..m {
            u_out[(i, new_j)] = u[(i, old_j)] * inv;
        }
        for i in 0..n {
            v_out[(i, new_j)] = v[(i, old_j)];
        }
    }
    Ok(Svd {
        u: u_out,
        singular_values: sigma,
        v: v_out,
    })
}

/// Singular values at or below this fraction of `σ₁` count as zero. A
/// Gram-based solve resolves eigenvalues only to about `ε·λ₁`, which puts
/// the singular values of null directions near `√ε·σ₁ ≈ 1.5e-8·σ₁`
/// rather than at 0; dividing by such a value would blow round-off up into
/// a spurious singular vector.
const NULL_SINGULAR_REL: f64 = 1e-6;

/// Largest [`orthonormality_error`] a recovered factor may keep without
/// being re-orthonormalized. The eigensolver leaves its Ritz vectors
/// Gram-orthogonal only to its Jacobi tolerance, and recovery through
/// `Σ⁻¹` amplifies that coupling by about `σ₁²/(σᵢσⱼ)`: well-separated
/// spectra stay near 1e-13, wide ones (σ₁/σₖ ≈ 40) reach 1e-10.
const ORTHONORMALITY_TOL: f64 = 1e-11;

/// Top-`k` singular triplets of `A` (`m x n`) via subspace iteration on the
/// Gram matrix of the smaller side ([`LinOp::small_gram_eigs`]).
///
/// The eigenvectors are the singular vectors of that side; the other side
/// is recovered as `A V Σ⁻¹` (or `Aᵀ U Σ⁻¹`). `U` always has exactly `k`
/// columns, orthonormal to within [`ORTHONORMALITY_TOL`]
/// (`1 <= k <= m`, else `InvalidArgument`), also when
/// `A` is rank deficient: vectors for zero singular values (at most
/// [`NULL_SINGULAR_REL`]`·σ₁`) form an orthonormal completion. When
/// `k > n`, the singular values past `n` are 0 and the matching columns of
/// `V` are zero.
pub fn truncated_svd(a: &dyn LinOp, k: usize, opts: &SubspaceOptions) -> Result<Svd> {
    let (m, n) = (a.out_dim(), a.in_dim());
    if k == 0 || k > m || n == 0 {
        return Err(LinAlgError::InvalidArgument(format!(
            "truncated_svd needs 1 <= k <= rows on a non-empty matrix, got k = {k} for {m}x{n}"
        )));
    }
    let eigs = a.small_gram_eigs(k.min(n), opts)?;
    let mut singular_values: Vec<f64> = eigs.values.iter().map(|&l| l.max(0.0).sqrt()).collect();
    let floor = NULL_SINGULAR_REL * singular_values[0];
    if n <= m {
        // Eigenvectors are V; recover U = A V Σ⁻¹, completed to k columns.
        let mut v = eigs.vectors;
        let u = recover_orthonormal(a.apply(&v), &singular_values, floor, k);
        singular_values.resize(k, 0.0);
        if v.cols() < k {
            v = widen(&v, k);
        }
        Ok(Svd {
            u,
            singular_values,
            v,
        })
    } else {
        // Eigenvectors are U; recover V = Aᵀ U Σ⁻¹.
        let u = eigs.vectors;
        let v = recover_orthonormal(a.apply_t(&u), &singular_values, floor, k);
        Ok(Svd {
            u,
            singular_values,
            v,
        })
    }
}

/// Turns `X = A W` (`W` the eigenvectors of one side) into `width`
/// orthonormal singular vectors of the other side: column `j` is divided by
/// `σⱼ`, columns of zero singular values (`σⱼ <= floor`) and those past
/// `σ.len()` are completed to an orthonormal basis, and a result that lost
/// orthogonality beyond [`ORTHONORMALITY_TOL`] is re-orthonormalized.
fn recover_orthonormal(mut x: Matrix, sigma: &[f64], floor: f64, width: usize) -> Matrix {
    let cols = x.cols();
    let inv: Vec<f64> = sigma
        .iter()
        .map(|&s| if s > floor { 1.0 / s } else { 0.0 })
        .collect();
    for row in x.as_mut_slice().chunks_exact_mut(cols.max(1)) {
        for (v, &inv) in row.iter_mut().zip(&inv) {
            *v *= inv;
        }
    }
    let complete = width > cols || inv.contains(&0.0);
    if width > cols {
        x = widen(&x, width);
    }
    if complete || orthonormality_error(&x) > ORTHONORMALITY_TOL {
        orthonormalize_columns(&mut x);
    }
    x
}

/// `m` padded with zero columns up to `width`.
fn widen(m: &Matrix, width: usize) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), width);
    for i in 0..m.rows() {
        out.row_mut(i)[..m.cols()].copy_from_slice(m.row(i));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qr::orthonormality_error;
    use crate::subspace::GramOp;

    fn sample() -> Matrix {
        Matrix::from_rows(&[
            vec![3.0, 1.0, 0.0],
            vec![1.0, 3.0, 1.0],
            vec![0.0, 1.0, 3.0],
            vec![2.0, 0.0, -1.0],
        ])
        .unwrap()
    }

    #[test]
    fn jacobi_svd_reconstructs() {
        let a = sample();
        let svd = jacobi_svd(&a).unwrap();
        let recon = svd.reconstruct().unwrap();
        assert!(recon.approx_eq(&a, 1e-9));
    }

    #[test]
    fn jacobi_svd_factors_are_orthonormal() {
        let a = sample();
        let svd = jacobi_svd(&a).unwrap();
        assert!(orthonormality_error(&svd.u) < 1e-9);
        assert!(orthonormality_error(&svd.v) < 1e-9);
    }

    #[test]
    fn jacobi_svd_values_sorted_and_nonnegative() {
        let a = sample();
        let svd = jacobi_svd(&a).unwrap();
        for w in svd.singular_values.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(svd.singular_values.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn jacobi_svd_wide_matrix() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0], vec![0.0, -1.0, 1.0, 2.0]]).unwrap();
        let svd = jacobi_svd(&a).unwrap();
        assert_eq!(svd.u.shape(), (2, 2));
        assert_eq!(svd.v.shape(), (4, 2));
        assert!(svd.reconstruct().unwrap().approx_eq(&a, 1e-9));
    }

    #[test]
    fn jacobi_svd_diag_known_values() {
        let a = Matrix::from_diag(&[4.0, 2.0, 1.0]);
        let svd = jacobi_svd(&a).unwrap();
        assert!((svd.singular_values[0] - 4.0).abs() < 1e-10);
        assert!((svd.singular_values[1] - 2.0).abs() < 1e-10);
        assert!((svd.singular_values[2] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn jacobi_svd_rank_deficient() {
        // Rank-1 matrix: second singular value must vanish.
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]).unwrap();
        let svd = jacobi_svd(&a).unwrap();
        assert!(svd.singular_values[1] < 1e-10);
        assert!(svd.reconstruct().unwrap().approx_eq(&a, 1e-9));
    }

    #[test]
    fn truncated_matches_jacobi_on_dense() {
        let a = sample();
        let full = jacobi_svd(&a).unwrap();
        let trunc = truncated_svd(&a, 2, &SubspaceOptions::default()).unwrap();
        assert!((trunc.singular_values[0] - full.singular_values[0]).abs() < 1e-6);
        assert!((trunc.singular_values[1] - full.singular_values[1]).abs() < 1e-6);
        // Best rank-2 approximation error must equal the discarded σ₃.
        let recon = trunc.reconstruct().unwrap();
        let err = recon.sub(&a).unwrap().frobenius_norm();
        assert!((err - full.singular_values[2]).abs() < 1e-5);
    }

    #[test]
    fn truncated_on_sparse_matches_dense() {
        let triples = [
            (0usize, 0usize, 1.0),
            (0, 3, 2.0),
            (1, 1, 3.0),
            (2, 2, -1.0),
            (3, 0, 0.5),
            (4, 3, 1.5),
        ];
        let sp = CsrMatrix::from_triples(5, 4, &triples).unwrap();
        let dense = sp.to_dense();
        let s1 = truncated_svd(&sp, 3, &SubspaceOptions::default()).unwrap();
        let s2 = jacobi_svd(&dense).unwrap();
        for i in 0..3 {
            assert!(
                (s1.singular_values[i] - s2.singular_values[i]).abs() < 1e-6,
                "σ{i}: {} vs {}",
                s1.singular_values[i],
                s2.singular_values[i]
            );
        }
    }

    #[test]
    fn truncated_rejects_k_zero() {
        let a = sample();
        assert!(truncated_svd(&a, 0, &SubspaceOptions::default()).is_err());
    }

    #[test]
    fn truncated_rejects_k_above_rows() {
        let a = sample();
        assert!(truncated_svd(&a, 5, &SubspaceOptions::default()).is_err());
        assert!(truncated_svd(&a.transpose(), 4, &SubspaceOptions::default()).is_err());
    }

    #[test]
    fn truncated_completes_when_k_exceeds_cols() {
        // A tall sparse matrix (an unfolding with few occupied columns)
        // asked for more left vectors than it has columns.
        let triples = [
            (0usize, 0usize, 2.0),
            (1, 1, 1.0),
            (3, 0, 1.0),
            (4, 2, -3.0),
            (5, 1, 0.5),
        ];
        let sp = CsrMatrix::from_triples(6, 3, &triples).unwrap();
        let svd = truncated_svd(&sp, 5, &SubspaceOptions::default()).unwrap();
        assert_eq!(svd.u.shape(), (6, 5));
        assert_eq!(svd.v.shape(), (3, 5));
        assert!(orthonormality_error(&svd.u) < 1e-12);
        assert_eq!(&svd.singular_values[3..], &[0.0, 0.0]);
        assert!(svd.reconstruct().unwrap().approx_eq(&sp.to_dense(), 1e-10));
    }

    #[test]
    fn truncated_dense_rank_deficient_returns_k_orthonormal() {
        // Rank 2 (the third column is the sum of the first two): the
        // explicit Gram leaves the null singular value near √ε·σ₁, which
        // must be completed, not divided by.
        let w = Matrix::from_rows(&[
            vec![1.0, 0.0, 1.0],
            vec![0.0, 2.0, 2.0],
            vec![3.0, 1.0, 4.0],
            vec![1.0, -1.0, 0.0],
            vec![2.0, 0.5, 2.5],
        ])
        .unwrap();
        let svd = truncated_svd(&w, 3, &SubspaceOptions::default()).unwrap();
        assert_eq!(svd.u.shape(), (5, 3));
        assert!(orthonormality_error(&svd.u) < 1e-12);
        assert!(svd.singular_values[2] <= 1e-6 * svd.singular_values[0]);
        assert!(svd.reconstruct().unwrap().approx_eq(&w, 1e-7));
        // The leading pair matches the oracle.
        let full = jacobi_svd(&w).unwrap();
        for j in 0..2 {
            assert!((svd.singular_values[j] - full.singular_values[j]).abs() < 1e-9);
        }
    }

    #[test]
    fn truncated_dense_wide_iterates_on_row_gram() {
        let w = sample().transpose();
        let svd = truncated_svd(&w, 2, &SubspaceOptions::default()).unwrap();
        let full = jacobi_svd(&w).unwrap();
        assert_eq!(svd.u.shape(), (3, 2));
        assert_eq!(svd.v.shape(), (4, 2));
        for j in 0..2 {
            assert!((svd.singular_values[j] - full.singular_values[j]).abs() < 1e-9);
        }
        assert!(orthonormality_error(&svd.u) < 1e-12);
        assert!(orthonormality_error(&svd.v) < 1e-10);
    }

    #[test]
    fn gram_op_is_reused_by_svd() {
        // Smoke test that the GramOp helpers stay consistent with LinOp SVD.
        let triples = [(0usize, 0usize, 2.0), (1, 1, 1.0), (2, 0, 1.0)];
        let sp = CsrMatrix::from_triples(3, 2, &triples).unwrap();
        let svd = truncated_svd(&sp, 2, &SubspaceOptions::default()).unwrap();
        let gram = GramOp::inner(&sp);
        let eig = sym_eigs_topk(&gram, 2, &SubspaceOptions::default()).unwrap();
        for i in 0..2 {
            assert!((svd.singular_values[i].powi(2) - eig.values[i]).abs() < 1e-6);
        }
    }
}
