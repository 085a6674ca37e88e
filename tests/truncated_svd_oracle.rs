//! `truncated_svd` against the dense one-sided Jacobi SVD.
//!
//! The build takes every top-k factor from `truncated_svd`: sparse tensor
//! unfoldings for the HOSVD start and dense products `W` for the HOOI
//! updates. Both are checked here on small random inputs, including the
//! awkward shapes of real corpora: more requested vectors than occupied
//! columns, empty rows, and rank-deficient `W`. Whatever the input, the
//! call must return exactly `k` orthonormal left vectors; where the
//! spectrum has a gap after the `p`-th singular value, the leading `p`
//! vectors must span the same subspace as the oracle's.

use cubelsi::linalg::qr::orthonormality_error;
use cubelsi::linalg::subspace::SubspaceOptions;
use cubelsi::linalg::{jacobi_svd, truncated_svd, LinOp, Matrix};
use cubelsi::tensor::SparseTensor3;
use proptest::prelude::*;

/// `‖U₁U₁ᵀ − U₂U₂ᵀ‖_F` over the first `p` columns of each.
fn projector_distance(u1: &Matrix, u2: &Matrix, p: usize) -> f64 {
    let a = u1.truncate_cols(p).unwrap();
    let b = u2.truncate_cols(p).unwrap();
    let pa = a.matmul(&a.transpose()).unwrap();
    let pb = b.matmul(&b.transpose()).unwrap();
    pa.sub(&pb).unwrap().frobenius_norm()
}

/// Checks one `truncated_svd(a, k)` call against `jacobi_svd(dense)`.
fn check_against_oracle(a: &dyn LinOp, dense: &Matrix, k: usize) -> Result<(), TestCaseError> {
    let (m, n) = dense.shape();
    let svd = truncated_svd(a, k, &SubspaceOptions::default()).unwrap();
    prop_assert_eq!(svd.u.shape(), (m, k));
    prop_assert_eq!(svd.singular_values.len(), k);
    prop_assert_eq!(svd.v.shape(), (n, k));
    let err = orthonormality_error(&svd.u);
    prop_assert!(
        err < 1e-10,
        "U of {m}x{n} at k={k}: orthonormality error {err:e}"
    );

    let oracle = jacobi_svd(dense).unwrap();
    let s = &oracle.singular_values;
    let s1 = s[0];
    if s1 == 0.0 {
        return Ok(());
    }
    let sigma = |j: usize| s.get(j).copied().unwrap_or(0.0);
    for j in 0..k {
        if sigma(j) >= 1e-3 * s1 {
            let d = (svd.singular_values[j] - sigma(j)).abs();
            prop_assert!(
                d <= 1e-8 * s1,
                "σ{j} of {m}x{n}: {} vs {}",
                svd.singular_values[j],
                sigma(j)
            );
        }
    }
    for p in 1..=k {
        let gap = sigma(p - 1) - sigma(p);
        if sigma(p - 1) >= 1e-3 * s1 && gap >= 1e-2 * s1 {
            let d = projector_distance(&svd.u, &oracle.u, p);
            prop_assert!(
                d < 1e-6,
                "top-{p} subspace of {m}x{n} at k={k}: projector distance {d:e}"
            );
        }
    }
    Ok(())
}

/// A small sparse tensor (dims 1..=8 per mode, 1 to 39 entries, duplicates
/// summed) with one of its modes and a requested rank up to that mode's
/// size.
fn tensor_mode_rank() -> impl Strategy<Value = (SparseTensor3, usize, usize)> {
    (1usize..=8, 1usize..=8, 1usize..=8, 1usize..=3)
        .prop_flat_map(|(d1, d2, d3, mode)| {
            let entry = (0..d1, 0..d2, 0..d3, 0.25f64..3.0);
            let size = [d1, d2, d3][mode - 1];
            (
                proptest::collection::vec(entry, 1..40),
                Just((d1, d2, d3)),
                Just(mode),
                1..=size,
            )
        })
        .prop_map(|(entries, dims, mode, k)| {
            (
                SparseTensor3::from_entries(dims, &entries).unwrap(),
                mode,
                k,
            )
        })
}

/// A dense `W` (up to 14 x 14) of rank at most `r` — `B Cᵀ`, so `r` below
/// both sides makes it rank deficient — and a requested rank up to its
/// row count.
fn dense_w_rank() -> impl Strategy<Value = (Matrix, usize)> {
    (1usize..=14, 1usize..=14, 1usize..=14)
        .prop_flat_map(|(m, n, r)| {
            (
                proptest::collection::vec(-2.0f64..2.0, m * r),
                proptest::collection::vec(-2.0f64..2.0, n * r),
                Just((m, n, r)),
                1..=m,
            )
        })
        .prop_map(|(b, c, (m, n, r), k)| {
            let b = Matrix::from_vec(m, r, b).unwrap();
            let c = Matrix::from_vec(n, r, c).unwrap();
            (b.matmul(&c.transpose()).unwrap(), k)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sparse_unfolding_left_subspace_matches_jacobi((tensor, mode, k) in tensor_mode_rank()) {
        let (unfolding, _) = tensor.unfold_csr(mode);
        check_against_oracle(&unfolding, &unfolding.to_dense(), k)?;
    }

    #[test]
    fn dense_w_left_subspace_matches_jacobi((w, k) in dense_w_rank()) {
        check_against_oracle(&w, &w, k)?;
    }
}
