//! Micro-benchmarks for the linear-algebra substrate: the kernels every
//! higher-level stage (Tucker, LSI, spectral clustering) is built from.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cubelsi_linalg::subspace::SubspaceOptions;
use cubelsi_linalg::svd::truncated_svd;
use cubelsi_linalg::{householder_qr, jacobi_eigen, sym_eigs_topk, CsrMatrix, DenseSymOp, Matrix};
use std::hint::black_box;

fn dense_matrix(n: usize) -> Matrix {
    Matrix::from_fn(n, n, |i, j| (((i * 31 + j * 17) % 13) as f64 - 6.0) / 13.0)
}

fn spd_matrix(n: usize) -> Matrix {
    let b = dense_matrix(n);
    b.gram()
}

fn sparse_matrix(rows: usize, cols: usize, nnz: usize) -> CsrMatrix {
    let triples: Vec<(usize, usize, f64)> = (0..nnz)
        .map(|k| ((k * 7919) % rows, (k * 104729) % cols, 1.0 + (k % 5) as f64))
        .collect();
    CsrMatrix::from_triples(rows, cols, &triples).unwrap()
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    for n in [64usize, 128, 256] {
        let a = dense_matrix(n);
        let b = dense_matrix(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, _| {
            bencher.iter(|| black_box(a.matmul(&b).unwrap()));
        });
    }
    group.finish();
}

fn bench_qr(c: &mut Criterion) {
    let mut group = c.benchmark_group("householder_qr");
    for (m, n) in [(256usize, 16usize), (512, 32)] {
        let a = Matrix::from_fn(m, n, |i, j| ((i * 13 + j * 7) % 17) as f64 / 17.0 - 0.5);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{m}x{n}")),
            &a,
            |bencher, a| {
                bencher.iter(|| black_box(householder_qr(a).unwrap()));
            },
        );
    }
    group.finish();
}

fn bench_jacobi_eigen(c: &mut Criterion) {
    let mut group = c.benchmark_group("jacobi_eigen");
    for n in [16usize, 32, 64] {
        let a = spd_matrix(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &a, |bencher, a| {
            bencher.iter(|| black_box(jacobi_eigen(a, 1e-10).unwrap()));
        });
    }
    group.finish();
}

fn bench_subspace_iteration(c: &mut Criterion) {
    let mut group = c.benchmark_group("sym_eigs_topk");
    for n in [128usize, 256] {
        let a = spd_matrix(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &a, |bencher, a| {
            let op = DenseSymOp::new(a);
            bencher.iter(|| black_box(sym_eigs_topk(&op, 8, &SubspaceOptions::default()).unwrap()));
        });
    }
    group.finish();
}

fn bench_truncated_svd_sparse(c: &mut Criterion) {
    let mut group = c.benchmark_group("truncated_svd_sparse");
    // Shapes like the LSI baseline's tag×resource matrices.
    for (rows, cols, nnz) in [(500usize, 400usize, 5_000usize), (1_000, 800, 20_000)] {
        let m = sparse_matrix(rows, cols, nnz);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{rows}x{cols}nnz{nnz}")),
            &m,
            |bencher, m| {
                bencher
                    .iter(|| black_box(truncated_svd(m, 16, &SubspaceOptions::default()).unwrap()));
            },
        );
    }
    group.finish();
}

fn bench_truncated_svd_dense(c: &mut Criterion) {
    let mut group = c.benchmark_group("truncated_svd_dense");
    // Shapes of the HOOI updates on the benchmark corpora: the resource
    // mode of `scan` (12,417 x 8·8, J₃ = 12) and the user mode of
    // `delicious` (2,030 x 8·8, J₁ = 41). Full-rank pseudo-random entries.
    for (rows, cols, k) in [(12_417usize, 64usize, 12usize), (2_030, 64, 41)] {
        let w = Matrix::from_fn(rows, cols, |i, j| {
            let mut h = (i as u64) << 32 | j as u64;
            h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        });
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{rows}x{cols}k{k}")),
            &w,
            |bencher, w| {
                bencher
                    .iter(|| black_box(truncated_svd(w, k, &SubspaceOptions::default()).unwrap()));
            },
        );
    }
    group.finish();
}

fn bench_csr_matvec(c: &mut Criterion) {
    let m = sparse_matrix(2_000, 2_000, 40_000);
    let x = vec![1.0; 2_000];
    c.bench_function("csr_matvec_2000x2000_40k", |bencher| {
        bencher.iter(|| black_box(m.matvec(&x).unwrap()));
    });
}

criterion_group!(
    benches,
    bench_matmul,
    bench_qr,
    bench_jacobi_eigen,
    bench_subspace_iteration,
    bench_truncated_svd_sparse,
    bench_truncated_svd_dense,
    bench_csr_matvec
);
criterion_main!(benches);
