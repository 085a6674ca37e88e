//! Benchmarks of the paper's central efficiency claim: pairwise tag
//! distances via the Theorem-1/2 shortcut versus the brute-force dense
//! slice computation (Eq. 17 / CubeSim's costing).

use criterion::{criterion_group, criterion_main, Criterion};
use cubelsi_baselines::{CubeSim, CubeSimMode};
use cubelsi_core::{
    brute_force_distances, build_tensor, pairwise_distances_from_embedding, tag_embedding,
    SigmaSource,
};
use cubelsi_datagen::{generate, GeneratorConfig};
use cubelsi_linalg::subspace::SubspaceOptions;
use cubelsi_tensor::{tucker_als, SparseTensor3, TuckerConfig, TuckerDecomposition};
use std::hint::black_box;

fn corpus(users: usize, resources: usize, assignments: usize) -> SparseTensor3 {
    let ds = generate(&GeneratorConfig {
        users,
        resources,
        concepts: 10,
        assignments,
        seed: 11,
        ..Default::default()
    });
    build_tensor(&ds.folksonomy).unwrap()
}

fn decompose(tensor: &SparseTensor3, core: usize) -> TuckerDecomposition {
    let cfg = TuckerConfig {
        core_dims: (core, core, core),
        max_iters: 4,
        fit_tol: 1e-4,
        subspace: SubspaceOptions::default(),
    };
    tucker_als(tensor, &cfg).unwrap()
}

/// Theorem-1 fast path (embedding + all-pairs Euclidean).
fn bench_theorem1_fast_path(c: &mut Criterion) {
    let tensor = corpus(200, 150, 10_000);
    let decomp = decompose(&tensor, 12);
    let mut group = c.benchmark_group("tag_distances");
    group.sample_size(20);
    group.bench_function("theorem1_lambda2", |bencher| {
        bencher.iter(|| {
            let z = tag_embedding(&decomp, SigmaSource::Lambda2).unwrap();
            black_box(pairwise_distances_from_embedding(&z))
        });
    });
    group.bench_function("theorem1_core_gram", |bencher| {
        bencher.iter(|| {
            let z = tag_embedding(&decomp, SigmaSource::CoreGram).unwrap();
            black_box(pairwise_distances_from_embedding(&z))
        });
    });
    group.finish();
}

/// The comparison the paper's Table V dramatizes: shortcut vs brute force.
/// Brute force materializes F̂, so the corpus here is deliberately small.
fn bench_shortcut_vs_brute_force(c: &mut Criterion) {
    let tensor = corpus(60, 50, 2_000);
    let decomp = decompose(&tensor, 8);
    let mut group = c.benchmark_group("theorem1_vs_bruteforce");
    group.sample_size(10);
    group.bench_function("shortcut", |bencher| {
        bencher.iter(|| {
            let z = tag_embedding(&decomp, SigmaSource::Lambda2).unwrap();
            black_box(pairwise_distances_from_embedding(&z))
        });
    });
    group.bench_function("brute_force_fhat", |bencher| {
        bencher.iter(|| black_box(brute_force_distances(&decomp).unwrap()));
    });
    group.finish();
}

/// CubeSim's two modes on raw tensors (sparse extension vs faithful dense).
fn bench_cubesim_modes(c: &mut Criterion) {
    let tensor = corpus(120, 100, 6_000);
    let mut group = c.benchmark_group("cubesim_distances");
    group.sample_size(10);
    group.bench_function("sparse_optimized", |bencher| {
        bencher.iter(|| {
            black_box(CubeSim::distances_with_report(
                &tensor,
                CubeSimMode::SparseOptimized,
            ))
        });
    });
    group.bench_function("faithful_dense", |bencher| {
        bencher.iter(|| {
            black_box(CubeSim::distances_with_report(
                &tensor,
                CubeSimMode::FaithfulDense { budget: None },
            ))
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_theorem1_fast_path,
    bench_shortcut_vs_brute_force,
    bench_cubesim_modes
);
criterion_main!(benches);
