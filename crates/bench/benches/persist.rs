//! Artifact persistence benchmarks: the economics of the build/serve
//! split.
//!
//! * `persist/full_rebuild` — the offline pipeline a process without an
//!   artifact must run before it can answer its first query;
//! * `persist/save` — serializing a built engine to the `.cubelsi` bytes;
//! * `persist/load` — deserializing those bytes back into a serving-ready
//!   engine (owned arrays, the portable default). This is the startup
//!   cost of `cubelsi-search query`/`serve`, and the number that must
//!   stay orders of magnitude below `full_rebuild` for the artifact
//!   split to pay off;
//! * `persist/load_zero_copy` — restoring the engine with the index
//!   arrays borrowed straight out of the aligned file buffer (the
//!   `--zero-copy` serving path): validation still runs, the per-posting
//!   copy does not;
//! * `persist/crc32` — the integrity checksum every save and load runs
//!   over every section and every shard file, in bytes per second;
//! * `persist/load_manifest` / `persist/load_manifest_zero_copy` —
//!   `shard::load_source` on a 4-shard manifest of the same model, both
//!   load modes: the startup and `RELOAD` cost of sharded serving.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use cubelsi_core::shard::{self, LoadMode};
use cubelsi_core::{persist, AlignedBytes, CubeLsi, CubeLsiConfig};
use cubelsi_datagen::{generate, GeneratorConfig};
use std::hint::black_box;
use std::sync::Arc;

fn bench_persist(c: &mut Criterion) {
    let ds = generate(&GeneratorConfig {
        users: 300,
        resources: 250,
        concepts: 12,
        assignments: 15_000,
        seed: 23,
        ..Default::default()
    });
    let f = &ds.folksonomy;
    let config = CubeLsiConfig {
        core_dims: Some((16, 16, 16)),
        num_concepts: Some(12),
        max_als_iters: 4,
        ..Default::default()
    };
    let model = CubeLsi::build(f, &config).unwrap();
    let bytes = persist::save_to_vec(&model, f);
    eprintln!(
        "artifact: {} bytes for |U|={} |T|={} |R|={} |Y|={}",
        bytes.len(),
        f.num_users(),
        f.num_tags(),
        f.num_resources(),
        f.num_assignments()
    );

    let mut group = c.benchmark_group("persist");
    group.throughput(Throughput::Bytes(bytes.len() as u64));

    group.bench_function("full_rebuild", |b| {
        b.iter(|| black_box(CubeLsi::build(black_box(f), &config).unwrap()))
    });
    group.bench_function("save", |b| {
        b.iter(|| black_box(persist::save_to_vec(black_box(&model), black_box(f))))
    });
    group.bench_function("load", |b| {
        b.iter(|| black_box(persist::load_from_bytes(black_box(&bytes)).unwrap()))
    });
    let aligned = Arc::new(AlignedBytes::from_bytes(&bytes));
    group.bench_function("load_zero_copy", |b| {
        b.iter(|| black_box(persist::load_zero_copy(black_box(aligned.clone())).unwrap()))
    });
    group.bench_function("crc32", |b| {
        b.iter(|| black_box(persist::crc32(black_box(&bytes))))
    });

    let dir = std::env::temp_dir().join(format!("cubelsi-bench-persist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("model.shards");
    let report = shard::save_sharded(&manifest, &model, f, 4).unwrap();
    group.throughput(Throughput::Bytes(report.shard_bytes.iter().sum()));
    for (name, mode) in [
        ("load_manifest", LoadMode::Owned),
        ("load_manifest_zero_copy", LoadMode::ZeroCopy),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| black_box(shard::load_source(black_box(&manifest), mode).unwrap()))
        });
    }
    std::fs::remove_dir_all(&dir).ok();

    group.finish();
}

criterion_group!(benches, bench_persist);
criterion_main!(benches);
