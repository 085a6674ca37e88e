//! Online query benchmarks.
//!
//! * `query_latency` — per-query latency of every ranking method (the
//!   microscopic view of Table VI: CubeLSI's cosine matching vs FolkRank's
//!   power iteration).
//! * `query_throughput` — queries/sec of the CubeLSI serving paths on the
//!   300 users × 250 resources × 15k assignments datagen preset: the
//!   exhaustive full-sort reference vs the MaxScore per-posting path vs
//!   the block-max path (reused sessions, zero steady-state allocation)
//!   vs the parallel batched API, at k ∈ {10, 100} over a 128-query
//!   evaluation workload.
//!
//! Besides the criterion numbers, a machine-readable report is written to
//! `BENCH_query.json` at the workspace root (queries/s per preset, per k,
//! per serving path, single core), so the perf trajectory of the online
//! path is tracked in-repo alongside `BENCH_build.json`. Three presets
//! are measured: the small 300×250×15k pipeline preset, a 20k-resource
//! corpus with multi-hundred-posting lists where block skipping has real
//! room to work, and the `huge_1m` stress preset (1.2 M resources at
//! full scale; `CUBELSI_BENCH_SCALE` shrinks it for CI smokes). Paths:
//! the exhaustive reference, MaxScore, block-max, the compressed
//! decode-and-admit path, and a 4-shard scatter-gather [`ShardSet`]
//! answered through the adaptive dispatcher (coalesced mirror /
//! sequential scatter / pooled fan-out — the per-node cost of the
//! sharded TCP serving topology). Each preset additionally records
//! multi-threaded rows — the batched and sharded-batch paths through
//! the persistent executor at pool sizes {1, 4, 8} with the fraction
//! of inline dispatch decisions — and the memory story the compressed
//! format exists for: hot bytes-per-posting (compressed vs
//! uncompressed), on-disk index artifact bytes, and the process RSS
//! after serving.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use cubelsi_baselines::{
    BowRanker, CubeSim, CubeSimMode, FolkRank, FolkRankConfig, FreqRanker, LsiConfig, LsiRanker,
    Ranker,
};
use cubelsi_core::shard::{self, ShardSet};
use cubelsi_core::{
    exec, persist, ConceptAssignment, ConceptIndex, ConceptModel, CubeLsi, CubeLsiConfig,
    PruningStrategy, QueryEngine,
};
use cubelsi_datagen::{generate, huge_1m, GeneratedDataset, GeneratorConfig};
use cubelsi_eval::{generate_workload, WorkloadConfig};
use cubelsi_folksonomy::TagId;
use cubelsi_linalg::parallel;
use std::hint::black_box;
use std::time::Instant;

fn bench_query_latency(c: &mut Criterion) {
    let ds = generate(&GeneratorConfig {
        users: 300,
        resources: 250,
        concepts: 12,
        assignments: 15_000,
        seed: 23,
        ..Default::default()
    });
    let f = &ds.folksonomy;

    let cubelsi = CubeLsi::build(
        f,
        &CubeLsiConfig {
            core_dims: Some((16, 16, 16)),
            num_concepts: Some(12),
            max_als_iters: 4,
            ..Default::default()
        },
    )
    .unwrap();
    let folkrank = FolkRank::build(f, &FolkRankConfig::default());
    let freq = FreqRanker::build(f);
    let bow = BowRanker::build(f);
    let lsi = LsiRanker::build(
        f,
        &LsiConfig {
            rank: Some(16),
            num_concepts: Some(12),
            ..Default::default()
        },
    )
    .unwrap();
    let cubesim = CubeSim::build(
        f,
        &cubelsi_baselines::cubesim::CubeSimConfig {
            mode: CubeSimMode::SparseOptimized,
            num_concepts: Some(12),
            ..Default::default()
        },
    )
    .unwrap();

    // A 3-tag query over frequent tags.
    let query: Vec<TagId> = (0..3).map(TagId::from_index).collect();

    let cubelsi_ranker = cubelsi_baselines::CubeLsiRanker(cubelsi);
    let mut group = c.benchmark_group("query_latency");
    let rankers: Vec<(&str, &dyn Ranker)> = vec![
        ("CubeLSI", &cubelsi_ranker),
        ("FolkRank", &folkrank),
        ("Freq", &freq),
        ("BOW", &bow),
        ("LSI", &lsi),
        ("CubeSim", &cubesim),
    ];
    for (name, ranker) in rankers {
        group.bench_function(name, |bencher| {
            bencher.iter(|| black_box(ranker.search_ids(&query, 20)));
        });
    }
    group.finish();
}

/// The ISSUE-1 preset: 300 users × 250 resources × 15k assignments.
fn throughput_dataset() -> GeneratedDataset {
    generate(&GeneratorConfig {
        users: 300,
        resources: 250,
        concepts: 15,
        assignments: 15_000,
        seed: 23,
        ..Default::default()
    })
}

fn bench_query_throughput(c: &mut Criterion) {
    let ds = throughput_dataset();
    let engine = CubeLsi::build(
        &ds.folksonomy,
        &CubeLsiConfig {
            core_dims: Some((16, 16, 16)),
            num_concepts: Some(15),
            max_als_iters: 4,
            ..Default::default()
        },
    )
    .unwrap();
    let queries: Vec<Vec<TagId>> = generate_workload(
        &ds,
        &WorkloadConfig {
            num_queries: 128,
            ..Default::default()
        },
    )
    .into_iter()
    .map(|q| q.tags)
    .collect();

    let mut group = c.benchmark_group("query_throughput");
    group.throughput(Throughput::Elements(queries.len() as u64));
    group.sample_size(20);

    let mut maxscore = engine.engine().clone();
    maxscore.set_strategy(PruningStrategy::MaxScore);
    let mut blockmax = engine.engine().clone();
    blockmax.set_strategy(PruningStrategy::BlockMax);

    for &k in &[10usize, 100] {
        // Seed path: exhaustive accumulation + full sort, per query.
        group.bench_function(format!("exact_fullsort_k{k}"), |bencher| {
            bencher.iter(|| {
                for q in &queries {
                    black_box(engine.engine().search_tags_exact(engine.concepts(), q, k));
                }
            });
        });
        // The two pruned strategies on reused sessions (the steady-state
        // zero-allocation serving loop).
        for (name, pruned) in [("maxscore", &maxscore), ("blockmax", &blockmax)] {
            group.bench_function(format!("{name}_k{k}"), |bencher| {
                let mut session = pruned.session();
                let mut out = Vec::new();
                bencher.iter(|| {
                    for q in &queries {
                        pruned.search_tags_with(&mut session, engine.concepts(), q, k, &mut out);
                        black_box(out.len());
                    }
                });
            });
        }
        // Batched: the default pruned path fanned across the worker pool.
        group.bench_function(format!("batched_k{k}"), |bencher| {
            bencher.iter(|| black_box(engine.search_batch(&queries, k)));
        });
    }
    group.finish();
}

// ---------------------------------------------------------------------------
// BENCH_query.json report
// ---------------------------------------------------------------------------

/// One preset of the report: an engine (any concept model) + workload.
/// The corpus and a hard concept model ride along so the sharded
/// scatter-gather path can build a [`cubelsi_core::shard::ShardSet`]
/// from the same engine.
struct ReportPreset {
    name: &'static str,
    users: usize,
    tags: usize,
    resources: usize,
    assignments: usize,
    num_concepts: usize,
    engine: QueryEngine,
    model: Box<dyn ConceptAssignment>,
    folksonomy: cubelsi_folksonomy::Folksonomy,
    hard_model: ConceptModel,
    queries: Vec<Vec<TagId>>,
}

/// The small preset serves through the full distilled pipeline model.
fn small_preset() -> ReportPreset {
    let ds = throughput_dataset();
    let built = CubeLsi::build(
        &ds.folksonomy,
        &CubeLsiConfig {
            core_dims: Some((16, 16, 16)),
            num_concepts: Some(15),
            max_als_iters: 4,
            ..Default::default()
        },
    )
    .unwrap();
    let queries: Vec<Vec<TagId>> = generate_workload(
        &ds,
        &WorkloadConfig {
            num_queries: 128,
            ..Default::default()
        },
    )
    .into_iter()
    .map(|q| q.tags)
    .collect();
    ReportPreset {
        name: "small_300x250x15k",
        users: ds.folksonomy.num_users(),
        tags: ds.folksonomy.num_tags(),
        resources: ds.folksonomy.num_resources(),
        assignments: ds.folksonomy.num_assignments(),
        num_concepts: built.concepts().num_concepts(),
        engine: built.engine().clone(),
        model: Box::new(built.concepts().clone()),
        folksonomy: ds.folksonomy.clone(),
        hard_model: built.concepts().clone(),
        queries,
    }
}

/// The large preset skips the offline pipeline (Tucker on a 20k-resource
/// corpus is not what this report measures) and indexes a deterministic
/// hard concept model directly — the engine does not care where the model
/// came from, and posting lists reach thousands of entries.
fn large_preset() -> ReportPreset {
    let ds = generate(&GeneratorConfig {
        users: 500,
        resources: 20_000,
        concepts: 24,
        assignments: 300_000,
        seed: 97,
        ..Default::default()
    });
    let f = &ds.folksonomy;
    let num_concepts = 24;
    let assignments: Vec<usize> = (0..f.num_tags())
        .map(|t| (t * 7 + 3) % num_concepts)
        .collect();
    let model = ConceptModel::from_assignments(assignments, 1.0);
    let engine = QueryEngine::new(ConceptIndex::build(f, &model));
    let queries: Vec<Vec<TagId>> = generate_workload(
        &ds,
        &WorkloadConfig {
            num_queries: 64,
            ..Default::default()
        },
    )
    .into_iter()
    .map(|q| q.tags)
    .collect();
    ReportPreset {
        name: "large_500x20000x300k",
        users: f.num_users(),
        tags: f.num_tags(),
        resources: f.num_resources(),
        assignments: f.num_assignments(),
        num_concepts,
        engine,
        model: Box::new(model.clone()),
        folksonomy: f.clone(),
        hard_model: model,
        queries,
    }
}

/// The million-resource stress preset (`cubelsi_datagen::huge_1m`): a
/// 1.2 M-resource corpus under a deterministic hard concept model, where
/// the hot index footprint — not the model — dominates memory and the
/// compressed posting format earns its keep. `CUBELSI_BENCH_SCALE`
/// (default 1.0) shrinks it proportionally so CI can smoke the same code
/// path in seconds.
fn huge_preset() -> ReportPreset {
    let scale = std::env::var("CUBELSI_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0 && *s <= 1.0)
        .unwrap_or(1.0);
    let preset = huge_1m(scale, 5);
    let ds = generate(&preset.config);
    let f = &ds.folksonomy;
    let num_concepts = preset.config.concepts;
    let assignments: Vec<usize> = (0..f.num_tags())
        .map(|t| (t * 11 + 5) % num_concepts)
        .collect();
    let model = ConceptModel::from_assignments(assignments, 1.0);
    let engine = QueryEngine::new(ConceptIndex::build(f, &model));
    let queries: Vec<Vec<TagId>> = generate_workload(
        &ds,
        &WorkloadConfig {
            num_queries: 32,
            ..Default::default()
        },
    )
    .into_iter()
    .map(|q| q.tags)
    .collect();
    ReportPreset {
        name: "huge_1m",
        users: f.num_users(),
        tags: f.num_tags(),
        resources: f.num_resources(),
        assignments: f.num_assignments(),
        num_concepts,
        engine,
        model: Box::new(model.clone()),
        folksonomy: f.clone(),
        hard_model: model,
        queries,
    }
}

/// Interleaved measurement rounds per (preset, k). Round-to-round swings
/// on a shared machine (frequency scaling, sibling load) reach ±20% on
/// the sub-millisecond workloads, so the per-path best needs enough
/// draws to converge — nine rounds keep path-vs-path ratios stable to a
/// few percent where five still wobbled.
const ROUNDS: usize = 9;

/// Queries/s of several serving paths over one workload, measured in
/// *interleaved* rounds so slow drifts of a shared machine hit every
/// path equally: each path is warmed and calibrated to ~0.25 s windows,
/// then [`ROUNDS`] rounds run every path back to back; the per-path best
/// is reported (best-of rejects scheduling noise and can only understate
/// the hardware's capability).
type WorkloadPass<'a> = &'a mut dyn FnMut(&[Vec<TagId>]);

fn measure_paths(queries: &[Vec<TagId>], passes: &mut [WorkloadPass<'_>]) -> Vec<f64> {
    let mut reps = Vec::with_capacity(passes.len());
    for pass in passes.iter_mut() {
        pass(queries); // warm-up
        let t0 = Instant::now();
        pass(queries);
        let once = t0.elapsed().as_secs_f64().max(1e-9);
        reps.push(((0.25 / once).ceil() as usize).clamp(1, 20_000));
    }
    let mut best = vec![f64::MIN; passes.len()];
    for _ in 0..ROUNDS {
        for (p, pass) in passes.iter_mut().enumerate() {
            let t0 = Instant::now();
            for _ in 0..reps[p] {
                pass(queries);
            }
            let qps = (reps[p] * queries.len()) as f64 / t0.elapsed().as_secs_f64().max(1e-9);
            best[p] = best[p].max(qps);
        }
    }
    best
}

/// Runs one single-threaded measurement per (preset, k, path) and writes
/// `BENCH_query.json` at the workspace root. Always runs (also under
/// `--test`), so CI keeps the report fresh.
fn emit_query_report(_c: &mut Criterion) {
    parallel::set_num_threads(1);
    let mut preset_jsons = Vec::new();
    for preset in [small_preset(), large_preset(), huge_preset()] {
        let model = &*preset.model;
        // Sharded scatter-gather (4 shards, sequential per-shard top-k
        // on one session + exact k-way merge) over the same engine — the
        // single-process cost of the serving topology the TCP server
        // deploys per shard-hosting node. Built once per preset (the
        // partition and its O(shards × resources) validation do not
        // depend on k).
        let sharded_set = ShardSet::from_parts(
            shard::partition_engines(&preset.engine, 4),
            preset.folksonomy.clone(),
            preset.hard_model.clone(),
        )
        .expect("bench shard set");
        let mut rows = Vec::new();
        for &k in &[10usize, 100] {
            let mut ms_engine = preset.engine.clone();
            ms_engine.set_strategy(PruningStrategy::MaxScore);
            let mut ms_session = ms_engine.session();
            let mut ms_out = Vec::new();
            let mut bm_engine = preset.engine.clone();
            bm_engine.set_strategy(PruningStrategy::BlockMax);
            let mut bm_session = bm_engine.session();
            let mut bm_out = Vec::new();
            let mut cp_engine = preset.engine.clone();
            cp_engine.set_strategy(PruningStrategy::CompressedBlockMax);
            let mut cp_session = cp_engine.session();
            let mut cp_out = Vec::new();
            let mut run_ref = |qs: &[Vec<TagId>]| {
                for q in qs {
                    black_box(preset.engine.search_tags_exact(model, q, k));
                }
            };
            let mut run_ms = |qs: &[Vec<TagId>]| {
                for q in qs {
                    ms_engine.search_tags_with(&mut ms_session, model, q, k, &mut ms_out);
                    black_box(ms_out.len());
                }
            };
            let mut run_bm = |qs: &[Vec<TagId>]| {
                for q in qs {
                    bm_engine.search_tags_with(&mut bm_session, model, q, k, &mut bm_out);
                    black_box(bm_out.len());
                }
            };
            let mut run_cp = |qs: &[Vec<TagId>]| {
                for q in qs {
                    cp_engine.search_tags_with(&mut cp_session, model, q, k, &mut cp_out);
                    black_box(cp_out.len());
                }
            };
            let mut sh_session = sharded_set.session();
            let mut sh_out = Vec::new();
            // The serving entry point: adaptive dispatch may answer from
            // the coalesced mirror (small corpora), the sequential
            // scatter, or the pooled fan-out — whatever the cost model
            // picks, exactly like the TCP server.
            let mut run_sharded = |qs: &[Vec<TagId>]| {
                for q in qs {
                    sharded_set.search_tags_auto(&mut sh_session, model, q, k, &mut sh_out);
                    black_box(sh_out.len());
                }
            };
            let qps = measure_paths(
                &preset.queries,
                &mut [
                    &mut run_ref,
                    &mut run_ms,
                    &mut run_bm,
                    &mut run_cp,
                    &mut run_sharded,
                ],
            );
            let (reference, maxscore, blockmax, compressed, sharded) =
                (qps[0], qps[1], qps[2], qps[3], qps[4]);
            println!(
                "{} k={k}: reference {:.0} q/s | maxscore {:.0} q/s | blockmax {:.0} q/s ({:.2}x maxscore) | compressed {:.0} q/s ({:.2}x blockmax) | sharded4 {:.0} q/s",
                preset.name, reference, maxscore, blockmax, blockmax / maxscore.max(1e-9),
                compressed, compressed / blockmax.max(1e-9), sharded
            );
            rows.push(format!(
                "      {{\"k\": {k}, \"reference_qps\": {:.0}, \"maxscore_qps\": {:.0}, \
                 \"blockmax_qps\": {:.0}, \"compressed_qps\": {:.0}, \"sharded4_qps\": {:.0}, \
                 \"blockmax_vs_maxscore\": {:.2}, \"blockmax_vs_reference\": {:.2}, \
                 \"compressed_vs_blockmax\": {:.2}, \"sharded4_vs_blockmax\": {:.2}}}",
                reference,
                maxscore,
                blockmax,
                compressed,
                sharded,
                blockmax / maxscore.max(1e-9),
                blockmax / reference.max(1e-9),
                compressed / blockmax.max(1e-9),
                sharded / blockmax.max(1e-9),
            ));
        }
        // Multi-threaded rows: the batched single-engine path and the
        // sharded batch path through the persistent executor at pool
        // sizes {1, 4, 8}, k = 10, plus the fraction of dispatch
        // decisions the adaptive cost model kept on the caller thread
        // during the measurement (from the executor's own counters).
        let mut threaded_rows = Vec::new();
        for &threads in &[1usize, 4, 8] {
            parallel::set_num_threads(threads);
            let s0 = exec::stats();
            let mut run_batch = |qs: &[Vec<TagId>]| {
                black_box(preset.engine.search_batch(model, qs, 10));
            };
            let mut run_sharded_batch = |qs: &[Vec<TagId>]| {
                black_box(sharded_set.search_batch(model, qs, 10));
            };
            let qps = measure_paths(
                &preset.queries,
                &mut [&mut run_batch, &mut run_sharded_batch],
            );
            let s1 = exec::stats();
            let (inline, fanout) = (s1.inline - s0.inline, s1.fanout - s0.fanout);
            let decisions = inline + fanout;
            let inline_ratio = if decisions == 0 {
                1.0
            } else {
                inline as f64 / decisions as f64
            };
            println!(
                "{} threads={threads}: batch {:.0} q/s | sharded4 batch {:.0} q/s | inline ratio {:.2}",
                preset.name, qps[0], qps[1], inline_ratio
            );
            threaded_rows.push(format!(
                "      {{\"threads\": {threads}, \"batch_qps\": {:.0}, \
                 \"sharded4_batch_qps\": {:.0}, \"inline_dispatch_ratio\": {inline_ratio:.2}}}",
                qps[0], qps[1],
            ));
        }
        parallel::set_num_threads(1);

        // The memory story: hot footprint per posting (the compressed
        // mirror vs the exact SoA arrays), on-disk index artifact sizes,
        // and the process RSS right after serving this preset (VmHWM is
        // the kernel's monotonic high-water mark — "peak so far").
        let ix = preset.engine.index();
        let n_postings = ix.num_postings();
        let bpp_compressed = ix.compressed_hot_bytes() as f64 / n_postings.max(1) as f64;
        let bpp_uncompressed = ix.uncompressed_hot_bytes() as f64 / n_postings.max(1) as f64;
        let artifact_compressed = persist::index_artifact_bytes(ix, true);
        let artifact_uncompressed = persist::index_artifact_bytes(ix, false);
        let reading = cubelsi_eval::memory::rss_reading();
        let fmt_rss = |v: Option<u64>| v.map_or("null".to_string(), |b| b.to_string());
        let rss = fmt_rss(reading.map(|r| r.current));
        let peak_rss = fmt_rss(reading.map(|r| r.peak));
        println!(
            "{}: {n_postings} postings | hot {bpp_compressed:.2} B/posting compressed vs \
             {bpp_uncompressed:.2} uncompressed | artifact {artifact_compressed} B (+mirror) vs \
             {artifact_uncompressed} B | rss {rss} peak {peak_rss}",
            preset.name
        );
        preset_jsons.push(format!(
            "    {{\n      \"name\": \"{}\",\n      \"users\": {}, \"tags\": {}, \"resources\": {}, \
             \"assignments\": {}, \"num_concepts\": {},\n      \"queries\": {},\n      \
             \"postings\": {n_postings},\n      \
             \"bytes_per_posting_compressed\": {bpp_compressed:.2}, \
             \"bytes_per_posting_uncompressed\": {bpp_uncompressed:.2},\n      \
             \"index_artifact_bytes_compressed\": {artifact_compressed}, \
             \"index_artifact_bytes_uncompressed\": {artifact_uncompressed},\n      \
             \"rss_bytes\": {rss}, \"peak_rss_bytes\": {peak_rss},\n      \"results\": [\n{}\n      ],\n      \
             \"threaded\": [\n{}\n      ]\n    }}",
            preset.name,
            preset.users,
            preset.tags,
            preset.resources,
            preset.assignments,
            preset.num_concepts,
            preset.queries.len(),
            rows.join(",\n"),
            threaded_rows.join(",\n"),
        ));
    }
    parallel::set_num_threads(0);

    // Machine parallelism stamps the report: the `threaded` rows only
    // show real scaling when the hardware has the cores to back the
    // pool — on a single-core box they measure pure handoff overhead.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"bench\": \"query_throughput\",\n  \"threads\": 1,\n  \"cores\": {cores},\n  \"paths\": \
         [\"reference_exhaustive\", \"maxscore\", \"blockmax\", \"compressed\", \"sharded4\"],\n  \
         \"threaded_paths\": [\"batch\", \"sharded4_batch\"],\n  \"presets\": [\n{}\n  ]\n}}\n",
        preset_jsons.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_query.json");
    std::fs::write(path, &json).expect("write BENCH_query.json");
    println!("wrote {path}");
}

criterion_group!(
    benches,
    bench_query_latency,
    bench_query_throughput,
    emit_query_report
);
criterion_main!(benches);
