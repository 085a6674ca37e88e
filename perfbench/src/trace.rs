//! `trace` and `check`: in-process calls into each library layer.
//!
//! `trace` repeats the CLI build stage by stage on the run's corpus,
//! with the configuration the CLI derives, then times the whole build,
//! persistence, source loading and a replay of the run's query stream.
//! Every call sits inside a span; the spans go to `--spans` at the end
//! and the per-layer metrics to stdout as one JSON object.
//!
//! `check` loads a built artifact the way a deployment would and
//! compares every pool query with the exhaustive oracle.

use crate::spans::Tracer;
use crate::{load::quantile, oracle, read_queries, zipf_stream, Flags};
use cubelsi::core::shard::{load_source, LoadMode};
use cubelsi::core::{
    build_tensor, exec, pairwise_distances_from_embedding, persist, tag_embedding, ConceptIndex,
    ConceptModel, CubeLsi, CubeLsiConfig,
};
use cubelsi::folksonomy::{clean, read_tsv_file, CleaningConfig, Folksonomy};
use cubelsi::tensor::tucker_als;
use std::fmt::Write as _;
use std::time::Instant;

/// Queries replayed in process through the adaptive path.
const REPLAY: usize = 20_000;

/// The configuration `cubelsi-search build --ratio RATIO` derives for a
/// corpus (no `--concepts`, default seed): the reduction ratios are
/// clamped so the core keeps at least 8 dimensions per mode, with a
/// floor of 1.25.
pub fn cli_config(corpus: &Folksonomy, ratio: f64) -> CubeLsiConfig {
    let min_j = 8usize;
    let eff = |dim: usize| ratio.min((dim as f64 / min_j as f64).max(1.25));
    CubeLsiConfig {
        reduction_ratios: (
            eff(corpus.num_users()),
            eff(corpus.num_tags()),
            eff(corpus.num_resources()),
        ),
        num_concepts: None,
        seed: 2011,
        ..Default::default()
    }
}

/// `(VmRSS, VmHWM)` of this process in MB.
fn rss_mb() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        status
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|kb| kb.parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

struct Metrics(String);

impl Metrics {
    fn put(&mut self, name: &str, value: f64) {
        if !self.0.is_empty() {
            self.0.push_str(", ");
        }
        let _ = write!(self.0, "\"{name}\": {value}");
    }
}

pub fn run(flags: &Flags) -> Result<(), String> {
    let tsv = flags.str("corpus")?;
    let ratio: f64 = flags.num("ratio")?;
    let source = flags.str("source")?;
    let pool = read_queries(flags.str("queries")?)?;
    let top: usize = flags.num("top")?;
    let seed: u64 = flags.num("seed")?;
    let tmp = flags.str("tmp")?;
    let spans_out = flags.str("spans")?;

    let mut t = Tracer::new();
    let mut m = Metrics(String::new());
    let root = t.begin("trace");

    // folksonomy: read + clean.
    let (raw, ms) = t.time("folksonomy.read_tsv", || read_tsv_file(tsv));
    let raw = raw.map_err(|e| format!("reading {tsv}: {e}"))?;
    m.put("folksonomy.read_tsv_ms", ms);
    let ((corpus, report), ms) = t.time("folksonomy.clean", || {
        clean(&raw, &CleaningConfig::default())
    });
    m.put("folksonomy.clean_ms", ms);
    m.put("folksonomy.clean_rounds", report.rounds as f64);
    m.put(
        "folksonomy.assignments_kept",
        corpus.num_assignments() as f64,
    );
    drop(raw);

    // The build, stage by stage.
    let config = cli_config(&corpus, ratio);
    let stages = t.begin("build.stages");
    let (tensor, ms_tensor) = t.time("tensor.build", || build_tensor(&corpus));
    let tensor = tensor.map_err(|e| format!("tensor: {e}"))?;
    m.put("tensor.build_ms", ms_tensor);
    let tucker_cfg = config
        .tucker_config(tensor.dims())
        .map_err(|e| format!("tucker config: {e}"))?;
    let (rss_before, _) = rss_mb();
    let (dec, ms_tucker) = t.time("tensor.tucker", || tucker_als(&tensor, &tucker_cfg));
    let dec = dec.map_err(|e| format!("tucker: {e}"))?;
    let (_, hwm_after) = rss_mb();
    m.put("tensor.tucker_ms", ms_tucker);
    m.put("tensor.hooi_sweeps", dec.iterations as f64);
    m.put("tensor.fit", dec.fit);
    m.put(
        "tensor.tucker_rss_growth_mb",
        (hwm_after - rss_before).max(0.0),
    );
    let (distances, ms_embed) = t.time("distance.embed", || {
        tag_embedding(&dec, config.sigma_source).map(|z| pairwise_distances_from_embedding(&z))
    });
    let distances = distances.map_err(|e| format!("distances: {e}"))?;
    m.put("distance.embed_ms", ms_embed);
    let (concepts, ms_distill) = t.time("concepts.distill", || {
        ConceptModel::distill(&distances, &config.spectral_config())
    });
    let concepts = concepts.map_err(|e| format!("concepts: {e}"))?;
    m.put("concepts.distill_ms", ms_distill);
    m.put("concepts.k", concepts.num_concepts() as f64);
    let (index, ms_index) = t.time("index.build", || ConceptIndex::build(&corpus, &concepts));
    m.put("index.build_ms", ms_index);
    m.put("index.postings", index.num_postings() as f64);
    m.put(
        "index.hot_bytes_exact",
        index.uncompressed_hot_bytes() as f64,
    );
    m.put(
        "index.hot_bytes_compressed",
        index.compressed_hot_bytes() as f64,
    );
    t.end(stages);
    drop((tensor, distances, index));

    // The whole build as the CLI runs it, for the coverage cross-check.
    let artifact = format!("{tmp}/traced.cubelsi");
    let whole = t.begin("build.whole");
    let (model, _) = t.time("pipeline.build", || CubeLsi::build(&corpus, &config));
    let model = model.map_err(|e| format!("build: {e}"))?;
    let (saved, ms_save) = t.time("persist.save", || {
        persist::save_to_path(&artifact, &model, &corpus)
    });
    saved.map_err(|e| format!("saving {artifact}: {e}"))?;
    let ms_whole = t.end(whole);
    let covered = ms_tensor + ms_tucker + ms_embed + ms_distill + ms_index + ms_save;
    m.put("build.whole_ms", ms_whole);
    m.put("build.stage_coverage", covered / ms_whole);
    m.put("build.fit", model.decomposition().fit);
    m.put("build.k", model.concepts().num_concepts() as f64);
    m.put("persist.save_ms", ms_save);
    let bytes = std::fs::metadata(&artifact).map_or(0, |md| md.len());
    m.put("persist.artifact_bytes", bytes as f64);
    drop(model);

    let (loaded, ms) = t.time("persist.load_owned", || persist::load_from_path(&artifact));
    loaded.map_err(|e| format!("loading {artifact}: {e}"))?;
    m.put("persist.load_owned_ms", ms);
    let (loaded, ms) = t.time("persist.load_zero_copy", || {
        persist::load_from_path_zero_copy(&artifact)
    });
    loaded.map_err(|e| format!("loading {artifact} zero-copy: {e}"))?;
    m.put("persist.load_zero_copy_ms", ms);
    std::fs::remove_file(&artifact).ok();

    // The serving source the CLI built, loaded as `serve` loads it.
    let (set, ms) = t.time("shard.load_source", || load_source(source, LoadMode::Owned));
    let set = set.map_err(|e| format!("loading {source}: {e}"))?;
    m.put("shard.load_source_ms", ms);
    m.put("shard.num_shards", set.num_shards() as f64);
    m.put("shard.coalesced", f64::from(u8::from(set.has_coalesced())));

    // Replay the run's query stream: the adaptive path `serve` uses,
    // then the exhaustive path, one span each.
    let stream = zipf_stream(pool.len(), REPLAY, seed);
    let ids: Vec<_> = pool
        .iter()
        .map(|q| oracle::resolve(set.folksonomy(), q))
        .collect();
    let mut session = set.session();
    let mut hits = Vec::new();
    for q in &ids {
        set.search_tags_auto(&mut session, set.concepts(), q, top, &mut hits);
    }
    let before = exec::stats();
    let mut lat = Vec::with_capacity(stream.len());
    let span = t.begin("query.search_auto");
    for &q in &stream {
        let t0 = Instant::now();
        set.search_tags_auto(&mut session, set.concepts(), &ids[q], top, &mut hits);
        lat.push(t0.elapsed().as_nanos() as u64);
        std::hint::black_box(&hits);
    }
    t.end(span);
    let after = exec::stats();
    lat.sort_unstable();
    let us = |v: Option<u64>| v.map_or(0.0, |ns| ns as f64 / 1e3);
    m.put("query.search_us_p50", us(quantile(&lat, 0.5)));
    m.put("query.search_us_p99", us(quantile(&lat, 0.99)));
    m.put("exec.inline", (after.inline - before.inline) as f64);
    m.put("exec.fanout", (after.fanout - before.fanout) as f64);
    m.put("exec.stolen", (after.stolen - before.stolen) as f64);
    m.put(
        "exec.late_dispatch",
        (after.late_dispatch - before.late_dispatch) as f64,
    );

    let exact_n = stream.len().min(2000);
    let mut lat = Vec::with_capacity(exact_n);
    let span = t.begin("query.search_exact");
    for &q in &stream[..exact_n] {
        let t0 = Instant::now();
        std::hint::black_box(oracle::exact(&set, &ids[q], top));
        lat.push(t0.elapsed().as_nanos() as u64);
    }
    t.end(span);
    lat.sort_unstable();
    m.put("query.exact_us_p50", us(quantile(&lat, 0.5)));

    t.end(root);
    t.write(spans_out)?;
    println!("{{{}}}", m.0);
    Ok(())
}

/// Loads a built source as a deployment would — `persist::load_from_path`
/// for a single artifact, `shard::load_source` for both kinds — and
/// checks every pool query against the exhaustive oracle. Prints
/// `{"attempted": n, "failed": f}`.
pub fn check(flags: &Flags) -> Result<(), String> {
    let source = flags.str("source")?;
    let pool = read_queries(flags.str("queries")?)?;
    let top: usize = flags.num("top")?;
    let set = load_source(source, LoadMode::Owned).map_err(|e| format!("loading {source}: {e}"))?;
    let expected = oracle::expected_replies(&set, &pool, top);
    let mut attempted = 1u64;
    let mut failed = 0u64;
    // A manifest does not load as one artifact; a single artifact must.
    let artifact = persist::load_from_path(source).ok();
    if artifact.is_none() && set.num_shards() == 1 {
        failed += 1;
    }
    let mut session = set.session();
    let mut hits = Vec::new();
    for (q, want) in pool.iter().zip(&expected) {
        let ids = oracle::resolve(set.folksonomy(), q);
        set.search_tags_auto(&mut session, set.concepts(), &ids, top, &mut hits);
        attempted += 1;
        if oracle::format_reply(set.folksonomy(), &hits) != *want {
            failed += 1;
        }
        if let Some(a) = &artifact {
            attempted += 1;
            let got = a.model.search_ids(&oracle::resolve(&a.folksonomy, q), top);
            if oracle::format_reply(&a.folksonomy, &got) != *want {
                failed += 1;
            }
        }
    }
    println!("{{\"attempted\": {attempted}, \"failed\": {failed}}}");
    Ok(())
}
