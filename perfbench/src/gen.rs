//! `gen`: the inputs of a workload — a TSV corpus and its query pool,
//! both from `--seed`.

use crate::Flags;
use cubelsi::datagen::{delicious_like, generate, GeneratedDataset, GeneratorConfig};
use cubelsi::eval::{generate_workload, WorkloadConfig};
use cubelsi::folksonomy::{clean, write_tsv, CleaningConfig};
use std::io::{BufWriter, Write};

/// Queries drawn from `generate_workload`, before cleaning drops the
/// unanswerable ones.
const POOL_QUERIES: usize = 256;

/// The corpus of a workload family:
/// * `delicious` — `delicious_like(0.1)`: many users, ~400 resources;
/// * `scan` — few users over many resources (150 × 30k, 300k raw
///   assignments, 12 concepts), so posting lists run to thousands.
pub fn corpus(kind: &str, seed: u64) -> Result<GeneratedDataset, String> {
    let config = match kind {
        "delicious" => delicious_like(0.1, seed).config,
        "scan" => GeneratorConfig {
            users: 150,
            resources: 30_000,
            concepts: 12,
            assignments: 300_000,
            seed,
            ..Default::default()
        },
        other => return Err(format!("unknown corpus {other:?}")),
    };
    Ok(generate(&config))
}

pub fn run(flags: &Flags) -> Result<(), String> {
    let kind = flags.str("corpus")?;
    let seed: u64 = flags.num("seed")?;
    let out = flags.str("out")?;
    let ds = corpus(kind, seed)?;
    let f = &ds.folksonomy;

    let tsv = format!("{out}/corpus.tsv");
    let file = std::fs::File::create(&tsv).map_err(|e| format!("creating {tsv}: {e}"))?;
    write_tsv(f, BufWriter::new(file)).map_err(|e| format!("writing {tsv}: {e}"))?;

    // Keep only queries with at least one tag that survives the CLI's
    // cleaning, so every query of the run has an answer.
    let (cleaned, _) = clean(f, &CleaningConfig::default());
    let queries = generate_workload(
        &ds,
        &WorkloadConfig {
            num_queries: POOL_QUERIES,
            seed: seed ^ 0x9e4,
            ..Default::default()
        },
    );
    let path = format!("{out}/queries.txt");
    let mut w =
        BufWriter::new(std::fs::File::create(&path).map_err(|e| format!("creating {path}: {e}"))?);
    let mut kept = 0usize;
    for q in &queries {
        let names: Vec<&str> = q.tags.iter().map(|&t| f.tag_name(t)).collect();
        if names.iter().any(|n| cleaned.tag_id(n).is_some()) {
            writeln!(w, "{}", names.join(" ")).map_err(|e| e.to_string())?;
            kept += 1;
        }
    }
    w.flush().map_err(|e| e.to_string())?;
    if kept == 0 {
        return Err("no generated query survives cleaning".to_owned());
    }
    println!(
        "{{\"users\": {}, \"tags\": {}, \"resources\": {}, \"assignments\": {}, \
         \"clean_resources\": {}, \"clean_assignments\": {}, \"queries\": {}, \"queries_dropped\": {}}}",
        f.num_users(),
        f.num_tags(),
        f.num_resources(),
        f.num_assignments(),
        cleaned.num_resources(),
        cleaned.num_assignments(),
        kept,
        queries.len() - kept
    );
    Ok(())
}
