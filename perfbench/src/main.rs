//! Helper binary for the `cubelsi-search` benchmark driven by `run.py`.
//!
//! Subcommands (all take `--key value` flags):
//!
//! * `gen`   — writes a seeded corpus (`corpus.tsv`) and a query pool
//!   (`queries.txt`) for one workload;
//! * `load`  — drives a running `serve` over loopback with an open-loop,
//!   Zipf-skewed query stream, checks every reply against the exhaustive
//!   oracle, and prints per-phase latency statistics as JSON;
//! * `trace` — calls each library layer's public functions on the same
//!   inputs, records a span around every call, and prints the per-layer
//!   metrics as JSON;
//! * `check` — loads a built artifact as a deployment would and checks
//!   every pool query against the oracle.

mod gen;
mod load;
mod oracle;
mod spans;
mod trace;

use std::collections::HashMap;
use std::process::ExitCode;

/// Parsed `--key value` flags.
pub struct Flags(HashMap<String, String>);

impl Flags {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Flags, String> {
        let mut map = HashMap::new();
        while let Some(key) = args.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got {key:?}"))?;
            let value = args
                .next()
                .ok_or_else(|| format!("--{name} needs a value"))?;
            map.insert(name.to_owned(), value);
        }
        Ok(Flags(map))
    }

    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    pub fn opt(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    pub fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let v = self.str(key)?;
        v.parse()
            .map_err(|_| format!("--{key}: cannot parse {v:?}"))
    }
}

/// SplitMix64: the benchmark's own seeded generator for query order.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf exponent of the query draw (power-law tag use).
pub const ZIPF: f64 = 1.0;

/// The query stream of a run: `n` indexes into a pool of `pool` queries,
/// drawn Zipf(`ZIPF`) by `seed` over a fixed popularity order of the
/// pool. The order is fixed so that every seed offers the same query mix
/// and only the sequence of draws differs.
pub fn zipf_stream(pool: usize, n: usize, seed: u64) -> Vec<usize> {
    let mut shuffle = SplitMix::new(0x5eed_0f21);
    let mut order: Vec<usize> = (0..pool).collect();
    for i in (1..pool).rev() {
        let j = (shuffle.next_u64() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let mut rng = SplitMix::new(seed);
    let mut cumulative = Vec::with_capacity(pool);
    let mut total = 0.0;
    for rank in 0..pool {
        total += 1.0 / ((rank + 1) as f64).powf(ZIPF);
        cumulative.push(total);
    }
    (0..n)
        .map(|_| {
            let x = rng.next_f64() * total;
            let rank = cumulative.partition_point(|&c| c <= x).min(pool - 1);
            order[rank]
        })
        .collect()
}

/// Reads the query pool written by `gen`: one query per line, tag names
/// separated by spaces.
pub fn read_queries(path: &str) -> Result<Vec<Vec<String>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let pool: Vec<Vec<String>> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| l.split_whitespace().map(str::to_owned).collect())
        .collect();
    if pool.is_empty() {
        return Err(format!("{path}: empty query pool"));
    }
    Ok(pool)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        eprintln!("usage: perfbench gen|load|trace|check --flag value ...");
        return ExitCode::FAILURE;
    };
    let result = Flags::parse(args).and_then(|flags| match cmd.as_str() {
        "gen" => gen::run(&flags),
        "load" => load::run(&flags),
        "trace" => trace::run(&flags),
        "check" => trace::check(&flags),
        other => Err(format!("unknown subcommand {other:?}")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench {cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}
