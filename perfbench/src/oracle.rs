//! The correctness oracle: exhaustive search on the serving source
//! loaded in process, rendered exactly as `serve` renders a reply.

use cubelsi::core::{RankedResource, ShardSet};
use cubelsi::folksonomy::{Folksonomy, TagId};
use std::fmt::Write as _;

/// Tag names → ids, skipping names the corpus does not know (as the
/// server does).
pub fn resolve(f: &Folksonomy, names: &[String]) -> Vec<TagId> {
    names.iter().filter_map(|n| f.tag_id(n)).collect()
}

/// Exhaustive top-`k`: every shard's `search_tags_exact`, merged under
/// the engine's order (score descending, then resource id ascending).
/// Shards keep the global idf and resource ids, so this equals the
/// unsharded exact ranking.
pub fn exact(set: &ShardSet, tags: &[TagId], k: usize) -> Vec<RankedResource> {
    let mut all: Vec<RankedResource> = set
        .engines()
        .iter()
        .flat_map(|e| e.search_tags_exact(set.concepts(), tags, k))
        .collect();
    all.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.resource.index().cmp(&b.resource.index()))
    });
    all.truncate(k);
    all
}

/// One `serve` query reply: `OK\t<n>` then `\t<name>  (<score:.4>)` per hit.
pub fn format_reply(f: &Folksonomy, hits: &[RankedResource]) -> String {
    let mut line = format!("OK\t{}", hits.len());
    for hit in hits {
        let _ = write!(
            line,
            "\t{}  ({:.4})",
            f.resource_name(hit.resource),
            hit.score
        );
    }
    line
}

/// Expected reply line for every query of the pool.
pub fn expected_replies(set: &ShardSet, pool: &[Vec<String>], k: usize) -> Vec<String> {
    pool.iter()
        .map(|q| {
            let ids = resolve(set.folksonomy(), q);
            format_reply(set.folksonomy(), &exact(set, &ids, k))
        })
        .collect()
}
