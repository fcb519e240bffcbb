//! The four workloads. Each one builds its inputs from the seed, checks the
//! program's outputs before any clock starts, then either measures the
//! end-to-end metrics over the rounds `--seconds` asks for (tracing off) or
//! runs a fixed number of rounds with spans recorded and reports the
//! per-layer metrics.

pub mod fresh_mix;
pub mod offline_build;
pub mod serve_cold;
pub mod serve_zipf;

use crate::serve::{summarise, EndToEnd};
use crate::trace::Trace;
use crate::verify::{Digest, Tally};
use deepweb_index::{CacheStats, ClusterStats, SearchIndex};
use std::collections::BTreeMap;

/// Set-up repetitions spread over a run's rounds, beyond the first one
/// whose products the run uses. Each step of the set-up (and of the build,
/// where the build is part of set-up) counts with its best time.
const EXTRA_SETUPS: usize = 12;

/// Whether a set-up repetition follows round `round` (0-based) of `rounds`:
/// [`EXTRA_SETUPS`] of them at even steps through the rounds (one after
/// every round when there are fewer rounds than that), so that they meet
/// the same quiet and busy moments the rounds meet.
pub fn setup_due(round: usize, rounds: usize) -> bool {
    (round + 1) * EXTRA_SETUPS / rounds > round * EXTRA_SETUPS / rounds
}

/// Queries in every verification sample.
pub const VERIFY_SAMPLE: usize = 500;

/// What a run was asked to do.
pub struct Ctx {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: sets how many rounds the timed region makes.
    pub seconds: u64,
    /// `--trace`.
    pub trace: bool,
}

/// Per-layer metric values by name.
pub type LayerMap = BTreeMap<&'static str, f64>;

/// What a run measured.
pub enum Report {
    /// Tracing off: the end-to-end metrics.
    EndToEnd(EndToEnd),
    /// Tracing on: per-layer metrics and the spans behind them.
    PerLayer(LayerMap, Trace),
}

/// A finished run.
pub struct Outcome {
    /// Operations attempted and failed, checks included.
    pub tally: Tally,
    /// Fold of the verification sample's results (and, offline, of every
    /// build's URLs): equal across runs and commits at one seed.
    pub digest: Digest,
    /// The numbers.
    pub report: Report,
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Add `v` to the per-layer count `name`.
pub fn add(layer: &mut LayerMap, name: &'static str, v: f64) {
    *layer.entry(name).or_default() += v;
}

/// Add one built index's size to the build-side counts.
pub fn add_footprint(layer: &mut LayerMap, index: &SearchIndex) {
    let stats = index.stats();
    add(layer, "index.add_batch.docs", stats.docs as f64);
    add(layer, "index.add_batch.postings", stats.postings as f64);
    add(
        layer,
        "index.postings.raw_bytes",
        (stats.postings * 2 * std::mem::size_of::<u32>()) as f64,
    );
    if let Some(p) = index.pruning() {
        let blocks = p.blocks();
        add(
            layer,
            "index.blocks.packed_bytes",
            blocks.packed_bytes() as f64,
        );
        add(layer, "index.blocks.meta_bytes", blocks.meta_bytes() as f64);
    }
}

/// `metric = seconds inside spans called span`, for each pair.
pub fn insert_busy(layer: &mut LayerMap, trace: &Trace, pairs: &[(&'static str, &str)]) {
    for (metric, span) in pairs {
        layer.insert(metric, trace.busy_s(span));
    }
}

/// The tail of every single query the traced rounds served, pooled with no
/// best-of: each span named in `singles` is one query. This is where a
/// stall that lands on different queries in different rounds shows; the
/// end-to-end percentiles are over each query's best latency and do not see
/// it. Not gated: on the reference box the neighbours stall about one
/// operation in a hundred, so this tail follows them as much as the program.
pub fn insert_pooled_tail(layer: &mut LayerMap, trace: &Trace, singles: &[&str]) {
    let mut pooled: Vec<u64> = trace
        .spans
        .iter()
        .filter(|sp| singles.contains(&sp.name))
        .map(|sp| sp.dur_ns())
        .collect();
    let tail = summarise(&mut pooled);
    layer.insert("index.p99_all_us", tail.p99_us);
    if let Some((9_990, us)) = tail.highest {
        layer.insert("index.p999_us", us);
    }
    eprintln!(
        "deepbench: index.p99_all_us is over {} traced single queries, {} beyond it",
        tail.n, tail.beyond_p99
    );
}

/// A result cache's counters.
pub fn insert_cache(layer: &mut LayerMap, cache: CacheStats) {
    layer.insert("index.cache.hit_ratio", cache.hit_rate());
    layer.insert("index.cache.evictions", cache.evictions as f64);
    layer.insert("index.cache.insertions", cache.insertions as f64);
}

/// A cluster's admission counters.
pub fn insert_admission(layer: &mut LayerMap, stats: &ClusterStats) {
    layer.insert("index.cluster.spilled", stats.spilled as f64);
    layer.insert("index.cluster.shed", stats.shed as f64);
    layer.insert(
        "index.cluster.shed_ratio",
        ratio(stats.shed as f64, stats.queries as f64),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_up_repetitions_are_spread_over_the_rounds() {
        for (rounds, want) in [
            (15, EXTRA_SETUPS),
            (25, EXTRA_SETUPS),
            (12, 12),
            (4, 4),
            (1, 1),
        ] {
            let due: Vec<usize> = (0..rounds).filter(|&r| setup_due(r, rounds)).collect();
            assert_eq!(due.len(), want, "{rounds} rounds");
            assert_eq!(due.last(), Some(&(rounds - 1)));
        }
    }
}
