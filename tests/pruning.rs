//! Block-max pruned serving equality (DESIGN.md §14).
//!
//! The contract under test: [`PruningMode::BlockMax`] returns *byte-identical*
//! `Vec<Hit>` to exhaustive scoring — for every query, every `k`, with and
//! without the annotation pass, through every serving tier (sequential
//! kernel, batched broker, cluster with and without its cache) — and any
//! index mutation invalidates the block index so pruned serving silently
//! falls back to the exhaustive kernel rather than ever serving stale
//! bounds.

use deepweb::common::{derive_rng, ThreadPool};
use deepweb::index::{
    search, CacheConfig, ClusterConfig, Hit, PruningMode, QueryBroker, SearchOptions, SearchService,
};
use deepweb::queries::{generate_workload, WorkloadConfig};
use deepweb::{quick_config, DeepWebSystem};
use std::sync::Arc;

fn build_system(sites: usize, use_annotations: bool) -> DeepWebSystem {
    let mut cfg = quick_config(sites);
    cfg.use_annotations = use_annotations;
    cfg.pruning = PruningMode::BlockMax;
    DeepWebSystem::build(&cfg)
}

/// The dump stream: 300 Zipf-sampled workload queries plus the edge cases
/// every serving suite carries (empty, stopword-only, unknown terms, case
/// folding, the paper's flagship query).
fn dump_queries(sys: &DeepWebSystem, label: &str) -> Vec<String> {
    let wl = generate_workload(
        &sys.world,
        &WorkloadConfig {
            distinct: 150,
            ..Default::default()
        },
    );
    let mut rng = derive_rng(307, label);
    let mut queries = wl.sample_batch(300, &mut rng);
    queries.push(String::new());
    queries.push("the of and".into());
    queries.push("zzzzzz qqqqqq".into());
    queries.push("HONDA honda HoNdA".into());
    queries.push("used ford focus 1993".into());
    queries
}

/// 300+-query dump diff, both annotation modes: the pruned sequential
/// kernel reproduces the exhaustive oracle byte-for-byte at k ∈ {1, 5, 10}.
#[test]
fn pruned_dump_is_byte_identical_to_exhaustive() {
    for use_annotations in [false, true] {
        let sys = build_system(8, use_annotations);
        assert!(
            sys.index.pruning().is_some(),
            "system build must leave the block index in place"
        );
        let queries = dump_queries(&sys, "pruning-dump");
        let exhaustive = SearchOptions {
            use_annotations,
            pruning: PruningMode::Exhaustive,
            ..Default::default()
        };
        let pruned = SearchOptions {
            use_annotations,
            pruning: PruningMode::BlockMax,
            ..Default::default()
        };
        for k in [1usize, 5, 10] {
            for (i, q) in queries.iter().enumerate() {
                assert_eq!(
                    search(&sys.index, q, k, pruned),
                    search(&sys.index, q, k, exhaustive),
                    "ann={use_annotations} k={k} query #{i} {q:?}"
                );
            }
        }
    }
}

/// The same dump through every serving tier built with BlockMax options —
/// broker batch and cluster batch (cache on and off) at several worker
/// counts — must equal the exhaustive sequential reference.
#[test]
fn pruned_dump_matches_across_all_serving_tiers() {
    let sys = build_system(8, true);
    assert_eq!(sys.options.pruning, PruningMode::BlockMax);
    let queries = dump_queries(&sys, "pruning-tiers");
    let k = 10;
    let exhaustive = SearchOptions {
        pruning: PruningMode::Exhaustive,
        ..sys.options
    };
    let reference: Vec<Vec<Hit>> = queries
        .iter()
        .map(|q| search(&sys.index, q, k, exhaustive))
        .collect();

    // Sequential service tier (BlockMax via sys.options).
    assert_eq!(
        sys.service().search_batch(&queries, k),
        reference,
        "pruned sequential tier diverges"
    );
    // Batched broker at several worker counts.
    for workers in [1usize, 2, 4] {
        assert_eq!(
            QueryBroker::new(&sys.index, ThreadPool::new(workers), sys.options)
                .search_batch(&queries, k),
            reference,
            "pruned broker batch diverges at workers={workers}"
        );
    }
    // Cluster tier: workers × cache on/off.
    for workers in [1usize, 3] {
        for cache in [None, Some(CacheConfig::with_capacity(256))] {
            let cfg = ClusterConfig {
                workers,
                cache,
                ..Default::default()
            };
            cfg.validate().expect("valid cluster config");
            let cluster = sys.cluster(cfg);
            assert_eq!(
                cluster.search_batch(&queries, k),
                reference,
                "pruned cluster diverges at workers={workers} cache={cache:?}"
            );
        }
    }
}

/// Mutating the index drops the block structures; BlockMax queries keep
/// serving (exhaustive fallback) and `enable_pruning` rebuilds over the new
/// contents.
#[test]
fn mutation_invalidates_and_rebuild_restores_pruning() {
    let mut sys = build_system(6, false);
    assert!(sys.index.pruning().is_some());
    Arc::make_mut(&mut sys.index).add(
        deepweb::common::Url::new("late.sim", "/extra"),
        "late arrival".into(),
        "honda civic late arrival doc".into(),
        deepweb::index::DocKind::Surface,
        None,
        vec![],
    );
    assert!(
        sys.index.pruning().is_none(),
        "mutation must invalidate the block index"
    );
    let pruned = SearchOptions {
        pruning: PruningMode::BlockMax,
        ..sys.options
    };
    let exhaustive = SearchOptions {
        pruning: PruningMode::Exhaustive,
        ..sys.options
    };
    let want = search(&sys.index, "honda civic", 10, exhaustive);
    assert_eq!(
        search(&sys.index, "honda civic", 10, pruned),
        want,
        "fallback path must serve the same bytes"
    );
    Arc::make_mut(&mut sys.index).enable_pruning();
    assert!(sys.index.pruning().is_some());
    assert_eq!(
        search(&sys.index, "honda civic", 10, pruned),
        want,
        "rebuilt block index must serve the same bytes"
    );
}
