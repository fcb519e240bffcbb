//! Block-max pruned serving equality (DESIGN.md §14).
//!
//! The contract under test: [`PruningMode::BlockMax`] returns *byte-identical*
//! `Vec<Hit>` to exhaustive scoring — for every query, every `k`, with and
//! without the annotation pass, through every serving tier (sequential
//! kernel, batched broker, cluster with and without its cache) — and a
//! batch added to a built index extends its block index over the new
//! documents, so pruned serving never reads a stale bound.

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
        let queries = dump_queries(&sys, "pruning-dump");
        let exhaustive = SearchOptions {
            use_annotations,
            pruning: PruningMode::Exhaustive,
        };
        let pruned = SearchOptions {
            use_annotations,
            pruning: PruningMode::BlockMax,
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

/// A batch added to a built system's index extends its block index over
/// the new document — blocks for the terms only it names included — and
/// BlockMax then serves the Exhaustive bytes, the late document among
/// them.
#[test]
fn a_late_batch_extends_the_block_index_and_blockmax_equals_exhaustive() {
    let mut sys = build_system(6, false);
    let meta_bytes = |sys: &DeepWebSystem| {
        let blocks = sys.index.pruning().map(|p| p.blocks().meta_bytes());
        blocks.expect("every index carries a block index")
    };
    let before = meta_bytes(&sys);
    let late = deepweb::index::BatchDoc {
        url: deepweb::common::Url::new("late.sim", "/extra"),
        title: "late arrival".into(),
        text: "honda civic late arrival doc zzlatecomer".into(),
        kind: deepweb::index::DocKind::Surface,
        site: None,
        annotations: vec![],
    };
    Arc::make_mut(&mut sys.index).add_batch(&ThreadPool::new(2), vec![late]);
    assert!(meta_bytes(&sys) > before, "the new terms own blocks");
    let pruned = SearchOptions {
        pruning: PruningMode::BlockMax,
        ..sys.options
    };
    let exhaustive = SearchOptions {
        pruning: PruningMode::Exhaustive,
        ..sys.options
    };
    let mut queries = dump_queries(&sys, "late-batch");
    queries.push("honda civic late arrival".into());
    for q in &queries {
        for k in [1usize, 10] {
            assert_eq!(
                search(&sys.index, q, k, pruned),
                search(&sys.index, q, k, exhaustive),
                "q={q:?} k={k}"
            );
        }
    }
    let top = search(&sys.index, "zzlatecomer", 1, pruned);
    assert_eq!(top[0].doc.as_usize(), sys.index.len() - 1);
}
