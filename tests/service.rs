//! The unified [`SearchService`] contract (DESIGN.md §14): the sequential
//! searcher, the broker, the cluster and the freshness tier are
//! interchangeable *as trait objects* — same queries, same `k`, same bytes —
//! and `ClusterConfig::validate` rejects the configurations the raw struct
//! would mis-serve silently.

use deepweb::common::{derive_rng, ThreadPool};
use deepweb::index::{
    CacheConfig, ClusterConfig, ClusterServer, Hit, PruningMode, QueryBroker, SearchService,
    SegmentedIndex,
};
use deepweb::queries::{generate_workload, WorkloadConfig};
use deepweb::{quick_config, DeepWebSystem};
use std::sync::Arc;

fn build_system(sites: usize, pruning: PruningMode) -> DeepWebSystem {
    let mut cfg = quick_config(sites);
    cfg.use_annotations = true;
    cfg.pruning = pruning;
    DeepWebSystem::build(&cfg)
}

fn sample_queries(sys: &DeepWebSystem, n: usize, label: &str) -> Vec<String> {
    let wl = generate_workload(
        &sys.world,
        &WorkloadConfig {
            distinct: 60,
            ..Default::default()
        },
    );
    let mut queries = wl.sample_batch(n, &mut derive_rng(53, label));
    queries.push(String::new());
    queries.push("zzz unknown".into());
    queries
}

/// Every tier behind `&dyn SearchService` — exhaustive and pruned — returns
/// the same bytes for the same stream, per query and batched. The freshness
/// tier serves generation zero: the system's own index, shared, nothing
/// pending.
#[test]
fn every_tier_agrees_as_trait_objects() {
    for pruning in [PruningMode::Exhaustive, PruningMode::BlockMax] {
        let sys = build_system(6, pruning);
        let queries = sample_queries(&sys, 40, "service-eq");
        let k = 7;
        let searcher = sys.service();
        let broker = QueryBroker::new(&sys.index, ThreadPool::new(2), sys.options);
        let cfg = ClusterConfig {
            cache: Some(CacheConfig::with_capacity(64)),
            ..Default::default()
        };
        cfg.validate().expect("valid cluster config");
        let cluster = ClusterServer::new(&sys.index, sys.options, cfg);
        let fresh = SegmentedIndex::from_shared(Arc::clone(&sys.index));
        let segmented = fresh.searcher(sys.options);
        let tiers: [(&str, &dyn SearchService); 4] = [
            ("sequential", &searcher),
            ("broker", &broker),
            ("cluster", &cluster),
            ("segmented", &segmented),
        ];
        let reference: Vec<Vec<Hit>> = queries.iter().map(|q| tiers[0].1.search(q, k)).collect();
        for (name, tier) in tiers {
            for (q, want) in queries.iter().zip(&reference) {
                assert_eq!(
                    &tier.search(q, k),
                    want,
                    "tier={name} pruning={pruning:?} q={q:?}"
                );
            }
            assert_eq!(
                tier.search_batch(&queries, k),
                reference,
                "tier={name} pruning={pruning:?} batched"
            );
        }
    }
}

/// `ClusterConfig::validate` rejects a cache that could never hold an
/// entry.
#[test]
fn cluster_config_builder_validates() {
    let cfg = ClusterConfig {
        workers: 1,
        cache: Some(CacheConfig::with_capacity(128)),
        ..Default::default()
    };
    assert!(cfg.validate().is_ok());
    assert!(ClusterConfig::default().validate().is_ok());

    let reject = |cfg: ClusterConfig| {
        let got = cfg.validate();
        assert!(
            matches!(got, Err(deepweb::common::Error::Config(_))),
            "{cfg:?} -> {got:?}"
        );
    };
    // capacity 0 must be an explicit `cache: None`, not a cache that always
    // misses.
    reject(ClusterConfig {
        cache: Some(CacheConfig::with_capacity(0)),
        ..cfg
    });
    let no_cache = ClusterConfig { cache: None, ..cfg };
    assert!(no_cache.validate().is_ok());
}
