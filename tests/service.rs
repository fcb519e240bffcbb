//! The unified [`SearchService`] contract (DESIGN.md §14): the sequential
//! searcher, the broker and the cluster are interchangeable *as trait
//! objects* — same queries, same `k`, same bytes — and `validate()` on a
//! config literal rejects the configurations the raw structs would
//! mis-serve silently.

use deepweb::common::{derive_rng, ThreadPool};
use deepweb::index::{
    Bm25Params, CacheConfig, ClusterConfig, ClusterServer, Hit, PruningMode, QueryBroker,
    SearchOptions, SearchService,
};
use deepweb::queries::{generate_workload, WorkloadConfig};
use deepweb::{quick_config, DeepWebSystem};

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

/// All three tiers behind `&dyn SearchService` — exhaustive and pruned —
/// return the same bytes for the same stream, per query and batched.
#[test]
fn all_three_tiers_agree_as_trait_objects() {
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
        let tiers: [(&str, &dyn SearchService); 3] = [
            ("sequential", &searcher),
            ("broker", &broker),
            ("cluster", &cluster),
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

/// `SearchOptions::validate` accepts the valid envelope and rejects
/// non-finite or out-of-range BM25 parameters.
#[test]
fn search_options_builder_validates() {
    let with = |k1: f64, b: f64| SearchOptions {
        bm25: Bm25Params { k1, b },
        use_annotations: true,
        pruning: PruningMode::BlockMax,
    };
    assert!(with(0.9, 0.4).validate().is_ok());
    assert!(with(1.2, 0.0).validate().is_ok());
    assert!(with(1.2, 1.0).validate().is_ok());
    assert!(SearchOptions::default().validate().is_ok());

    assert!(with(0.0, 0.75).validate().is_err());
    assert!(with(-1.0, 0.75).validate().is_err());
    assert!(with(f64::NAN, 0.75).validate().is_err());
    assert!(with(f64::INFINITY, 0.75).validate().is_err());
    assert!(with(1.2, -0.1).validate().is_err());
    assert!(with(1.2, 1.1).validate().is_err());
    assert!(with(1.2, f64::NAN).validate().is_err());
    assert!(matches!(
        with(1.2, f64::INFINITY).validate(),
        Err(deepweb::common::Error::Config(_))
    ));
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
