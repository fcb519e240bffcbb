//! The unified [`SearchService`] contract (DESIGN.md §14): the sequential
//! searcher, the broker and the cluster are interchangeable *as trait
//! objects* — same queries, same `k`, same bytes — and the validated
//! builders reject the configurations the raw structs used to clamp or
//! mis-serve silently.

use deepweb::common::{derive_rng, ThreadPool};
use deepweb::index::{
    Bm25Params, ClusterConfig, ClusterServer, Hit, PruningMode, QueryBroker, SearchOptions,
    SearchRequest, SearchService,
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
        let cluster = ClusterServer::new(
            &sys.index,
            sys.options,
            ClusterConfig::builder()
                .partitions(3)
                .replicas(2)
                .cache_capacity(64)
                .build()
                .expect("valid cluster config"),
        );
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
        // A request runs identically through any tier object.
        let req = SearchRequest::new(queries[0].clone()).k(k);
        for (name, tier) in tiers {
            assert_eq!(req.run_on(tier), reference[0], "tier={name} via request");
        }
    }
}

/// `SearchOptions::builder` accepts the valid envelope and rejects
/// non-finite or out-of-range BM25 parameters.
#[test]
fn search_options_builder_validates() {
    let opts = SearchOptions::builder()
        .k1(0.9)
        .b(0.4)
        .annotations(true)
        .pruning(PruningMode::BlockMax)
        .build()
        .expect("valid options");
    assert_eq!(opts.bm25.k1, 0.9);
    assert_eq!(opts.bm25.b, 0.4);
    assert!(opts.use_annotations);
    assert_eq!(opts.pruning, PruningMode::BlockMax);

    assert!(SearchOptions::builder().k1(0.0).build().is_err());
    assert!(SearchOptions::builder().k1(-1.0).build().is_err());
    assert!(SearchOptions::builder().k1(f64::NAN).build().is_err());
    assert!(SearchOptions::builder().k1(f64::INFINITY).build().is_err());
    assert!(SearchOptions::builder().b(-0.1).build().is_err());
    assert!(SearchOptions::builder().b(1.1).build().is_err());
    assert!(SearchOptions::builder().b(f64::NAN).build().is_err());
    assert!(SearchOptions::builder()
        .bm25(Bm25Params { k1: 1.2, b: 0.75 })
        .build()
        .is_ok());
}

/// `ClusterConfig::builder` rejects degenerate topologies the raw struct
/// silently clamps.
#[test]
fn cluster_config_builder_validates() {
    let cfg = ClusterConfig::builder()
        .partitions(4)
        .replicas(2)
        .workers(1)
        .max_in_flight(8)
        .cache_capacity(128)
        .build()
        .expect("valid cluster config");
    assert_eq!(cfg.partitions, 4);
    assert_eq!(cfg.replicas, 2);
    assert_eq!(cfg.cache.expect("cache configured").capacity, 128);

    assert!(ClusterConfig::builder().partitions(0).build().is_err());
    assert!(ClusterConfig::builder().replicas(0).build().is_err());
    // capacity 0 must be an explicit no_cache, not a cache that always
    // misses.
    assert!(ClusterConfig::builder()
        .cache(deepweb::index::CacheConfig {
            shards: 8,
            capacity: 0
        })
        .build()
        .is_err());
    let no_cache = ClusterConfig::builder()
        .cache_capacity(0)
        .build()
        .expect("cache_capacity(0) means no cache");
    assert!(no_cache.cache.is_none());
    assert!(ClusterConfig::builder().no_cache().build().is_ok());
}
