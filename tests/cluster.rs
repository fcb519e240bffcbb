//! Cluster serving tier determinism tests (DESIGN.md §13): the cache's
//! counters under one worker, a replay through any tier producing the exact
//! `ImpactReport` of the sequential reference replay, and one cluster under
//! 8 threads. That every cluster configuration serves the oracle's bytes is
//! `tests/oracle.rs`' model test.

use deepweb::common::{derive_rng, ThreadPool};
use deepweb::index::{CacheConfig, ClusterConfig, Hit, QueryBroker, SearchService};
use deepweb::queries::{generate_workload, replay, Workload, WorkloadConfig};
use deepweb::{quick_config, DeepWebSystem};

fn build_system(sites: usize) -> DeepWebSystem {
    DeepWebSystem::build(&quick_config(sites))
}

fn workload(sys: &DeepWebSystem, distinct: usize) -> Workload {
    generate_workload(
        &sys.world,
        &WorkloadConfig {
            distinct,
            ..Default::default()
        },
    )
}

/// The cache's admission rule is deterministic under one worker: one fixed
/// Zipf stream through a 16-entry cache gives these exact counters. A
/// change to the rule moves them; no change may move a result.
#[test]
fn one_worker_pins_the_cache_counters() {
    let sys = build_system(6);
    let wl = workload(&sys, 80);
    let mut rng = derive_rng(101, "cluster-cache-counters");
    let stream = wl.sample_batch(600, &mut rng);
    let cluster = sys.cluster(ClusterConfig {
        workers: 1,
        cache: Some(CacheConfig::with_capacity(16)),
        ..Default::default()
    });
    for q in &stream {
        assert_eq!(cluster.search(q, 5), sys.search(q, 5), "q={q:?}");
    }
    let cache = cluster.cache_stats().expect("cache is configured");
    assert_eq!(
        (
            cache.hits,
            cache.misses,
            cache.insertions,
            cache.evictions,
            cache.rejected
        ),
        (389, 211, 37, 21, 174)
    );
}

/// `replay` through the broker and through a cluster produces the exact
/// report of a replay through the sequential searcher — same seed, same
/// stream, same attribution.
#[test]
fn batched_and_cluster_replay_match_sequential_replay() {
    let sys = build_system(8);
    let wl = workload(&sys, 150);
    let k = 5;
    let run = |service: &dyn SearchService| {
        replay(
            &sys.index,
            &wl,
            600,
            k,
            &mut derive_rng(7, "replay-eq"),
            service,
        )
    };
    let reference = run(&sys.index.searcher(sys.options));
    assert_eq!(reference.queries, 600);
    let broker = QueryBroker::new(&sys.index, ThreadPool::new(0), sys.options);
    assert_eq!(
        run(&broker),
        reference,
        "broker replay must reproduce the sequential report"
    );
    let cluster = sys.cluster(ClusterConfig::default());
    assert_eq!(
        run(&cluster),
        reference,
        "cluster replay must reproduce the sequential report"
    );
}

/// One cluster hammered from 8 OS threads with interleaved batches, cache
/// enabled: no panics, no lost queries, stable results everywhere.
#[test]
fn cluster_survives_8_threads_of_interleaved_batches() {
    let sys = build_system(6);
    let cluster = sys.cluster(ClusterConfig {
        workers: 2,
        cache: Some(CacheConfig::with_capacity(64)),
        ..Default::default()
    });
    let batches: Vec<Vec<String>> = {
        let wl = workload(&sys, 100);
        let mut rng = derive_rng(101, "cluster-stress");
        wl.sample_batches(4, 48, &mut rng)
    };
    let expected: Vec<Vec<Vec<Hit>>> = batches
        .iter()
        .map(|b| b.iter().map(|q| sys.search(q, 5)).collect())
        .collect();
    std::thread::scope(|s| {
        for t in 0..8 {
            let cluster = &cluster;
            let batches = &batches;
            let expected = &expected;
            s.spawn(move || {
                for round in 0..batches.len() {
                    let bi = (t + round) % batches.len();
                    assert_eq!(
                        &cluster.search_batch(&batches[bi], 5),
                        &expected[bi],
                        "thread {t} round {round}"
                    );
                }
            });
        }
    });
    assert_eq!(cluster.stats().queries, 8 * 4 * 48);
}
