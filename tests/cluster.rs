//! Cluster serving tier determinism tests (DESIGN.md §13).
//!
//! The contract: every cluster configuration — any partition count, replica
//! count, cache on/off/tiny, worker count — returns byte-identical `Vec<Hit>`
//! to the sequential `search()` reference, the routing/admission stats stream
//! is deterministic, and the batched replay path produces the exact
//! `ImpactReport` of the sequential reference replay.

use deepweb::common::derive_rng;
use deepweb::index::{CacheConfig, ClusterConfig, Hit};
use deepweb::queries::{generate_workload, replay, replay_serving, Workload, WorkloadConfig};
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

/// A 300+ query dump (Zipf stream plus edge queries), served across several
/// partition/replica/cache configurations — each must be byte-identical to
/// the sequential reference, single-query and batched, including a second
/// pass where the cache answers from storage.
#[test]
fn cluster_is_byte_identical_to_sequential_for_300_query_dump() {
    let sys = build_system(8);
    let wl = workload(&sys, 150);
    let mut rng = derive_rng(101, "cluster-equality");
    let mut dump = wl.sample_batch(300, &mut rng);
    dump.push(String::new());
    dump.push("the of and".into());
    dump.push("zzzzzz qqqqqq".into());
    dump.push("HONDA honda HoNdA".into());
    assert!(dump.len() >= 300);
    let expected: Vec<Vec<Hit>> = dump.iter().map(|q| sys.search(q, 10)).collect();
    let configs = [
        (1usize, 1usize, None, 0usize),
        (2, 2, Some(CacheConfig::default()), 0),
        (4, 3, None, 8),
        (7, 2, Some(CacheConfig::with_capacity(32)), 2),
    ];
    for (partitions, replicas, cache, max_in_flight) in configs {
        for workers in [1usize, 4] {
            let cluster = sys.cluster(ClusterConfig {
                partitions,
                replicas,
                workers,
                cache,
                max_in_flight,
            });
            assert_eq!(
                cluster.search_batch(&dump, 10),
                expected,
                "batch p={partitions} r={replicas} cache={} w={workers}",
                cache.is_some(),
            );
            // Second pass: cached entries (when enabled) must serve the
            // same bytes.
            assert_eq!(
                cluster.search_batch(&dump, 10),
                expected,
                "batch rerun p={partitions} r={replicas} cache={} w={workers}",
                cache.is_some(),
            );
            for (q, want) in dump.iter().zip(&expected) {
                assert_eq!(
                    &cluster.search(q, 10),
                    want,
                    "single p={partitions} r={replicas} q={q:?}"
                );
            }
            let stats = cluster.stats();
            assert_eq!(stats.replicas, replicas);
            assert!(stats.queries > 0);
        }
    }
}

/// Annotation-aware scoring flows through the cluster unchanged: resolve
/// once at the aggregator, boost per partition, same bytes.
#[test]
fn cluster_serves_annotation_scoring_identically() {
    let mut cfg = quick_config(8);
    cfg.use_annotations = true;
    let sys = DeepWebSystem::build(&cfg);
    let wl = workload(&sys, 120);
    let mut rng = derive_rng(101, "cluster-annotations");
    let batch = wl.sample_batch(120, &mut rng);
    assert!(sys.options.use_annotations);
    let expected: Vec<Vec<Hit>> = batch.iter().map(|q| sys.search(q, 10)).collect();
    let cluster = sys.cluster(ClusterConfig {
        partitions: 5,
        replicas: 2,
        workers: 2,
        cache: Some(CacheConfig::default()),
        max_in_flight: 0,
    });
    assert_eq!(cluster.search_batch(&batch, 10), expected);
    for (q, want) in batch.iter().zip(&expected) {
        assert_eq!(&cluster.search(q, 10), want, "q={q:?}");
    }
}

/// Replica routing is sticky (pure function of the signature) and the
/// admission stream — routed/spilled/shed counts — is identical across runs.
#[test]
fn replica_routing_and_admission_are_deterministic() {
    let sys = build_system(6);
    let wl = workload(&sys, 100);
    let mut rng = derive_rng(101, "cluster-admission");
    let batch = wl.sample_batch(200, &mut rng);
    let serve = |max_in_flight: usize| {
        let cluster = sys.cluster(ClusterConfig {
            partitions: 3,
            replicas: 3,
            workers: 2,
            cache: None,
            max_in_flight,
        });
        let results = cluster.search_batch(&batch, 5);
        (results, cluster.stats())
    };
    let (unbounded_results, unbounded) = serve(0);
    assert_eq!(unbounded.shed, 0, "unbounded admission never sheds");
    assert_eq!(unbounded.spilled, 0, "unbounded admission never spills");
    assert_eq!(
        unbounded.routed.iter().sum::<u64>(),
        batch.len() as u64,
        "every query routes to exactly one replica"
    );
    let (bounded_results, bounded_a) = serve(10);
    let (bounded_again, bounded_b) = serve(10);
    assert_eq!(bounded_a.routed, bounded_b.routed);
    assert_eq!(bounded_a.spilled, bounded_b.spilled);
    assert_eq!(bounded_a.shed, bounded_b.shed);
    // Bounded burst of 200 into 3×10 capacity: exactly 30 admitted, rest
    // shed — and shedding is an accounting decision, never a results one.
    assert_eq!(bounded_a.routed.iter().sum::<u64>(), 30);
    assert_eq!(bounded_a.shed, 170);
    assert_eq!(bounded_results, unbounded_results);
    assert_eq!(bounded_again, unbounded_results);
}

/// A tiny cache under a head-heavy stream: hits accumulate, evictions churn,
/// and neither ever changes a byte of any result.
#[test]
fn tiny_cache_eviction_never_changes_results() {
    let sys = build_system(6);
    let wl = workload(&sys, 80);
    let mut rng = derive_rng(101, "cluster-cache-churn");
    let stream = wl.sample_batch(400, &mut rng);
    let expected: Vec<Vec<Hit>> = stream.iter().map(|q| sys.search(q, 5)).collect();
    let cluster = sys.cluster(ClusterConfig {
        partitions: 3,
        replicas: 1,
        workers: 1,
        cache: Some(CacheConfig::with_capacity(8)),
        max_in_flight: 0,
    });
    for (q, want) in stream.iter().zip(&expected) {
        assert_eq!(&cluster.search(q, 5), want, "q={q:?}");
    }
    let cache = cluster.cache_stats().expect("cache is configured");
    assert!(cache.hits > 0, "a Zipf stream must produce repeat hits");
    assert!(
        cache.evictions > 0,
        "an 8-entry cache under 80 distinct queries must evict"
    );
}

/// The batched `replay` (broker path) and a cluster-backed replay produce
/// the exact report of the sequential reference replay — same seed, same
/// stream, same attribution.
#[test]
fn batched_and_cluster_replay_match_sequential_replay() {
    let sys = build_system(8);
    let wl = workload(&sys, 150);
    let k = 5;
    let reference = replay_serving(
        &sys.index,
        &wl,
        600,
        k,
        &mut derive_rng(7, "replay-eq"),
        &sys.index.searcher(sys.options),
    );
    assert_eq!(reference.queries, 600);
    assert_eq!(
        replay(
            &sys.index,
            &wl,
            600,
            k,
            sys.options,
            &mut derive_rng(7, "replay-eq")
        ),
        reference,
        "broker-batched replay must reproduce the sequential report"
    );
    let cluster = sys.cluster(ClusterConfig {
        partitions: 4,
        replicas: 2,
        workers: 0,
        cache: Some(CacheConfig::default()),
        max_in_flight: 0,
    });
    assert_eq!(
        replay_serving(
            &sys.index,
            &wl,
            600,
            k,
            &mut derive_rng(7, "replay-eq"),
            &cluster
        ),
        reference,
        "cluster-backed replay must reproduce the sequential report"
    );
}

/// One cluster hammered from 8 OS threads with interleaved batches, cache
/// enabled: no panics, no lost queries, stable results everywhere.
#[test]
fn cluster_survives_8_threads_of_interleaved_batches() {
    let sys = build_system(6);
    let cluster = sys.cluster(ClusterConfig {
        partitions: 4,
        replicas: 2,
        workers: 2,
        cache: Some(CacheConfig::with_capacity(64)),
        max_in_flight: 16,
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
