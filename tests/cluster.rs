//! Cluster serving tier determinism tests (DESIGN.md §13).
//!
//! The contract: every cluster configuration — any worker count, cache
//! on/off/tiny — returns byte-identical `Vec<Hit>` to the sequential
//! `search()` reference, single-query and batched, and a replay through any
//! tier produces the exact `ImpactReport` of the sequential reference
//! replay.

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

/// A 300+ query dump (Zipf stream plus edge queries), served across several
/// worker/cache configurations — each must be byte-identical to the
/// sequential reference, single-query and batched, including a second pass
/// where the cache answers from storage.
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
    let caches = [
        None,
        Some(CacheConfig::default()),
        Some(CacheConfig::with_capacity(32)),
    ];
    for cache in caches {
        for workers in [1usize, 4] {
            let cluster = sys.cluster(ClusterConfig {
                workers,
                cache,
                ..Default::default()
            });
            assert_eq!(
                cluster.search_batch(&dump, 10),
                expected,
                "batch cache={cache:?} w={workers}",
            );
            // Second pass: cached entries (when enabled) must serve the
            // same bytes.
            assert_eq!(
                cluster.search_batch(&dump, 10),
                expected,
                "batch rerun cache={cache:?} w={workers}",
            );
            for (q, want) in dump.iter().zip(&expected) {
                assert_eq!(
                    &cluster.search(q, 10),
                    want,
                    "single cache={cache:?} w={workers} q={q:?}"
                );
            }
            assert_eq!(cluster.stats().queries, 3 * dump.len() as u64);
        }
    }
}

/// Annotation-aware scoring flows through the cluster unchanged: resolve
/// once, boost in the kernel, same bytes.
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
        workers: 2,
        cache: Some(CacheConfig::default()),
        ..Default::default()
    });
    assert_eq!(cluster.search_batch(&batch, 10), expected);
    for (q, want) in batch.iter().zip(&expected) {
        assert_eq!(&cluster.search(q, 10), want, "q={q:?}");
    }
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
        workers: 1,
        cache: Some(CacheConfig::with_capacity(8)),
        ..Default::default()
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
