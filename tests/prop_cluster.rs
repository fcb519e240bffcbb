//! Property tests for the cluster serving tier: for random webworlds and
//! random Zipf batches, ranking is invariant across worker counts
//! {1, 2, 4} × cache on/off — byte-identical to the sequential `search()`
//! reference, single-query and batched, plain BM25 and annotation-aware.

use deepweb::common::derive_rng;
use deepweb::index::{
    CacheConfig, ClusterConfig, ClusterServer, Hit, SearchOptions, SearchService,
};
use deepweb::queries::{generate_workload, WorkloadConfig};
use deepweb::{quick_config, DeepWebSystem};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn cluster_ranking_is_topology_invariant(
        seed in 1u64..10_000,
        num_sites in 2usize..6,
        distinct in 20usize..60,
        batch_size in 5usize..30,
        stream_seed in 0u64..1_000,
    ) {
        let mut cfg = quick_config(num_sites);
        cfg.web.seed = seed;
        let sys = DeepWebSystem::build(&cfg);
        let wl = generate_workload(&sys.world, &WorkloadConfig {
            distinct,
            ..Default::default()
        });
        let mut rng = derive_rng(stream_seed, "prop-cluster");
        let mut batch = wl.sample_batch(batch_size, &mut rng);
        batch.push(String::new());
        batch.push("zzzzzz unknown terms".into());
        for use_annotations in [false, true] {
            let opts = SearchOptions { use_annotations, ..Default::default() };
            let expected: Vec<Vec<Hit>> = batch
                .iter()
                .map(|q| deepweb::index::search(&sys.index, q, 10, opts))
                .collect();
            for workers in [1usize, 2, 4] {
                for cache in [None, Some(CacheConfig::with_capacity(32))] {
                    let cluster = ClusterServer::new(&sys.index, opts, ClusterConfig {
                        workers,
                        cache,
                        ..Default::default()
                    });
                    prop_assert_eq!(&cluster.search_batch(&batch, 10), &expected);
                    // Second pass exercises cache hits (when enabled); the
                    // failing-config context is carried by the proptest
                    // input header.
                    prop_assert_eq!(&cluster.search_batch(&batch, 10), &expected);
                    for (q, want) in batch.iter().zip(&expected) {
                        prop_assert_eq!(&cluster.search(q, 10), want);
                    }
                }
            }
        }
    }
}
