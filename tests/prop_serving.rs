//! Property tests for concurrent serving: for random webworlds and random
//! query batches, `search_batch` at any worker count returns identical
//! `Vec<Hit>` to per-query sequential `search()` — with annotation-aware
//! scoring as well as plain BM25.

use deepweb::common::{derive_rng, ThreadPool};
use deepweb::index::{
    search, search_with_scratch, Hit, QueryBroker, QueryScratch, SearchOptions, SearchService,
};
use deepweb::queries::{generate_workload, WorkloadConfig};
use deepweb::{quick_config, DeepWebSystem};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random world, random Zipf batch: batched serving is
    /// byte-identical to the sequential reference at w ∈ {1, 2, 4} — in
    /// plain BM25 mode *and* with the interned annotation pass enabled.
    #[test]
    fn random_world_batches_serve_identically(
        seed in 1u64..10_000,
        num_sites in 2usize..6,
        distinct in 20usize..60,
        batch_size in 5usize..40,
        stream_seed in 0u64..1_000,
    ) {
        let mut cfg = quick_config(num_sites);
        cfg.web.seed = seed;
        let sys = DeepWebSystem::build(&cfg);
        let wl = generate_workload(&sys.world, &WorkloadConfig {
            distinct,
            ..Default::default()
        });
        let mut rng = derive_rng(stream_seed, "prop-serving");
        let batch = wl.sample_batch(batch_size, &mut rng);
        for use_annotations in [false, true] {
            let opts = SearchOptions { use_annotations, ..Default::default() };
            let expected: Vec<Vec<Hit>> =
                batch.iter().map(|q| search(&sys.index, q, 10, opts)).collect();
            // Failing cases report the generated inputs via the proptest
            // harness' input header (the stub has two-arg asserts only).
            for workers in [1usize, 2, 4] {
                let broker = QueryBroker::new(&sys.index, ThreadPool::new(workers), opts);
                prop_assert_eq!(&broker.search_batch(&batch, 10), &expected);
            }
            // One reused scratch across the whole batch is byte-identical to
            // the reference (the broker's per-worker scratch lifecycle in
            // miniature).
            let mut scratch = QueryScratch::new();
            for (q, want) in batch.iter().zip(&expected) {
                prop_assert_eq!(
                    &search_with_scratch(&sys.index, q, 10, opts, &mut scratch),
                    want
                );
            }
        }
    }
}
