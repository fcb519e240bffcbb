//! Property tests for block-max pruned top-k: for random webworlds and
//! random Zipf query batches, [`PruningMode::BlockMax`] is byte-identical to
//! exhaustive scoring at every `k`, in plain and annotation-aware mode,
//! sequentially and through the cluster tier.

use deepweb::common::derive_rng;
use deepweb::index::{search, ClusterConfig, Hit, PruningMode, SearchOptions, SearchService};
use deepweb::queries::{generate_workload, WorkloadConfig};
use deepweb::{quick_config, DeepWebSystem};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random world, random batch: pruned == exhaustive for
    /// k ∈ {1, 3, 10} × {plain, annotated}, and the BlockMax cluster tier
    /// reproduces the same bytes.
    #[test]
    fn random_world_pruned_equals_exhaustive(
        seed in 1u64..10_000,
        num_sites in 2usize..6,
        distinct in 20usize..60,
        batch_size in 5usize..30,
        stream_seed in 0u64..1_000,
        workers in 1usize..5,
    ) {
        let mut cfg = quick_config(num_sites);
        cfg.web.seed = seed;
        cfg.pruning = PruningMode::BlockMax;
        let sys = DeepWebSystem::build(&cfg);
        let wl = generate_workload(&sys.world, &WorkloadConfig {
            distinct,
            ..Default::default()
        });
        let mut rng = derive_rng(stream_seed, "prop-pruning");
        let batch = wl.sample_batch(batch_size, &mut rng);
        for use_annotations in [false, true] {
            let exhaustive = SearchOptions {
                use_annotations,
                pruning: PruningMode::Exhaustive,
            };
            let pruned = SearchOptions {
                use_annotations,
                pruning: PruningMode::BlockMax,
            };
            for k in [1usize, 3, 10] {
                let expected: Vec<Vec<Hit>> =
                    batch.iter().map(|q| search(&sys.index, q, k, exhaustive)).collect();
                for (q, want) in batch.iter().zip(&expected) {
                    prop_assert_eq!(&search(&sys.index, q, k, pruned), want);
                }
                // Cluster tier with the pruned options: a batch spread over
                // the pool must still be byte-identical.
                if k == 10 && use_annotations == (seed % 2 == 0) {
                    let cluster = deepweb::index::ClusterServer::new(
                        &sys.index,
                        pruned,
                        ClusterConfig {
                            workers,
                            cache: None,
                            ..Default::default()
                        },
                    );
                    prop_assert_eq!(&cluster.search_batch(&batch, k), &expected);
                }
            }
        }
    }
}
