//! Property test for the sharded executor: for random small webworlds and
//! random worker counts, the parallel pipeline's output is
//! byte-identical to the sequential reference path.

use deepweb_surfacer::{
    crawl_and_surface, IndexabilityConfig, KeywordConfig, SurfacerConfig, TemplateConfig,
};
use deepweb_webworld::{generate, WebConfig};
use proptest::prelude::*;

/// Tight budgets so each generated web surfaces in well under a second.
fn tiny_cfg() -> SurfacerConfig {
    SurfacerConfig {
        keywords: KeywordConfig {
            seeds: 4,
            iterations: 1,
            candidates_per_round: 4,
            max_keywords: 6,
            probe_budget: 25,
        },
        templates: TemplateConfig {
            test_sample: 3,
            probe_budget: 60,
            ..Default::default()
        },
        indexability: IndexabilityConfig {
            max_urls: 30,
            ..Default::default()
        },
        max_values_per_input: 4,
        samples_per_class: 4,
        follow_pagination: 1,
        follow_details: 3,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn parallel_pipeline_equals_sequential(
        seed in 1u64..10_000,
        num_sites in 2usize..6,
        post_tenths in 0usize..5,
        workers in 2usize..6,
    ) {
        let w = generate(&WebConfig {
            seed,
            num_sites,
            post_fraction: post_tenths as f64 / 10.0,
            ..WebConfig::default()
        });
        let seeds = [deepweb_common::Url::new("dir.sim", "/")];
        let sequential = crawl_and_surface(&w.server, &seeds, &tiny_cfg());
        let parallel = crawl_and_surface(
            &w.server,
            &seeds,
            &SurfacerConfig { num_workers: workers, ..tiny_cfg() },
        );
        // Failing cases report the generated (seed, sites, workers)
        // via the proptest harness' input header.
        prop_assert_eq!(
            format!("{:?}", parallel.docs),
            format!("{:?}", sequential.docs)
        );
        prop_assert_eq!(
            format!("{:?}", parallel.reports),
            format!("{:?}", sequential.reports)
        );
    }
}
