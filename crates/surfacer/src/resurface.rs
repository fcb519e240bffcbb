//! Incremental re-surfacing for the freshness tier.
//!
//! Surfacing is a batch pipeline; the web it surfaced keeps changing
//! underneath the index ("the web crawler will discover more content over
//! time", §3.2). Rather than re-running the whole pipeline, the freshness
//! tier re-probes a scheduled subset of known hosts per round: a cheap
//! fingerprint fetch decides whether a host changed at all, and only changed
//! hosts pay for a full per-host re-surface. The caller (deepweb-core)
//! fans a round out as one pool task per scheduled site (fingerprint, and
//! re-surface if it changed), then seals the round's fresh docs as one
//! delta segment; this module owns the schedule and the per-host pipeline
//! run. Parallel rounds rely on two facts from here: a batch never names a
//! site twice, and a re-surface fetches only its own host.

use crate::pipeline::{crawl_and_surface, SurfacerConfig, SurfacingOutcome};
use deepweb_common::Url;
use deepweb_webworld::Fetcher;

/// Round-robin schedule over a fixed universe of sites.
///
/// Deterministic and stateless beyond a cursor: every site is visited once
/// per full rotation regardless of batch size, so staleness per site is
/// bounded by `ceil(num_sites / batch)` rounds. The cursor survives universe
/// growth (new sites join the rotation at their index).
#[derive(Clone, Debug, Default)]
pub struct ReprobeScheduler {
    cursor: usize,
}

impl ReprobeScheduler {
    /// A scheduler starting at site 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Next `batch` site indices to re-probe, advancing the cursor.
    ///
    /// Wraps around the universe; a batch never visits the same site twice,
    /// so it is capped at `num_sites`.
    pub fn next_batch(&mut self, num_sites: usize, batch: usize) -> Vec<usize> {
        if num_sites == 0 || batch == 0 {
            return Vec::new();
        }
        let take = batch.min(num_sites);
        let start = self.cursor % num_sites;
        let picks = (0..take).map(|i| (start + i) % num_sites).collect();
        self.cursor = (start + take) % num_sites;
        picks
    }
}

/// Re-run the surfacing pipeline against one host.
///
/// Seeds the crawl at the host's root instead of the directory hub, so only
/// that site's pages are fetched and only its forms are re-probed. The
/// outcome has the same shape as a full run (surface pages, surfaced pages
/// with annotations, discovered detail pages) — the caller diffs it against
/// the index's known URLs to extract the delta.
pub fn resurface_host(fetcher: &dyn Fetcher, host: &str, cfg: &SurfacerConfig) -> SurfacingOutcome {
    crawl_and_surface(fetcher, &[Url::new(host.to_string(), "/")], cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::DocOrigin;
    use crate::{IndexabilityConfig, KeywordConfig, TemplateConfig};
    use deepweb_webworld::{generate, WebConfig};

    #[test]
    fn scheduler_round_robins_with_wraparound() {
        let mut s = ReprobeScheduler::new();
        assert_eq!(s.next_batch(5, 2), vec![0, 1]);
        assert_eq!(s.next_batch(5, 2), vec![2, 3]);
        assert_eq!(s.next_batch(5, 2), vec![4, 0]);
        // Oversized batches clamp to one full rotation.
        assert_eq!(s.next_batch(5, 99), vec![1, 2, 3, 4, 0]);
        // Degenerate inputs are empty, not panics.
        assert_eq!(s.next_batch(0, 3), Vec::<usize>::new());
        assert_eq!(s.next_batch(5, 0), Vec::<usize>::new());
        // Universe growth keeps the cursor meaningful.
        assert_eq!(s.next_batch(7, 3), vec![1, 2, 3]);
    }

    /// A refresh round probes its batch in parallel, one task per site; one
    /// thread per host holds only if no batch names a site twice.
    #[test]
    fn a_batch_never_repeats_a_site() {
        for num_sites in 1..=12 {
            for batch in 1..=15 {
                let mut s = ReprobeScheduler::new();
                for round in 0..2 * num_sites + 1 {
                    let mut picks = s.next_batch(num_sites, batch);
                    assert_eq!(picks.len(), batch.min(num_sites));
                    picks.sort_unstable();
                    picks.dedup();
                    assert_eq!(
                        picks.len(),
                        batch.min(num_sites),
                        "sites={num_sites} batch={batch} round={round}"
                    );
                    assert!(picks.iter().all(|&i| i < num_sites));
                }
            }
        }
    }

    #[test]
    fn resurface_targets_a_single_host() {
        let w = generate(&WebConfig {
            num_sites: 6,
            post_fraction: 0.0,
            ..WebConfig::default()
        });
        let host = w.truth.sites[0].host.clone();
        let cfg = SurfacerConfig {
            keywords: KeywordConfig {
                seeds: 6,
                iterations: 1,
                candidates_per_round: 6,
                max_keywords: 8,
                probe_budget: 40,
            },
            templates: TemplateConfig {
                test_sample: 4,
                probe_budget: 120,
            },
            indexability: IndexabilityConfig {
                max_urls: 60,
                ..Default::default()
            },
            max_values_per_input: 6,
            samples_per_class: 5,
            follow_pagination: 1,
            follow_details: 5,
            ..Default::default()
        };
        let outcome = resurface_host(&w.server, &host, &cfg);
        assert!(!outcome.docs.is_empty());
        assert!(outcome.docs.iter().all(|d| d.host == host));
        assert!(outcome.docs_of(DocOrigin::Surfaced).count() > 0);
        // Re-running against the same unchanged host is deterministic.
        let again = resurface_host(&w.server, &host, &cfg);
        assert_eq!(format!("{:?}", outcome.docs), format!("{:?}", again.docs));
    }
}
