//! Probe-based coverage estimation against live forms: draw two independent
//! random probe batches, treat the record ids they expose as
//! capture/recapture samples, and estimate database size and surfacing
//! coverage.
//!
//! The probe count is the requests that reached the site. A draw that
//! repeats a URL, within a batch or across the two, is answered from the
//! prober's memo and costs nothing; it reads the same records, so the
//! estimate is what it would be had the site been asked again.

use crate::capture::{coverage_statement, lincoln_petersen, CoverageStatement};
use deepweb_surfacer::{CrawledForm, Prober, Slot};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeSet;

/// Result of a probe-based estimation run.
#[derive(Clone, Debug)]
pub struct EstimationRun {
    /// Records in batch 1.
    pub n1: usize,
    /// Records in batch 2.
    pub n2: usize,
    /// Overlap.
    pub overlap: usize,
    /// Estimated database size (None if overlap was empty).
    pub estimated_size: Option<f64>,
    /// Probes that reached the site, retries included; a repeated draw
    /// answered from the prober's memo is not one.
    pub probes: u64,
}

/// Draw one batch of records by submitting `k` random assignments sampled
/// from the slots.
fn sample_batch(
    prober: &Prober<'_>,
    form: &CrawledForm,
    slots: &[Slot],
    k: usize,
    rng: &mut StdRng,
) -> BTreeSet<u32> {
    let mut records = BTreeSet::new();
    if slots.is_empty() {
        return records;
    }
    for _ in 0..k {
        let slot = slots.choose(rng).expect("nonempty slots");
        let idx = rng.gen_range(0..slot.cardinality().max(1));
        let assignment = slot.assignment(idx);
        // Land on a random result page (not always page 0) so batches
        // approximate uniform record samples. Out-of-range pages come back
        // empty and failed fetches come back `!ok`; either way the draw
        // would be wasted, so both are retried at page 0. (Failures used to
        // be dropped on the floor, silently burning the probe budget.) The
        // retry goes through the same prober, so it counts toward
        // [`EstimationRun::probes`] unless page 0 was already fetched.
        let page: usize = rng.gen_range(0..6);
        let url = form
            .submission_url(&assignment)
            .with_param("page", page.to_string());
        let mut out = prober.fetch(&url);
        if page > 0 && (!out.ok || out.record_ids.is_empty()) {
            out = prober.submit(form, &assignment);
        }
        if out.ok {
            records.extend(out.record_ids.iter().copied());
        }
    }
    records
}

/// Run two-batch capture/recapture estimation against a form.
pub fn estimate_size(
    prober: &Prober<'_>,
    form: &CrawledForm,
    slots: &[Slot],
    probes_per_batch: usize,
    rng: &mut StdRng,
) -> EstimationRun {
    let start = prober.requests();
    let b1 = sample_batch(prober, form, slots, probes_per_batch, rng);
    let b2 = sample_batch(prober, form, slots, probes_per_batch, rng);
    let overlap = b1.intersection(&b2).count();
    EstimationRun {
        n1: b1.len(),
        n2: b2.len(),
        overlap,
        estimated_size: lincoln_petersen(b1.len(), b2.len(), overlap),
        probes: prober.requests() - start,
    }
}

/// Full coverage statement for a surfacing run: how much of the (estimated)
/// database did the surfacer expose?
pub fn coverage_of_surfacing(
    run: &EstimationRun,
    surfaced_records: usize,
    confidence: f64,
) -> Option<CoverageStatement> {
    coverage_statement(surfaced_records, run.n1, run.n2, run.overlap, confidence)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepweb_common::{derive_rng, Url};
    use deepweb_surfacer::search_form;
    use deepweb_webworld::{generate, Fetcher, WebConfig};

    fn site_with_select(w: &deepweb_webworld::World) -> (CrawledForm, Vec<Slot>, usize) {
        for t in &w.truth.sites {
            if t.post {
                continue;
            }
            let Some(form) = search_form(&w.server, &t.host) else {
                continue;
            };
            let selects: Vec<Slot> = form
                .fillable_inputs()
                .iter()
                .filter(|i| !i.options().is_empty())
                .map(|i| Slot::Single {
                    input: i.name.clone(),
                    values: i.options().iter().map(|s| s.to_string()).collect(),
                })
                .collect();
            if !selects.is_empty() {
                return (form, selects, t.records);
            }
        }
        panic!("no select site");
    }

    #[test]
    fn estimation_roughly_tracks_truth() {
        let w = generate(&WebConfig {
            num_sites: 20,
            min_records: 60,
            max_records: 200,
            ..WebConfig::default()
        });
        let (form, slots, true_size) = site_with_select(&w);
        let prober = Prober::new(&w.server);
        let mut rng = derive_rng(7, "coverage-test");
        let run = estimate_size(&prober, &form, &slots, 25, &mut rng);
        // With select slots plus pagination-free sampling we see the first
        // page of each selection only; the estimator must at least produce a
        // positive size not wildly above the truth.
        if let Some(est) = run.estimated_size {
            assert!(est > 0.0);
            assert!(
                est < true_size as f64 * 10.0,
                "estimate {est} vs truth {true_size} off by >10x"
            );
        }
        assert!(run.probes > 0);
    }

    /// Fails every non-zero-page fetch; page 0 passes through to the real
    /// server. Models transiently flaky pagination.
    struct FlakyPager<'a>(&'a deepweb_webworld::WebServer);

    impl Fetcher for FlakyPager<'_> {
        fn fetch(&self, url: &Url) -> deepweb_common::Result<deepweb_webworld::Response> {
            match url.param("page") {
                Some(p) if p != "0" => Err(deepweb_webworld::fetch::http_error(500, url)),
                _ => self.0.fetch(url),
            }
        }
    }

    #[test]
    fn failed_fetches_are_retried_at_page_zero() {
        // Regression: a `!ok` fetch at page > 0 used to be dropped without
        // the page-0 retry that empty pages get, silently wasting the probe
        // budget (and shrinking the capture samples).
        let w = generate(&WebConfig {
            num_sites: 20,
            min_records: 60,
            max_records: 200,
            ..WebConfig::default()
        });
        let (form, slots, _) = site_with_select(&w);
        let flaky = FlakyPager(&w.server);
        let prober = Prober::new(&flaky);
        let mut rng = derive_rng(7, "coverage-flaky");
        let k = 25;
        let run = estimate_size(&prober, &form, &slots, k, &mut rng);
        // With 2k draws and pages drawn from 0..6, some draws land on a
        // failing page and must be retried — the retries are extra requests
        // through the same prober, so the probe count exceeds the draw count.
        assert!(
            run.probes > 2 * k as u64,
            "retries must issue (and be counted as) extra probes: {}",
            run.probes
        );
        // And the batches still collect records despite every non-zero page
        // failing.
        assert!(run.n1 > 0, "batch 1 lost its failed draws");
        assert!(run.n2 > 0, "batch 2 lost its failed draws");
    }

    #[test]
    fn coverage_statement_combines() {
        let run = EstimationRun {
            n1: 80,
            n2: 75,
            overlap: 30,
            estimated_size: lincoln_petersen(80, 75, 30),
            probes: 50,
        };
        let c = coverage_of_surfacing(&run, 150, 0.95).unwrap();
        assert!(c.coverage > 0.5);
        assert!(c.lower_bound <= c.coverage);
    }

    #[test]
    fn empty_slots_yield_no_estimate() {
        let w = generate(&WebConfig {
            num_sites: 5,
            ..WebConfig::default()
        });
        let (form, _, _) = site_with_select(&w);
        let prober = Prober::new(&w.server);
        let mut rng = derive_rng(8, "coverage-empty");
        let run = estimate_size(&prober, &form, &[], 5, &mut rng);
        assert_eq!(run.n1, 0);
        assert!(run.estimated_size.is_none());
    }
}
