//! E9 — coverage estimation (paper §5.2): produce "with probability M%, more
//! than N% of the site's content has been exposed" statements and measure
//! estimator error against simulator ground truth.

use super::Scale;
use crate::report::{pct, TextTable};
use deepweb_common::derive_rng;
use deepweb_coverage::{coverage_of_surfacing, estimate_size};
use deepweb_surfacer::{search_form, Prober, Slot};
use deepweb_webworld::{generate, WebConfig};

/// One site's estimation outcome.
#[derive(Clone, Debug)]
pub struct CoveragePoint {
    /// Host.
    pub host: String,
    /// True database size.
    pub true_size: usize,
    /// Estimated size (None when batches never overlapped).
    pub estimated: Option<f64>,
    /// Relative error |est - truth| / truth (when estimated).
    pub rel_error: Option<f64>,
    /// Probes that reached the site: [`deepweb_coverage::EstimationRun::probes`].
    pub probes: u64,
}

/// Run E9 across a spread of site sizes.
pub fn run(scale: Scale) -> (Vec<TextTable>, Vec<CoveragePoint>) {
    let w = generate(&WebConfig {
        num_sites: scale.pick(12, 40),
        min_records: 50,
        max_records: scale.pick(400, 1500),
        post_fraction: 0.0,
        ..WebConfig::default()
    });
    let mut rng = derive_rng(91, "e09");
    let mut points = Vec::new();
    let probes_per_batch = scale.pick(30, 80);
    for t in w.truth.sites.iter().take(scale.pick(5, 15)) {
        let Some(form) = search_form(&w.server, &t.host) else {
            continue;
        };
        // Sample via select slots (every site has at least one select or
        // typed input; skip pure-searchbox sites for sampling uniformity).
        let slots: Vec<Slot> = form
            .fillable_inputs()
            .iter()
            .filter(|i| !i.options().is_empty())
            .map(|i| Slot::Single {
                input: i.name.clone(),
                values: i.options().iter().map(|s| s.to_string()).collect(),
            })
            .collect();
        if slots.is_empty() {
            continue;
        }
        let prober = Prober::new(&w.server);
        let run = estimate_size(&prober, &form, &slots, probes_per_batch, &mut rng);
        let rel_error = run
            .estimated_size
            .map(|est| (est - t.records as f64).abs() / t.records.max(1) as f64);
        points.push(CoveragePoint {
            host: t.host.clone(),
            true_size: t.records,
            estimated: run.estimated_size,
            rel_error,
            probes: run.probes,
        });
        // Also demonstrate the paper's statement form on the first site.
        if points.len() == 1 {
            let _ = coverage_of_surfacing(&run, t.records / 2, 0.95);
        }
    }

    let mut t = TextTable::new(
        "E9: capture-recapture database-size estimation (paper: the M%/N% \
         coverage statement is the open problem)",
        &["site", "true size", "estimate", "relative error", "probes"],
    );
    for p in &points {
        t.row(&[
            p.host.clone(),
            p.true_size.to_string(),
            p.estimated.map_or("n/a".into(), |e| format!("{e:.0}")),
            p.rel_error.map_or("n/a".into(), pct),
            p.probes.to_string(),
        ]);
    }
    (vec![t], points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_exist_and_are_sane() {
        let (_, points) = run(Scale::Smoke);
        assert!(!points.is_empty());
        let estimated: Vec<&CoveragePoint> =
            points.iter().filter(|p| p.estimated.is_some()).collect();
        assert!(
            !estimated.is_empty(),
            "at least one site should yield an estimate"
        );
        // Median relative error should be bounded (estimates from select
        // sampling see only first pages; we accept generous error).
        let mut errs: Vec<f64> = estimated.iter().filter_map(|p| p.rel_error).collect();
        errs.sort_by(f64::total_cmp);
        let median = errs[errs.len() / 2];
        assert!(median < 2.0, "median relative error {median}");
    }
}
