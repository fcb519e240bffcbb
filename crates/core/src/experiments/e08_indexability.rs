//! E8 — the indexability criterion (paper §5.2): surfaced pages should have
//! neither too many nor too few results; selection balances page count,
//! coverage and indexability.

use super::Scale;
use crate::report::{pct, TextTable};
use deepweb_common::stats::percentile;
use deepweb_surfacer::correlate::{
    aligned_range_assignments, candidate_range_pairs, confirm_range,
};
use deepweb_surfacer::{
    generate_urls, search_form, search_templates, select_templates, IndexabilityConfig, Prober,
    Slot, TemplateConfig, TypedValueLibrary,
};
use deepweb_webworld::{generate, DomainKind, WebConfig};

/// Outcome of one selection policy.
#[derive(Clone, Copy, Debug, Default)]
pub struct PolicyOutcome {
    /// URLs generated.
    pub urls: usize,
    /// Fraction of surfaced pages with result counts in `[1, 100]`.
    pub indexable_fraction: f64,
    /// Median results per surfaced page.
    pub median_results: f64,
    /// 90th percentile results per page.
    pub p90_results: f64,
}

/// Run E8: same form, indexability-aware vs size-blind template selection.
pub fn run(scale: Scale) -> (Vec<TextTable>, (PolicyOutcome, PolicyOutcome)) {
    let w = generate(&WebConfig {
        num_sites: 1,
        min_records: scale.pick(300, 2000),
        max_records: scale.pick(300, 2000),
        post_fraction: 0.0,
        english_fraction: 1.0,
        domain_weights: vec![(DomainKind::UsedCars, 1.0)],
        ..WebConfig::default()
    });
    let site = w.truth.sites.first();
    let Some(form) = site.and_then(|t| search_form(&w.server, &t.host)) else {
        return (Vec::new(), Default::default()); // no form, no policies to compare
    };
    let prober = Prober::new(&w.server);
    let lib = TypedValueLibrary::standard();
    let mut slots: Vec<Slot> = Vec::new();
    for input in form.fillable_inputs() {
        let opts = input.options();
        if !opts.is_empty() {
            slots.push(Slot::Single {
                input: input.name.clone(),
                values: opts.into_iter().map(str::to_string).collect(),
            });
        }
    }
    // Range slots give the selector fine-grained (indexable) templates to
    // prefer over whole-database single-select dumps.
    for pair in candidate_range_pairs(&form) {
        if let Some((_, values)) = confirm_range(&prober, &form, &pair, &lib, 10) {
            slots.push(Slot::Group {
                label: format!("range:{}", pair.stem),
                assignments: aligned_range_assignments(&pair, &values),
            });
        }
    }
    let evals = search_templates(
        &prober,
        &form,
        &slots,
        &TemplateConfig {
            test_sample: 8,
            probe_budget: 300,
        },
    );

    let run_policy = |cfg: &IndexabilityConfig| -> PolicyOutcome {
        let chosen = select_templates(&evals, cfg);
        let urls = generate_urls(&form, &slots, &evals, &chosen, cfg.max_urls);
        let mut counts: Vec<f64> = Vec::new();
        for g in &urls {
            let out = prober.fetch(&g.url);
            if out.ok {
                counts.push(out.result_count.unwrap_or(0) as f64);
            }
        }
        let in_bounds = counts
            .iter()
            .filter(|&&c| (1.0..=100.0).contains(&c))
            .count();
        PolicyOutcome {
            urls: urls.len(),
            indexable_fraction: if counts.is_empty() {
                0.0
            } else {
                in_bounds as f64 / counts.len() as f64
            },
            median_results: percentile(&counts, 50.0),
            p90_results: percentile(&counts, 90.0),
        }
    };

    // A budget below the total URL potential forces each policy to choose.
    let aware = run_policy(&IndexabilityConfig {
        min_results: 1,
        max_results: 100,
        max_urls: 40,
    });
    // Size-blind: bounds disabled (any count acceptable), same URL budget.
    let blind = run_policy(&IndexabilityConfig {
        min_results: 0,
        max_results: usize::MAX,
        max_urls: 40,
    });

    let mut table = TextTable::new(
        "E8: indexability-aware template selection (paper: pages should have \
         neither too many nor too few results)",
        &[
            "policy",
            "URLs",
            "pages in [1,100] results",
            "median results/page",
            "p90",
        ],
    );
    table.row(&[
        "indexability-aware".into(),
        aware.urls.to_string(),
        pct(aware.indexable_fraction),
        format!("{:.0}", aware.median_results),
        format!("{:.0}", aware.p90_results),
    ]);
    table.row(&[
        "size-blind".into(),
        blind.urls.to_string(),
        pct(blind.indexable_fraction),
        format!("{:.0}", blind.median_results),
        format!("{:.0}", blind.p90_results),
    ]);
    (vec![table], (aware, blind))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aware_policy_keeps_pages_in_bounds() {
        let (_, (aware, blind)) = run(Scale::Smoke);
        assert!(aware.urls > 0);
        assert!(
            aware.indexable_fraction >= blind.indexable_fraction,
            "aware {} vs blind {}",
            aware.indexable_fraction,
            blind.indexable_fraction
        );
        assert!(
            aware.indexable_fraction > 0.5,
            "aware {}",
            aware.indexable_fraction
        );
    }
}
