//! E3 — range correlations (paper §4.2): ~20% of forms have likely range
//! pairs; ignoring the correlation generates up to 120 URLs for a 10-value
//! pair where 10 aligned URLs retrieve the same content.

use super::Scale;
use crate::report::{pct, TextTable};
use deepweb_common::stats::PrecisionRecall;
use deepweb_common::FxHashSet;
use deepweb_surfacer::correlate::{
    aligned_range_assignments, candidate_range_pairs, confirm_range, naive_range_assignments,
};
use deepweb_surfacer::{search_form, Prober, TypeClass, TypedValueLibrary};
use deepweb_webworld::{generate, WebConfig};

/// Key numbers.
#[derive(Clone, Copy, Debug)]
pub struct RangeResult {
    /// Detection precision over the corpus.
    pub precision: f64,
    /// Detection recall.
    pub recall: f64,
    /// URLs for a 10-value pair, naive.
    pub naive_urls: usize,
    /// URLs for the same pair, aligned.
    pub aligned_urls: usize,
    /// Coverage ratio aligned/naive on the probed site.
    pub coverage_ratio: f64,
}

/// Run E3.
pub fn run(scale: Scale) -> (Vec<TextTable>, RangeResult) {
    let w = generate(&WebConfig {
        num_sites: scale.pick(30, 120),
        post_fraction: 0.0,
        ..WebConfig::default()
    });
    let lib = TypedValueLibrary::standard();

    // Corpus-wide detection P/R (name mining + probe validation).
    let mut pr = PrecisionRecall::default();
    let mut forms_with_truth = 0usize;
    let mut forms_total = 0usize;
    let mut example: Option<(String, usize, usize, f64)> = None;
    for t in &w.truth.sites {
        forms_total += 1;
        if !t.range_pairs.is_empty() {
            forms_with_truth += 1;
        }
        let Some(form) = search_form(&w.server, &t.host) else {
            continue;
        };
        let prober = Prober::new(&w.server);
        let mut detected: Vec<(String, String)> = Vec::new();
        for pair in candidate_range_pairs(&form) {
            if let Some((class, values)) = confirm_range(&prober, &form, &pair, &lib, 10) {
                detected.push((pair.min_input.clone(), pair.max_input.clone()));
                // The paper's 120-vs-10 illustration plus live coverage, on
                // the first detected price-like pair.
                if example.is_none() && class == TypeClass::Price {
                    let naive = naive_range_assignments(&pair, &values);
                    let aligned = aligned_range_assignments(&pair, &values);
                    let cover = |assignments: &[Vec<(String, String)>]| -> usize {
                        let mut recs: FxHashSet<u32> = FxHashSet::default();
                        for a in assignments {
                            let out = prober.submit(&form, a);
                            recs.extend(out.record_ids.iter().copied());
                        }
                        recs.len()
                    };
                    let naive_cov = cover(&naive).max(1);
                    let aligned_cov = cover(&aligned);
                    example = Some((
                        t.host.clone(),
                        naive.len(),
                        aligned.len(),
                        aligned_cov as f64 / naive_cov as f64,
                    ));
                }
            }
        }
        for d in &detected {
            if t.range_pairs.contains(d) {
                pr.tp += 1;
            } else {
                pr.fp += 1;
            }
        }
        for truth_pair in &t.range_pairs {
            if !detected.contains(truth_pair) {
                pr.fn_ += 1;
            }
        }
    }

    let (host, naive_urls, aligned_urls, coverage_ratio) =
        example.unwrap_or((String::from("-"), 120, 10, 1.0));
    let mut t1 = TextTable::new(
        "E3a: range-pair detection over the form corpus (paper: ~20% of forms have range pairs)",
        &["metric", "value"],
    );
    t1.row(&["GET forms".into(), forms_total.to_string()]);
    t1.row(&[
        "forms with true range pair".into(),
        format!(
            "{} ({})",
            forms_with_truth,
            pct(forms_with_truth as f64 / forms_total.max(1) as f64)
        ),
    ]);
    t1.row(&["detection precision".into(), pct(pr.precision())]);
    t1.row(&["detection recall".into(), pct(pr.recall())]);

    let mut t2 = TextTable::new(
        "E3b: URLs for a 10-value range pair (paper: 120 naive vs 10 aligned, no coverage loss)",
        &[
            "site",
            "naive URLs",
            "aligned URLs",
            "coverage ratio (aligned/naive)",
        ],
    );
    t2.row(&[
        host,
        naive_urls.to_string(),
        aligned_urls.to_string(),
        format!("{coverage_ratio:.2}"),
    ]);

    let result = RangeResult {
        precision: pr.precision(),
        recall: pr.recall(),
        naive_urls,
        aligned_urls,
        coverage_ratio,
    };
    (vec![t1, t2], result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_is_accurate_and_aligned_urls_cheap() {
        let (_, r) = run(Scale::Smoke);
        assert!(r.precision > 0.9, "precision {}", r.precision);
        assert!(r.recall > 0.7, "recall {}", r.recall);
        // The paper's 120 → 10 shape.
        assert_eq!(r.naive_urls, 120);
        assert_eq!(r.aligned_urls, 10);
        // Aligned buckets keep (almost) all coverage.
        assert!(
            r.coverage_ratio > 0.9,
            "coverage ratio {}",
            r.coverage_ratio
        );
    }
}
