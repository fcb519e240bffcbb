//! Correlated-input detection (paper §4.2): range pairs, database-selection
//! pairs, and JS-dependent selects.
//!
//! Range pairs are mined from input names (affix decomposition over the form
//! corpus's naming patterns) and confirmed by probing ([`confirm_range`], the
//! one copy the pipeline and E3 share): a properly ordered range must behave
//! differently from its inversion. Database-selection pairs are confirmed by
//! comparing which keywords are productive under different select values.

use crate::formmodel::{CrawledForm, CrawledInput};
use crate::probe::Prober;
use crate::typed::{wide_window, TypeClass, TypedValueLibrary};
use std::collections::BTreeSet;

/// A detected (min, max) range pair.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RangePair {
    /// Input holding the lower bound.
    pub min_input: String,
    /// Input holding the upper bound.
    pub max_input: String,
    /// Shared stem ("price", "year", ...).
    pub stem: String,
}

const MIN_AFFIXES: &[&str] = &["min", "from", "low", "start"];
const MAX_AFFIXES: &[&str] = &["max", "to", "high", "end"];

/// Decompose an input name into `(affix_kind, stem)` where affix_kind is
/// `Some(true)` for a min-affix, `Some(false)` for a max-affix.
fn decompose(name: &str) -> (Option<bool>, String) {
    let lower = name.to_ascii_lowercase();
    let parts: Vec<&str> = lower.split('_').filter(|p| !p.is_empty()).collect();
    // Underscore-separated affix anywhere: min_price, price_min, price_from.
    for (i, p) in parts.iter().enumerate() {
        if MIN_AFFIXES.contains(p) {
            let stem: Vec<&str> = parts
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, s)| *s)
                .collect();
            return (Some(true), stem.join("_"));
        }
        if MAX_AFFIXES.contains(p) {
            let stem: Vec<&str> = parts
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, s)| *s)
                .collect();
            return (Some(false), stem.join("_"));
        }
    }
    // Concatenated prefix: minprice / maxprice / lowprice / highprice.
    for a in MIN_AFFIXES {
        if let Some(stem) = lower.strip_prefix(a) {
            if !stem.is_empty() {
                return (Some(true), stem.to_string());
            }
        }
    }
    for a in MAX_AFFIXES {
        if let Some(stem) = lower.strip_prefix(a) {
            if !stem.is_empty() {
                return (Some(false), stem.to_string());
            }
        }
    }
    (None, lower)
}

/// Mine candidate range pairs from input names alone (no probing).
pub fn candidate_range_pairs(form: &CrawledForm) -> Vec<RangePair> {
    let texts: Vec<&CrawledInput> = form.inputs.iter().filter(|i| i.is_text()).collect();
    let mut pairs = Vec::new();
    for (i, a) in texts.iter().enumerate() {
        let (ka, stem_a) = decompose(&a.name);
        if ka != Some(true) {
            continue;
        }
        for b in texts.iter().skip(i + 1) {
            let (kb, stem_b) = decompose(&b.name);
            if kb == Some(false) && stem_a == stem_b {
                pairs.push(RangePair {
                    min_input: a.name.clone(),
                    max_input: b.name.clone(),
                    stem: stem_a.clone(),
                });
            }
        }
    }
    pairs
}

/// Probe-validate a candidate range pair: the proper ordering `(lo, hi)` must
/// return at least as much as the inversion `(hi, lo)`, and the inversion
/// must return nothing (an inverted range is empty on a real range pair).
pub(crate) fn validate_range(
    prober: &Prober<'_>,
    form: &CrawledForm,
    pair: &RangePair,
    lo: &str,
    hi: &str,
) -> bool {
    let proper = prober.submit(
        form,
        &[
            (pair.min_input.clone(), lo.to_string()),
            (pair.max_input.clone(), hi.to_string()),
        ],
    );
    let inverted = prober.submit(
        form,
        &[
            (pair.min_input.clone(), hi.to_string()),
            (pair.max_input.clone(), lo.to_string()),
        ],
    );
    proper.ok && inverted.ok && proper.has_results() && !inverted.has_results()
}

/// Confirm a mined pair as a real range: the stem names its type class, `k`
/// library values of that class give the sampled `(lo, hi)` window, and the
/// class's `wide_window` is the fallback when the site's values live
/// outside the ladder (e.g. high salaries). Returns the class and the
/// sampled values — what the aligned buckets are cut from — or `None` when
/// neither window validates.
pub fn confirm_range(
    prober: &Prober<'_>,
    form: &CrawledForm,
    pair: &RangePair,
    lib: &TypedValueLibrary,
    k: usize,
) -> Option<(TypeClass, Vec<String>)> {
    let class = if pair.stem.contains("year") {
        TypeClass::Year
    } else if pair.stem.contains("date") || pair.stem.contains("listed") {
        TypeClass::DateT
    } else {
        TypeClass::Price
    };
    let values = lib.sample(class, k);
    let (lo, hi) = (values.first()?, values.last()?);
    let (wlo, whi) = wide_window(class);
    let confirmed = validate_range(prober, form, pair, lo, hi)
        || validate_range(prober, form, pair, &wlo, &whi);
    confirmed.then_some((class, values))
}

/// Aligned range assignments over sorted `values`: consecutive buckets
/// `[v0,v1], (v1,v2], ...` plus an open tail — `values.len()` URLs instead of
/// the quadratic cross product (the paper's 120 → 10 example).
pub fn aligned_range_assignments(
    pair: &RangePair,
    values: &[String],
) -> Vec<Vec<(String, String)>> {
    let mut out = Vec::new();
    if values.is_empty() {
        return out;
    }
    for w in values.windows(2) {
        let [lo, hi] = w else { continue };
        out.push(vec![
            (pair.min_input.clone(), lo.clone()),
            (pair.max_input.clone(), hi.clone()),
        ]);
    }
    // Open tail bucket: everything above the last value.
    if let Some(last) = values.last() {
        out.push(vec![(pair.min_input.clone(), last.clone())]);
    }
    out
}

/// Naive assignments for the same pair: full cross product plus singles —
/// what a correlation-blind surfacer would generate (paper: "as many as 120
/// URLs" for 10×10).
pub fn naive_range_assignments(pair: &RangePair, values: &[String]) -> Vec<Vec<(String, String)>> {
    let mut out = Vec::new();
    for lo in values {
        out.push(vec![(pair.min_input.clone(), lo.clone())]);
    }
    for hi in values {
        out.push(vec![(pair.max_input.clone(), hi.clone())]);
    }
    for lo in values {
        for hi in values {
            out.push(vec![
                (pair.min_input.clone(), lo.clone()),
                (pair.max_input.clone(), hi.clone()),
            ]);
        }
    }
    out
}

/// Detect database selection between `select_name` and `text_name` (paper
/// §4.2): the productive keyword set for the text box depends on the select
/// value.
///
/// For each select value, every probe word is submitted and the words are
/// ranked by how many results they retrieve under that value; the *top*
/// productive words per value are then compared. On a database-selection
/// form the best keywords per value are the value's own vocabulary
/// (paper §4.2: "keywords that work well for software ... are quite
/// different from keywords for movies"), so the top sets barely overlap; on
/// an ordinary select+searchbox form the same globally common words win
/// under every value.
pub fn detect_database_selection(
    prober: &Prober<'_>,
    form: &CrawledForm,
    select_name: &str,
    text_name: &str,
    probe_words: &[String],
    max_values: usize,
) -> bool {
    let options: Vec<String> = form
        .input(select_name)
        .map(|i| i.options())
        .unwrap_or_default()
        .into_iter()
        .take(max_values)
        .map(str::to_string)
        .collect();
    if options.len() < 2 || probe_words.is_empty() {
        return false;
    }
    const TOP_M: usize = 3;
    let mut top_sets: Vec<BTreeSet<usize>> = Vec::new();
    for opt in &options {
        let mut counts: Vec<(usize, usize)> = Vec::new(); // (word idx, results)
        for (wi, w) in probe_words.iter().enumerate() {
            let out = prober.submit(
                form,
                &[
                    (select_name.to_string(), opt.clone()),
                    (text_name.to_string(), w.clone()),
                ],
            );
            if out.ok {
                let n = out.result_count.unwrap_or(out.record_ids.len());
                if n > 0 {
                    counts.push((wi, n));
                }
            }
        }
        counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        top_sets.push(counts.into_iter().take(TOP_M).map(|(wi, _)| wi).collect());
    }
    // Need at least two values with productive words.
    if top_sets.iter().filter(|s| !s.is_empty()).count() < 2 {
        return false;
    }
    let mut pairs = 0usize;
    let mut overlap_sum = 0.0f64;
    for (i, a) in top_sets.iter().enumerate() {
        for b in top_sets.iter().skip(i + 1) {
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let inter = a.intersection(b).count() as f64;
            let union = (a.len() + b.len()) as f64 - inter;
            overlap_sum += if union > 0.0 { inter / union } else { 0.0 };
            pairs += 1;
        }
    }
    let mean_overlap = if pairs > 0 {
        overlap_sum / pairs as f64
    } else {
        1.0
    };
    mean_overlap < 0.34
}

/// Aligned assignments for a JS-dependent pair (make → model): only valid
/// (controller, dependent) combinations, straight from the emulator's map.
pub(crate) fn dependent_assignments(
    dep: &crate::formmodel::DependentMap,
) -> Vec<Vec<(String, String)>> {
    let mut out = Vec::new();
    for (ctrl_val, dep_vals) in &dep.map {
        for dv in dep_vals {
            out.push(vec![
                (dep.controller.clone(), ctrl_val.clone()),
                (dep.dependent.clone(), dv.clone()),
            ]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{form_of, world};

    #[test]
    fn decompose_all_variants() {
        assert_eq!(decompose("min_price"), (Some(true), "price".into()));
        assert_eq!(decompose("price_max"), (Some(false), "price".into()));
        assert_eq!(decompose("minprice"), (Some(true), "price".into()));
        assert_eq!(decompose("price_from"), (Some(true), "price".into()));
        assert_eq!(decompose("price_to"), (Some(false), "price".into()));
        assert_eq!(decompose("low_salary"), (Some(true), "salary".into()));
        assert_eq!(decompose("high_salary"), (Some(false), "salary".into()));
        assert_eq!(decompose("query"), (None, "query".into()));
    }

    fn form_with_range(
        w: &deepweb_webworld::World,
    ) -> Option<(CrawledForm, RangePair, &deepweb_webworld::SiteTruth)> {
        for t in &w.truth.sites {
            if t.post || t.range_pairs.is_empty() {
                continue;
            }
            let form = form_of(w, &t.host);
            let pairs = candidate_range_pairs(&form);
            if let Some(p) = pairs.first() {
                return Some((form, p.clone(), t));
            }
        }
        None
    }

    #[test]
    fn mined_pairs_match_ground_truth() {
        let w = world(60);
        let mut tp = 0;
        let mut fp = 0;
        let mut fn_ = 0;
        for t in &w.truth.sites {
            if t.post {
                continue;
            }
            let form = form_of(&w, &t.host);
            let mined: Vec<(String, String)> = candidate_range_pairs(&form)
                .into_iter()
                .map(|p| (p.min_input, p.max_input))
                .collect();
            for pair in &t.range_pairs {
                if mined.contains(pair) {
                    tp += 1;
                } else {
                    fn_ += 1;
                }
            }
            for m in &mined {
                if !t.range_pairs.contains(m) {
                    fp += 1;
                }
            }
        }
        assert!(tp > 0, "should mine some pairs");
        assert_eq!(fp, 0, "name mining should not hallucinate pairs here");
        assert_eq!(fn_, 0, "all generated variants should be recognised");
    }

    #[test]
    fn range_validation_confirms_true_pairs() {
        let w = world(60);
        let (form, pair, _t) = form_with_range(&w).expect("range site exists");
        let prober = Prober::new(&w.server);
        // Price/salary stems take dollar ladders; year stems take years.
        let (lo, hi) = if pair.stem.contains("year") {
            ("1985", "2009")
        } else {
            ("1", "99999")
        };
        assert!(validate_range(&prober, &form, &pair, lo, hi));
    }

    #[test]
    fn aligned_vs_naive_counts() {
        let pair = RangePair {
            min_input: "min_price".into(),
            max_input: "max_price".into(),
            stem: "price".into(),
        };
        let values: Vec<String> = (1..=10).map(|i| (i * 1000).to_string()).collect();
        let aligned = aligned_range_assignments(&pair, &values);
        let naive = naive_range_assignments(&pair, &values);
        assert_eq!(aligned.len(), 10);
        assert_eq!(naive.len(), 120); // the paper's 120
    }

    #[test]
    fn aligned_single_value_is_tail_bucket_only() {
        let pair = RangePair {
            min_input: "min_price".into(),
            max_input: "max_price".into(),
            stem: "price".into(),
        };
        let aligned = aligned_range_assignments(&pair, &["5000".to_string()]);
        assert_eq!(
            aligned,
            vec![vec![("min_price".to_string(), "5000".to_string())]]
        );
    }

    #[test]
    fn dependent_assignments_expand_map() {
        let dep = crate::formmodel::DependentMap {
            controller: "make".into(),
            dependent: "model".into(),
            map: vec![
                ("honda".into(), vec!["civic".into(), "accord".into()]),
                ("ford".into(), vec!["focus".into()]),
            ],
        };
        let a = dependent_assignments(&dep);
        assert_eq!(a.len(), 3);
        assert!(a.contains(&vec![
            ("make".to_string(), "ford".to_string()),
            ("model".to_string(), "focus".to_string())
        ]));
    }

    #[test]
    fn database_selection_detected_on_media_site() {
        let w = world(80);
        for t in &w.truth.sites {
            if t.post || t.domain != deepweb_webworld::DomainKind::MediaSearch {
                continue;
            }
            let form = form_of(&w, &t.host);
            let select = form
                .inputs
                .iter()
                .find(|i| !i.options().is_empty())
                .map(|i| i.name.clone())
                .unwrap();
            let text = form
                .inputs
                .iter()
                .find(|i| i.is_text())
                .map(|i| i.name.clone())
                .unwrap();
            // Category-specific words: some from each pool.
            let words: Vec<String> = [
                "noir", "western", "compiler", "firewall", "arcade", "sonata",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            let prober = Prober::new(&w.server);
            let det = detect_database_selection(&prober, &form, &select, &text, &words, 4);
            assert!(det, "media site {} should show db-selection", t.host);
            return;
        }
        panic!("no media site generated");
    }
}
