//! Iterative probing: keyword selection for search boxes (paper §4.1).
//!
//! "We generate candidate seed keywords by selecting the words that are most
//! characteristic of the already indexed web pages from the form site. We
//! then use an iterative probing approach to identify more keywords before
//! finally selecting the ones that ensure diversity of result pages."
//!
//! Implementation: seeds = TF·IDF-characteristic terms of the site's surface
//! pages against a web-wide background; each productive probe's result text
//! contributes new candidates; final selection is a greedy max-cover over the
//! record sets the keywords retrieve (falling back to distinct signatures
//! when pages expose no record links).

use crate::formmodel::CrawledForm;
use crate::probe::{Assignment, Prober};
use deepweb_common::text::DfTable;
use deepweb_common::FxHashSet;
use std::collections::BTreeSet;

/// Tuning for iterative probing.
#[derive(Clone, Copy, Debug)]
pub struct KeywordConfig {
    /// Seed candidates taken from site text.
    pub seeds: usize,
    /// Probing rounds after the seed round (0 = seed-only baseline).
    pub iterations: usize,
    /// New candidates extracted from result pages per round.
    pub candidates_per_round: usize,
    /// Keywords kept by the final diversity selection.
    pub max_keywords: usize,
    /// Hard cap on probe requests.
    pub probe_budget: usize,
}

impl Default for KeywordConfig {
    fn default() -> Self {
        KeywordConfig {
            seeds: 10,
            iterations: 3,
            candidates_per_round: 12,
            max_keywords: 20,
            probe_budget: 120,
        }
    }
}

/// Outcome of keyword selection for one input.
#[derive(Clone, Debug, Default)]
pub struct KeywordSelection {
    /// Selected keywords, in greedy-cover order.
    pub keywords: Vec<String>,
    /// Distinct records covered by the selection (when observable).
    pub covered_records: usize,
    /// Probe requests spent.
    pub probes_used: u64,
}

/// Run iterative probing for `input_name` of `form`.
///
/// `site_text` is the text of the site's already-crawled surface pages;
/// `background` the web-wide document-frequency table; `base` an assignment
/// (e.g. a database-selection menu value) merged into every probe.
pub fn iterative_probing(
    prober: &Prober<'_>,
    form: &CrawledForm,
    input_name: &str,
    base: &[(String, String)],
    site_text: &str,
    background: &DfTable,
    cfg: &KeywordConfig,
) -> KeywordSelection {
    let start_requests = prober.requests();
    let mut queue: Vec<String> = background.characteristic_terms(site_text, cfg.seeds);
    let mut tried: FxHashSet<String> = FxHashSet::default();
    // keyword -> (records, signature)
    let mut productive: Vec<(String, BTreeSet<u32>, u64)> = Vec::new();
    let mut rounds_left = cfg.iterations + 1; // seed round counts as one

    while rounds_left > 0 && !queue.is_empty() {
        rounds_left -= 1;
        let batch: Vec<String> = std::mem::take(&mut queue);
        let mut result_text = String::new();
        for kw in batch {
            if tried.len() >= cfg.probe_budget {
                break;
            }
            if !tried.insert(kw.clone()) {
                continue;
            }
            let mut assignment: Assignment = base.to_vec();
            assignment.push((input_name.to_string(), kw.clone()));
            let out = prober.submit(form, &assignment);
            if out.ok && out.has_results() {
                let records: BTreeSet<u32> = out.record_ids.iter().copied().collect();
                productive.push((kw, records, out.signature));
                result_text.push_str(&out.text);
                result_text.push(' ');
            }
        }
        if rounds_left > 0 && !result_text.is_empty() {
            queue = background
                .characteristic_terms(&result_text, cfg.candidates_per_round * 3)
                .into_iter()
                .filter(|t| !tried.contains(t))
                .take(cfg.candidates_per_round)
                .collect();
        }
    }

    // The greedy selection hands back indices into `productive` plus the
    // covered-record union it already maintained for gain scoring — no
    // re-search of the productive list, no second union pass.
    let (chosen, covered) = greedy_diverse_indices(&productive, cfg.max_keywords);
    KeywordSelection {
        keywords: (chosen.into_iter())
            .filter_map(|i| Some(productive.get(i)?.0.clone()))
            .collect(),
        covered_records: covered.len(),
        probes_used: prober.requests() - start_requests,
    }
}

/// Greedy max-cover selection: keep adding the keyword that covers the most
/// yet-uncovered records; when record ids are unavailable, prefer new result
/// signatures (diversity of result pages). Returns indices into `productive`
/// in greedy-cover order (no keyword cloning until the caller decides) and
/// the union of records the selection covers.
fn greedy_diverse_indices(
    productive: &[(String, BTreeSet<u32>, u64)],
    max_keywords: usize,
) -> (Vec<usize>, FxHashSet<u32>) {
    let mut chosen: Vec<usize> = Vec::new();
    let mut covered: FxHashSet<u32> = FxHashSet::default();
    let mut seen_sigs: FxHashSet<u64> = FxHashSet::default();
    let mut remaining: Vec<_> = productive.iter().enumerate().collect();
    while chosen.len() < max_keywords && !remaining.is_empty() {
        let (best_pos, best_gain) = remaining
            .iter()
            .enumerate()
            .map(|(pos, &(_, (_, recs, sig)))| {
                let rec_gain = recs.iter().filter(|r| !covered.contains(r)).count();
                // Signature novelty breaks ties / substitutes when no records.
                let sig_gain = usize::from(!seen_sigs.contains(sig));
                (pos, rec_gain * 2 + sig_gain)
            })
            .max_by_key(|&(pos, gain)| (gain, std::cmp::Reverse(pos)))
            .unwrap_or((0, 0));
        if best_gain == 0 {
            break;
        }
        let (idx, (_, recs, sig)) = remaining.remove(best_pos);
        covered.extend(recs.iter().copied());
        seen_sigs.insert(*sig);
        chosen.push(idx);
    }
    (chosen, covered)
}

/// Probe a fixed keyword list and report the records covered — used by the
/// E5 baselines (random dictionary words, frequency-ranked words).
pub fn probe_keyword_coverage(
    prober: &Prober<'_>,
    form: &CrawledForm,
    input_name: &str,
    keywords: &[String],
) -> FxHashSet<u32> {
    let mut covered = FxHashSet::default();
    for kw in keywords {
        let out = prober.submit(form, &[(input_name.to_string(), kw.clone())]);
        if out.ok {
            covered.extend(out.record_ids.iter().copied());
        }
    }
    covered
}

/// Frequency-only baseline: the `n` most frequent non-stopword terms of the
/// site text (no probing feedback; Ntoulas-style greedy frequency).
pub fn frequency_keywords(site_text: &str, n: usize) -> Vec<String> {
    let tf = deepweb_common::text::term_frequencies(site_text);
    let mut items: Vec<(String, u32)> = tf
        .into_iter()
        .filter(|(t, _)| !deepweb_common::text::is_stopword(t) && t.len() > 1)
        .collect();
    items.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    items.into_iter().take(n).map(|(t, _)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{form_of, world};
    use deepweb_common::Url;
    use deepweb_webworld::Fetcher;

    /// Find a site with a keyword search box and return (world, form, truth idx).
    fn world_with_search_box() -> (deepweb_webworld::World, CrawledForm, usize) {
        let w = world(30);
        let is_search = |(_, tr): &(String, _)| matches!(tr, deepweb_webworld::InputTruth::Search);
        let i = (w.truth.sites.iter())
            .position(|t| !t.post && t.inputs.iter().any(is_search))
            .expect("a search-box site in the world");
        let form = form_of(&w, &w.truth.sites[i].host);
        (w, form, i)
    }

    fn search_input_name(w: &deepweb_webworld::World, i: usize) -> String {
        w.truth.sites[i]
            .inputs
            .iter()
            .find(|(_, t)| matches!(t, deepweb_webworld::InputTruth::Search))
            .map(|(n, _)| n.clone())
            .unwrap()
    }

    fn site_text_and_background(w: &deepweb_webworld::World, host: &str) -> (String, DfTable) {
        let home = w
            .server
            .fetch(&Url::new(host.to_string(), "/"))
            .unwrap()
            .html;
        let text = deepweb_html::visible_text(&home);
        let mut bg = DfTable::new();
        for t in &w.truth.sites {
            let h = w.server.fetch(&Url::new(t.host.clone(), "/")).unwrap().html;
            bg.add_document(&deepweb_html::visible_text(&h));
        }
        (text, bg)
    }

    #[test]
    fn probing_finds_productive_keywords() {
        let (w, form, i) = world_with_search_box();
        let input = search_input_name(&w, i);
        let (text, bg) = site_text_and_background(&w, &form.host);
        let prober = Prober::new(&w.server);
        let sel = iterative_probing(
            &prober,
            &form,
            &input,
            &[],
            &text,
            &bg,
            &KeywordConfig::default(),
        );
        assert!(!sel.keywords.is_empty(), "should find productive keywords");
        assert!(sel.covered_records > 0);
        assert!(sel.probes_used > 0);
    }

    #[test]
    fn iteration_beats_seed_only() {
        let (w, form, i) = world_with_search_box();
        let input = search_input_name(&w, i);
        let (text, bg) = site_text_and_background(&w, &form.host);
        let seed_only = KeywordConfig {
            iterations: 0,
            ..KeywordConfig::default()
        };
        let prober1 = Prober::new(&w.server);
        let a = iterative_probing(&prober1, &form, &input, &[], &text, &bg, &seed_only);
        let prober2 = Prober::new(&w.server);
        let b = iterative_probing(
            &prober2,
            &form,
            &input,
            &[],
            &text,
            &bg,
            &KeywordConfig::default(),
        );
        assert!(
            b.covered_records >= a.covered_records,
            "iterating should not lose coverage (seed={}, iter={})",
            a.covered_records,
            b.covered_records
        );
    }

    #[test]
    fn budget_respected() {
        let (w, form, i) = world_with_search_box();
        let input = search_input_name(&w, i);
        let (text, bg) = site_text_and_background(&w, &form.host);
        let cfg = KeywordConfig {
            probe_budget: 5,
            ..KeywordConfig::default()
        };
        let prober = Prober::new(&w.server);
        let sel = iterative_probing(&prober, &form, &input, &[], &text, &bg, &cfg);
        assert!(sel.probes_used <= 5);
    }

    #[test]
    fn frequency_baseline_is_deterministic() {
        let a = frequency_keywords("honda honda ford the of", 2);
        assert_eq!(a, vec!["honda", "ford"]);
    }

    #[test]
    fn greedy_prefers_coverage() {
        let mk = |ids: &[u32]| ids.iter().copied().collect::<BTreeSet<u32>>();
        let productive = vec![
            ("a".to_string(), mk(&[1, 2]), 10),
            ("b".to_string(), mk(&[1, 2, 3, 4]), 20),
            ("c".to_string(), mk(&[5]), 30),
        ];
        let (indices, covered) = greedy_diverse_indices(&productive, 2);
        let sel: Vec<&str> = indices.iter().map(|&i| productive[i].0.as_str()).collect();
        assert_eq!(sel, ["b", "c"]);
        assert_eq!(covered.len(), 5); // {1,2,3,4} ∪ {5}
    }
}
