//! URL generation: expand the selected templates into concrete form
//! submission URLs, deduplicated and budget-capped.

use crate::formmodel::CrawledForm;
use crate::probe::Assignment;
use crate::template::{Slot, TemplateEval};
use deepweb_common::{FxHashSet, Url};

/// One generated surfacing URL.
#[derive(Clone, Debug)]
pub struct GeneratedUrl {
    /// The URL to fetch and index.
    pub url: Url,
    /// The assignment that produced it (becomes the page's annotations).
    pub assignment: Assignment,
    /// Index of the template (into the eval list) that generated it.
    pub template: usize,
}

/// Expand `chosen` templates into URLs, visiting templates round-robin so a
/// tight budget still samples every chosen template.
pub fn generate_urls(
    form: &CrawledForm,
    slots: &[Slot],
    evals: &[TemplateEval],
    chosen: &[usize],
    max_urls: usize,
) -> Vec<GeneratedUrl> {
    let mut seen: FxHashSet<String> = FxHashSet::default();
    let mut per_template = Vec::new();
    for &ti in chosen {
        let Some(eval) = evals.get(ti) else { continue };
        let mut urls = Vec::new();
        let template: Vec<&Slot> = (eval.template.slots.iter())
            .filter_map(|&si| slots.get(si))
            .collect();
        let card = |slot: &Slot| slot.cardinality().max(1);
        // Saturating: `max_urls: usize::MAX` means "no cap", and a wide
        // template's cross product can itself exceed `usize`.
        let total = (template.iter()).fold(1usize, |t, slot| t.saturating_mul(card(slot)));
        for flat in 0..total.min(max_urls.saturating_mul(2)) {
            // Odometer decode of `flat` into one index per slot.
            let mut rem = flat;
            let mut assignment = Assignment::new();
            for slot in &template {
                assignment.extend(slot.assignment(rem % card(slot)));
                rem /= card(slot);
            }
            urls.push(GeneratedUrl {
                url: form.submission_url(&assignment),
                assignment,
                template: ti,
            });
        }
        per_template.push(urls.into_iter());
    }
    // Round-robin merge under the global budget: each template in turn
    // gives its next URL not seen yet.
    let mut out = Vec::new();
    loop {
        let mut progressed = false;
        for urls in &mut per_template {
            if out.len() >= max_urls {
                return out;
            }
            if let Some(g) = urls.find(|g| seen.insert(g.url.to_string())) {
                out.push(g);
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::Template;
    use deepweb_common::FxHashSet;

    fn fixture() -> (CrawledForm, Vec<Slot>, Vec<TemplateEval>) {
        let form = CrawledForm {
            host: "x.sim".into(),
            action_url: Url::new("x.sim", "/results"),
            post: false,
            inputs: vec![
                crate::formmodel::CrawledInput {
                    name: "a".into(),
                    label: String::new(),
                    kind: deepweb_html::WidgetKind::TextBox,
                    threat: None,
                },
                crate::formmodel::CrawledInput {
                    name: "b".into(),
                    label: String::new(),
                    kind: deepweb_html::WidgetKind::TextBox,
                    threat: None,
                },
            ],
            dependents: None,
            threats: Vec::new(),
        };
        let slots = vec![
            Slot::Single {
                input: "a".into(),
                values: vec!["1".into(), "2".into()],
            },
            Slot::Single {
                input: "b".into(),
                values: vec!["x".into(), "y".into(), "z".into()],
            },
        ];
        let evals = vec![
            TemplateEval {
                template: Template { slots: vec![0] },
                informative: true,
                distinct_fraction: 1.0,
                sampled: 2,
                result_counts: vec![1, 1],
                sample_records: Default::default(),
                url_potential: 2,
            },
            TemplateEval {
                template: Template { slots: vec![0, 1] },
                informative: true,
                distinct_fraction: 1.0,
                sampled: 4,
                result_counts: vec![1; 4],
                sample_records: Default::default(),
                url_potential: 6,
            },
        ];
        (form, slots, evals)
    }

    #[test]
    fn expands_cross_product_with_dedup() {
        let (form, slots, evals) = fixture();
        let urls = generate_urls(&form, &slots, &evals, &[0, 1], 100);
        // 2 singles + 6 pairs, all distinct.
        assert_eq!(urls.len(), 8);
        let unique: FxHashSet<String> = urls.iter().map(|g| g.url.to_string()).collect();
        assert_eq!(unique.len(), 8);
    }

    #[test]
    fn budget_caps_output_round_robin() {
        let (form, slots, evals) = fixture();
        let urls = generate_urls(&form, &slots, &evals, &[0, 1], 3);
        assert_eq!(urls.len(), 3);
        // Round-robin means both templates contribute.
        let templates: FxHashSet<usize> = urls.iter().map(|g| g.template).collect();
        assert_eq!(templates.len(), 2);
    }

    #[test]
    fn empty_choice_empty_output() {
        let (form, slots, evals) = fixture();
        assert!(generate_urls(&form, &slots, &evals, &[], 10).is_empty());
    }

    #[test]
    fn no_cap_and_oversized_cross_products_do_not_overflow() {
        let (form, slots, evals) = fixture();
        // "No cap": every distinct URL of both templates, as at max_urls = 100.
        assert_eq!(
            generate_urls(&form, &slots, &evals, &[0, 1], usize::MAX).len(),
            8
        );
        // A cross product past `usize` saturates; the budget still bounds
        // the expansion.
        let wide = Slot::Single {
            input: "a".into(),
            values: (0..1usize << 16).map(|i| i.to_string()).collect(),
        };
        let mut eval = evals[0].clone();
        eval.template.slots = vec![0; 4];
        assert_eq!(generate_urls(&form, &[wide], &[eval], &[0], 5).len(), 5);
    }
}
