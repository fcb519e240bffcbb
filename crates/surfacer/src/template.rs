//! Query templates and the informativeness test — the core of \[12\] that the
//! CIDR paper builds on.
//!
//! A *slot* is either a single input with candidate values or a correlated
//! group (range pair, JS-dependent pair, database-selection pair) that is
//! filled as a unit. A *template* is a set of slots deemed binding. The
//! **informativeness test** samples submissions from a template and checks
//! that enough of the resulting pages are distinct (signatures). Incremental
//! search extends only informative templates — this is why generated URLs
//! scale with database size, not with the cross product of inputs.

use crate::formmodel::CrawledForm;
use crate::probe::{Assignment, Prober};
use deepweb_common::FxHashSet;
use std::collections::BTreeSet;

/// A fillable unit of a form.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Slot {
    /// One input with independent candidate values.
    Single {
        /// Input name.
        input: String,
        /// Candidate values.
        values: Vec<String>,
    },
    /// A correlated group filled by aligned assignments.
    Group {
        /// Display label (e.g. `range:price`, `dbsel:category`).
        label: String,
        /// The aligned assignments.
        assignments: Vec<Assignment>,
    },
}

impl Slot {
    /// Display name.
    pub fn name(&self) -> &str {
        match self {
            Slot::Single { input, .. } => input,
            Slot::Group { label, .. } => label,
        }
    }

    /// Number of fillings this slot offers.
    pub fn cardinality(&self) -> usize {
        match self {
            Slot::Single { values, .. } => values.len(),
            Slot::Group { assignments, .. } => assignments.len(),
        }
    }

    /// The `i`-th filling as an assignment, counting round the fillings;
    /// empty for a slot with none.
    pub fn assignment(&self, i: usize) -> Assignment {
        match self {
            Slot::Single { input, values } => cycle(values, i)
                .map(|value| vec![(input.clone(), value.clone())])
                .unwrap_or_default(),
            Slot::Group { assignments, .. } => cycle(assignments, i).cloned().unwrap_or_default(),
        }
    }
}

/// The `i`-th of `xs` counting round them; `None` when `xs` is empty.
fn cycle<T>(xs: &[T], i: usize) -> Option<&T> {
    xs.get(i.checked_rem(xs.len())?)
}

/// Largest number of slots bound at once (the paper finds small templates
/// suffice).
const MAX_TEMPLATE_SIZE: usize = 2;

/// Minimum fraction of distinct signatures for "informative".
const DISTINCTNESS_THRESHOLD: f64 = 0.25;

/// Tuning for template search.
#[derive(Clone, Copy, Debug)]
pub struct TemplateConfig {
    /// Submissions sampled per informativeness test.
    pub test_sample: usize,
    /// Hard cap on probes spent in template search per form.
    pub probe_budget: usize,
}

impl Default for TemplateConfig {
    fn default() -> Self {
        TemplateConfig {
            test_sample: 8,
            probe_budget: 400,
        }
    }
}

/// A template: indexes into the slot list.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Template {
    /// Slot indexes, ascending.
    pub slots: Vec<usize>,
}

/// Evaluation of one template.
#[derive(Clone, Debug)]
pub struct TemplateEval {
    /// The template.
    pub template: Template,
    /// Did it pass the informativeness test?
    pub informative: bool,
    /// Distinct-signature fraction over sampled submissions.
    pub distinct_fraction: f64,
    /// Submissions sampled.
    pub sampled: usize,
    /// Result counts observed in the sample (for indexability analysis).
    pub result_counts: Vec<usize>,
    /// Records observed in the sample (coverage estimate input).
    pub sample_records: BTreeSet<u32>,
    /// Total fillings the template could generate (product of cardinalities).
    pub url_potential: usize,
}

/// Build the combined assignment of `template` for sample index `i`.
///
/// Different strides per slot de-correlate the sampled combinations without
/// enumerating the cross product.
pub(crate) fn template_assignment(template: &Template, slots: &[Slot], i: usize) -> Assignment {
    let mut assignment = Assignment::new();
    for (k, slot) in template
        .slots
        .iter()
        .filter_map(|&si| slots.get(si))
        .enumerate()
    {
        let idx = i.wrapping_mul(k * 7 + 1) % slot.cardinality().max(1);
        assignment.extend(slot.assignment(idx));
    }
    assignment
}

/// Evaluate one template by sampled probing.
///
/// `empty_sig` is the signature of the unconstrained (all-defaults)
/// submission: a template whose sampled pages never differ from it binds
/// inputs the backend ignores (the paper's uninformative-input case).
pub(crate) fn evaluate_template(
    prober: &Prober<'_>,
    form: &CrawledForm,
    slots: &[Slot],
    template: Template,
    empty_sig: Option<u64>,
    cfg: &TemplateConfig,
) -> TemplateEval {
    let potential: usize = template
        .slots
        .iter()
        .filter_map(|&si| slots.get(si))
        .map(|slot| slot.cardinality().max(1))
        .product();
    let n = cfg.test_sample.min(potential);
    let mut signatures: FxHashSet<u64> = FxHashSet::default();
    let mut ok_pages = 0usize;
    let mut with_results = 0usize;
    let mut result_counts = Vec::new();
    let mut sample_records: BTreeSet<u32> = BTreeSet::new();
    let mut seen_assignments: FxHashSet<String> = FxHashSet::default();
    for i in 0..n {
        let assignment = template_assignment(&template, slots, i);
        let key = format!("{assignment:?}");
        if !seen_assignments.insert(key) {
            continue; // stride sampling collided; skip duplicate submission
        }
        let out = prober.submit(form, &assignment);
        if !out.ok {
            continue;
        }
        ok_pages += 1;
        signatures.insert(out.signature);
        if out.has_results() {
            with_results += 1;
            result_counts.push(out.result_count.unwrap_or(out.record_ids.len()));
            sample_records.extend(out.record_ids.iter().copied());
        }
    }
    let distinct_fraction = if ok_pages == 0 {
        0.0
    } else {
        signatures.len() as f64 / ok_pages as f64
    };
    // Informative ⇔ some page has results, the pages are actually diverse
    // (≥2 signatures whenever ≥2 pages were sampled), the pages are not all
    // identical to the unconstrained submission, and the distinct fraction
    // clears the threshold.
    // Every signature is the empty one's: there is none, or only that one.
    let all_match_empty =
        empty_sig.is_some_and(|es| signatures.len() == usize::from(signatures.contains(&es)));
    let diverse = ok_pages < 2 || signatures.len() >= 2;
    let informative = ok_pages > 0
        && with_results > 0
        && diverse
        && !all_match_empty
        && distinct_fraction >= DISTINCTNESS_THRESHOLD;
    TemplateEval {
        template,
        informative,
        distinct_fraction,
        sampled: ok_pages,
        result_counts,
        sample_records,
        url_potential: potential,
    }
}

/// Incremental template search: evaluate singles, extend informative
/// templates one slot at a time, stop at `MAX_TEMPLATE_SIZE` slots or budget.
pub fn search_templates(
    prober: &Prober<'_>,
    form: &CrawledForm,
    slots: &[Slot],
    cfg: &TemplateConfig,
) -> Vec<TemplateEval> {
    let start = prober.requests();
    // Reference point: the unconstrained submission.
    let empty_probe = prober.submit(form, &[]);
    let empty_sig = empty_probe.ok.then_some(empty_probe.signature);
    let mut evals: Vec<TemplateEval> = Vec::new();
    let mut frontier: Vec<Template> = (0..slots.len())
        .map(|i| Template { slots: vec![i] })
        .collect();
    let mut seen: FxHashSet<Vec<usize>> = FxHashSet::default();
    let mut size = 1;
    while !frontier.is_empty() && size <= MAX_TEMPLATE_SIZE {
        let mut informative_here: Vec<Template> = Vec::new();
        for t in std::mem::take(&mut frontier) {
            if !seen.insert(t.slots.clone()) {
                continue;
            }
            if (prober.requests() - start) as usize >= cfg.probe_budget {
                break;
            }
            let eval = evaluate_template(prober, form, slots, t.clone(), empty_sig, cfg);
            if eval.informative {
                informative_here.push(t);
            }
            evals.push(eval);
        }
        size += 1;
        if size > MAX_TEMPLATE_SIZE {
            break;
        }
        // Extend informative templates by one higher-indexed slot (avoids
        // generating the same set twice).
        for t in &informative_here {
            let Some(&max_slot) = t.slots.last() else {
                continue; // templates always carry ≥ 1 slot
            };
            for next in max_slot + 1..slots.len() {
                let mut ext = t.slots.clone();
                ext.push(next);
                frontier.push(Template { slots: ext });
            }
        }
    }
    evals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{form_of, world};
    use deepweb_webworld::InputTruth;

    fn select_site(
        w: &deepweb_webworld::World,
    ) -> (CrawledForm, String, &deepweb_webworld::SiteTruth) {
        for t in &w.truth.sites {
            if t.post {
                continue;
            }
            if let Some((name, _)) = t
                .inputs
                .iter()
                .find(|(_, tr)| matches!(tr, InputTruth::Select))
            {
                let form = form_of(w, &t.host);
                if form.input(name).is_some_and(|i| !i.options().is_empty()) {
                    return (form, name.clone(), t);
                }
            }
        }
        panic!("no select site");
    }

    /// A slot with no fillings yields an empty assignment at any index
    /// instead of dividing by its zero cardinality.
    #[test]
    fn an_empty_slot_assigns_nothing() {
        let single = Slot::Single {
            input: "q".to_string(),
            values: Vec::new(),
        };
        let group = Slot::Group {
            label: "range:price".to_string(),
            assignments: Vec::new(),
        };
        for i in [0, 1, 7] {
            assert!(single.assignment(i).is_empty());
            assert!(group.assignment(i).is_empty());
        }
        let values = vec!["a".to_string(), "b".to_string()];
        let two = Slot::Single {
            input: "q".to_string(),
            values,
        };
        assert_eq!(two.assignment(3), [("q".to_string(), "b".to_string())]);
    }

    #[test]
    fn select_slot_is_informative() {
        let w = world(20);
        let (form, name, _) = select_site(&w);
        let options: Vec<String> = form
            .input(&name)
            .unwrap()
            .options()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let slots = vec![Slot::Single {
            input: name,
            values: options,
        }];
        let prober = Prober::new(&w.server);
        let evals = search_templates(&prober, &form, &slots, &TemplateConfig::default());
        assert_eq!(evals.len(), 1);
        assert!(
            evals[0].informative,
            "distinct select values give distinct pages"
        );
        assert!(evals[0].distinct_fraction > 0.2);
    }

    #[test]
    fn ignored_input_is_uninformative() {
        let w = world(60);
        // Find a store locator with a radius input (backend ignores it).
        for t in &w.truth.sites {
            if t.post {
                continue;
            }
            if let Some((name, _)) = t
                .inputs
                .iter()
                .find(|(_, tr)| matches!(tr, InputTruth::Ignored))
            {
                let form = form_of(&w, &t.host);
                let options: Vec<String> = form
                    .input(name)
                    .unwrap()
                    .options()
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
                let slots = vec![Slot::Single {
                    input: name.clone(),
                    values: options,
                }];
                let prober = Prober::new(&w.server);
                let evals = search_templates(&prober, &form, &slots, &TemplateConfig::default());
                // All radius values return the full table: one signature.
                assert!(!evals[0].informative, "ignored input must fail the test");
                return;
            }
        }
        panic!("no ignored-input site generated");
    }

    #[test]
    fn incremental_search_extends_only_informative() {
        let w = world(20);
        let (form, name, _) = select_site(&w);
        let options: Vec<String> = form
            .input(&name)
            .unwrap()
            .options()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let slots = vec![
            Slot::Single {
                input: name,
                values: options,
            },
            Slot::Single {
                input: "bogus_input".into(),
                values: vec!["x".into(), "y".into()],
            },
        ];
        let prober = Prober::new(&w.server);
        let evals = search_templates(&prober, &form, &slots, &TemplateConfig::default());
        // The bogus input is ignored by the server: every value returns the
        // full table → uninformative; the pair template is only reached via
        // the informative select.
        let single_bogus = evals.iter().find(|e| e.template.slots == vec![1]).unwrap();
        assert!(!single_bogus.informative);
        let pair = evals.iter().find(|e| e.template.slots == vec![0, 1]);
        if let Some(p) = pair {
            // Pair extends the informative select; its pages differ only by
            // the select value, which is fine — it may or may not pass.
            assert!(p.sampled > 0);
        }
    }

    #[test]
    fn budget_stops_search() {
        let w = world(20);
        let (form, name, _) = select_site(&w);
        let options: Vec<String> = form
            .input(&name)
            .unwrap()
            .options()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let slots: Vec<Slot> = (0..6)
            .map(|i| Slot::Single {
                input: format!(
                    "{name}{}",
                    if i == 0 { String::new() } else { i.to_string() }
                ),
                values: options.clone(),
            })
            .collect();
        let prober = Prober::new(&w.server);
        let cfg = TemplateConfig {
            probe_budget: 10,
            ..Default::default()
        };
        let _ = search_templates(&prober, &form, &slots, &cfg);
        assert!(prober.requests() <= 10 + cfg.test_sample as u64);
    }

    #[test]
    fn template_assignment_merges_slots() {
        let slots = vec![
            Slot::Single {
                input: "a".into(),
                values: vec!["1".into(), "2".into()],
            },
            Slot::Group {
                label: "range:p".into(),
                assignments: vec![vec![
                    ("min_p".to_string(), "0".to_string()),
                    ("max_p".to_string(), "9".to_string()),
                ]],
            },
        ];
        let t = Template { slots: vec![0, 1] };
        let a = template_assignment(&t, &slots, 0);
        assert_eq!(a.len(), 3);
        assert!(a.iter().any(|(k, _)| k == "min_p"));
    }
}
