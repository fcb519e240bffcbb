//! E13 — the paper's scenario walk-throughs and operational claims (§3.2):
//! fortuitous query answering (the SIGMOD Innovations Award example), POST
//! exclusion, and light per-site offline load.

use super::Scale;
use crate::report::TextTable;
use crate::system::{quick_config, DeepWebSystem};
use deepweb_vertical::{register_sources, VerticalEngine};
use deepweb_webworld::DomainKind;

/// Key numbers.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioResult {
    /// Rank (1-based) of the award biography in surfacing results (0 = miss).
    pub fortuitous_rank_surfacing: usize,
    /// Sources the vertical engine routed the award query to.
    pub fortuitous_sources_vertical: usize,
    /// POST forms in the web.
    pub post_forms: usize,
    /// POST forms that yielded surfaced pages (must be 0).
    pub post_surfaced: usize,
}

/// Run E13.
pub fn run(scale: Scale) -> (Vec<TextTable>, ScenarioResult) {
    let mut cfg = quick_config(scale.pick(20, 60));
    // Make sure a faculty site exists and POST sites are present.
    cfg.web.post_fraction = 0.15;
    cfg.web.domain_weights.push((DomainKind::Faculty, 3.0));
    let sys = DeepWebSystem::build(&cfg);

    // --- Fortuitous query (paper: "SIGMOD Innovations Award MIT professor").
    let query = "sigmod innovations award mit professor";
    let hits = sys.search(query, 10);
    let mut rank = 0usize;
    for (i, h) in hits.iter().enumerate() {
        let doc = sys.index.doc(h.doc);
        if doc.is_some_and(|doc| doc.text.contains("sigmod innovations award")) {
            rank = i + 1;
            break;
        }
    }
    let hosts: Vec<String> = sys
        .world
        .truth
        .sites
        .iter()
        .map(|t| t.host.clone())
        .collect();
    let registry = register_sources(&sys.world.server, &hosts);
    let engine = VerticalEngine::new(&sys.world.server, registry);
    let (_, vstats) = engine.answer(query, 10);

    // --- POST exclusion.
    let post_forms = sys.world.truth.sites.iter().filter(|t| t.post).count();
    let post_surfaced = sys
        .outcome
        .reports
        .iter()
        .filter(|r| {
            sys.world
                .truth
                .sites
                .iter()
                .any(|t| t.host == r.host && t.post)
                && r.pages_surfaced > 0
        })
        .count();

    // --- Offline load accounting.
    let per_site: Vec<u64> = sys
        .outcome
        .reports
        .iter()
        .filter(|r| r.form_analyzed)
        .map(|r| r.analysis_requests + r.surfacing_requests)
        .collect();
    let mean_requests = if per_site.is_empty() {
        0.0
    } else {
        per_site.iter().sum::<u64>() as f64 / per_site.len() as f64
    };
    let max_requests = per_site.iter().copied().max().unwrap_or(0);

    let mut t1 = TextTable::new(
        "E13a: fortuitous query answering (paper §3.2 example)",
        &[
            "approach",
            "outcome for 'sigmod innovations award mit professor'",
        ],
    );
    t1.row(&[
        "surfacing".into(),
        if rank > 0 {
            format!("award biography ranked #{rank}")
        } else {
            "missed".into()
        },
    ]);
    t1.row(&[
        "virtual integration".into(),
        format!(
            "routed to {} sources (department-select form cannot take these keywords)",
            vstats.sources_routed
        ),
    ]);

    let mut t2 = TextTable::new(
        "E13b: POST exclusion and offline load (paper: GET only; light, amortised load)",
        &["metric", "value"],
    );
    t2.row(&["POST forms in web".into(), post_forms.to_string()]);
    t2.row(&["POST forms surfaced".into(), post_surfaced.to_string()]);
    t2.row(&[
        "mean offline requests per GET site".into(),
        format!("{mean_requests:.1}"),
    ]);
    t2.row(&[
        "max offline requests on one site".into(),
        max_requests.to_string(),
    ]);

    let result = ScenarioResult {
        fortuitous_rank_surfacing: rank,
        fortuitous_sources_vertical: vstats.sources_routed,
        post_forms,
        post_surfaced,
    };
    (vec![t1, t2], result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fortuitous_query_found_by_surfacing_not_vertical() {
        let (_, r) = run(Scale::Smoke);
        assert!(
            r.fortuitous_rank_surfacing >= 1 && r.fortuitous_rank_surfacing <= 3,
            "award bio should rank top-3, got {}",
            r.fortuitous_rank_surfacing
        );
        assert_eq!(
            r.fortuitous_sources_vertical, 0,
            "vertical must not route this query"
        );
    }

    #[test]
    fn post_forms_never_surfaced() {
        let (_, r) = run(Scale::Smoke);
        assert!(r.post_forms > 0, "world should contain POST forms");
        assert_eq!(r.post_surfaced, 0);
    }
}
