//! E7 — database-selection correlation (paper §4.2): on media-search forms
//! (movies/music/software/games behind one select + one text box), the
//! productive keywords differ per select value; per-value keyword sets beat
//! one global keyword set at equal URL budget.

use super::{home_pages, Scale};
use crate::report::{pct, TextTable};
use deepweb_common::FxHashSet;
use deepweb_surfacer::correlate::detect_database_selection;
use deepweb_surfacer::{iterative_probing, search_form, KeywordConfig, Prober};
use deepweb_webworld::{generate, DomainKind, WebConfig};

/// Key numbers.
#[derive(Clone, Copy, Debug)]
pub struct DbSelectResult {
    /// Media forms probed.
    pub sites: usize,
    /// Fraction where db-selection was detected.
    pub detection_rate: f64,
    /// Mean coverage with per-value keyword sets.
    pub per_value_coverage: f64,
    /// Mean coverage with one global keyword set (same URL budget).
    pub global_coverage: f64,
}

/// Run E7.
pub fn run(scale: Scale) -> (Vec<TextTable>, DbSelectResult) {
    let w = generate(&WebConfig {
        num_sites: scale.pick(40, 120),
        post_fraction: 0.0,
        domain_weights: vec![
            (DomainKind::MediaSearch, 3.0),
            (DomainKind::Government, 1.0),
            (DomainKind::Library, 1.0),
        ],
        ..WebConfig::default()
    });
    let (background, home_text) = home_pages(&w);

    let max_sites = scale.pick(3, 10);
    let mut sites = 0usize;
    let mut detected = 0usize;
    let mut per_value_cov = 0.0;
    let mut global_cov = 0.0;
    let kw_cfg = KeywordConfig {
        seeds: 8,
        iterations: 2,
        candidates_per_round: 8,
        max_keywords: 5,
        probe_budget: 60,
    };
    for t in &w.truth.sites {
        if t.domain != DomainKind::MediaSearch || sites >= max_sites || t.records < 100 {
            continue;
        }
        let Some(form) = search_form(&w.server, &t.host) else {
            continue;
        };
        let select = form
            .fillable_inputs()
            .iter()
            .find(|i| !i.options().is_empty())
            .map(|i| i.name.clone());
        let text_input = form
            .fillable_inputs()
            .iter()
            .find(|i| i.is_text())
            .map(|i| i.name.clone());
        let (Some(select), Some(text_input)) = (select, text_input) else {
            continue;
        };
        sites += 1;
        let site_text = home_text.get(&t.host).cloned().unwrap_or_default();
        let prober = Prober::new(&w.server);
        let probe_words = background.characteristic_terms(&site_text, 16);
        if detect_database_selection(&prober, &form, &select, &text_input, &probe_words, 4) {
            detected += 1;
        }

        let categories: Vec<String> = form
            .input(&select)
            .map(|i| i.options().into_iter().map(str::to_string).collect())
            .unwrap_or_default();

        // Per-value keyword sets: budget = 5 keywords per category.
        let mut covered: FxHashSet<u32> = FxHashSet::default();
        let mut urls_used = 0usize;
        for cat in &categories {
            let base = vec![(select.clone(), cat.clone())];
            let sel = iterative_probing(
                &prober,
                &form,
                &text_input,
                &base,
                &site_text,
                &background,
                &kw_cfg,
            );
            for kw in sel.keywords {
                let out = prober.submit(
                    &form,
                    &[(select.clone(), cat.clone()), (text_input.clone(), kw)],
                );
                covered.extend(out.record_ids.iter().copied());
                urls_used += 1;
            }
        }
        per_value_cov += covered.len() as f64 / t.records.max(1) as f64;

        // Global keyword set: one probing run without the select, same total
        // URL budget spread over the same categories.
        let gsel = iterative_probing(
            &prober,
            &form,
            &text_input,
            &[],
            &site_text,
            &background,
            &KeywordConfig {
                max_keywords: urls_used.max(4) / categories.len().max(1),
                ..kw_cfg
            },
        );
        let mut gcovered: FxHashSet<u32> = FxHashSet::default();
        for cat in &categories {
            for kw in &gsel.keywords {
                let out = prober.submit(
                    &form,
                    &[
                        (select.clone(), cat.clone()),
                        (text_input.clone(), kw.clone()),
                    ],
                );
                gcovered.extend(out.record_ids.iter().copied());
            }
        }
        global_cov += gcovered.len() as f64 / t.records.max(1) as f64;
    }

    let result = DbSelectResult {
        sites,
        detection_rate: if sites > 0 {
            detected as f64 / sites as f64
        } else {
            0.0
        },
        per_value_coverage: if sites > 0 {
            per_value_cov / sites as f64
        } else {
            0.0
        },
        global_coverage: if sites > 0 {
            global_cov / sites as f64
        } else {
            0.0
        },
    };

    let mut t = TextTable::new(
        "E7: database-selection forms (paper: keywords for software differ from \
         movies; per-value keyword sets needed)",
        &["metric", "value"],
    );
    t.row(&["media-search forms probed".into(), result.sites.to_string()]);
    t.row(&["db-selection detected".into(), pct(result.detection_rate)]);
    t.row(&[
        "coverage, per-value keyword sets".into(),
        pct(result.per_value_coverage),
    ]);
    t.row(&[
        "coverage, one global keyword set".into(),
        pct(result.global_coverage),
    ]);
    (vec![t], result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_value_sets_beat_global() {
        let (_, r) = run(Scale::Smoke);
        assert!(r.sites > 0);
        assert!(r.detection_rate >= 0.5, "detection {}", r.detection_rate);
        assert!(
            r.per_value_coverage >= r.global_coverage,
            "per-value {} vs global {}",
            r.per_value_coverage,
            r.global_coverage
        );
    }
}
