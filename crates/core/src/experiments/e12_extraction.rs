//! E12 — record extraction from surfaced pages (paper §5.1): the form-aware
//! extractor (which knows the filled inputs) against the generic scraper,
//! scored on field F1 against the simulator's ground-truth rows.

use super::Scale;
use crate::report::{f3, TextTable};
use crate::system::{quick_config, DeepWebSystem};
use deepweb_common::FxHashMap;
use deepweb_extract::{extract_form_aware, extract_generic, field_prf};
use deepweb_surfacer::probe::analyze_response;
use deepweb_surfacer::DocOrigin;
use deepweb_webworld::{DomainKind, Fetcher};
use std::collections::BTreeMap;

/// Key numbers.
#[derive(Clone, Copy, Debug)]
pub struct ExtractionResult {
    /// Form-aware field F1.
    pub form_aware_f1: f64,
    /// Generic extractor field F1.
    pub generic_f1: f64,
    /// Records extracted (form-aware).
    pub records: usize,
}

/// Build per-site ground truth keyed by *unambiguous* cell values: every
/// rendered value that identifies exactly one record maps to that record's
/// field map (ambiguous values like a shared make are dropped, so an
/// extracted row is matched through its unique cells — typically the
/// description).
fn site_truth(site: &deepweb_webworld::Site) -> FxHashMap<String, BTreeMap<String, String>> {
    let schema = site.table.schema();
    let mut first_owner: BTreeMap<String, Option<usize>> = BTreeMap::new();
    for (rid, row) in site.table.iter() {
        for v in row.iter() {
            let key = v.render().to_ascii_lowercase();
            match first_owner.get_mut(&key) {
                Some(existing) => {
                    if *existing != Some(rid.as_usize()) {
                        *existing = None; // ambiguous
                    }
                }
                None => {
                    first_owner.insert(key, Some(rid.as_usize()));
                }
            }
        }
    }
    let mut truth = FxHashMap::default();
    for (key, owner) in first_owner {
        let Some(rid) = owner else { continue };
        let row = site.table.row(deepweb_common::RecordId(rid as u32));
        let mut fields = BTreeMap::new();
        for (c, v) in row.iter().enumerate() {
            fields.insert(schema.column(c).name.clone(), v.render());
        }
        truth.insert(key, fields);
    }
    truth
}

/// Run E12.
pub fn run(scale: Scale) -> (Vec<TextTable>, ExtractionResult) {
    let mut cfg = quick_config(scale.pick(8, 25));
    cfg.web.post_fraction = 0.0;
    cfg.web.domain_weights = vec![
        (DomainKind::UsedCars, 1.0),
        (DomainKind::Library, 1.0),
        (DomainKind::Government, 1.0),
    ];
    let sys = DeepWebSystem::build(&cfg);

    // Page-level scoring: the denominator for recall is the number of
    // ground-truth fields actually rendered on the surfaced pages, so an
    // extractor that fails to structure a page pays in recall.
    let mut aware = (0usize, 0usize); // (tp, fp)
    let mut generic = (0usize, 0usize);
    let mut total_fields = 0usize;
    let mut records = 0usize;
    for site in sys.world.server.sites() {
        let ncols = site.table.schema().len();
        // A surfaced doc carries what the engine indexes, not the page: the
        // extractors' input is re-fetched from the live site by its URL.
        let mut pages: Vec<(String, Vec<(String, String)>)> = Vec::new();
        let mut rendered_fields = 0usize;
        for d in sys.outcome.docs_of(DocOrigin::Surfaced) {
            if d.host != site.host {
                continue;
            }
            let Ok(resp) = sys.world.server.fetch(&d.url) else {
                continue;
            };
            let ids = analyze_response(d.url.clone(), resp.html.clone(), &[]).record_ids;
            rendered_fields += ids.len() * ncols;
            if !ids.is_empty() {
                pages.push((resp.html, d.annotations.clone()));
            }
        }
        if pages.is_empty() {
            continue;
        }
        total_fields += rendered_fields;
        let truth = site_truth(site);
        let recs_aware = extract_form_aware(&pages);
        records += recs_aware.len();
        let pr = field_prf(&recs_aware, &truth);
        aware = (aware.0 + pr.tp, aware.1 + pr.fp);
        let mut recs_generic = Vec::new();
        for (html, _) in &pages {
            recs_generic.extend(extract_generic(html));
        }
        let pr = field_prf(&recs_generic, &truth);
        generic = (generic.0 + pr.tp, generic.1 + pr.fp);
    }
    let prf = |(tp, fp): (usize, usize)| -> (f64, f64, f64) {
        let p = if tp + fp == 0 {
            1.0
        } else {
            tp as f64 / (tp + fp) as f64
        };
        let r = if total_fields == 0 {
            1.0
        } else {
            (tp as f64 / total_fields as f64).min(1.0)
        };
        let f1 = if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        };
        (p, r, f1)
    };
    let (ap, ar, af1) = prf(aware);
    let (gp, gr, gf1) = prf(generic);

    let mut t = TextTable::new(
        "E12: record extraction from surfaced pages (paper: exploit the known \
         filled inputs)",
        &["extractor", "field precision", "field recall", "field F1"],
    );
    t.row(&["form-aware".into(), f3(ap), f3(ar), f3(af1)]);
    t.row(&["generic scraper".into(), f3(gp), f3(gr), f3(gf1)]);

    let result = ExtractionResult {
        form_aware_f1: af1,
        generic_f1: gf1,
        records,
    };
    (vec![t], result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn form_aware_beats_generic() {
        let (_, r) = run(Scale::Smoke);
        assert!(r.records > 0, "no records extracted");
        assert!(
            r.form_aware_f1 >= r.generic_f1,
            "aware {} vs generic {}",
            r.form_aware_f1,
            r.generic_f1
        );
        assert!(r.form_aware_f1 > 0.5, "aware f1 {}", r.form_aware_f1);
    }
}
