//! E2 — URL generation scales with database size, not with the number of
//! possible queries (paper §3.2: "the number of URLs our algorithms generate
//! is proportional to the size of the underlying database, rather than the
//! number of possible queries").

use super::Scale;
use crate::report::{f3, TextTable};
use deepweb_surfacer::{
    generate_urls, search_form, search_templates, select_templates, IndexabilityConfig, Prober,
    Slot, TemplateConfig, TypedValueLibrary,
};
use deepweb_webworld::{generate, WebConfig};

/// One sweep point.
#[derive(Clone, Copy, Debug)]
pub struct UrlGenPoint {
    /// Backing records.
    pub records: usize,
    /// URLs generated by the template algorithm.
    pub generated: usize,
    /// Size of the naive query cross-product for the same form.
    pub naive_possible: f64,
    /// Generated URLs per record.
    pub urls_per_record: f64,
}

/// Run E2: sweep database sizes on same-shape used-car sites.
pub fn run(scale: Scale) -> (Vec<TextTable>, Vec<UrlGenPoint>) {
    let sizes: Vec<usize> = match scale {
        Scale::Smoke => vec![50, 200],
        Scale::Paper => vec![100, 400, 1600, 6400],
    };
    let lib = TypedValueLibrary::standard();
    let mut points = Vec::new();
    for (i, &size) in sizes.iter().enumerate() {
        // One-site world whose single site has exactly `size` records.
        let w = generate(&WebConfig {
            seed: 1000 + i as u64,
            num_sites: 1,
            min_records: size,
            max_records: size,
            post_fraction: 0.0,
            browse_fraction: 0.0,
            english_fraction: 1.0,
            domain_weights: vec![(deepweb_webworld::DomainKind::UsedCars, 1.0)],
            ..WebConfig::default()
        });
        let site = w.truth.sites.first();
        let Some(form) = site.and_then(|t| search_form(&w.server, &t.host)) else {
            continue;
        };
        let prober = Prober::new(&w.server);
        // Slots straight from the form: selects as-is, typed boxes from the
        // library, range pairs aligned (ranges detected in E3; here we use
        // the simple per-input slots to isolate the template effect).
        let mut slots = Vec::new();
        let mut naive_possible = 1.0f64;
        for input in form.fillable_inputs() {
            let opts = input.options();
            if !opts.is_empty() {
                naive_possible *= (opts.len() + 1) as f64;
                slots.push(Slot::Single {
                    input: input.name.clone(),
                    values: opts.into_iter().map(str::to_string).collect(),
                });
            } else if input.is_text() {
                // A text box could take any value in its domain — count the
                // library's domain for "possible queries".
                naive_possible *= 300.0;
                let hints = deepweb_surfacer::typed::pattern_hints(input);
                if let Some(class) = hints.first() {
                    slots.push(Slot::Single {
                        input: input.name.clone(),
                        values: lib.sample(*class, 12),
                    });
                }
            }
        }
        let cfg = TemplateConfig {
            test_sample: 6,
            probe_budget: 250,
        };
        let evals = search_templates(&prober, &form, &slots, &cfg);
        let idx_cfg = IndexabilityConfig {
            max_urls: size * 4, // generous: the algorithm, not the cap, decides
            ..Default::default()
        };
        let chosen = select_templates(&evals, &idx_cfg);
        let urls = generate_urls(&form, &slots, &evals, &chosen, idx_cfg.max_urls);
        points.push(UrlGenPoint {
            records: size,
            generated: urls.len(),
            naive_possible,
            urls_per_record: urls.len() as f64 / size as f64,
        });
    }

    let mut t = TextTable::new(
        "E2: generated URLs vs database size (paper: URLs ∝ DB size, not #possible queries)",
        &[
            "records",
            "generated URLs",
            "naive possible queries",
            "URLs per record",
        ],
    );
    for p in &points {
        t.row(&[
            p.records.to_string(),
            p.generated.to_string(),
            format!("{:.0}", p.naive_possible),
            f3(p.urls_per_record),
        ]);
    }
    (vec![t], points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn urls_track_db_size_not_query_space() {
        let (_, points) = run(Scale::Smoke);
        assert_eq!(points.len(), 2);
        let small = &points[0];
        let large = &points[1];
        // URLs generated stay far below the naive query space…
        assert!((small.generated as f64) < small.naive_possible / 10.0);
        assert!((large.generated as f64) < large.naive_possible / 10.0);
        // …and stay proportional to content: bounded URLs per record at
        // every size (the paper's "∝ DB size, not #possible queries").
        assert!(
            small.urls_per_record < 5.0,
            "small ratio {}",
            small.urls_per_record
        );
        assert!(
            large.urls_per_record < 5.0,
            "large ratio {}",
            large.urls_per_record
        );
    }
}
