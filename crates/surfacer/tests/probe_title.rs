//! `ProbeOutcome::title` is read off the one parse `analyze_response` does,
//! so it must equal what a separate parse of the same bytes finds — on
//! honest markup and through the broken-markup recovery of hostile sites.

use deepweb_common::Url;
use deepweb_html::Document;
use deepweb_surfacer::probe::analyze_response;
use deepweb_webworld::{generate, Fetcher, WebConfig};

fn reference_title(html: &str) -> String {
    Document::parse(html)
        .find("title")
        .map(|t| t.text_content())
        .unwrap_or_default()
}

/// Title of `url` via `analyze_response`, checked against the reference;
/// returns the outcome's `next_page` so callers can walk pagination.
fn check(fetcher: &dyn Fetcher, url: &Url, titled: &mut usize) -> Option<Url> {
    let html = fetcher.fetch(url).expect("page class must be served").html;
    let out = analyze_response(url.clone(), html.clone(), &[]);
    assert_eq!(out.title, reference_title(&html), "title of {url}");
    *titled += usize::from(!out.title.is_empty());
    out.next_page
}

#[test]
fn outcome_title_matches_a_separate_parse_on_every_page_class() {
    for hostile_fraction in [0.0, 1.0] {
        let w = generate(&WebConfig {
            num_sites: 4,
            post_fraction: 0.0,
            hostile_fraction,
            ..WebConfig::default()
        });
        let mut titled = 0;
        check(&w.server, &Url::new("dir.sim", "/"), &mut titled);
        for site in &w.truth.sites {
            assert_eq!(site.hostile, hostile_fraction > 0.0);
            let at = |path: &str| Url::new(site.host.clone(), path);
            // Home, search, detail.
            check(&w.server, &at("/"), &mut titled);
            check(&w.server, &at("/search"), &mut titled);
            check(&w.server, &at("/item").with_param("id", "0"), &mut titled);
            // Results, then every paginated page behind them.
            let mut next = check(&w.server, &at("/results"), &mut titled);
            while let Some(page) = next {
                next = check(&w.server, &page, &mut titled);
            }
            // Invalid / empty results: a nonsense value in each input.
            for (name, _) in &site.inputs {
                let url = at("/results").with_param(name.clone(), "zzzzqq");
                check(&w.server, &url, &mut titled);
            }
        }
        assert!(
            titled > 4 * w.truth.sites.len(),
            "titles must be non-vacuous"
        );
    }
    // A title-less surface page reads as the empty title.
    let bare = "<a href=\"http://usedcars-000.sim/\">cars</a>".to_string();
    let out = analyze_response(Url::new("dir.sim", "/"), bare, &[]);
    assert_eq!(out.title, "");
}
