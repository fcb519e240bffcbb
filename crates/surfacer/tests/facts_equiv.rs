//! The prober reads a response through `PageFacts`, one pass and no tree.
//! On every page class a webworld serves — directory, home, search, item,
//! results, every paginated page, empty results — and through the
//! broken-markup recovery of hostile sites, those facts must equal the same
//! facts read off `Document::parse`, and `analyze_response` must equal the
//! analysis written against the tree.

use deepweb_common::Url;
use deepweb_html::{Document, PageFacts};
use deepweb_surfacer::probe::{analyze_response, resolve_href};
use deepweb_webworld::{generate, Fetcher, WebConfig};

/// What the pages checked so far exercised, so the test is not vacuous.
#[derive(Default)]
struct Seen {
    pages: usize,
    titles: usize,
    counts: usize,
    records: usize,
    next_pages: usize,
}

/// Check `url`'s page both ways; returns its `next_page`.
fn check(fetcher: &dyn Fetcher, url: &Url, seen: &mut Seen) -> Option<Url> {
    let html = fetcher.fetch(url).expect("page class must be served").html;
    let doc = Document::parse(&html);

    // The facts, against the tree.
    let facts = PageFacts::read(&html);
    let title = doc.find("title").map(|t| t.text_content());
    assert_eq!(facts.title(), title.unwrap_or_default(), "title of {url}");
    let h1 = doc.find("h1").map(|h| h.text_content());
    assert_eq!(facts.h1(), h1.as_deref(), "h1 of {url}");
    let anchors: Vec<(String, String)> = doc
        .find_all("a")
        .into_iter()
        .filter_map(|a| Some((a.attr("href")?.to_string(), a.text_content())))
        .collect();
    let folded: Vec<(String, String)> = facts
        .anchors()
        .map(|(href, text)| (href.to_string(), text.to_string()))
        .collect();
    assert_eq!(folded, anchors, "anchors of {url}");
    assert_eq!(facts.text(), doc.text(), "text of {url}");

    // The analysis, against the one written on the tree.
    let result_count = h1.and_then(|t| {
        let mut it = t.split_whitespace();
        let n = it.next()?.parse::<usize>().ok()?;
        (it.next()? == "results").then_some(n)
    });
    let (mut record_ids, mut detail_urls, mut next_page) = (Vec::new(), Vec::new(), None);
    for (href, label) in &anchors {
        if let Some(id) = href.strip_prefix("/item?id=") {
            if let Ok(id) = id.parse::<u32>() {
                record_ids.push(id);
                detail_urls.extend(resolve_href(url, href));
            }
        } else if label == "next page" {
            next_page = resolve_href(url, href);
        }
    }
    record_ids.sort_unstable();
    record_ids.dedup();
    let out = analyze_response(url.clone(), html.clone(), &[]);
    assert_eq!(out.title, facts.title(), "outcome title of {url}");
    assert_eq!(out.text, doc.text(), "outcome text of {url}");
    assert_eq!(out.result_count, result_count, "result count of {url}");
    assert_eq!(out.record_ids, record_ids, "record ids of {url}");
    assert_eq!(out.detail_urls, detail_urls, "detail urls of {url}");
    assert_eq!(out.next_page, next_page, "next page of {url}");

    seen.pages += 1;
    seen.titles += usize::from(!out.title.is_empty());
    seen.counts += usize::from(out.result_count.is_some());
    seen.records += out.record_ids.len();
    seen.next_pages += usize::from(out.next_page.is_some());
    out.next_page
}

#[test]
fn facts_equal_tree_facts_on_every_page_class() {
    for hostile_fraction in [0.0, 1.0] {
        let w = generate(&WebConfig {
            num_sites: 6,
            post_fraction: 0.0,
            hostile_fraction,
            ..WebConfig::default()
        });
        let mut seen = Seen::default();
        check(&w.server, &Url::new("dir.sim", "/"), &mut seen);
        for site in &w.truth.sites {
            assert_eq!(site.hostile, hostile_fraction > 0.0);
            let at = |path: &str| Url::new(site.host.clone(), path);
            check(&w.server, &at("/"), &mut seen);
            check(&w.server, &at("/search"), &mut seen);
            check(&w.server, &at("/item").with_param("id", "0"), &mut seen);
            // Results, then every paginated page behind them.
            let mut next = check(&w.server, &at("/results"), &mut seen);
            while let Some(page) = next {
                next = check(&w.server, &page, &mut seen);
            }
            // Empty results: a nonsense value in each input.
            for (name, _) in &site.inputs {
                let url = at("/results").with_param(name.clone(), "zzzzqq");
                check(&w.server, &url, &mut seen);
            }
        }
        let sites = w.truth.sites.len();
        assert!(seen.pages > 6 * sites, "pages {}", seen.pages);
        assert!(seen.titles > 4 * sites, "titles {}", seen.titles);
        assert!(seen.counts >= sites, "result counts {}", seen.counts);
        assert!(seen.records > 10 * sites, "record ids {}", seen.records);
        assert!(seen.next_pages >= sites, "next pages {}", seen.next_pages);
    }
}
