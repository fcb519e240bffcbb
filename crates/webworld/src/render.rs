//! Result-page rendering for deep-web sites.
//!
//! Two layout styles (table / div-list) exercise the record extractor;
//! pagination links, per-record detail links and uniform "no results" pages
//! exercise the crawler and the informativeness test (identical empty pages
//! collapse to one signature).

use crate::site::{RenderStyle, Site, RESULTS_PATH};
use deepweb_common::urlcodec::encode_component;
use deepweb_common::{fxhash64, RecordId};
use deepweb_html::writer::{escape_text, PageBuilder};
use deepweb_store::Page;
use std::fmt::Write as _;

/// Deterministically break a hostile site's markup without losing content.
///
/// Real hostile pages are broken, not absent: unclosed paragraphs, stray
/// close tags, unbalanced inline formatting, truncated comments. Each mangle
/// preserves every character of visible text and every `<a>`/`<form>`
/// element — the recovery parser must still extract the same content — so
/// the mangles only stress the parser, never the ground truth. Which mangles
/// apply is a pure function of the host name.
pub(crate) fn mangle_markup(html: &str, host: &str) -> String {
    let bits = fxhash64(&host);
    let mut out = html.to_string();
    if bits & 1 != 0 {
        // Drop the first paragraph close: everything after becomes children
        // of the unclosed <p>.
        if let Some(i) = out.find("</p>") {
            out.replace_range(i..i + 4, "");
        }
    }
    if bits & 2 != 0 {
        // Stray close with no matching open, right after the heading.
        if let Some(i) = out.find("</h1>") {
            out.insert_str(i + 5, "</div></center>");
        }
    }
    if bits & 4 != 0 {
        // Unbalanced inline formatting left open at end of body.
        if let Some(i) = out.rfind("</body>") {
            out.insert_str(i, "<b><i>site by webmaster");
        }
    }
    // Always: a comment the author never closed, truncating the tail.
    out.push_str("<!-- analytics beacon ");
    out
}

/// Apply hostile mangling when the site is hostile; identity otherwise.
fn finish(site: &Site, html: String) -> String {
    if site.hostile {
        mangle_markup(&html, &site.host)
    } else {
        html
    }
}

/// Render the site's home page: characteristic text (the seed-keyword
/// source), links to the search page and optional browse page.
pub(crate) fn home_page(site: &Site) -> String {
    let mut pb = PageBuilder::new(&format!("{} — {} search", site.host, site.domain.name()));
    pb.h1(&format!("welcome to {}", site.host));
    // A paragraph of characteristic content: domain words plus a sample of
    // real record values, which is what iterative probing seeds from.
    let mut sample = String::new();
    for (_, row) in site.table.iter().take(5) {
        for v in row.iter() {
            sample.push_str(&v.render());
            sample.push(' ');
        }
    }
    pb.p(&format!(
        "search our {} database of {} listings: {}",
        site.domain.name(),
        site.table.len(),
        sample
    ));
    let mut links = vec![
        ("/search".to_string(), "advanced search".to_string()),
        ("/about".to_string(), "about us".to_string()),
    ];
    if site.browse_links > 0 {
        links.push(("/browse".to_string(), "browse listings".to_string()));
    }
    pb.link_list(&links);
    finish(site, pb.build())
}

/// Render the about page.
pub(crate) fn about_page(site: &Site) -> String {
    let mut pb = PageBuilder::new(&format!("about {}", site.host));
    pb.h1("about");
    pb.p(&format!(
        "{} is a {} site serving content in language {}.",
        site.host,
        site.domain.name(),
        site.language
    ));
    pb.link("/", "home");
    finish(site, pb.build())
}

/// Render the search page (the form page the crawler analyses).
pub(crate) fn search_page(site: &Site) -> String {
    let mut pb = PageBuilder::new(&format!("{} search", site.host));
    pb.h1(&format!("search {}", site.domain.name()));
    pb.raw(&site.render_form());
    pb.link("/", "home");
    finish(site, pb.build())
}

/// Render the browse page: links to the first `browse_links` detail pages
/// (these records are surface-reachable without the form, paper §2).
pub(crate) fn browse_page(site: &Site) -> String {
    let mut pb = PageBuilder::new(&format!("{} browse", site.host));
    pb.h1("browse listings");
    let links: Vec<(String, String)> = site
        .table
        .iter()
        .take(site.browse_links)
        .map(|(id, row)| {
            (
                format!("/item?id={}", id.0),
                format!("listing {}: {}", id.0, row[0].render()),
            )
        })
        .collect();
    pb.link_list(&links);
    pb.build()
}

/// Render one result page for an executed query.
///
/// `params` are the submission parameters (used to build pagination links and
/// the page heading); `page` is the store's paginated answer.
pub(crate) fn results_page(site: &Site, params: &[(String, String)], page: &Page) -> String {
    let constraint: String = params
        .iter()
        .filter(|(k, v)| k != "page" && !v.is_empty() && v != "any")
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ");
    let mut pb = PageBuilder::new(&format!("{} results {}", site.host, constraint));
    pb.h1(&format!("{} results", page.total));
    if !constraint.is_empty() {
        pb.p(&format!("query: {constraint}"));
    }
    if page.total == 0 {
        pb.p("No results found.");
        pb.link("/search", "back to search");
        return pb.build();
    }
    let schema = site.table.schema();
    match site.style {
        RenderStyle::Table => {
            let header: Vec<&str> = schema.names();
            let mut body = String::from("<table><tr>");
            for h in &header {
                let _ = write!(body, "<th>{}</th>", escape_text(h));
            }
            body.push_str("</tr>");
            for id in &page.ids {
                let row = site.table.row(*id);
                body.push_str("<tr>");
                let _ = write!(
                    body,
                    "<td><a href=\"/item?id={}\">{}</a></td>",
                    id.0,
                    escape_text(&row[0].render())
                );
                for v in &row[1..] {
                    let _ = write!(body, "<td>{}</td>", escape_text(&v.render()));
                }
                body.push_str("</tr>");
            }
            body.push_str("</table>");
            pb.raw(&body);
        }
        RenderStyle::List => {
            let mut body = String::new();
            for id in &page.ids {
                let row = site.table.row(*id);
                let _ = write!(
                    body,
                    "<div class=\"listing\"><a href=\"/item?id={}\"><b>{}</b></a>",
                    id.0,
                    escape_text(&row[0].render())
                );
                for (ci, v) in row.iter().enumerate().skip(1) {
                    let _ = write!(
                        body,
                        " <span class=\"{}\">{}</span>",
                        escape_text(&schema.column(ci).name),
                        escape_text(&v.render())
                    );
                }
                body.push_str("</div>");
            }
            pb.raw(&body);
        }
    }
    // Pagination links preserve the query parameters.
    let mut base = String::new();
    for (k, v) in params.iter().filter(|(k, _)| k != "page") {
        // Each pair writes a `=`, so `base` is empty only before the first.
        if !base.is_empty() {
            base.push('&');
        }
        encode_component(k, &mut base);
        base.push('=');
        encode_component(v, &mut base);
    }
    let mut nav: Vec<(String, String)> = Vec::new();
    if page.page > 0 {
        nav.push((
            format!("{RESULTS_PATH}?{base}&page={}", page.page - 1),
            "previous page".into(),
        ));
    }
    if (page.page + 1) * page.page_size < page.total {
        nav.push((
            format!("{RESULTS_PATH}?{base}&page={}", page.page + 1),
            "next page".into(),
        ));
    }
    if !nav.is_empty() {
        pb.link_list(&nav);
    }
    pb.build()
}

/// Render the "invalid input" page (same shape as an empty result).
pub(crate) fn invalid_page(site: &Site) -> String {
    let mut pb = PageBuilder::new(&format!("{} results", site.host));
    pb.h1("0 results");
    pb.p("No results found.");
    pb.link("/search", "back to search");
    pb.build()
}

/// Render a record's detail page.
pub(crate) fn detail_page(site: &Site, id: RecordId) -> String {
    let row = site.table.row(id);
    let schema = site.table.schema();
    let mut pb = PageBuilder::new(&format!("{} listing {}", site.host, id.0));
    pb.h1(&format!("listing {}", id.0));
    let rows: Vec<Vec<String>> = schema
        .columns()
        .iter()
        .zip(row.iter())
        .map(|(c, v)| vec![c.name.clone(), v.render()])
        .collect();
    pb.table(&["field", "value"], &rows);
    pb.link("/search", "back to search");
    pb.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::tests_support::mini_site;
    use deepweb_html::Document;
    use deepweb_store::Conjunction;

    #[test]
    fn results_page_links_records() {
        let site = mini_site(RenderStyle::Table);
        let page = site.table.select_page(&Conjunction::all(), 0, 10);
        let html = results_page(&site, &[], &page);
        let doc = Document::parse(&html);
        let hrefs: Vec<&str> = doc
            .find_all("a")
            .iter()
            .filter_map(|a| a.attr("href"))
            .collect();
        assert!(hrefs.iter().any(|h| h.starts_with("/item?id=")));
        assert!(html.contains("3 results"));
    }

    #[test]
    fn pagination_links_present() {
        let site = mini_site(RenderStyle::Table);
        let page = site.table.select_page(&Conjunction::all(), 0, 2);
        let params = vec![("make".to_string(), "honda".to_string())];
        let html = results_page(&site, &params, &page);
        assert!(html.contains("page=1"));
        assert!(!html.contains("previous page"));
        let page1 = site.table.select_page(&Conjunction::all(), 1, 2);
        let html1 = results_page(&site, &params, &page1);
        assert!(html1.contains("previous page"));
    }

    #[test]
    fn empty_results_uniform() {
        let site = mini_site(RenderStyle::Table);
        let page = Page {
            total: 0,
            ids: vec![],
            page: 0,
            page_size: 10,
        };
        let a = results_page(&site, &[("q".into(), "zzz".into())], &page);
        assert!(a.contains("No results found."));
    }

    #[test]
    fn list_style_renders_divs() {
        let site = mini_site(RenderStyle::List);
        let page = site.table.select_page(&Conjunction::all(), 0, 10);
        let html = results_page(&site, &[], &page);
        assert!(html.contains("class=\"listing\""));
        let doc = Document::parse(&html);
        assert!(doc.text().contains("honda"));
    }

    #[test]
    fn home_contains_characteristic_terms_and_search_link() {
        let site = mini_site(RenderStyle::Table);
        let html = home_page(&site);
        assert!(html.contains("/search"));
        assert!(html.contains("usedcars"));
        let doc = Document::parse(&html);
        assert!(doc.text().contains("honda"));
    }

    #[test]
    fn mangled_pages_keep_text_links_and_forms() {
        let mut site = mini_site(RenderStyle::Table);
        site.hostile = true;
        // Every mangle pattern must survive the recovery parser with content
        // intact; exercise all bit combinations via synthetic host names.
        for host in [
            "a.sim", "b.sim", "c.sim", "d.sim", "e.sim", "f7.sim", "g22.sim",
        ] {
            site.host = host.to_string();
            let clean = {
                let mut honest = site.clone();
                honest.hostile = false;
                search_page(&honest)
            };
            let hostile = search_page(&site);
            assert_ne!(clean, hostile, "{host}: mangling must change the markup");
            let doc = Document::parse(&hostile);
            // The form and its honest inputs survive.
            let forms = deepweb_html::extract_forms(&doc);
            assert_eq!(forms.len(), 1, "{host}");
            for name in ["make", "q", "lang"] {
                assert!(forms[0].input(name).is_some(), "{host}: lost {name}");
            }
            // Visible text of the clean page survives in the mangled one.
            let clean_text = Document::parse(&clean).text();
            let hostile_text = doc.text();
            for word in clean_text.split_whitespace().take(20) {
                assert!(
                    hostile_text.contains(word),
                    "{host}: mangled page lost {word:?}"
                );
            }
            // Home page keeps its links.
            let home = Document::parse(&home_page(&site));
            assert!(home
                .find_all("a")
                .iter()
                .any(|a| a.attr("href") == Some("/search")));
        }
    }

    #[test]
    fn detail_page_shows_all_fields() {
        let site = mini_site(RenderStyle::Table);
        let html = detail_page(&site, RecordId(1));
        let doc = Document::parse(&html);
        let text = doc.text();
        assert!(text.contains("ford"));
        assert!(text.contains("10001"));
    }
}
