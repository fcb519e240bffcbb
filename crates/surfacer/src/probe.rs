//! The prober: submits form assignments, fetches pages, and reduces each
//! response to the features the surfacing algorithms consume — most
//! importantly the *content signature* used by the informativeness test.
//!
//! Signature discipline (following \[12\]): the submitted values are stripped
//! from the visible text before hashing, so two submissions that produce the
//! same result set (e.g. both empty) collapse to one signature even though
//! the pages echo different queries.
//!
//! A [`ProbeOutcome`] carries what those algorithms read — not the page
//! (the HTML stays only in the prober's memo) and not the fetch's status or
//! retry count (each fetch's [`ProbeStats`] is added to the [`Prober`]'s).
//! [`resolve_href`] is the one href resolver, for anchors here and form
//! actions in [`analyze_page`](crate::analyze_page); it reads a query string with
//! [`Url::with_query`], the parser [`Url::parse`] uses.
//!
//! A [`Prober`] never sends one URL to the site twice: it keeps each
//! successful response body, keyed by URL, for its own lifetime (one form's
//! work), and answers a repeat from that memo. The analysis is re-run on
//! every call, because the signature strips the values of *that*
//! submission. A failed fetch is not kept, so the next call goes to the
//! site again under the retry discipline.

use crate::fetchpolicy::fetch_with_retries;
use crate::formmodel::CrawledForm;
use deepweb_common::text::tokenize;
use deepweb_common::{fxhash64, FxHashMap, FxHashSet, Result, Url};
use deepweb_html::{Document, PageFacts};
use deepweb_webworld::{Fetcher, Response};
use std::cell::{Cell, RefCell};

/// One value assignment for a form submission: `(input name, value)`.
pub(crate) type Assignment = Vec<(String, String)>;

/// Everything the algorithms need to know about one fetched page.
#[derive(Clone, Debug)]
pub struct ProbeOutcome {
    /// The fetched URL.
    pub url: Url,
    /// False when the server answered with an error status.
    pub ok: bool,
    /// Content signature (submitted values stripped).
    pub signature: u64,
    /// Declared result count, when the page announces one ("N results").
    pub result_count: Option<usize>,
    /// Record ids linked from the page (`/item?id=N` hrefs).
    pub record_ids: Vec<u32>,
    /// `<title>` text (empty when the page has none).
    pub title: String,
    /// Visible page text (source of candidate probe keywords).
    pub text: String,
    /// "next page" link, if present.
    pub next_page: Option<Url>,
    /// Detail links on the page.
    pub detail_urls: Vec<Url>,
}

impl ProbeOutcome {
    /// True if the probe produced at least one visible result.
    pub(crate) fn has_results(&self) -> bool {
        self.result_count.unwrap_or(0) > 0 || !self.record_ids.is_empty()
    }
}

/// Retry/failure tally of one fetch ([`fetch_with_retries`]) or of every
/// fetch across a prober's lifetime ([`Prober::stats`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ProbeStats {
    /// Retries spent (not counting each fetch's first attempt).
    pub retries: u64,
    /// Transient failures observed (each retried or the last).
    pub transient_failures: u64,
    /// Permanent failures observed (at most one per fetch).
    pub permanent_failures: u64,
}

/// Wraps a fetcher with request accounting, a per-URL response memo and
/// response analysis.
pub struct Prober<'a> {
    fetcher: &'a dyn Fetcher,
    requests: Cell<u64>,
    stats: Cell<ProbeStats>,
    /// Body of every successful [`submit`](Self::submit) or
    /// [`fetch`](Self::fetch), by URL.
    memo: RefCell<FxHashMap<Url, String>>,
}

impl<'a> Prober<'a> {
    /// Create a prober over `fetcher`. Every fetch retries transient
    /// failures up to [`MAX_RETRIES`](crate::fetchpolicy::MAX_RETRIES)
    /// times; an honest server never triggers a retry.
    pub fn new(fetcher: &'a dyn Fetcher) -> Self {
        Prober {
            fetcher,
            requests: Cell::new(0),
            stats: Cell::new(ProbeStats::default()),
            memo: RefCell::default(),
        }
    }

    /// Requests issued so far (the per-site load the paper argues is light).
    /// Retries count as additional requests; a call answered from the memo
    /// counts nothing.
    pub fn requests(&self) -> u64 {
        self.requests.get()
    }

    /// Accumulated retry/failure accounting.
    pub fn stats(&self) -> ProbeStats {
        self.stats.get()
    }

    /// Submit a form assignment and analyse the response.
    pub fn submit(&self, form: &CrawledForm, assignment: &[(String, String)]) -> ProbeOutcome {
        let url = form.submission_url(assignment);
        let stripped: Vec<&str> = assignment.iter().map(|(_, v)| v.as_str()).collect();
        self.fetch_analyzed(&url, &stripped)
    }

    /// Fetch an arbitrary URL (pagination, detail pages) and analyse it.
    pub fn fetch(&self, url: &Url) -> ProbeOutcome {
        self.fetch_analyzed(url, &[])
    }

    /// Fetch `url` with retries and return the raw response. The one place a
    /// fetch's tally is added to the prober's own and to its request count.
    /// It bypasses the memo: the crawl, its one caller outside this module,
    /// never fetches a URL twice.
    pub(crate) fn fetch_response(&self, url: &Url) -> Result<Response> {
        let (result, tally) = fetch_with_retries(self.fetcher, url);
        self.requests.set(self.requests.get() + 1 + tally.retries);
        let mut s = self.stats.get();
        s.retries += tally.retries;
        s.transient_failures += tally.transient_failures;
        s.permanent_failures += tally.permanent_failures;
        self.stats.set(s);
        result
    }

    fn fetch_analyzed(&self, url: &Url, stripped_values: &[&str]) -> ProbeOutcome {
        if let Some(html) = self.memo.borrow().get(url) {
            return analyze(url.clone(), html, stripped_values);
        }
        match self.fetch_response(url) {
            Ok(resp) => {
                let out = analyze(url.clone(), &resp.html, stripped_values);
                self.memo.borrow_mut().insert(url.clone(), resp.html);
                out
            }
            Err(_) => ProbeOutcome {
                url: url.clone(),
                ok: false,
                signature: 0,
                result_count: None,
                record_ids: Vec::new(),
                title: String::new(),
                text: String::new(),
                next_page: None,
                detail_urls: Vec::new(),
            },
        }
    }
}

/// Analyse a fetched page into a [`ProbeOutcome`].
pub fn analyze_response(url: Url, html: String, stripped_values: &[&str]) -> ProbeOutcome {
    analyze(url, &html, stripped_values)
}

fn analyze(url: Url, html: &str, stripped_values: &[&str]) -> ProbeOutcome {
    // One pass, no tree: a response is read for its title, first heading,
    // anchors and visible text only.
    let facts = PageFacts::read(html);
    let title = facts.title().to_string();

    // "N results" header (crawler-side heuristic).
    let result_count = facts.h1().and_then(|t| {
        let mut it = t.split_whitespace();
        let n = it.next()?.parse::<usize>().ok()?;
        (it.next()? == "results").then_some(n)
    });

    let mut record_ids = Vec::new();
    let mut next_page = None;
    let mut detail_urls = Vec::new();
    for (href, label) in facts.anchors() {
        if let Some(idstr) = href.strip_prefix("/item?id=") {
            if let Ok(id) = idstr.parse::<u32>() {
                record_ids.push(id);
                if let Some(resolved) = resolve_href(&url, href) {
                    detail_urls.push(resolved);
                }
            }
        } else if label == "next page" {
            next_page = resolve_href(&url, href);
        }
    }
    record_ids.sort_unstable();
    record_ids.dedup();
    let text = facts.into_text();

    // Content signature. A result page's identity is its result set: when
    // the page links records, hash the (ids, total) pair — two submissions
    // returning the same results collapse regardless of how the page echoes
    // the query. Pages without result links (empty/error/surface pages) fall
    // back to a text hash with the submitted values stripped, so "no results
    // for X" and "no results for Y" also collapse.
    let signature = if record_ids.is_empty() {
        let mut strip: FxHashSet<String> = FxHashSet::default();
        for v in stripped_values {
            for t in tokenize(v) {
                strip.insert(t);
            }
        }
        let sig_tokens: Vec<String> = tokenize(&text).filter(|t| !strip.contains(t)).collect();
        fxhash64(&sig_tokens)
    } else {
        fxhash64(&(&record_ids, result_count))
    };

    ProbeOutcome {
        url,
        ok: true,
        signature,
        result_count,
        record_ids,
        title,
        text,
        next_page,
        detail_urls,
    }
}

/// `<title>` text of a parsed page (empty when there is none).
pub(crate) fn title_of(doc: &Document) -> String {
    doc.find("title")
        .map(|t| t.text_content())
        .unwrap_or_default()
}

/// Resolve a possibly-relative href against a base URL.
pub fn resolve_href(base: &Url, href: &str) -> Option<Url> {
    if href.starts_with("http://") {
        Url::parse(href)
    } else if href.starts_with('/') {
        // Path may carry a query string.
        let (path, query) = href.split_once('?').unwrap_or((href, ""));
        Some(Url::new(base.host.clone(), path).with_query(query))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::form_of;

    fn world() -> deepweb_webworld::World {
        crate::fixtures::world(6)
    }

    fn first_get_form(w: &deepweb_webworld::World) -> CrawledForm {
        let t = w.truth.sites.iter().find(|t| !t.post);
        form_of(w, &t.expect("a GET site").host)
    }

    #[test]
    fn empty_submission_returns_everything() {
        let w = world();
        let form = first_get_form(&w);
        let p = Prober::new(&w.server);
        let out = p.submit(&form, &[]);
        assert!(out.ok);
        assert!(out.has_results());
        assert!(out.result_count.unwrap() > 0);
        assert_eq!(p.requests(), 1);
    }

    #[test]
    fn signatures_collapse_for_equal_result_sets() {
        let w = world();
        let form = first_get_form(&w);
        let p = Prober::new(&w.server);
        // Two nonsense keyword probes with different values both return the
        // uniform empty page; signatures must match.
        let text_input = form
            .fillable_inputs()
            .into_iter()
            .find(|i| i.is_text())
            .map(|i| i.name.clone());
        if let Some(name) = text_input {
            let a = p.submit(&form, &[(name.clone(), "qqqqzz".into())]);
            let b = p.submit(&form, &[(name.clone(), "vvvvxx".into())]);
            if !a.has_results() && !b.has_results() {
                assert_eq!(a.signature, b.signature);
            }
        }
    }

    #[test]
    fn record_ids_extracted_from_results() {
        let w = world();
        let form = first_get_form(&w);
        let p = Prober::new(&w.server);
        let out = p.submit(&form, &[]);
        assert!(!out.record_ids.is_empty());
        assert!(out.detail_urls.len() >= out.record_ids.len());
    }

    #[test]
    fn pagination_followed_via_next_link() {
        let w = world();
        let form = first_get_form(&w);
        let p = Prober::new(&w.server);
        let out = p.submit(&form, &[]);
        if let Some(next) = &out.next_page {
            let page2 = p.fetch(next);
            assert!(page2.ok);
            assert_ne!(page2.record_ids, out.record_ids);
        }
    }

    #[test]
    fn error_pages_marked_not_ok() {
        let w = world();
        let p = Prober::new(&w.server);
        let out = p.fetch(&Url::new("nonexistent.sim", "/"));
        assert!(!out.ok);
        assert!(!out.has_results());
    }

    /// Always fails with a fixed status.
    struct AlwaysErr(u16);
    impl Fetcher for AlwaysErr {
        fn fetch(&self, url: &Url) -> deepweb_common::Result<deepweb_webworld::Response> {
            Err(deepweb_webworld::http_error(self.0, url))
        }
    }

    #[test]
    fn permanent_status_preserved_without_retries() {
        for status in [404u16, 405, 403] {
            let f = AlwaysErr(status);
            let p = Prober::new(&f);
            let out = p.fetch(&Url::new("x.sim", "/"));
            assert!(!out.ok);
            assert_eq!(p.stats().retries, 0);
            assert_eq!(p.requests(), 1, "permanent {status} must not be retried");
            assert_eq!(p.stats().permanent_failures, 1);
        }
    }

    #[test]
    fn transient_status_preserved_after_retry_budget() {
        for status in [408u16, 429, 500, 503] {
            let f = AlwaysErr(status);
            let p = Prober::new(&f);
            let out = p.fetch(&Url::new("x.sim", "/"));
            assert!(!out.ok);
            let max = u64::from(crate::fetchpolicy::MAX_RETRIES);
            assert_eq!(p.stats().retries, max);
            assert_eq!(p.requests(), max + 1);
        }
    }

    #[test]
    fn success_carries_200_and_zero_retries() {
        let w = world();
        let form = first_get_form(&w);
        let p = Prober::new(&w.server);
        let out = p.submit(&form, &[]);
        assert!(out.ok);
        assert_eq!(p.requests(), 1);
        assert_eq!(p.stats(), ProbeStats::default());
    }

    #[test]
    fn a_memo_hit_reads_what_a_fresh_prober_reads() {
        let w = world();
        let form = first_get_form(&w);
        let keyword = form
            .fillable_inputs()
            .into_iter()
            .find(|i| i.is_text())
            .map(|i| vec![(i.name.clone(), "qqqqzz".to_string())]);
        for a in [Vec::new()].into_iter().chain(keyword) {
            let url = form.submission_url(&a);
            let p = Prober::new(&w.server);
            let submitted = p.submit(&form, &a);
            let fetched = p.fetch(&url);
            assert_eq!(p.requests(), 1, "{url}: the second call is a memo hit");
            let fresh_submit = Prober::new(&w.server).submit(&form, &a);
            let fresh_fetch = Prober::new(&w.server).fetch(&url);
            assert_eq!(format!("{submitted:?}"), format!("{fresh_submit:?}"));
            assert_eq!(format!("{fetched:?}"), format!("{fresh_fetch:?}"));
        }
    }

    /// Fails its first call with a permanent 404, then serves `inner`.
    struct FailsOnce<'a> {
        inner: &'a deepweb_webworld::WebServer,
        calls: std::sync::atomic::AtomicU32,
    }
    impl Fetcher for FailsOnce<'_> {
        fn fetch(&self, url: &Url) -> deepweb_common::Result<deepweb_webworld::Response> {
            use std::sync::atomic::Ordering;
            if self.calls.fetch_add(1, Ordering::Relaxed) == 0 {
                return Err(deepweb_webworld::http_error(404, url));
            }
            self.inner.fetch(url)
        }
    }

    #[test]
    fn a_failed_fetch_is_not_kept() {
        let w = world();
        let form = first_get_form(&w);
        let f = FailsOnce {
            inner: &w.server,
            calls: Default::default(),
        };
        let p = Prober::new(&f);
        assert!(!p.submit(&form, &[]).ok);
        assert!(p.submit(&form, &[]).ok, "the retry reaches the site");
        assert_eq!(p.requests(), 2);
        assert_eq!(f.calls.load(std::sync::atomic::Ordering::Relaxed), 2);
        assert_eq!(p.stats().permanent_failures, 1);
    }

    /// `analyze_response` over a literal page served from `/results`.
    fn analyzed(html: &str) -> ProbeOutcome {
        analyze_response(Url::new("h.sim", "/results"), html.to_string(), &[])
    }

    #[test]
    fn later_unresolvable_next_link_clears_next_page() {
        let good = r#"<a href="/results?page=2">next page</a>"#;
        let bad = r#"<a href="mailto:x">next page</a>"#;
        let next = Url::new("h.sim", "/results").with_param("page", "2");
        assert_eq!(analyzed(good).next_page, Some(next.clone()));
        assert_eq!(analyzed(&format!("{good}{bad}")).next_page, None);
        assert_eq!(analyzed(&format!("{bad}{good}")).next_page, Some(next));
    }

    #[test]
    fn non_numeric_item_link_is_neither_record_nor_next() {
        let out = analyzed(r#"<a href="/item?id=abc">next page</a>"#);
        assert!(out.record_ids.is_empty() && out.detail_urls.is_empty());
        assert_eq!(out.next_page, None);
        assert!(!out.has_results());
    }

    #[test]
    fn outer_anchor_text_includes_nested_and_unclosed_anchors() {
        // Nested: the outer label is "next page", the inner only "page".
        let nested = analyzed(r#"<a href="/outer">next <a href="/inner">page</a></a>"#);
        assert_eq!(nested.next_page, Some(Url::new("h.sim", "/outer")));
        // Unclosed at EOF: both anchors are closed implicitly.
        let unclosed = analyzed(r#"<p><a href="/outer">next <a href="/inner">page"#);
        assert_eq!(unclosed.next_page, Some(Url::new("h.sim", "/outer")));
        // A stray close tag between the words does not split the label.
        let stray = analyzed(r#"<a href="/n">next</span> <b>page</b></a>"#);
        assert_eq!(stray.next_page, Some(Url::new("h.sim", "/n")));
        // An anchor without href is skipped even when its label matches.
        assert_eq!(analyzed("<a name=x>next page</a>").next_page, None);
    }

    #[test]
    fn first_title_wins_even_when_empty() {
        assert_eq!(analyzed("<title/><title>x</title>").title, "");
        assert_eq!(
            analyzed("<title> a\n b </title><title>c</title>").title,
            "a b"
        );
        assert_eq!(analyzed("<p>no title</p>").title, "");
    }

    #[test]
    fn only_the_first_h1_declares_the_result_count() {
        assert_eq!(
            analyzed("<h1>3 results</h1><h1>9 results</h1>").result_count,
            Some(3)
        );
        assert_eq!(
            analyzed("<h1>none found</h1><h1>9 results</h1>").result_count,
            None
        );
        assert_eq!(
            analyzed("<h1><b>12</b> results for x</h1>").result_count,
            Some(12)
        );
    }

    #[test]
    fn record_ids_are_a_set_and_detail_urls_a_page_order_list() {
        let out = analyzed(
            r#"<a href="/item?id=5">a</a><a href="/item?id=2">b</a><a href="/item?id=5">c</a>"#,
        );
        assert_eq!(out.record_ids, vec![2, 5]);
        let ids: Vec<_> = out.detail_urls.iter().map(|u| u.param("id")).collect();
        assert_eq!(ids, vec![Some("5"), Some("2"), Some("5")]);
    }

    #[test]
    fn script_and_style_bodies_reach_neither_text_nor_signature() {
        let plain = analyzed("<p>hello world</p>");
        let noisy = analyzed(
            "<script>var secret = 1;</script><p>hello world</p><style>.secret { x: y }</style>",
        );
        assert_eq!(noisy.text, "hello world");
        assert_eq!(noisy.text, plain.text);
        assert_eq!(noisy.signature, plain.signature);
    }
}
