//! The web server: routes URLs to site pages and surface pages, and accounts
//! request load (the paper's politeness argument, §3.2, needs load numbers).

use crate::fetch::{http_error, Fetcher, Response};
use crate::render;
use crate::site::{CompiledQuery, Site, RESULTS_PATH};
use deepweb_common::ids::{RecordId, SiteId};
use deepweb_common::{FxHashMap, Result, Url};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// A static surface-web page.
#[derive(Clone, Debug)]
pub struct SurfacePage {
    /// Host serving the page.
    pub host: String,
    /// Path of the page.
    pub path: String,
    /// Page body.
    pub html: String,
}

/// The simulated web server for an entire web.
pub struct WebServer {
    sites: Vec<Site>,
    host_to_site: FxHashMap<String, usize>,
    surface: BTreeMap<String, FxHashMap<String, String>>,
    /// Requests served, one counter per site (indexed like `sites`) plus a
    /// last one for every other host — surface pages and 404s to unknown
    /// hosts count too. A host is probed from one thread, so parallel crawl
    /// workers bump different counters.
    counts: Vec<AtomicU64>,
}

impl WebServer {
    /// Build a server over deep-web sites and surface pages.
    pub fn new(sites: Vec<Site>, surface_pages: Vec<SurfacePage>) -> Self {
        let host_to_site = sites
            .iter()
            .enumerate()
            .map(|(i, s)| (s.host.clone(), i))
            .collect();
        let mut surface: BTreeMap<String, FxHashMap<String, String>> = BTreeMap::new();
        for p in surface_pages {
            surface.entry(p.host).or_default().insert(p.path, p.html);
        }
        WebServer {
            counts: (0..=sites.len()).map(|_| AtomicU64::new(0)).collect(),
            sites,
            host_to_site,
            surface,
        }
    }

    /// All deep-web sites.
    pub fn sites(&self) -> &[Site] {
        &self.sites
    }

    /// Site by id.
    pub fn site(&self, id: SiteId) -> &Site {
        &self.sites[id.as_usize()]
    }

    /// Mutable site access for content growth ([`crate::genweb::grow_site`]).
    pub(crate) fn site_mut(&mut self, idx: usize) -> &mut Site {
        &mut self.sites[idx]
    }

    /// Site serving `host`, if any.
    pub fn site_by_host(&self, host: &str) -> Option<&Site> {
        self.host_to_site.get(host).map(|&i| &self.sites[i])
    }

    /// All hosts (site hosts + surface hosts), sorted.
    pub fn hosts(&self) -> Vec<String> {
        let sites = self.sites.iter().map(|site| &site.host);
        let mut hosts: Vec<String> = sites.chain(self.surface.keys()).cloned().collect();
        hosts.sort();
        hosts.dedup();
        hosts
    }

    /// Total requests served.
    pub fn total_requests(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Reset load accounting (e.g. between crawl phase and serve phase).
    pub fn reset_counts(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
    }

    fn serve_site(&self, site: &Site, url: &Url) -> Result<Response> {
        match url.path.as_str() {
            "/" => Ok(ok(render::home_page(site))),
            "/about" => Ok(ok(render::about_page(site))),
            "/search" => Ok(ok(render::search_page(site))),
            "/browse" if site.browse_links > 0 => Ok(ok(render::browse_page(site))),
            RESULTS_PATH => {
                if site.form.post {
                    // GET against a POST action: method not allowed.
                    return Err(http_error(405, url));
                }
                let page_no: usize = url.param("page").and_then(|p| p.parse().ok()).unwrap_or(0);
                match site.compile_query(&url.params) {
                    CompiledQuery::Query(conj) => {
                        let page = site.table.select_page(&conj, page_no, site.page_size);
                        Ok(ok(render::results_page(site, &url.params, &page)))
                    }
                    CompiledQuery::Invalid => Ok(ok(render::invalid_page(site))),
                }
            }
            "/item" => {
                let id: u32 = url
                    .param("id")
                    .and_then(|p| p.parse().ok())
                    .ok_or_else(|| http_error(404, url))?;
                if (id as usize) < site.table.len() {
                    Ok(ok(render::detail_page(site, RecordId(id))))
                } else {
                    Err(http_error(404, url))
                }
            }
            _ => Err(http_error(404, url)),
        }
    }
}

fn ok(html: String) -> Response {
    Response { status: 200, html }
}

impl Fetcher for WebServer {
    fn fetch(&self, url: &Url) -> Result<Response> {
        let site = self.host_to_site.get(&url.host).copied();
        self.counts[site.unwrap_or(self.sites.len())].fetch_add(1, Ordering::Relaxed);
        if let Some(i) = site {
            return self.serve_site(&self.sites[i], url);
        }
        if let Some(pages) = self.surface.get(&url.host) {
            return pages
                .get(&url.path)
                .map(|h| ok(h.clone()))
                .ok_or_else(|| http_error(404, url));
        }
        Err(http_error(404, url))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::tests_support::mini_site;
    use crate::site::RenderStyle;

    fn server() -> WebServer {
        let site = mini_site(RenderStyle::Table);
        let surface = vec![SurfacePage {
            host: "dir.sim".into(),
            path: "/".into(),
            html: "<a href=\"http://usedcars-000.sim/\">cars</a>".into(),
        }];
        WebServer::new(vec![site], surface)
    }

    #[test]
    fn serves_all_site_pages() {
        let s = server();
        for path in ["/", "/about", "/search"] {
            let r = s.fetch(&Url::new("usedcars-000.sim", path)).unwrap();
            assert_eq!(r.status, 200);
        }
    }

    #[test]
    fn results_execute_query() {
        let s = server();
        let url = Url::parse("http://usedcars-000.sim/results?make=honda").unwrap();
        let r = s.fetch(&url).unwrap();
        assert!(r.html.contains("2 results"));
    }

    #[test]
    fn invalid_typed_value_yields_no_results_page() {
        let s = server();
        let url = Url::parse("http://usedcars-000.sim/results?zip=nope").unwrap();
        let r = s.fetch(&url).unwrap();
        assert!(r.html.contains("No results found."));
    }

    #[test]
    fn item_pages_and_404s() {
        let s = server();
        assert!(s
            .fetch(&Url::parse("http://usedcars-000.sim/item?id=1").unwrap())
            .is_ok());
        assert!(s
            .fetch(&Url::parse("http://usedcars-000.sim/item?id=99").unwrap())
            .is_err());
        assert!(s
            .fetch(&Url::parse("http://usedcars-000.sim/nope").unwrap())
            .is_err());
        assert!(s
            .fetch(&Url::parse("http://unknown.sim/").unwrap())
            .is_err());
    }

    #[test]
    fn post_form_results_rejected() {
        let mut site = mini_site(RenderStyle::Table);
        site.form.post = true;
        let s = WebServer::new(vec![site], vec![]);
        let err = s.fetch(&Url::parse("http://usedcars-000.sim/results?make=honda").unwrap());
        assert!(matches!(
            err,
            Err(deepweb_common::Error::Http { status: 405, .. })
        ));
        // But the form page still serves.
        assert!(s.fetch(&Url::new("usedcars-000.sim", "/search")).is_ok());
    }

    #[test]
    fn surface_pages_served() {
        let s = server();
        let r = s.fetch(&Url::new("dir.sim", "/")).unwrap();
        assert!(r.html.contains("usedcars-000.sim"));
    }

    #[test]
    fn load_accounting() {
        let s = server();
        let _ = s.fetch(&Url::new("usedcars-000.sim", "/"));
        let _ = s.fetch(&Url::new("usedcars-000.sim", "/search"));
        let _ = s.fetch(&Url::new("dir.sim", "/"));
        assert!(s.fetch(&Url::new("nowhere.sim", "/")).is_err());
        assert_eq!(s.total_requests(), 4, "a 404 to an unknown host counts");
        s.reset_counts();
        assert_eq!(s.total_requests(), 0);
    }

    #[test]
    fn pagination_via_url() {
        let s = server();
        let url = Url::parse("http://usedcars-000.sim/results?page=0").unwrap();
        let r = s.fetch(&url).unwrap();
        assert!(r.html.contains("3 results"));
    }
}
