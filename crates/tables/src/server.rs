//! The semantic server (paper §6): harvest structured artefacts from a
//! crawled web — HTML tables (with values) and form input groups — into an
//! ACSDb, and expose the four services over it.

use crate::acsdb::Acsdb;
use crate::quality::score_table;
use crate::services;
use deepweb_common::Url;
use deepweb_html::{extract_tables, Document};
use deepweb_surfacer::forms_in;
use deepweb_webworld::Fetcher;

/// Harvest statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct HarvestStats {
    /// Pages scanned.
    pub pages: usize,
    /// Raw tables seen.
    pub tables_seen: usize,
    /// Tables passing the relational filter.
    pub tables_kept: usize,
    /// Forms harvested (input-name schemas).
    pub forms: usize,
}

/// The semantic server: an ACSDb plus its harvest provenance.
#[derive(Clone, Debug, Default)]
pub struct SemanticServer {
    db: Acsdb,
    /// Harvest statistics.
    pub stats: HarvestStats,
}

impl SemanticServer {
    /// Create an empty server.
    pub fn new() -> Self {
        Self::default()
    }

    /// The underlying statistics database.
    pub fn db(&self) -> &Acsdb {
        &self.db
    }

    /// Ingest one HTML page: relational tables (schemas + column values) and
    /// form input groups (schemas only).
    pub(crate) fn ingest_page(&mut self, page_url: &Url, html: &str) {
        self.ingest_document(page_url, &Document::parse(html));
    }

    fn ingest_document(&mut self, page_url: &Url, doc: &Document) {
        self.stats.pages += 1;
        for t in extract_tables(doc) {
            self.stats.tables_seen += 1;
            if t.header.is_empty() || !score_table(&t).is_relational {
                continue;
            }
            self.stats.tables_kept += 1;
            // Column-major values parallel to the header.
            let cols: Vec<Vec<String>> = (0..t.header.len())
                .map(|c| t.rows.iter().filter_map(|r| r.get(c).cloned()).collect())
                .collect();
            self.db.add_schema(&t.header, Some(&cols));
        }
        for form in forms_in(page_url, doc) {
            let names: Vec<String> = form
                .fillable_inputs()
                .iter()
                .map(|i| i.name.clone())
                .collect();
            if names.len() >= 2 {
                self.stats.forms += 1;
                self.db.add_schema(&names, None);
            }
        }
    }

    /// Crawl the given hosts (home page + linked pages, one hop) and ingest
    /// everything.
    pub fn harvest(&mut self, fetcher: &dyn Fetcher, hosts: &[String]) {
        for host in hosts {
            let home_url = Url::new(host.clone(), "/");
            let Ok(home) = fetcher.fetch(&home_url) else {
                continue;
            };
            let home_doc = Document::parse(&home.html);
            self.ingest_document(&home_url, &home_doc);
            for a in home_doc.find_all("a") {
                if let Some(href) = a.attr("href") {
                    if let Some(url) = deepweb_surfacer::probe::resolve_href(&home_url, href) {
                        if url.host == *host && url.path != "/" {
                            if let Ok(resp) = fetcher.fetch(&url) {
                                self.ingest_page(&url, &resp.html);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Service 1: synonyms of an attribute.
    pub fn synonyms(&self, attr: &str, k: usize) -> Vec<(String, f64)> {
        services::synonyms(&self.db, attr, k)
    }

    /// Service 2: values for an attribute.
    pub fn values_for(&self, attr: &str, k: usize) -> Vec<String> {
        services::values_for(&self.db, attr, k)
    }

    /// Service 3: properties of an entity.
    pub fn properties_of(&self, entity: &str, k: usize) -> Vec<String> {
        services::properties_of(&self.db, entity, k)
    }

    /// Service 4: schema auto-complete.
    pub fn autocomplete(&self, given: &[&str], k: usize) -> Vec<(String, f64)> {
        services::autocomplete(&self.db, given, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepweb_webworld::{generate, WebConfig};

    fn harvested() -> SemanticServer {
        let w = generate(&WebConfig {
            num_sites: 30,
            table_hosts: 10,
            ..WebConfig::default()
        });
        let mut srv = SemanticServer::new();
        let mut hosts = w.truth.table_hosts.clone();
        hosts.extend(w.truth.sites.iter().map(|t| t.host.clone()));
        srv.harvest(&w.server, &hosts);
        srv
    }

    #[test]
    fn harvest_collects_tables_and_forms() {
        let srv = harvested();
        assert!(srv.stats.tables_kept > 5, "stats: {:?}", srv.stats);
        assert!(srv.stats.forms > 5);
        assert!(srv.db().total_schemas() > 10);
    }

    #[test]
    fn synonym_service_finds_planted_synonyms() {
        let srv = harvested();
        let syn = srv.synonyms("make", 5);
        let names: Vec<&str> = syn.iter().map(|(a, _)| a.as_str()).collect();
        assert!(
            names.contains(&"manufacturer") || names.contains(&"brand"),
            "make synonyms: {names:?}"
        );
    }

    #[test]
    fn values_service_returns_plausible_makes() {
        let srv = harvested();
        let vals = srv.values_for("make", 20);
        assert!(
            vals.iter().any(|v| v == "honda" || v == "ford"),
            "values: {vals:?}"
        );
    }

    #[test]
    fn autocomplete_suggests_schema_completions() {
        let srv = harvested();
        let sugg = srv.autocomplete(&["make", "model"], 3);
        assert!(!sugg.is_empty());
        let names: Vec<&str> = sugg.iter().map(|(a, _)| a.as_str()).collect();
        assert!(
            names.iter().any(|n| [
                "price",
                "cost",
                "year",
                "model year",
                "mileage",
                "miles",
                "odometer",
                "asking price"
            ]
            .contains(n)),
            "suggestions: {names:?}"
        );
    }

    #[test]
    fn entity_properties_for_a_make() {
        let srv = harvested();
        let props = srv.properties_of("honda", 8);
        assert!(!props.is_empty());
    }
}
