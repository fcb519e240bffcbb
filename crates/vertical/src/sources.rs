//! Source registration: analysing a form against the mediated schemas and
//! recording the semantic mappings (the per-source manual/semi-automatic
//! effort that the paper argues cannot scale to the whole web, §3.1).

use crate::mediated::{builtin_schemas, MediatedSchema};
use deepweb_common::Url;
use deepweb_html::WidgetKind;
use deepweb_surfacer::{analyze_page, CrawledForm};
use deepweb_webworld::Fetcher;

/// One input's mapping to a mediated element.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InputMapping {
    /// Form input name.
    pub input: String,
    /// Mediated element name.
    pub element: String,
}

/// A registered deep-web source.
#[derive(Clone, Debug)]
pub struct Source {
    /// The crawled form.
    pub form: CrawledForm,
    /// Which vertical it belongs to.
    pub domain: String,
    /// Semantic mappings input → element.
    pub mappings: Vec<InputMapping>,
    /// Select options per mapped categorical element (for routing).
    pub vocabulary: Vec<String>,
}

impl Source {
    /// Number of curated mappings (the paper's scale argument counts these).
    pub(crate) fn mapping_count(&self) -> usize {
        self.mappings.len()
    }
}

/// The registry of all sources a vertical engine knows.
#[derive(Clone, Debug, Default)]
pub struct SourceRegistry {
    /// Registered sources.
    pub sources: Vec<Source>,
    /// Hosts whose forms matched no mediated schema (out of scope for the
    /// vertical approach — the coverage gap of §3.1).
    pub unmapped_hosts: Vec<String>,
}

impl SourceRegistry {
    /// Total mapping entries across sources.
    pub fn total_mappings(&self) -> usize {
        self.sources.iter().map(Source::mapping_count).sum()
    }
}

/// Analyse one form against the schemas; returns the best-matching domain
/// and mappings when at least two inputs map (one keyword box alone does not
/// identify a vertical).
pub(crate) fn classify_form(form: &CrawledForm, schemas: &[MediatedSchema]) -> Option<Source> {
    let mut best: Option<Source> = None;
    for schema in schemas {
        let mut mappings = Vec::new();
        let mut vocabulary = Vec::new();
        for input in form.fillable_inputs() {
            if let Some(el) = schema.match_input(&input.name, &input.label) {
                mappings.push(InputMapping {
                    input: input.name.clone(),
                    element: el.name.to_string(),
                });
                if let WidgetKind::SelectMenu { .. } = input.kind {
                    vocabulary.extend(input.options().iter().map(|s| s.to_string()));
                }
            }
        }
        // A form qualifies for a vertical only if it maps the schema's
        // identifying element (make for cars, cuisine for restaurants, ...)
        // plus at least one more — a curator would not file a form under
        // "used cars" without a make field.
        let has_identifier = schema
            .elements
            .first()
            .is_some_and(|id| mappings.iter().any(|m| m.element == id.name));
        if has_identifier
            && mappings.len() >= 2
            && best
                .as_ref()
                .is_none_or(|b| mappings.len() > b.mappings.len())
        {
            best = Some(Source {
                form: form.clone(),
                domain: schema.domain.to_string(),
                mappings,
                vocabulary,
            });
        }
    }
    best
}

/// Register all GET forms reachable from the given hosts' `/search` pages.
pub fn register_sources(fetcher: &dyn Fetcher, hosts: &[String]) -> SourceRegistry {
    let schemas = builtin_schemas();
    let mut registry = SourceRegistry::default();
    for host in hosts {
        let url = Url::new(host.clone(), "/search");
        let Ok(resp) = fetcher.fetch(&url) else {
            continue;
        };
        let forms = analyze_page(&url, &resp.html);
        let mut mapped = false;
        for form in forms {
            if form.post {
                continue;
            }
            if let Some(src) = classify_form(&form, &schemas) {
                registry.sources.push(src);
                mapped = true;
            }
        }
        if !mapped {
            registry.unmapped_hosts.push(host.clone());
        }
    }
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepweb_webworld::{generate, DomainKind, WebConfig};

    #[test]
    fn registers_in_domain_sites_and_skips_others() {
        let w = generate(&WebConfig {
            num_sites: 40,
            ..WebConfig::default()
        });
        let hosts: Vec<String> = w.truth.sites.iter().map(|t| t.host.clone()).collect();
        let reg = register_sources(&w.server, &hosts);
        assert!(
            !reg.sources.is_empty(),
            "should register some car/realestate/jobs sites"
        );
        // Faculty/government/media sites have no 2-element match in the
        // builtin schemas → unmapped (the vertical coverage gap).
        let faculty_host = w
            .truth
            .sites
            .iter()
            .find(|t| t.domain == DomainKind::Faculty)
            .map(|t| t.host.clone());
        if let Some(h) = faculty_host {
            assert!(
                reg.unmapped_hosts.contains(&h),
                "faculty must be out of scope"
            );
        }
        // Every registered used-cars source maps its make select.
        for s in reg.sources.iter().filter(|s| s.domain == "usedcars") {
            assert!(s.mappings.iter().any(|m| m.element == "make"));
        }
    }

    #[test]
    fn mapping_effort_counts() {
        let w = generate(&WebConfig {
            num_sites: 40,
            ..WebConfig::default()
        });
        let hosts: Vec<String> = w.truth.sites.iter().map(|t| t.host.clone()).collect();
        let reg = register_sources(&w.server, &hosts);
        assert!(reg.total_mappings() >= 2 * reg.sources.len());
    }
}
