//! The query-time half of virtual integration: routing, reformulation,
//! submission and result merging (paper §3.1).
//!
//! Contrast with surfacing: every user query here triggers *live* requests
//! against the underlying sites (the load problem), only sources whose
//! mediated schema matched can answer (the coverage problem), and only
//! queries the schema anticipated can be reformulated (the fortuitous-query
//! problem).

use crate::sources::{Source, SourceRegistry};
use deepweb_common::text::{lower_into, raw_tokens, tokenize};
use deepweb_common::Url;
use deepweb_extract::extract_generic;
use deepweb_html::WidgetKind;
use deepweb_webworld::Fetcher;

/// A routed-and-reformulated submission plan for one source.
#[derive(Clone, Debug)]
pub struct Reformulation {
    /// Parameter assignment for the source's form.
    pub assignment: Vec<(String, String)>,
    /// How many query tokens the assignment consumed.
    pub tokens_bound: usize,
}

/// One merged result.
#[derive(Clone, Debug)]
pub struct VerticalHit {
    /// Source host.
    pub host: String,
    /// Result page URL.
    pub url: Url,
    /// Result snippet (row text).
    pub text: String,
    /// Rank score (query-token overlap).
    pub score: f64,
}

/// Query-time statistics (the per-site load of the virtual approach).
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryStats {
    /// Sources the router selected.
    pub sources_routed: usize,
    /// Live requests issued.
    pub requests: u64,
}

/// Sources consulted per query.
const MAX_SOURCES: usize = 5;

/// The vertical search engine.
pub struct VerticalEngine<'a> {
    fetcher: &'a dyn Fetcher,
    registry: SourceRegistry,
}

impl<'a> VerticalEngine<'a> {
    /// Build over a registry.
    pub fn new(fetcher: &'a dyn Fetcher, registry: SourceRegistry) -> Self {
        VerticalEngine { fetcher, registry }
    }

    /// The registry (for effort accounting).
    pub fn registry(&self) -> &SourceRegistry {
        &self.registry
    }

    /// Route a keyword query: score sources by vocabulary and domain-keyword
    /// overlap; return the best `MAX_SOURCES`.
    pub fn route(&self, query: &str) -> Vec<&Source> {
        let tokens: Vec<String> = tokenize(query).collect();
        let schemas = crate::mediated::builtin_schemas();
        let mut scored: Vec<(f64, &Source)> = self
            .registry
            .sources
            .iter()
            .map(|s| {
                let vocab_hits = tokens
                    .iter()
                    .filter(|t| s.vocabulary.iter().any(|v| v == *t))
                    .count();
                let dk = schemas
                    .iter()
                    .find(|m| m.domain == s.domain)
                    .map(|m| {
                        tokens
                            .iter()
                            .filter(|t| m.domain_keywords.contains(&t.as_str()))
                            .count()
                    })
                    .unwrap_or(0);
                ((vocab_hits * 2 + dk) as f64, s)
            })
            .filter(|(score, _)| *score > 0.0)
            .collect();
        scored.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.1.form.host.cmp(&b.1.form.host))
        });
        scored
            .into_iter()
            .take(MAX_SOURCES)
            .map(|(_, s)| s)
            .collect()
    }

    /// Reformulate a keyword query for one source: tokens matching a mapped
    /// select's options bind that select; leftover tokens go to the keyword
    /// box if one is mapped.
    pub fn reformulate(source: &Source, query: &str) -> Reformulation {
        let tokens: Vec<String> = tokenize(query).collect();
        let mut assignment: Vec<(String, String)> = Vec::new();
        let mut consumed = vec![false; tokens.len()];
        for m in &source.mappings {
            let Some(input) = source.form.input(&m.input) else {
                continue;
            };
            if let WidgetKind::SelectMenu { .. } = input.kind {
                let options = input.options();
                if let Some((ti, tok)) = tokens
                    .iter()
                    .enumerate()
                    .find(|(ti, t)| !consumed[*ti] && options.contains(&t.as_str()))
                {
                    assignment.push((m.input.clone(), tok.clone()));
                    consumed[ti] = true;
                }
            }
        }
        // Leftover tokens → keyword element, if mapped.
        let leftover: Vec<String> = tokens
            .iter()
            .zip(&consumed)
            .filter(|(_, &c)| !c)
            .map(|(t, _)| t.clone())
            .collect();
        let mut tokens_bound = consumed.iter().filter(|&&c| c).count();
        if !leftover.is_empty() {
            if let Some(kw_input) = source
                .mappings
                .iter()
                .find(|m| m.element == "keywords")
                .map(|m| m.input.clone())
            {
                tokens_bound += leftover.len();
                assignment.push((kw_input, leftover.join(" ")));
            }
        }
        Reformulation {
            assignment,
            tokens_bound,
        }
    }

    /// Answer a query: route, reformulate, submit live, extract result rows,
    /// merge and rank.
    pub fn answer(&self, query: &str, k: usize) -> (Vec<VerticalHit>, QueryStats) {
        let mut stats = QueryStats::default();
        let routed = self.route(query);
        stats.sources_routed = routed.len();
        let qtokens: Vec<String> = tokenize(query).collect();
        let mut matched = vec![false; qtokens.len()];
        let mut tok_buf = String::new();
        let mut hits: Vec<VerticalHit> = Vec::new();
        for source in routed {
            let reform = Self::reformulate(source, query);
            if reform.assignment.is_empty() {
                continue;
            }
            let mut url = source.form.action_url.clone();
            for (k, v) in source.form.hidden_params() {
                url = url.with_param(k, v);
            }
            for (k, v) in &reform.assignment {
                url = url.with_param(k.clone(), v.clone());
            }
            stats.requests += 1;
            let Ok(resp) = self.fetcher.fetch(&url) else {
                continue;
            };
            // Wrapper: each record the generic extractor reads (a table row
            // or a listing div) becomes a hit, its values joined by spaces —
            // the extraction that is "easier to write or infer" inside one
            // vertical (paper §3.1). Overlap streams the row's tokens against
            // a reusable per-query-token match mask instead of materialising
            // a token vector per row; each query token (duplicates included)
            // counts once if present. Row tokens flow through one recycled
            // lowercase buffer (the same `raw_tokens`/`lower_into` discipline
            // as the query scratch), so overlap scoring allocates nothing per
            // row.
            for record in extract_generic(&resp.html) {
                let row_text = record
                    .fields
                    .into_iter()
                    .map(|(_, value)| value)
                    .collect::<Vec<_>>()
                    .join(" ");
                matched.iter_mut().for_each(|m| *m = false);
                for raw in raw_tokens(&row_text) {
                    lower_into(&mut tok_buf, raw);
                    for (mi, q) in qtokens.iter().enumerate() {
                        if !matched[mi] && *q == tok_buf {
                            matched[mi] = true;
                        }
                    }
                }
                let overlap = matched.iter().filter(|&&m| m).count();
                if overlap > 0 {
                    hits.push(VerticalHit {
                        host: source.form.host.clone(),
                        url: url.clone(),
                        text: row_text,
                        score: overlap as f64 / qtokens.len().max(1) as f64,
                    });
                }
            }
        }
        // Fully explicit ordering (score desc, host asc, text asc): two hits
        // from the same source can tie on score, and ranking must never
        // lean on insertion order to separate them.
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.host.cmp(&b.host))
                .then_with(|| a.text.cmp(&b.text))
        });
        hits.truncate(k);
        (hits, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sources::register_sources;
    use deepweb_webworld::{generate, DomainKind, WebConfig};

    fn engine(w: &deepweb_webworld::World) -> VerticalEngine<'_> {
        let hosts: Vec<String> = w.truth.sites.iter().map(|t| t.host.clone()).collect();
        let reg = register_sources(&w.server, &hosts);
        VerticalEngine::new(&w.server, reg)
    }

    fn world() -> deepweb_webworld::World {
        generate(&WebConfig {
            num_sites: 40,
            post_fraction: 0.0,
            ..WebConfig::default()
        })
    }

    #[test]
    fn routes_car_queries_to_car_sites() {
        let w = world();
        let e = engine(&w);
        let routed = e.route("used honda civic");
        assert!(!routed.is_empty());
        assert!(routed.iter().all(|s| s.domain == "usedcars"));
    }

    #[test]
    fn reformulation_binds_select_options() {
        let w = world();
        let e = engine(&w);
        let routed = e.route("honda");
        let src = routed.first().expect("routed source");
        let r = VerticalEngine::reformulate(src, "honda 1995");
        assert!(r
            .assignment
            .iter()
            .any(|(k, v)| k == "make" && v == "honda"));
    }

    #[test]
    fn in_domain_query_gets_answers_with_live_load() {
        let w = world();
        let e = engine(&w);
        w.server.reset_counts();
        let (hits, stats) = e.answer("honda", 10);
        assert!(stats.sources_routed > 0);
        assert!(stats.requests > 0);
        // Live traffic hit the sites at query time.
        assert!(w.server.total_requests() >= stats.requests);
        if !hits.is_empty() {
            assert!(hits[0].text.contains("honda"));
        }
    }

    #[test]
    fn fortuitous_query_fails_in_vertical() {
        let w = world();
        let e = engine(&w);
        // Faculty sites are not in any mediated schema; this query routes
        // nowhere (the paper's §3.2 example).
        let (hits, stats) = e.answer("sigmod innovations award mit professor", 10);
        assert_eq!(stats.sources_routed, 0);
        assert!(hits.is_empty());
        // Sanity: the content *does* exist in the web.
        let exists = w.server.sites().iter().any(|s| {
            s.domain == DomainKind::Faculty
                && s.table
                    .table()
                    .iter()
                    .any(|(_, row)| row.iter().any(|v| v.render().contains("sigmod")))
        });
        assert!(
            exists,
            "award bio must exist for the scenario to be meaningful"
        );
    }
}
