//! Impact attribution: run a query stream against a search index and
//! attribute deep-web results back to the forms that produced them — the
//! machinery behind the paper's "top 10,000 forms account for only 50% of
//! deep-web results" analysis (§3.2).

use crate::workload::Workload;
use deepweb_common::ids::{QueryId, SiteId};
use deepweb_common::stats;
use deepweb_index::{DocKind, Hit, SearchIndex, SearchService};
use rand::rngs::StdRng;
use std::collections::BTreeMap;

/// Impact accounting for one stream replay.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ImpactReport {
    /// Queries replayed.
    pub queries: usize,
    /// Queries with ≥1 result in the top-k.
    pub answered: usize,
    /// Queries whose top-k contained a deep-web (surfaced/discovered) page.
    pub with_deepweb_result: usize,
    /// Tail queries with a deep-web result.
    pub tail_with_deepweb: usize,
    /// Tail queries replayed.
    pub tail_queries: usize,
    /// Head queries replayed.
    pub head_queries: usize,
    /// Head queries with a deep-web result.
    pub head_with_deepweb: usize,
    /// Deep-web results attributed per site (form).
    pub per_site_impact: BTreeMap<SiteId, u64>,
}

impl ImpactReport {
    /// Cumulative share curve over per-form impact (descending): entry `k`
    /// answers "what fraction of deep-web results do the top-(k+1) forms
    /// carry" — the paper's long-tail table.
    pub fn cumulative_share(&self) -> Vec<f64> {
        let weights: Vec<f64> = self.per_site_impact.values().map(|&c| c as f64).collect();
        stats::cumulative_share(&weights)
    }

    /// Number of forms needed to reach `share` of deep-web results.
    pub fn forms_for_share(&self, share: f64) -> usize {
        let weights: Vec<f64> = self.per_site_impact.values().map(|&c| c as f64).collect();
        stats::rank_reaching_share(&weights, share)
    }

    /// Fraction of deep-web impact landing on tail queries.
    pub fn tail_share_of_deepweb(&self) -> f64 {
        let total = self.with_deepweb_result;
        if total == 0 {
            0.0
        } else {
            self.tail_with_deepweb as f64 / total as f64
        }
    }
}

/// Queries per chunk when a replay streams through a serving tier —
/// large enough to keep every worker busy, small enough that a million-query
/// stream never materialises all its query strings at once.
const REPLAY_CHUNK: usize = 256;

/// Attribute one served query's hits into the report. Attribution is a pure
/// fold over `(query, hits)` pairs in stream order, so it cannot depend on
/// which tier served them.
fn attribute(
    report: &mut ImpactReport,
    index: &SearchIndex,
    qid: QueryId,
    hits: &[Hit],
    wl: &Workload,
) {
    let q = wl.query(qid);
    if q.is_tail {
        report.tail_queries += 1;
    } else {
        report.head_queries += 1;
    }
    if hits.is_empty() {
        return;
    }
    report.answered += 1;
    let mut saw_deepweb = false;
    for doc in hits.iter().filter_map(|h| index.doc(h.doc)) {
        if matches!(doc.kind, DocKind::Surfaced | DocKind::Discovered) {
            saw_deepweb = true;
            if let Some(site) = doc.site {
                *report.per_site_impact.entry(site).or_insert(0) += 1;
            }
        }
    }
    if saw_deepweb {
        report.with_deepweb_result += 1;
        if q.is_tail {
            report.tail_with_deepweb += 1;
        } else {
            report.head_with_deepweb += 1;
        }
    }
}

/// Replay `n` sampled queries through `service`, attributing top-`k` hits
/// to the forms whose pages `index` holds.
///
/// The stream is sampled up front from `rng`, so the same seed replays the
/// same stream through any tier, and served in `REPLAY_CHUNK`-query chunks
/// through [`SearchService::search_batch`] — the path a front end drives.
/// Every tier honours the serving determinism contract, so the report is
/// the same through the sequential [`IndexSearcher`] and through a
/// [`ClusterServer`] at any worker count — asserted by `tests/cluster.rs`.
///
/// [`ClusterServer`]: deepweb_index::ClusterServer
/// [`IndexSearcher`]: deepweb_index::IndexSearcher
pub fn replay(
    index: &SearchIndex,
    workload: &Workload,
    n: usize,
    k: usize,
    rng: &mut StdRng,
    service: &dyn SearchService,
) -> ImpactReport {
    let stream: Vec<QueryId> = workload.stream(n, rng);
    let mut report = ImpactReport {
        queries: n,
        ..Default::default()
    };
    let mut texts: Vec<String> = Vec::with_capacity(REPLAY_CHUNK.min(n));
    for chunk in stream.chunks(REPLAY_CHUNK) {
        texts.clear();
        texts.extend(chunk.iter().map(|&qid| workload.query(qid).text.clone()));
        let results = service.search_batch(&texts, k);
        assert_eq!(
            results.len(),
            chunk.len(),
            "serving path must answer every query in the chunk"
        );
        for (&qid, hits) in chunk.iter().zip(&results) {
            attribute(&mut report, index, qid, hits, workload);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cumulative_share_and_rank() {
        let mut r = ImpactReport::default();
        r.per_site_impact.insert(SiteId(0), 50);
        r.per_site_impact.insert(SiteId(1), 30);
        r.per_site_impact.insert(SiteId(2), 15);
        r.per_site_impact.insert(SiteId(3), 5);
        let curve = r.cumulative_share();
        assert!((curve[0] - 0.5).abs() < 1e-12);
        assert_eq!(r.forms_for_share(0.5), 1);
        assert_eq!(r.forms_for_share(0.8), 2);
        assert_eq!(r.forms_for_share(1.0), 4);
    }

    #[test]
    fn tail_share() {
        let r = ImpactReport {
            with_deepweb_result: 10,
            tail_with_deepweb: 8,
            ..Default::default()
        };
        assert!((r.tail_share_of_deepweb() - 0.8).abs() < 1e-12);
        assert_eq!(ImpactReport::default().tail_share_of_deepweb(), 0.0);
    }

    /// One page per distinct query — a surfaced page from the query's target
    /// site for a tail query, a surface page for a head query — so every
    /// replayed query is answered, and every tail query by a deep-web page.
    #[test]
    fn replay_counts_on_tiny_index() {
        use crate::workload::{generate_workload, WorkloadConfig};
        use deepweb_common::{ThreadPool, Url};
        use deepweb_index::BatchDoc;
        use deepweb_webworld::{generate, WebConfig};
        let world = generate(&WebConfig {
            num_sites: 6,
            ..WebConfig::default()
        });
        let wl = generate_workload(
            &world,
            &WorkloadConfig {
                distinct: 40,
                ..Default::default()
            },
        );
        let docs = wl.queries.iter().map(|q| BatchDoc {
            url: Url::new("replay.sim", format!("/q{}", q.id.0)),
            title: String::new(),
            text: q.text.clone(),
            kind: if q.is_tail {
                DocKind::Surfaced
            } else {
                DocKind::Surface
            },
            site: q.target_site,
            annotations: vec![],
        });
        let mut idx = SearchIndex::new();
        idx.add_batch(&ThreadPool::new(1), docs.collect());
        let n = 300;
        let mut rng = deepweb_common::derive_rng(5, "replay-tiny");
        let opts = deepweb_index::SearchOptions::default();
        let r = replay(&idx, &wl, n, 10, &mut rng, &idx.searcher(opts));
        assert_eq!(r.queries, n);
        assert_eq!(r.head_queries + r.tail_queries, n);
        assert!(r.head_queries > 0 && r.tail_queries > 0, "{r:?}");
        assert_eq!(r.answered, n);
        assert_eq!(r.tail_with_deepweb, r.tail_queries);
    }
}
