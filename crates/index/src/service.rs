//! One serving API over every tier (DESIGN.md §14).
//!
//! The engine grew three ways to answer a query — the sequential searcher,
//! the multi-worker [`QueryBroker`], and the partitioned [`ClusterServer`] —
//! each with its own entry-point shape. [`SearchService`] is the single
//! contract they all satisfy: `search(query, k) -> Vec<Hit>` plus a batched
//! form, with the byte-identity guarantee that every implementation returns
//! exactly the bytes of the sequential reference for the same index and
//! options. Callers (experiments, the replay harness, the top-level
//! [`DeepWebSystem`]) program against `&dyn SearchService` and stop caring
//! which tier is behind it.
//!
//! [`SearchRequest`] is the companion builder that replaces the loose
//! `(query, k, SearchOptions)` argument tuples at call sites.
//!
//! [`QueryBroker`]: crate::broker::QueryBroker
//! [`ClusterServer`]: crate::cluster::ClusterServer
//! [`DeepWebSystem`]: ../../deepweb_core/struct.DeepWebSystem.html

use crate::broker::QueryBroker;
use crate::cluster::ClusterServer;
use crate::index::SearchIndex;
use crate::searcher::{search, Bm25Params, Hit, PruningMode, SearchOptions};

/// A query-serving tier: anything that can answer `(query, k)` with the
/// engine's canonical top-k bytes.
///
/// The contract is stronger than the signature: for a fixed index and
/// [`SearchOptions`], every implementation must return hits byte-identical
/// to the sequential [`search`] oracle — regardless of worker count,
/// partition layout, result caching or pruning mode. That is what lets the
/// replay harness and the cluster equality tests treat implementations as
/// interchangeable trait objects.
pub trait SearchService: Sync {
    /// Top-`k` hits for one query.
    fn search(&self, query: &str, k: usize) -> Vec<Hit>;

    /// Top-`k` hits for each query of a batch. The default serves the batch
    /// sequentially; tiers with their own batch machinery override it.
    fn search_batch(&self, queries: &[String], k: usize) -> Vec<Vec<Hit>> {
        queries.iter().map(|q| self.search(q, k)).collect()
    }
}

/// The sequential tier: a borrowed index plus fixed options, serving via the
/// thread-local-scratch [`search`] kernel. Obtained from
/// [`SearchIndex::searcher`].
#[derive(Clone, Copy, Debug)]
pub struct IndexSearcher<'a> {
    index: &'a SearchIndex,
    opts: SearchOptions,
}

impl<'a> IndexSearcher<'a> {
    /// Wrap `index` with fixed serving options.
    pub fn new(index: &'a SearchIndex, opts: SearchOptions) -> Self {
        IndexSearcher { index, opts }
    }

    /// The index being served.
    pub fn index(&self) -> &'a SearchIndex {
        self.index
    }

    /// The options every query is served with.
    pub fn options(&self) -> SearchOptions {
        self.opts
    }
}

impl SearchService for IndexSearcher<'_> {
    fn search(&self, query: &str, k: usize) -> Vec<Hit> {
        search(self.index, query, k, self.opts)
    }
}

impl SearchService for QueryBroker<'_> {
    fn search(&self, query: &str, k: usize) -> Vec<Hit> {
        search(self.index(), query, k, self.options())
    }

    fn search_batch(&self, queries: &[String], k: usize) -> Vec<Vec<Hit>> {
        QueryBroker::search_batch(self, queries, k)
    }
}

impl SearchService for ClusterServer<'_> {
    fn search(&self, query: &str, k: usize) -> Vec<Hit> {
        ClusterServer::search(self, query, k)
    }

    fn search_batch(&self, queries: &[String], k: usize) -> Vec<Vec<Hit>> {
        ClusterServer::search_batch(self, queries, k)
    }
}

/// A self-contained query: text, result count and scoring options in one
/// value, built fluently instead of threaded through `(query, k, opts)`
/// tuples.
///
/// ```
/// use deepweb_index::{SearchIndex, SearchRequest, PruningMode};
/// let index = SearchIndex::new();
/// let req = SearchRequest::new("used ford focus")
///     .k(5)
///     .annotations(true)
///     .pruning(PruningMode::BlockMax);
/// let hits = req.run(&index);
/// assert!(hits.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct SearchRequest {
    query: String,
    k: usize,
    opts: SearchOptions,
}

impl SearchRequest {
    /// Default result count when [`SearchRequest::k`] is not called.
    pub const DEFAULT_K: usize = 10;

    /// A request for `query` with `DEFAULT_K` results and default options.
    pub fn new(query: impl Into<String>) -> Self {
        SearchRequest {
            query: query.into(),
            k: Self::DEFAULT_K,
            opts: SearchOptions::default(),
        }
    }

    /// Number of results to return.
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Replace the full option set.
    pub fn options(mut self, opts: SearchOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Enable or disable annotation-aware scoring.
    pub fn annotations(mut self, on: bool) -> Self {
        self.opts.use_annotations = on;
        self
    }

    /// Select the top-k evaluation strategy.
    pub fn pruning(mut self, mode: PruningMode) -> Self {
        self.opts.pruning = mode;
        self
    }

    /// Override the BM25 parameters.
    pub fn bm25(mut self, bm25: Bm25Params) -> Self {
        self.opts.bm25 = bm25;
        self
    }

    /// The query text.
    pub fn query(&self) -> &str {
        &self.query
    }

    /// The result count this request asks for.
    pub fn top_k(&self) -> usize {
        self.k
    }

    /// The scoring options this request carries.
    pub fn search_options(&self) -> SearchOptions {
        self.opts
    }

    /// Serve this request against `index` with the sequential kernel,
    /// honouring the request's own options.
    pub fn run(&self, index: &SearchIndex) -> Vec<Hit> {
        search(index, &self.query, self.k, self.opts)
    }

    /// Serve this request through any tier. The request's options are *not*
    /// applied — a service carries its own (that is its contract); only the
    /// query text and `k` travel.
    pub fn run_on(&self, service: &dyn SearchService) -> Vec<Hit> {
        service.search(&self.query, self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docstore::DocKind;
    use deepweb_common::Url;

    fn tiny_index() -> SearchIndex {
        let mut idx = SearchIndex::new();
        for (i, text) in ["honda civic mileage", "used ford focus", "honda accord"]
            .iter()
            .enumerate()
        {
            idx.add(
                Url::new("svc.sim", format!("/d{i}")),
                String::new(),
                (*text).into(),
                DocKind::Surface,
                None,
                vec![],
            );
        }
        idx
    }

    #[test]
    fn request_defaults_and_accessors() {
        let req = SearchRequest::new("honda").k(2).annotations(true);
        assert_eq!(req.query(), "honda");
        assert_eq!(req.top_k(), 2);
        assert!(req.search_options().use_annotations);
        assert_eq!(
            SearchRequest::new("x").top_k(),
            SearchRequest::DEFAULT_K,
            "k defaults"
        );
    }

    #[test]
    fn searcher_service_matches_sequential_oracle() {
        let idx = tiny_index();
        let opts = SearchOptions::default();
        let svc = IndexSearcher::new(&idx, opts);
        for q in ["honda", "ford focus", "", "zzz"] {
            assert_eq!(
                SearchService::search(&svc, q, 10),
                search(&idx, q, 10, opts),
                "q={q:?}"
            );
        }
        let batch: Vec<String> = ["honda", "used"].iter().map(|s| s.to_string()).collect();
        let by_batch = svc.search_batch(&batch, 10);
        for (q, hits) in batch.iter().zip(&by_batch) {
            assert_eq!(*hits, search(&idx, q, 10, opts));
        }
    }

    #[test]
    fn request_run_matches_run_on_index_searcher() {
        let idx = tiny_index();
        let req = SearchRequest::new("honda civic").k(3);
        let svc = IndexSearcher::new(&idx, req.search_options());
        assert_eq!(req.run(&idx), req.run_on(&svc));
    }
}
