//! One serving API over every tier (DESIGN.md §14).
//!
//! A query is answered by the sequential searcher, by the caching
//! [`ClusterServer`] (the library's batch path), by the freshness tier's
//! [`SegmentedSearcher`], and — for the benchmark package only — by the
//! multi-worker [`QueryBroker`]. [`SearchService`] is the single contract
//! they all satisfy, and their only spelling: `search(query, k) -> Vec<Hit>`
//! plus a batched form, with the byte-identity guarantee that every
//! implementation returns exactly the bytes of the sequential reference for
//! the same index and options. Callers (experiments, the replay harness, the
//! top-level [`DeepWebSystem`]) program against `&dyn SearchService` and stop
//! caring which tier is behind it.
//!
//! A query is `(text, k)`; the scoring configuration is a [`SearchOptions`]
//! literal fixed when a tier is constructed. A caller that wants different
//! options for one query calls [`search`] with them.
//!
//! [`QueryBroker`]: crate::broker::QueryBroker
//! [`ClusterServer`]: crate::cluster::ClusterServer
//! [`SegmentedSearcher`]: crate::segments::SegmentedSearcher
//! [`DeepWebSystem`]: ../../deepweb_core/struct.DeepWebSystem.html

use crate::index::SearchIndex;
use crate::searcher::{search, Hit, SearchOptions};

/// A query-serving tier: anything that can answer `(query, k)` with the
/// engine's canonical top-k bytes.
///
/// The contract is stronger than the signature: for a fixed index and
/// [`SearchOptions`], every implementation must return hits byte-identical
/// to the sequential [`search`] oracle — regardless of worker count, result
/// caching or pruning mode. That is what lets the replay harness and the
/// cluster equality tests treat implementations as interchangeable trait
/// objects.
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
    pub(crate) index: &'a SearchIndex,
    pub(crate) opts: SearchOptions,
}

impl SearchService for IndexSearcher<'_> {
    fn search(&self, query: &str, k: usize) -> Vec<Hit> {
        search(self.index, query, k, self.opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docstore::BatchDoc;
    use deepweb_common::{ThreadPool, Url};

    fn tiny_index() -> SearchIndex {
        let mut idx = SearchIndex::new();
        let docs = ["honda civic mileage", "used ford focus", "honda accord"]
            .iter()
            .enumerate()
            .map(|(i, text)| BatchDoc::page(Url::new("svc.sim", format!("/d{i}")), "", text));
        idx.add_batch(&ThreadPool::new(1), docs.collect());
        idx
    }

    #[test]
    fn searcher_service_matches_sequential_oracle() {
        let idx = tiny_index();
        let opts = SearchOptions::default();
        let svc = idx.searcher(opts);
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
}
