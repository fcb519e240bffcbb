//! Concurrent query serving (DESIGN.md §10): a [`QueryBroker`] is a pool
//! over queries — it fans a batch across the work-stealing pool, the paper's
//! ">1000 queries per second" serving path (§3.2), built determinism-first.
//!
//! Every worker runs the sequential scoring kernel itself on its share of
//! the batch, folding into its own reusable [`QueryScratch`] (one scratch per
//! *worker*, not per query — the allocation-free steady state); only *which
//! thread* runs a query varies, and results are reassembled in batch order,
//! so a batch is byte-identical to calling [`search`] per query at any worker
//! count. A single query is the sequential kernel.
//!
//! [`search`]: crate::searcher::search

use crate::index::SearchIndex;
use crate::searcher::{search, search_with_scratch, Hit, QueryScratch, SearchOptions};
use crate::service::SearchService;
use deepweb_common::ThreadPool;

/// A concurrent query-serving front end over one [`SearchIndex`].
///
/// The broker is `Sync`: one instance can be hammered from many OS threads
/// at once (the index is immutable at serve time and the pool is scoped per
/// call), which is exactly what the concurrency stress tests do.
#[derive(Clone, Copy, Debug)]
pub struct QueryBroker<'a> {
    index: &'a SearchIndex,
    pool: ThreadPool,
    opts: SearchOptions,
}

impl<'a> QueryBroker<'a> {
    /// A broker over `index` serving with `pool` workers and `opts` scoring.
    pub fn new(index: &'a SearchIndex, pool: ThreadPool, opts: SearchOptions) -> Self {
        QueryBroker { index, pool, opts }
    }

    /// Worker count of the serving pool.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Serve a batch of queries concurrently, one result list per query, in
    /// batch order. Each worker runs the sequential scoring kernel against
    /// its own reusable [`QueryScratch`], so the result is byte-identical to
    /// calling [`search`] per query — at any worker count — while scratch
    /// allocation stays per-worker, not per-query.
    pub fn search_batch(&self, queries: &[String], k: usize) -> Vec<Vec<Hit>> {
        self.pool
            .map_indices_init(queries.len(), QueryScratch::new, |scratch, qi| {
                search_with_scratch(self.index, &queries[qi], k, self.opts, scratch)
            })
    }
}

impl SearchService for QueryBroker<'_> {
    fn search(&self, query: &str, k: usize) -> Vec<Hit> {
        search(self.index, query, k, self.opts)
    }

    fn search_batch(&self, queries: &[String], k: usize) -> Vec<Vec<Hit>> {
        QueryBroker::search_batch(self, queries, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docstore::DocKind;
    use deepweb_common::Url;

    fn build() -> SearchIndex {
        let mut idx = SearchIndex::new();
        let docs = [
            ("a.sim", "honda civics", "1993 honda civic great mileage"),
            (
                "b.sim",
                "ford focus listings",
                "used ford focus 1993 low price",
            ),
            (
                "c.sim",
                "cooking blog",
                "recipes and stories and ford trivia",
            ),
            (
                "d.sim",
                "car digest",
                "honda accord versus ford focus review",
            ),
        ];
        for (host, title, text) in docs {
            idx.add(
                Url::new(host, "/p"),
                title.into(),
                text.into(),
                DocKind::Surface,
                None,
                vec![],
            );
        }
        idx
    }

    #[test]
    fn k_zero_batch_returns_empty_hit_lists() {
        let idx = build();
        let queries = vec!["honda civic".to_string(), String::new()];
        let broker = QueryBroker::new(&idx, ThreadPool::new(2), SearchOptions::default());
        assert_eq!(
            broker.search_batch(&queries, 0),
            vec![Vec::<Hit>::new(), Vec::new()]
        );
    }

    #[test]
    fn batch_matches_sequential_for_any_worker_count() {
        let idx = build();
        let queries: Vec<String> = [
            "honda civic",
            "used ford focus 1993",
            "recipes",
            "",
            "zzz nothing",
            "ford honda review",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let opts = SearchOptions::default();
        let expected: Vec<Vec<Hit>> = queries.iter().map(|q| search(&idx, q, 3, opts)).collect();
        for workers in [1, 2, 4, 8] {
            let broker = QueryBroker::new(&idx, ThreadPool::new(workers), opts);
            assert_eq!(broker.search_batch(&queries, 3), expected, "w={workers}");
        }
    }

    #[test]
    fn batch_respects_annotations() {
        let mut idx = SearchIndex::new();
        idx.add(
            Url::new("a.sim", "/1"),
            "honda civics".into(),
            "1993 honda civic mentions the ford focus".into(),
            DocKind::Surfaced,
            None,
            vec![crate::docstore::Annotation {
                key: "make".into(),
                value: "honda".into(),
            }],
        );
        idx.add(
            Url::new("b.sim", "/2"),
            "ford focus".into(),
            "used ford focus 1993".into(),
            DocKind::Surfaced,
            None,
            vec![crate::docstore::Annotation {
                key: "make".into(),
                value: "ford".into(),
            }],
        );
        let opts = SearchOptions {
            use_annotations: true,
            ..Default::default()
        };
        let broker = QueryBroker::new(&idx, ThreadPool::new(2), opts);
        let q = "used ford focus 1993";
        assert_eq!(
            broker.search_batch(&[q.to_string()], 10)[0],
            search(&idx, q, 10, opts)
        );
    }
}
