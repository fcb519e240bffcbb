//! A pool over queries (DESIGN.md §10): a [`QueryBroker`] fans a batch
//! across the self-scheduling pool, each worker running the sequential scoring
//! kernel on its own reusable [`QueryScratch`] (one scratch per *worker*, not
//! per query). Only *which thread* runs a query varies, and results are
//! reassembled in batch order, so a batch is byte-identical to calling
//! [`search`] per query at any worker count.
//!
//! The library serves batches through [`ClusterServer`], which does the same
//! plus the result cache; nothing in it calls the broker. It stays only for
//! the benchmark package's `TierKind::Broker`, and goes with it (ROADMAP).
//!
//! [`search`]: crate::searcher::search
//! [`ClusterServer`]: crate::cluster::ClusterServer

use crate::index::SearchIndex;
use crate::searcher::{search, search_with_scratch, Hit, QueryScratch, SearchOptions};
use crate::service::SearchService;
use deepweb_common::ThreadPool;

/// A concurrent query-serving front end over one [`SearchIndex`]. `Sync`:
/// the index is immutable at serve time and the pool is scoped per call.
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
}

impl SearchService for QueryBroker<'_> {
    fn search(&self, query: &str, k: usize) -> Vec<Hit> {
        search(self.index, query, k, self.opts)
    }

    /// Each worker runs the sequential scoring kernel against its own
    /// reusable [`QueryScratch`], so the result is byte-identical to calling
    /// [`search`] per query — at any worker count — while scratch allocation
    /// stays per-worker, not per-query.
    fn search_batch(&self, queries: &[String], k: usize) -> Vec<Vec<Hit>> {
        self.pool
            .map_indices_init(queries.len(), QueryScratch::new, |scratch, qi| {
                let query = queries.get(qi).map_or("", String::as_str);
                search_with_scratch(self.index, query, k, self.opts, scratch)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docstore::BatchDoc;
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
        let docs =
            docs.map(|(host, title, text)| BatchDoc::page(Url::new(host, "/p"), title, text));
        idx.add_batch(&ThreadPool::new(1), docs.into());
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
        let docs = vec![
            BatchDoc::surfaced(
                Url::new("a.sim", "/1"),
                "honda civics",
                "1993 honda civic mentions the ford focus",
                &[("make", "honda")],
            ),
            BatchDoc::surfaced(
                Url::new("b.sim", "/2"),
                "ford focus",
                "used ford focus 1993",
                &[("make", "ford")],
            ),
        ];
        idx.add_batch(&ThreadPool::new(1), docs);
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
