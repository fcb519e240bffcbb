//! Cluster-scale serving tier (DESIGN.md §13): a [`ClusterServer`] is a
//! signature-keyed [`ResultCache`] and a worker pool in front of the one
//! scoring kernel — what carries the paper's ">1000 queries per second for
//! millions of users" serving shape (§3.2), built determinism-first.
//!
//! The layering:
//!
//! - **Resolve once.** The server analyses a query and resolves its
//!   distinct terms to the [`TermId`] signature a single time; the kernel
//!   and the cache both consume that signature. No layer re-tokenises.
//! - **A query is one kernel call.** A cache miss is scored over the whole
//!   index in one call on the serving thread's scratch — the sequential
//!   [`search`] itself, so the bytes cannot differ. A single query and a
//!   batch worker's query take the same path; a batch spreads its queries,
//!   not their doc ranges, over the pool. (Cutting one query into doc ranges
//!   scored in parallel gives the same bytes but more work: each range warms
//!   its own block-max threshold from `-∞`.)
//! - **The cache can only short-circuit.** A hit returns a stored value that
//!   was itself computed by the deterministic kernel for the same
//!   `(signature, k)`, so hit-vs-miss is unobservable in the results. Under
//!   concurrent batches the hit *counters* may vary (two workers can race
//!   the same cold signature); the results never do.
//!
//! [`search`]: crate::searcher::search
//! [`TermId`]: deepweb_common::ids::TermId

use crate::cache::{CacheConfig, CacheStats, ResultCache};
use crate::index::SearchIndex;
use crate::searcher::{top_k, with_thread_scratch, Hit, QueryScratch, SearchOptions};
use crate::service::SearchService;
use crate::view::IndexView;
use deepweb_common::{Error, ThreadPool};
use std::sync::atomic::{AtomicU64, Ordering};

/// Serving knobs of a [`ClusterServer`]: the pool a batch is spread over and
/// the result cache. The other three fields select nothing.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Nothing reads it: a query is one kernel call over the whole index.
    /// Kept only for the benchmark package's configuration literal; goes when
    /// that literal drops it (ROADMAP).
    pub partitions: usize,
    /// Nothing reads it: there is one index on one pool, so nothing to route
    /// between. Kept only for the benchmark package's configuration literal;
    /// goes when that literal drops it (ROADMAP).
    pub replicas: usize,
    /// Worker threads a batch is spread over (0 = auto).
    pub workers: usize,
    /// Result cache; `None` serves every query through the kernel.
    pub cache: Option<CacheConfig>,
    /// Nothing reads it: every query is admitted and served. Kept only for
    /// the benchmark package's configuration literal; goes when that literal
    /// drops it (ROADMAP).
    pub max_in_flight: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            partitions: 1,
            replicas: 1,
            workers: 0,
            cache: Some(CacheConfig::default()),
            max_in_flight: 0,
        }
    }
}

impl ClusterConfig {
    /// Reject a configuration that would serve differently from what it
    /// says: a zero-capacity cache is a cache that always misses. A front end
    /// that takes a configuration from outside calls this first.
    pub fn validate(&self) -> deepweb_common::Result<()> {
        if self.cache.is_some_and(|cache| cache.capacity == 0) {
            return Err(Error::Config(
                "cache capacity must be ≥ 1 (use `cache: None` to disable)".into(),
            ));
        }
        Ok(())
    }
}

/// Snapshot of a cluster's serving counters.
#[derive(Clone, Debug)]
pub struct ClusterStats {
    /// Queries served (single + batched).
    pub queries: u64,
    /// Always 0: nothing spills. Kept only for the benchmark package's
    /// `index.cluster.spilled` row; goes when that row does (ROADMAP).
    pub spilled: u64,
    /// Always 0: nothing is shed. Kept only for the benchmark package's
    /// `index.cluster.shed` row; goes when that row does (ROADMAP).
    pub shed: u64,
    /// Cache counters, when a cache is configured.
    pub cache: Option<CacheStats>,
}

/// The cluster front end: a result cache and a worker pool over one
/// immutable [`SearchIndex`]. `Sync` — one instance can be hammered from many
/// OS threads.
#[derive(Debug)]
pub struct ClusterServer<'a> {
    index: &'a SearchIndex,
    opts: SearchOptions,
    pool: ThreadPool,
    cache: Option<ResultCache>,
    queries: AtomicU64,
}

impl<'a> ClusterServer<'a> {
    /// A cluster over `index` serving with `opts` scoring, configured by
    /// `cfg`.
    pub fn new(index: &'a SearchIndex, opts: SearchOptions, cfg: ClusterConfig) -> Self {
        ClusterServer {
            index,
            opts,
            pool: ThreadPool::new(cfg.workers),
            cache: cfg.cache.map(ResultCache::new),
            queries: AtomicU64::new(0),
        }
    }

    /// Serve one query on `scratch`: count it, resolve once, then probe the
    /// cache or make the one kernel call over the whole index and fill the
    /// cache. Both entry points call it, so they count and serve alike.
    fn serve(&self, query: &str, k: usize, scratch: &mut QueryScratch) -> Vec<Hit> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let view = IndexView::sealed(self.index);
        scratch.analyze(query);
        scratch.resolve(&view);
        if scratch.sig.is_empty() || k == 0 {
            // No known term (no postings anywhere, and the annotation pass
            // only adjusts touched docs) or nothing asked for: the
            // sequential reference returns nothing, so neither do we (and
            // nothing is cached).
            return Vec::new();
        }
        if let Some(hits) = self.cache.as_ref().and_then(|c| c.get(&scratch.sig, k)) {
            return hits;
        }
        // Moved out so the kernel can borrow the rest of the scratch;
        // restored before returning.
        let sig = std::mem::take(&mut scratch.sig);
        let hits = top_k(&view, &sig, k, self.opts, scratch);
        if let Some(cache) = &self.cache {
            cache.insert(&sig, k, &hits);
        }
        scratch.sig = sig;
        hits
    }

    /// Cache counters, when a cache is configured.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Snapshot of all serving counters.
    pub fn stats(&self) -> ClusterStats {
        ClusterStats {
            queries: self.queries.load(Ordering::Relaxed),
            spilled: 0,
            shed: 0,
            cache: self.cache_stats(),
        }
    }
}

impl SearchService for ClusterServer<'_> {
    /// One query on this thread's scratch. Byte-identical to sequential
    /// [`search`](crate::searcher::search) at any configuration.
    fn search(&self, query: &str, k: usize) -> Vec<Hit> {
        with_thread_scratch(|scratch| self.serve(query, k, scratch))
    }

    /// A batch spread over the pool, one scratch per worker, each query
    /// served as [`SearchService::search`] serves it. Results come back in
    /// batch order, byte-identical to per-query sequential
    /// [`search`](crate::searcher::search) at any worker/cache configuration.
    fn search_batch(&self, queries: &[String], k: usize) -> Vec<Vec<Hit>> {
        self.pool
            .map_indices_init(queries.len(), QueryScratch::new, |scratch, qi| {
                self.serve(queries.get(qi).map_or("", String::as_str), k, scratch)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docstore::BatchDoc;
    use crate::searcher::search;
    use deepweb_common::Url;

    fn build() -> SearchIndex {
        let mut idx = SearchIndex::new();
        let docs = [
            ("honda civics", "1993 honda civic great mileage"),
            ("ford focus listings", "used ford focus 1993 low price"),
            ("cooking blog", "recipes and stories and ford trivia"),
            ("car digest", "honda accord versus ford focus review"),
            (
                "classifieds",
                "used honda civic and used ford focus listings",
            ),
        ];
        let docs = docs.iter().enumerate().map(|(i, (title, text))| {
            BatchDoc::page(Url::new("x.sim", format!("/d{i}")), title, text)
        });
        idx.add_batch(&ThreadPool::new(1), docs.collect());
        idx
    }

    const QUERIES: [&str; 7] = [
        "honda civic",
        "used ford focus 1993",
        "recipes",
        "",
        "zzz nothing",
        "ford honda review",
        "the of and",
    ];

    #[test]
    fn cluster_matches_sequential_across_configs() {
        let idx = build();
        let opts = SearchOptions::default();
        let expected: Vec<Vec<Hit>> = QUERIES.iter().map(|q| search(&idx, q, 3, opts)).collect();
        for workers in [1usize, 2, 4] {
            for cache in [None, Some(CacheConfig::default())] {
                let cluster = ClusterServer::new(
                    &idx,
                    opts,
                    ClusterConfig {
                        workers,
                        cache,
                        ..Default::default()
                    },
                );
                let on = cache.is_some();
                for (q, want) in QUERIES.iter().zip(&expected) {
                    assert_eq!(
                        &cluster.search(q, 3),
                        want,
                        "w={workers} cache={on} q={q:?}"
                    );
                    // Again: the second pass may hit the cache and must not
                    // change a byte.
                    assert_eq!(
                        &cluster.search(q, 3),
                        want,
                        "w={workers} cache={on} q={q:?} (rerun)"
                    );
                }
                let batch: Vec<String> = QUERIES.iter().map(|s| s.to_string()).collect();
                assert_eq!(
                    cluster.search_batch(&batch, 3),
                    expected,
                    "w={workers} cache={on}"
                );
            }
        }
    }

    /// The same stream served singly and as one batch counts every query
    /// once at any worker count — including queries that analyse to no
    /// terms, resolve to no known term, or ask for `k == 0` — and nothing is
    /// ever spilled or shed.
    #[test]
    fn single_and_batch_entry_points_count_alike() {
        let idx = build();
        let batch: Vec<String> = QUERIES.iter().map(|s| s.to_string()).collect();
        for k in [0usize, 3] {
            for workers in [1usize, 3] {
                let cfg = ClusterConfig {
                    workers,
                    cache: None,
                    ..Default::default()
                };
                let singly = ClusterServer::new(&idx, SearchOptions::default(), cfg);
                for q in &batch {
                    singly.search(q, k);
                }
                let batched = ClusterServer::new(&idx, SearchOptions::default(), cfg);
                batched.search_batch(&batch, k);
                for stats in [singly.stats(), batched.stats()] {
                    assert_eq!(stats.queries, batch.len() as u64, "k={k} w={workers}");
                    assert_eq!((stats.spilled, stats.shed), (0, 0), "k={k} w={workers}");
                }
            }
        }
    }

    /// Two docs, one term each, identical tf and doc length: their BM25
    /// scores are exactly equal. The cluster prefers the lower doc id at
    /// every k, like `search()`: the heap eviction tie-break agrees with the
    /// final sort's.
    #[test]
    fn top_k_ties_break_by_doc_id() {
        let mut idx = SearchIndex::new();
        let docs = [("a.sim", "alpha"), ("b.sim", "bravo")]
            .map(|(host, text)| BatchDoc::page(Url::new(host, "/1"), "", text));
        idx.add_batch(&ThreadPool::new(1), docs.into());
        let opts = SearchOptions::default();
        let cluster = ClusterServer::new(
            &idx,
            opts,
            ClusterConfig {
                cache: None,
                ..Default::default()
            },
        );
        let q = "alpha bravo";
        let full = search(&idx, q, 10, opts);
        assert_eq!(full.len(), 2);
        assert_eq!(full[0].score, full[1].score, "scores must tie exactly");
        assert_eq!(full[0].doc.0, 0, "tie breaks to the lower doc id");
        assert_eq!(cluster.search(q, 10), full);
        assert_eq!(search(&idx, q, 1, opts), vec![full[0]]);
        assert_eq!(cluster.search(q, 1), vec![full[0]]);
    }

    #[test]
    fn cache_serves_repeats_and_counts_hits() {
        let idx = build();
        let cluster = ClusterServer::new(
            &idx,
            SearchOptions::default(),
            ClusterConfig {
                workers: 1,
                cache: Some(CacheConfig::with_capacity(64)),
                ..Default::default()
            },
        );
        let want = search(&idx, "honda civic", 5, SearchOptions::default());
        assert_eq!(cluster.search("honda civic", 5), want);
        assert_eq!(cluster.search("honda civic", 5), want);
        // Same signature, different surface form: still a hit.
        assert_eq!(
            cluster.search("HONDA honda civic", 5),
            want,
            "signature-equal query must serve the cached bytes"
        );
        let cache = cluster.cache_stats().unwrap();
        assert_eq!(cache.hits, 2);
        assert_eq!(cache.misses, 1);
    }
}
