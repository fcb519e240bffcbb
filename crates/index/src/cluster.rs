//! Cluster-scale serving tier (DESIGN.md §13): a [`ClusterServer`] routes
//! queries over a replica group with deterministic admission control and
//! fronts the one scoring kernel with a signature-keyed [`ResultCache`] — the
//! paper's ">1000 queries per second for millions of users" serving shape
//! (§3.2), still built determinism-first.
//!
//! The layering:
//!
//! - **Resolve once.** The server analyses a query and resolves its
//!   distinct terms to the [`TermId`] signature a single time; the kernel,
//!   the replica router, and the cache all consume that signature. No layer
//!   re-tokenises.
//! - **A query is one kernel call.** A cache miss is scored over the whole
//!   index in one call on the serving thread's scratch — the sequential
//!   [`search`] itself, so the bytes cannot differ. A single query and a
//!   batch worker's query take the same path; a batch spreads its queries,
//!   not their doc ranges, over the pool. (Cutting one query into doc ranges
//!   scored in parallel gives the same bytes but more work: each range warms
//!   its own block-max threshold from `-∞`.)
//! - **Replicas are an accounting model.** In-process replicas share the one
//!   immutable index, so routing cannot change results; what the replica
//!   layer adds is the *deterministic* routing and admission stream: replica
//!   `fxhash64(sig) % replicas`, bounded in-flight per replica within a
//!   batch (a burst), deterministic spill to the next replica, deterministic
//!   shed order (batch order) when every replica is saturated. Shed queries
//!   are still answered — a production front end would return a retryable
//!   error; here the byte-identity contract wins and the stats stream is the
//!   observable.
//! - **The cache can only short-circuit.** A hit returns a stored value that
//!   was itself computed by the deterministic kernel for the same
//!   `(signature, k)`, so hit-vs-miss is unobservable in the results. Under
//!   concurrent batches the hit *counters* may vary (two workers can race
//!   the same cold signature); the results never do.
//!
//! [`search`]: crate::searcher::search

use crate::cache::{CacheConfig, CacheStats, ResultCache};
use crate::index::SearchIndex;
use crate::searcher::{top_k_range, with_thread_scratch, Hit, QueryScratch, SearchOptions};
use crate::service::SearchService;
use crate::view::{doc_bound, IndexView};
use deepweb_common::fxhash::fxhash64;
use deepweb_common::ids::TermId;
use deepweb_common::{Error, ThreadPool};
use std::sync::atomic::{AtomicU64, Ordering};

/// Cluster topology and serving knobs.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Nothing reads it: a query is one kernel call over the whole index.
    /// It remains only so that existing configuration literals compile.
    pub partitions: usize,
    /// Replica groups for routing/admission accounting (clamped to ≥ 1).
    pub replicas: usize,
    /// Worker threads a batch is spread over (0 = auto).
    pub workers: usize,
    /// Result cache; `None` serves every query through the kernel.
    pub cache: Option<CacheConfig>,
    /// Admission bound: queries one replica accepts from a single batch
    /// burst before spilling to the next replica (0 = unbounded).
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
    /// Reject degenerate topologies. [`ClusterServer::new`] clamps silently
    /// (a zero replica count serves, just as one replica); a front end that
    /// takes a topology from outside calls this first, so a typo'd config
    /// surfaces as an error instead of a quietly different cluster shape —
    /// or, for a zero-capacity cache, a cache that always misses.
    pub fn validate(&self) -> deepweb_common::Result<()> {
        if self.replicas == 0 {
            return Err(Error::Config("cluster needs at least one replica".into()));
        }
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
    /// Queries each replica admitted, by replica index.
    pub routed: Vec<u64>,
    /// Queries admitted by a replica other than their routed one.
    pub spilled: u64,
    /// Queries that found every replica saturated (still answered; see
    /// module docs).
    pub shed: u64,
    /// Replica count.
    pub replicas: usize,
    /// Cache counters, when a cache is configured.
    pub cache: Option<CacheStats>,
}

/// The cluster front end: replica routing + result cache over one immutable
/// [`SearchIndex`]. `Sync` — one instance can be hammered from many OS
/// threads, like the broker.
#[derive(Debug)]
pub struct ClusterServer<'a> {
    index: &'a SearchIndex,
    opts: SearchOptions,
    pool: ThreadPool,
    cache: Option<ResultCache>,
    replicas: usize,
    max_in_flight: usize,
    queries: AtomicU64,
    routed: Vec<AtomicU64>,
    spilled: AtomicU64,
    shed: AtomicU64,
}

impl<'a> ClusterServer<'a> {
    /// Lay out a cluster over `index` according to `cfg`.
    pub fn new(index: &'a SearchIndex, opts: SearchOptions, cfg: ClusterConfig) -> Self {
        let replicas = cfg.replicas.max(1);
        ClusterServer {
            index,
            opts,
            pool: ThreadPool::new(cfg.workers),
            cache: cfg.cache.map(ResultCache::new),
            replicas,
            max_in_flight: cfg.max_in_flight,
            queries: AtomicU64::new(0),
            routed: (0..replicas).map(|_| AtomicU64::new(0)).collect(),
            spilled: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// The replica a signature routes to — a pure function of the signature,
    /// so one query always lands on one replica (cache/session affinity).
    fn route(&self, sig: &[TermId]) -> usize {
        (fxhash64(sig) % self.replicas as u64) as usize
    }

    /// Serve one query on this thread's scratch: resolve once, count it as
    /// a burst of one (always admitted by its routed replica, so the
    /// counters do not depend on which entry point served a stream), then
    /// probe the cache or make the one kernel call. Byte-identical to
    /// sequential [`search`] at any configuration.
    ///
    /// [`search`]: crate::searcher::search
    pub fn search(&self, query: &str, k: usize) -> Vec<Hit> {
        with_thread_scratch(|scratch| {
            scratch.analyze(query);
            scratch.resolve(&IndexView::sealed(self.index));
            // Moved out so the kernel can borrow the rest of the scratch;
            // restored before returning.
            let sig = std::mem::take(&mut scratch.sig);
            let r0 = self.route(&sig);
            self.count(r0, Some(r0));
            let hits = self.serve(&sig, k, scratch);
            scratch.sig = sig;
            hits
        })
    }

    /// Count one query routed to replica `r0` and admitted by `admitted`
    /// (`None` = shed) — the one place the serving counters are bumped, for
    /// single queries and batches alike.
    fn count(&self, r0: usize, admitted: Option<usize>) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        match admitted {
            Some(r) => {
                self.routed[r].fetch_add(1, Ordering::Relaxed);
                if r != r0 {
                    self.spilled.fetch_add(1, Ordering::Relaxed);
                }
            }
            None => {
                self.shed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Serve one resolved signature on `scratch`: guard, cache probe, one
    /// kernel call over the whole index, cache fill. Both entry points call
    /// it.
    fn serve(&self, sig: &[TermId], k: usize, scratch: &mut QueryScratch) -> Vec<Hit> {
        if sig.is_empty() || k == 0 {
            // No known term (no postings anywhere, and the annotation pass
            // only adjusts touched docs) or nothing asked for: the
            // sequential reference returns nothing, so neither do we (and
            // nothing is cached).
            return Vec::new();
        }
        if let Some(cache) = &self.cache {
            if let Some(hits) = cache.get(sig, k) {
                return hits;
            }
        }
        let view = IndexView::sealed(self.index);
        let hits = top_k_range(
            &view,
            sig,
            k,
            self.opts,
            0,
            doc_bound(view.num_docs()),
            scratch,
        );
        if let Some(cache) = &self.cache {
            cache.insert(sig.to_vec(), k, hits.clone());
        }
        hits
    }

    /// Serve a batch: one sequential resolve/route/admission pass (the
    /// deterministic part), then parallel execution with one scratch per
    /// worker, each query served as [`ClusterServer::search`] serves it.
    /// Results come back in batch order and are byte-identical to per-query
    /// sequential [`search`] at any worker/replica/cache configuration.
    ///
    /// [`search`]: crate::searcher::search
    pub fn search_batch(&self, queries: &[String], k: usize) -> Vec<Vec<Hit>> {
        // Phase 1 — sequential, deterministic: signatures, routing,
        // admission. The admission model treats the batch as one burst:
        // replica in-flight counters only grow, a full routed replica spills
        // deterministically to the next, and when all are full the query is
        // shed (in batch order).
        let view = IndexView::sealed(self.index);
        let sigs: Vec<Vec<TermId>> = with_thread_scratch(|scratch| {
            queries
                .iter()
                .map(|q| {
                    scratch.analyze(q);
                    scratch.resolve(&view);
                    scratch.resolved_sig().to_vec()
                })
                .collect()
        });
        let cap = if self.max_in_flight == 0 {
            u64::MAX
        } else {
            self.max_in_flight as u64
        };
        let mut in_flight = vec![0u64; self.replicas];
        for sig in &sigs {
            let r0 = self.route(sig);
            let admitted = (0..self.replicas)
                .map(|off| (r0 + off) % self.replicas)
                .find(|&r| in_flight[r] < cap);
            if let Some(r) = admitted {
                in_flight[r] += 1;
            }
            self.count(r0, admitted);
        }

        // Phase 2 — parallel execution (shed queries included: the results
        // contract outranks the admission model; see module docs).
        self.pool
            .map_indices_init(queries.len(), QueryScratch::new, |scratch, qi| {
                self.serve(&sigs[qi], k, scratch)
            })
    }

    /// Cache counters, when a cache is configured.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Snapshot of all serving counters.
    pub fn stats(&self) -> ClusterStats {
        ClusterStats {
            queries: self.queries.load(Ordering::Relaxed),
            routed: self
                .routed
                .iter()
                .map(|r| r.load(Ordering::Relaxed))
                .collect(),
            spilled: self.spilled.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            replicas: self.replicas,
            cache: self.cache_stats(),
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docstore::DocKind;
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
        for (i, (title, text)) in docs.iter().enumerate() {
            idx.add(
                Url::new("x.sim", format!("/d{i}")),
                (*title).into(),
                (*text).into(),
                DocKind::Surface,
                None,
                vec![],
            );
        }
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
        for partitions in [1usize, 2, 3, 7, 12] {
            for cache in [None, Some(CacheConfig::default())] {
                let cluster = ClusterServer::new(
                    &idx,
                    opts,
                    ClusterConfig {
                        partitions,
                        replicas: 2,
                        workers: 2,
                        cache,
                        max_in_flight: 0,
                    },
                );
                for (q, want) in QUERIES.iter().zip(&expected) {
                    assert_eq!(&cluster.search(q, 3), want, "p={partitions} q={q:?}");
                    // Again: the second pass may hit the cache and must not
                    // change a byte.
                    assert_eq!(
                        &cluster.search(q, 3),
                        want,
                        "p={partitions} q={q:?} (rerun)"
                    );
                }
                let batch: Vec<String> = QUERIES.iter().map(|s| s.to_string()).collect();
                assert_eq!(cluster.search_batch(&batch, 3), expected, "p={partitions}");
            }
        }
    }

    #[test]
    fn routing_is_sticky_and_admission_deterministic() {
        let idx = build();
        let batch: Vec<String> = (0..40)
            .map(|i| QUERIES[i % QUERIES.len()].to_string())
            .collect();
        let run = || {
            let cluster = ClusterServer::new(
                &idx,
                SearchOptions::default(),
                ClusterConfig {
                    partitions: 3,
                    replicas: 3,
                    workers: 2,
                    cache: None,
                    max_in_flight: 4,
                },
            );
            let results = cluster.search_batch(&batch, 5);
            (results, cluster.stats())
        };
        let (results_a, stats_a) = run();
        let (results_b, stats_b) = run();
        assert_eq!(results_a, results_b, "results must be reproducible");
        assert_eq!(
            stats_a.routed, stats_b.routed,
            "routing must be deterministic"
        );
        assert_eq!(stats_a.spilled, stats_b.spilled);
        assert_eq!(stats_a.shed, stats_b.shed);
        // Burst of 40 into 3 replicas × 4 in-flight: 12 admitted, 28 shed.
        assert_eq!(stats_a.routed.iter().sum::<u64>(), 12);
        assert_eq!(stats_a.shed, 28);
        assert_eq!(stats_a.queries, 40);
        // Shed queries are still answered.
        assert_eq!(results_a.len(), batch.len());
    }

    /// The same stream served singly and as one batch bumps the same
    /// counters — including queries that analyse to no terms, resolve to no
    /// known term, or ask for `k == 0`.
    #[test]
    fn single_and_batch_entry_points_count_alike() {
        let idx = build();
        let batch: Vec<String> = QUERIES.iter().map(|s| s.to_string()).collect();
        for k in [0usize, 3] {
            let cfg = ClusterConfig {
                partitions: 2,
                replicas: 3,
                workers: 1,
                cache: None,
                max_in_flight: 0,
            };
            let singly = ClusterServer::new(&idx, SearchOptions::default(), cfg);
            for q in &batch {
                singly.search(q, k);
            }
            let batched = ClusterServer::new(&idx, SearchOptions::default(), cfg);
            batched.search_batch(&batch, k);
            let (a, b) = (singly.stats(), batched.stats());
            assert_eq!(a.queries, batch.len() as u64, "k={k}");
            assert_eq!(a.queries, b.queries, "k={k}");
            assert_eq!(a.routed, b.routed, "k={k}");
            assert_eq!((a.spilled, a.shed), (b.spilled, b.shed), "k={k}");
        }
    }

    /// Two docs, one term each, identical tf and doc length: their BM25
    /// scores are exactly equal, and a 2-partition cluster puts them in
    /// different partitions — so the tie is genuinely cross-partition. The
    /// merge prefers the lower doc id at every k, like `search()`: the heap
    /// eviction tie-break agrees with the final sort's.
    #[test]
    fn top_k_ties_across_partitions_break_by_doc_id() {
        let mut idx = SearchIndex::new();
        for (host, text) in [("a.sim", "alpha"), ("b.sim", "bravo")] {
            idx.add(
                Url::new(host, "/1"),
                String::new(),
                text.to_string(),
                DocKind::Surface,
                None,
                vec![],
            );
        }
        let opts = SearchOptions::default();
        let cluster = ClusterServer::new(
            &idx,
            opts,
            ClusterConfig {
                partitions: 2,
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
                partitions: 2,
                replicas: 1,
                workers: 1,
                cache: Some(CacheConfig::with_capacity(64)),
                max_in_flight: 0,
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
