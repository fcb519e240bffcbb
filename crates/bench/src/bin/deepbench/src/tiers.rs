//! The one place a serving tier is constructed. Workloads ask for a tier by
//! kind and drive it through [`SearchService`] only, so a tier the library
//! drops is one variant and one match arm here, nothing in the workloads.

use deepweb_common::ThreadPool;
use deepweb_index::{
    CacheConfig, ClusterConfig, ClusterServer, ClusterStats, IndexSearcher, QueryBroker,
    SearchIndex, SearchOptions, SearchService, SegmentedIndex, SegmentedSearcher,
};

/// Which tier to stand up over a sealed index.
#[derive(Clone, Copy, Debug)]
pub enum TierKind {
    /// `SearchIndex::searcher`: one thread, no cache — the reference.
    Sequential,
    /// `QueryBroker` over a pool of `workers` (0 = one per core).
    Broker { workers: usize },
    /// `ClusterServer` with the given topology.
    Cluster(ClusterConfig),
}

/// The topology every cluster workload uses: 4 doc-range partitions, 2
/// replicas admitting 64 queries of a burst each, `workers` pool threads
/// (0 = one per core) and an optional result cache.
pub fn cluster_config(workers: usize, cache_capacity: Option<usize>) -> ClusterConfig {
    ClusterConfig {
        partitions: 4,
        replicas: 2,
        workers,
        cache: cache_capacity.map(CacheConfig::with_capacity),
        max_in_flight: 64,
    }
}

/// A constructed tier. Everything is served through [`Served::service`];
/// the concrete type is kept only so cluster counters can be read back.
pub enum Served<'a> {
    /// See [`TierKind::Sequential`].
    Sequential(IndexSearcher<'a>),
    /// See [`TierKind::Broker`].
    Broker(QueryBroker<'a>),
    /// See [`TierKind::Cluster`].
    Cluster(ClusterServer<'a>),
    /// The freshness tier's reader over base + pending segments.
    Segmented(SegmentedSearcher<'a>),
}

impl Served<'_> {
    /// The tier as the one serving API.
    pub fn service(&self) -> &dyn SearchService {
        match self {
            Served::Sequential(s) => s,
            Served::Broker(b) => b,
            Served::Cluster(c) => c,
            Served::Segmented(s) => s,
        }
    }

    /// Routing, admission and cache counters (cluster tier only).
    pub fn cluster_stats(&self) -> Option<ClusterStats> {
        match self {
            Served::Cluster(c) => Some(c.stats()),
            _ => None,
        }
    }

    /// Result-cache hits so far (0 for tiers without a cache).
    pub fn cache_hits(&self) -> u64 {
        match self {
            Served::Cluster(c) => c.cache_stats().map_or(0, |s| s.hits),
            _ => 0,
        }
    }
}

/// Stand up `kind` over a sealed `index`.
pub fn tier(index: &SearchIndex, opts: SearchOptions, kind: TierKind) -> Served<'_> {
    match kind {
        TierKind::Sequential => Served::Sequential(index.searcher(opts)),
        TierKind::Broker { workers } => {
            Served::Broker(QueryBroker::new(index, ThreadPool::new(workers), opts))
        }
        TierKind::Cluster(cfg) => Served::Cluster(ClusterServer::new(index, opts, cfg)),
    }
}

/// The freshness tier's reader.
pub fn segmented_tier(index: &SegmentedIndex, opts: SearchOptions) -> Served<'_> {
    Served::Segmented(index.searcher(opts))
}
