//! # deepweb-index
//!
//! The search-engine substrate: an in-memory inverted index with BM25 top-k
//! retrieval, snippets, URL deduplication and (optionally) annotation-aware
//! scoring over the structured annotations attached to surfaced pages
//! (paper §5.1).
//!
//! Surfaced deep-web pages are inserted "like any other page" (paper §3.2);
//! the [`docstore::DocKind`] provenance tag exists only so experiments can
//! attribute impact back to forms.
//!
//! One spelling per thing: a query is `(text, k)` through [`search`] or any
//! [`SearchService`] tier, and a tier answers only through that trait; a
//! scoring configuration is a [`SearchOptions`] literal and a cluster's pool
//! and cache a [`ClusterConfig`] literal, each checked by its `validate()`
//! where it arrives from outside; every tier scores a query with one call of
//! the one kernel over the whole index. A batch rides [`ClusterServer`]: a
//! result cache and a pool over that kernel (DESIGN.md §13).

#![warn(missing_docs)]

pub mod analysis;
pub mod broker;
pub mod cache;
pub mod cluster;
pub mod docstore;
pub mod index;
pub mod postings;
pub mod pruned;
pub mod searcher;
pub mod segments;
pub mod service;
pub mod snippet;
mod view;

pub use broker::QueryBroker;
pub use cache::{CacheConfig, CacheStats, ResultCache};
pub use cluster::{ClusterConfig, ClusterServer, ClusterStats};
pub use docstore::{Annotation, AnnotationIds, DocKind, DocStore, StoredDoc};
pub use index::{BatchDoc, IndexStats, SearchIndex};
pub use postings::{BlockPostings, Posting, PostingBlock, Postings, POSTINGS_BLOCK_SIZE};
pub use pruned::PruningIndex;
pub use searcher::{
    search, search_with_scratch, Bm25Params, Hit, PruningMode, QueryScratch, SearchOptions,
};
pub use segments::{Generation, SealedSegment, SegmentedIndex, SegmentedSearcher};
pub use service::{IndexSearcher, SearchService};
pub use snippet::snippet;
