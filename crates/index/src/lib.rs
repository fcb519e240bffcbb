//! # deepweb-index
//!
//! The search-engine substrate: an in-memory inverted index with BM25 top-k
//! retrieval, snippets, URL deduplication and (optionally) annotation-aware
//! scoring over the structured annotations attached to surfaced pages
//! (paper §5.1).
//!
//! Surfaced deep-web pages are inserted "like any other page" (paper §3.2);
//! the [`DocKind`] provenance tag exists only so experiments can
//! attribute impact back to forms.
//!
//! One spelling per thing: a query is `(text, k)` through [`search`] or any
//! [`SearchService`] tier, and a tier answers only through that trait; a
//! scoring configuration is a [`SearchOptions`] literal (BM25 runs at one
//! fixed `(k1, b)`) and a cluster's pool and cache a [`ClusterConfig`]
//! literal, checked by its `validate()` where it arrives from outside; every
//! tier scores a query with one call of
//! the one kernel over the whole index. A batch rides [`ClusterServer`]: a
//! result cache and a pool over that kernel (DESIGN.md §13).

#![warn(missing_docs)]
// Library code returns typed errors or degrades; it never panics
// (DESIGN.md §17). `clippy.toml` exempts unit tests.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub mod analysis;
mod broker;
mod cache;
mod cluster;
mod docstore;
mod index;
mod postings;
mod pruned;
mod searcher;
mod segments;
mod service;
mod snippet;
mod urls;
mod view;

pub use broker::QueryBroker;
pub use cache::{CacheConfig, CacheStats};
pub use cluster::{ClusterConfig, ClusterServer, ClusterStats};
pub use docstore::{Annotation, AnnotationColumn, BatchDoc, DocKind, DocStore};
pub use index::{IndexStats, SearchIndex};
pub use postings::{BlockPostings, Posting, Postings};
pub use pruned::PruningIndex;
pub use searcher::{search, search_with_scratch, Hit, PruningMode, QueryScratch, SearchOptions};
pub use segments::{Generation, SealedSegment, SegmentedIndex, SegmentedSearcher};
pub use service::{IndexSearcher, SearchService};
pub use snippet::snippet;
