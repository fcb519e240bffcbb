//! # deepweb
//!
//! A reproduction of *Harnessing the Deep Web: Present and Future*
//! (Madhavan, Afanasiev, Antova, Halevy — CIDR 2009) as a Rust workspace:
//! deep-web surfacing (form analysis, iterative probing, query templates,
//! correlated inputs, indexability), a virtual-integration baseline, a
//! search-engine substrate with a cluster serving tier (a result cache and
//! a worker pool in front of one kernel call per query — every
//! configuration byte-identical to sequential search), block-max pruned
//! top-k behind one unified `SearchService` API (every
//! tier — sequential, cluster, freshness — is the same trait object, a query
//! is `(text, k)`, a configuration is a `SearchOptions` / `ClusterConfig`
//! literal, and `PruningMode::BlockMax`
//! returns the exhaustive kernel's exact bytes while skipping
//! provably-losing doc regions of any query whose terms hold more than
//! 8 192 postings, and folding the shorter ones, where skipping does not
//! pay), WebTables-style semantic
//! services, record extraction and coverage estimation — all over a
//! deterministic synthetic web. See `DESIGN.md` for the system inventory
//! and `EXPERIMENTS.md` for the paper-vs-measured record.
//!
//! This crate is the facade: it re-exports every subsystem crate.

#![warn(missing_docs)]

pub use deepweb_common as common;
pub use deepweb_core as core;
pub use deepweb_coverage as coverage;
pub use deepweb_extract as extract;
pub use deepweb_html as html;
pub use deepweb_index as index;
pub use deepweb_queries as queries;
pub use deepweb_store as store;
pub use deepweb_surfacer as surfacer;
pub use deepweb_tables as tables;
pub use deepweb_vertical as vertical;
pub use deepweb_webworld as webworld;

pub use deepweb_core::{quick_config, DeepWebSystem, RefreshOutcome, SystemConfig};
