//! # deepweb-vertical
//!
//! The virtual-integration baseline (paper §3.1): hand-built mediated
//! schemas per vertical, semantic mappings from form inputs to schema
//! elements, query routing, keyword reformulation, live form submission and
//! wrapper-based result extraction.
//!
//! Exists so the surfacing-vs-virtual comparison (E6) and the
//! fortuitous-query scenario (E13) run against a real implementation of the
//! other side, not a strawman.

#![warn(missing_docs)]

mod engine;
mod mediated;
mod sources;

pub use engine::{QueryStats, VerticalEngine, VerticalHit};
pub use sources::{register_sources, InputMapping, Source, SourceRegistry};
