//! # deepweb-tables
//!
//! The WebTables / aggregate-structured-data line of paper §6: harvest HTML
//! tables and form schemas from a crawled web, filter for relational
//! quality, accumulate an attribute-correlation statistics database (ACSDb),
//! and serve the four semantic services the paper proposes — attribute
//! synonyms, attribute values, entity properties, and schema auto-complete.

#![warn(missing_docs)]

mod acsdb;
mod quality;
mod server;
mod services;

pub use acsdb::Acsdb;
pub use server::{HarvestStats, SemanticServer};
pub use services::{autocomplete, properties_of, synonyms, values_for};
