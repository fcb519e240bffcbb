//! # deepweb-store
//!
//! A small typed relational engine: the backing database of every simulated
//! deep-web site. Supports conjunctive selection (equality, inclusive ranges,
//! keyword containment) and pagination. A selection scans the table in id
//! order; there are no indexes, because a site's table holds hundreds of
//! rows (`WebConfig::max_records` defaults to 800), not millions.
//!
//! Substitutes for the production storage behind the sites the paper crawled
//! (DESIGN.md §2): form submissions compile to [`Conjunction`]s and
//! are executed here, so surfaced result pages reflect real selection
//! semantics and coverage is measurable against ground truth.

#![warn(missing_docs)]

mod predicate;
mod schema;
mod table;
mod value;

pub use predicate::{Conjunction, Predicate};
pub use schema::{Column, Schema};
pub use table::{Page, Table};
pub use value::{Date, Value, ValueType};
