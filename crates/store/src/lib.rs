//! # deepweb-store
//!
//! A small typed relational engine: the backing database of every simulated
//! deep-web site. Supports conjunctive selection (equality, inclusive ranges,
//! keyword containment), hash and B-tree secondary indexes and pagination.
//!
//! Substitutes for the production storage behind the sites the paper crawled
//! (DESIGN.md §2): form submissions compile to [`predicate::Conjunction`]s and
//! are executed here, so surfaced result pages reflect real selection
//! semantics and coverage is measurable against ground truth.

#![warn(missing_docs)]

pub mod exec;
pub mod index;
pub mod predicate;
pub mod schema;
pub mod table;
pub mod value;

pub use exec::{IndexedTable, Page};
pub use predicate::{Conjunction, Predicate};
pub use schema::{Column, Schema};
pub use table::Table;
pub use value::{Date, Value, ValueType};
