//! # deepweb-html
//!
//! HTML both ways: a crawler-grade reader with form, table and text
//! extraction (the input side of surfacing), and an escaping page/form
//! builder used by the simulated sites (the output side).
//!
//! The reader is one pass with three consumers. The crate-private lexer in
//! [`tokenizer`] is the only copy of the grammar and borrows from the body;
//! the crate-private `walker` is the only copy of the recovery rules and
//! turns lexemes into balanced element events. On those events sit
//! [`PageFacts`] — title, first heading, anchors and visible text folded
//! without a tree, which is all a probe response is read for — and
//! [`Document`], the DOM-lite tree that [`extract_forms`] and
//! [`extract_tables`] model structure on and that `PageFacts` is tested
//! against. [`tokenizer::tokenize`] collects the lexemes as owned tokens.
//!
//! The invariant the rest of the workspace relies on: pages produced by
//! [`writer`] parse back losslessly through [`Document`], [`extract_forms`]
//! and [`extract_tables`].

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

mod dom;
mod facts;
mod forms;
mod tables;
pub mod tokenizer;
mod walker;
pub mod writer;

pub use dom::{Document, Node, Walk};
pub use facts::{visible_text, PageFacts};
pub use forms::{extract_forms, ExtractedForm, ExtractedInput, Method, WidgetKind};
pub use tables::{extract_tables, ExtractedTable};
pub use writer::{FormBuilder, PageBuilder};
