//! # deepweb-core
//!
//! End-to-end orchestration of the reproduction: build the synthetic web,
//! run the surfacing pipeline, index the results, serve queries — plus the
//! experiment drivers (E1–E13) that regenerate every quantitative claim of
//! the paper (see DESIGN.md §5 and EXPERIMENTS.md).

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

pub mod experiments;
mod report;
mod system;

pub use report::TextTable;
pub use system::{quick_config, DeepWebSystem, RefreshOutcome, SystemConfig};
