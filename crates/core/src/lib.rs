//! # deepweb-core
//!
//! End-to-end orchestration of the reproduction: build the synthetic web,
//! run the surfacing pipeline, index the results, serve queries — plus the
//! experiment drivers (E1–E13) that regenerate every quantitative claim of
//! the paper (see DESIGN.md §5 and EXPERIMENTS.md).

#![warn(missing_docs)]

pub mod experiments;
mod report;
mod system;

pub use report::TextTable;
pub use system::{quick_config, DeepWebSystem, RefreshOutcome, SystemConfig};
