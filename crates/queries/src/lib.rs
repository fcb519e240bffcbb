//! # deepweb-queries
//!
//! Search-query workloads over the synthetic web: a Zipf (power-law,
//! heavy-tailed) stream of head queries (popular topics also covered by the
//! surface web) and tail queries (quotes of specific deep-web records), plus
//! the impact-attribution machinery behind the paper's long-tail analysis
//! (§3.2).

#![warn(missing_docs)]

pub mod log;
pub mod workload;

pub use log::{replay, ImpactReport};
pub use workload::{generate_workload, Query, Workload, WorkloadConfig};
