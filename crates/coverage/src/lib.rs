//! # deepweb-coverage
//!
//! Coverage estimation for deep-web surfacing (paper §5.2): Lincoln–Petersen
//! (Chapman) and Chao1 estimators over capture/recapture record samples
//! drawn by random form probes, plus the paper's "with probability M%, more
//! than N% of the site's content has been exposed" statement form.

#![warn(missing_docs)]

pub mod capture;
pub mod probing;

pub use capture::{chao1, content_hash, coverage_statement, lincoln_petersen, CoverageStatement};
pub use probing::{coverage_of_surfacing, estimate_size, EstimationRun};
