//! # deepweb-coverage
//!
//! Coverage estimation for deep-web surfacing (paper §5.2): the
//! Lincoln–Petersen (Chapman) estimator over capture/recapture record
//! samples drawn by random form probes, plus the paper's "with probability
//! M%, more than N% of the site's content has been exposed" statement form.

#![warn(missing_docs)]

mod capture;
mod probing;

pub use capture::{content_hash, CoverageStatement};
pub use probing::{coverage_of_surfacing, estimate_size, EstimationRun};
