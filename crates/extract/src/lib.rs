//! # deepweb-extract
//!
//! Record extraction from surfaced deep-web pages (paper §5.1): a
//! form-aware extractor that exploits the known filled inputs, and the
//! generic page-scraper baseline it is compared against in E12.

#![warn(missing_docs)]

mod records;

pub use records::{extract_form_aware, extract_generic, field_prf, ExtractedRecord};
