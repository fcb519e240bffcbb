//! # deepweb-surfacer
//!
//! The paper's primary contribution: deep-web surfacing. Crawler-side form
//! modelling (with a JS-dependency emulator), iterative-probing keyword
//! selection for search boxes, typed-input recognition, correlated-input
//! detection (ranges, database selection), query-template search with the
//! informativeness test, indexability-aware template selection, and URL
//! generation — composed into an end-to-end pipeline, [`crawl_and_surface`].
//!
//! Everything operates through [`deepweb_webworld::Fetcher`]: one URL in,
//! HTML out — structurally identical to crawling the real web.

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

pub mod correlate;
mod fetchpolicy;
mod formmodel;
mod hardening;
mod indexability;
pub mod keywords;
mod pipeline;
pub mod probe;
mod resurface;
mod template;
pub mod typed;
mod urlgen;

pub use fetchpolicy::{fetch_with_retries, MAX_RETRIES};
pub use formmodel::{analyze_page, forms_in, search_form, CrawledForm, CrawledInput, DependentMap};
pub use hardening::ThreatKind;
pub use indexability::{select_templates, IndexabilityConfig};
pub use keywords::{iterative_probing, KeywordConfig};
pub use pipeline::{
    crawl_and_surface, CrawlStats, DocOrigin, HostOutcome, HostStatus, ProducedDoc,
    RobustnessReport, SiteReport, SurfacerConfig, SurfacingOutcome,
};
pub use probe::{ProbeOutcome, Prober};
pub use resurface::{resurface_host, ReprobeScheduler};
pub use template::{search_templates, Slot, Template, TemplateConfig, TemplateEval};
pub use typed::{classify_typed, TypeClass, TypedValueLibrary};
pub use urlgen::{generate_urls, GeneratedUrl};

/// What the unit-test modules share: a default-configured world and the
/// crawler's view of one site's search form.
#[cfg(test)]
pub(crate) mod fixtures {
    use crate::formmodel::{search_form, CrawledForm};
    use deepweb_webworld::{generate, WebConfig, World};

    /// A default world of `num_sites` sites.
    pub(crate) fn world(num_sites: usize) -> World {
        generate(&WebConfig {
            num_sites,
            ..WebConfig::default()
        })
    }

    /// The search form of `host`, as the crawler models it.
    pub(crate) fn form_of(w: &World, host: &str) -> CrawledForm {
        search_form(&w.server, host).expect("every generated site serves a search form")
    }
}
