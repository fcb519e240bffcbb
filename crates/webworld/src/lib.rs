//! # deepweb-webworld
//!
//! The synthetic web: deterministic generation of deep-web sites (HTML forms
//! over relational backends), a surface web (SEO'd popular pages, data-table
//! pages, a directory hub), an HTTP-like server with per-host load
//! accounting, and full ground truth for every experiment.
//!
//! This crate is the substitution for the live web the paper crawled
//! (DESIGN.md §2): crawlers see only URLs and HTML; the experiments also get
//! [`GroundTruth`] to score against.

#![warn(missing_docs)]

mod datagen;
mod faults;
pub mod fetch;
mod genweb;
mod render;
mod server;
mod site;
pub mod surface;
pub mod vocab;

pub use faults::{FaultConfig, FaultKind, FaultStats, FaultyFetcher};
pub use fetch::{http_error, Fetcher, Response};
pub use genweb::{generate, grow_site, GroundTruth, InputTruth, SiteTruth, WebConfig, World};
pub use server::{SurfacePage, WebServer};
pub use site::{
    Binding, CompiledQuery, DependentOptions, DomainKind, FormSpec, InputSpec, RenderStyle, Site,
};
