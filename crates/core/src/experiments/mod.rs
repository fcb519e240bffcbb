//! Experiment drivers, one per paper claim (DESIGN.md §5). Each returns
//! [`crate::report::TextTable`]s; [`ALL`] is the one registry the `report`
//! binary and the smoke test both walk.

pub mod e01_longtail;
pub mod e02_urlgen;
pub mod e03_ranges;
pub mod e04_typed;
pub mod e05_probing;
pub mod e06_surf_vs_virtual;
pub mod e07_dbselect;
pub mod e08_indexability;
pub mod e09_coverage;
pub mod e10_semantics;
pub mod e11_annotations;
pub mod e12_extraction;
pub mod e13_scenarios;

use crate::report::TextTable;
use deepweb_common::text::DfTable;
use deepweb_common::{FxHashMap, Url};
use deepweb_webworld::{Fetcher, World};

/// Every experiment driver, as `(id, run)` in paper order.
#[expect(
    clippy::type_complexity,
    reason = "the table's type is spelled once, here; an alias would only move it"
)]
pub const ALL: [(&str, fn(Scale) -> Vec<TextTable>); 13] = [
    ("e01", |s| e01_longtail::run(s).0),
    ("e02", |s| e02_urlgen::run(s).0),
    ("e03", |s| e03_ranges::run(s).0),
    ("e04", |s| e04_typed::run(s).0),
    ("e05", |s| e05_probing::run(s).0),
    ("e06", |s| e06_surf_vs_virtual::run(s).0),
    ("e07", |s| e07_dbselect::run(s).0),
    ("e08", |s| e08_indexability::run(s).0),
    ("e09", |s| e09_coverage::run(s).0),
    ("e10", |s| e10_semantics::run(s).0),
    ("e11", |s| e11_annotations::run(s).0),
    ("e12", |s| e12_extraction::run(s).0),
    ("e13", |s| e13_scenarios::run(s).0),
];

/// The "already indexed" web of the keyword experiments (E5, E7): a
/// background DF table over every site's home page, and each home page's
/// visible text by host.
pub(crate) fn home_pages(w: &World) -> (DfTable, FxHashMap<String, String>) {
    let mut background = DfTable::new();
    let mut home_text = FxHashMap::default();
    for t in &w.truth.sites {
        if let Ok(resp) = w.server.fetch(&Url::new(t.host.clone(), "/")) {
            let text = deepweb_html::visible_text(&resp.html);
            background.add_document(&text);
            home_text.insert(t.host.clone(), text);
        }
    }
    (background, home_text)
}

/// Experiment scale: `Smoke` for unit/integration tests, `Paper` for the
/// report binary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Seconds-fast, tiny web.
    Smoke,
    /// The real run (still laptop-scale).
    Paper,
}

impl Scale {
    /// Scale a count: smoke gets the small value, paper the large one.
    pub fn pick(self, smoke: usize, paper: usize) -> usize {
        match self {
            Scale::Smoke => smoke,
            Scale::Paper => paper,
        }
    }
}
