//! Quickstart: generate a synthetic web, surface its deep-web content into
//! a search index, and serve keyword queries.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use deepweb::index::{search, PruningMode, SearchOptions};
use deepweb::{quick_config, DeepWebSystem};

fn main() {
    // A 12-site web with the default domain mix (cars, real estate, jobs,
    // government portals, ...). Everything is deterministic under the seed.
    let mut cfg = quick_config(12);
    cfg.web.post_fraction = 0.0;
    println!("building web + surfacing (offline phase)...");
    let sys = DeepWebSystem::build(&cfg);

    println!(
        "web: {} sites, {} records, {} languages",
        sys.world.truth.sites.len(),
        sys.world.truth.total_records(),
        sys.world.truth.languages().len()
    );
    let stats = sys.index.stats();
    println!(
        "index: {} docs, {} terms, {} postings (offline requests: {})",
        stats.docs, stats.terms, stats.postings, sys.offline_requests
    );

    for query in [
        "used honda civic",
        "italian restaurants",
        "regulation census",
    ] {
        println!("\nquery: {query:?}");
        for hit in sys.search(query, 3) {
            let Some(doc) = sys.index.doc(hit.doc) else {
                continue;
            };
            let snippet = deepweb::index::snippet(&doc.text, query, 12);
            println!("  [{:5.2}] {} ({:?})", hit.score, doc.url, doc.kind);
            println!("          {snippet}");
        }
    }
    // The same query served with block-max pruning — byte-identical to the
    // exhaustive hits above (DESIGN.md §14).
    let pruned = SearchOptions {
        pruning: PruningMode::BlockMax,
        ..sys.options
    };
    assert_eq!(
        search(&sys.index, "used honda civic", 3, pruned),
        sys.search("used honda civic", 3)
    );

    // Serving never touches the underlying sites — that is the point of
    // surfacing (paper §3.2).
    sys.world.server.reset_counts();
    let _ = sys.search("used honda civic", 10);
    assert_eq!(sys.world.server.total_requests(), 0);
    println!("\nserve-time site load: 0 requests (content is pre-surfaced)");
}
