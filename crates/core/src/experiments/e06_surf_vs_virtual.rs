//! E6 — surfacing vs virtual integration (paper §3): surfacing answers
//! queries in every domain with zero query-time site load and zero curated
//! mappings; virtual integration answers only mapped verticals, issues live
//! requests per query, and needs per-source mapping effort.

use super::Scale;
use crate::report::{pct, TextTable};
use crate::system::{quick_config, DeepWebSystem};
use deepweb_common::derive_rng;
use deepweb_index::DocKind;
use deepweb_queries::{generate_workload, WorkloadConfig};
use deepweb_vertical::{register_sources, VerticalEngine};

/// Key numbers.
#[derive(Clone, Copy, Debug)]
pub struct SurfVsVirtualResult {
    /// Queries answered (top-10 non-empty) by surfacing.
    pub surf_answered: f64,
    /// Queries answered by the vertical engine.
    pub vert_answered: f64,
    /// Mean live site requests per query (vertical).
    pub vert_requests_per_query: f64,
    /// Curated mappings the vertical engine needed.
    pub vert_mappings: usize,
    /// Distinct domains with ≥1 registered vertical source.
    pub vert_domains: usize,
    /// Distinct domains with ≥1 surfaced page.
    pub surf_domains: usize,
}

/// Run E6 on a shared world.
pub fn run(scale: Scale) -> (Vec<TextTable>, SurfVsVirtualResult) {
    let mut cfg = quick_config(scale.pick(15, 60));
    cfg.web.post_fraction = 0.0;
    // Build on the sharded parallel pipeline — output is deterministic at
    // any worker count, so the comparison below is unaffected.
    cfg.surfacer.num_workers = deepweb_common::pool::default_parallelism();
    let sys = DeepWebSystem::build(&cfg);
    let hosts: Vec<String> = sys
        .world
        .truth
        .sites
        .iter()
        .map(|t| t.host.clone())
        .collect();
    let registry = register_sources(&sys.world.server, &hosts);
    let vert_mappings = registry.total_mappings();
    let vert_domains: std::collections::BTreeSet<String> =
        registry.sources.iter().map(|s| s.domain.clone()).collect();
    let engine = VerticalEngine::new(&sys.world.server, registry);

    let wl = generate_workload(
        &sys.world,
        &WorkloadConfig {
            distinct: scale.pick(80, 400),
            ..Default::default()
        },
    );
    let mut rng = derive_rng(61, "e06");
    let stream = wl.stream(scale.pick(200, 1500), &mut rng);

    let mut surf_answered = 0usize;
    let mut vert_answered = 0usize;
    let mut vert_requests = 0u64;
    sys.world.server.reset_counts();
    for qid in &stream {
        let q = wl.query(*qid);
        let hits = sys.search(&q.text, 10);
        if !hits.is_empty() {
            surf_answered += 1;
        }
        let (vhits, stats) = engine.answer(&q.text, 10);
        if !vhits.is_empty() {
            vert_answered += 1;
        }
        vert_requests += stats.requests;
    }
    let vert_live_load = sys.world.server.total_requests();

    // Surfacing amortisation: offline requests per record exposed.
    let records_exposed: usize = sys.outcome.reports.iter().map(|r| r.records_covered).sum();
    let surf_offline_per_record = sys.offline_requests as f64 / records_exposed.max(1) as f64;
    let surf_domains: std::collections::BTreeSet<&str> = sys
        .index
        .docs()
        .iter()
        .filter(|d| d.kind == DocKind::Surfaced)
        .filter_map(|d| d.site)
        .map(|sid| sys.world.server.site(sid).domain.name())
        .collect();

    let n = stream.len() as f64;
    let mut t = TextTable::new(
        "E6: surfacing vs virtual integration on one keyword workload (paper §3)",
        &["metric", "surfacing", "virtual integration"],
    );
    t.row(&[
        "queries answered (top-10 non-empty)".into(),
        pct(surf_answered as f64 / n),
        pct(vert_answered as f64 / n),
    ]);
    t.row(&[
        "live site requests per query".into(),
        "0.00 (offline, amortised)".into(),
        format!("{:.2}", vert_requests as f64 / n),
    ]);
    t.row(&[
        "curated schema mappings".into(),
        "0".into(),
        vert_mappings.to_string(),
    ]);
    t.row(&[
        "content domains reachable".into(),
        surf_domains.len().to_string(),
        vert_domains.len().to_string(),
    ]);
    t.row(&[
        "offline crawl requests per record exposed".into(),
        format!("{surf_offline_per_record:.2}"),
        "n/a".into(),
    ]);
    t.row(&[
        "total live load during workload".into(),
        "0".into(),
        vert_live_load.to_string(),
    ]);

    let result = SurfVsVirtualResult {
        surf_answered: surf_answered as f64 / n,
        vert_answered: vert_answered as f64 / n,
        vert_requests_per_query: vert_requests as f64 / n,
        vert_mappings,
        vert_domains: vert_domains.len(),
        surf_domains: surf_domains.len(),
    };
    (vec![t], result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surfacing_wins_breadth_virtual_costs_live_load() {
        let (_, r) = run(Scale::Smoke);
        // Breadth: surfacing reaches more domains and answers more queries.
        assert!(r.surf_domains >= r.vert_domains);
        assert!(r.surf_answered >= r.vert_answered);
        // Virtual integration pays live per-query requests and mapping
        // effort; surfacing pays neither at query time.
        assert!(r.vert_requests_per_query > 0.0);
        assert!(r.vert_mappings > 0);
    }
}
