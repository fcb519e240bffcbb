//! Freshness-tier byte-identity (DESIGN.md §15).
//!
//! The contract under test: a [`SegmentedIndex`] serving a base index plus
//! delta segments ranks **byte-identically** to a from-scratch rebuild over
//! the same docs — at every serving tier (sequential, and the tier's one
//! batched read through the service trait), at every point in the segment lifecycle
//! (before, during and after a background merge), and for every pruning
//! mode. Queries must keep serving while a merge runs on another thread.

use deepweb::common::{derive_rng, ThreadPool, Url};
use deepweb::index::{
    BatchDoc, DocKind, Hit, PruningMode, SearchIndex, SearchOptions, SearchService, SegmentedIndex,
};
use deepweb::queries::{generate_workload, WorkloadConfig};
use deepweb::webworld::grow_site;
use deepweb::{quick_config, DeepWebSystem, SystemConfig};

/// Build the full doc batch a system indexed, in canonical order.
fn system_docs(sys: &DeepWebSystem) -> Vec<BatchDoc> {
    (0..sys.index.len())
        .map(|i| {
            let d = sys.index.docs().get(deepweb::common::DocId(i as u32));
            BatchDoc {
                url: d.url.clone(),
                title: d.title.clone(),
                text: d.text.clone(),
                kind: d.kind,
                site: d.site,
                annotations: d.annotations.clone(),
            }
        })
        .collect()
}

fn rebuild(docs: &[BatchDoc]) -> SearchIndex {
    let mut idx = SearchIndex::new();
    idx.add_batch(&ThreadPool::new(1), docs.to_vec());
    idx
}

fn workload(sys: &DeepWebSystem, n: usize, label: &str) -> Vec<String> {
    let wl = generate_workload(
        &sys.world,
        &WorkloadConfig {
            distinct: 60,
            ..Default::default()
        },
    );
    let mut rng = derive_rng(17, label);
    let mut qs = wl.sample_batch(n, &mut rng);
    qs.push(String::new());
    qs.push("the of and".into());
    qs.push("zzzzzz qqqqqq".into());
    qs
}

/// Delta segments vs from-scratch rebuild: identical hits at every tier and
/// every pruning mode, before and after merge.
#[test]
fn segmented_serving_matches_rebuild_at_every_tier() {
    let sys = DeepWebSystem::build(&quick_config(6));
    let docs = system_docs(&sys);
    assert!(docs.len() > 30, "need a non-trivial corpus");
    let split = docs.len() * 2 / 3;
    let reference = rebuild(&docs);

    let segmented = SegmentedIndex::new(rebuild(&docs[..split]));
    // Two delta segments, stacked.
    let mid = split + (docs.len() - split) / 2;
    assert_eq!(segmented.apply(docs[split..mid].to_vec()), mid - split);
    assert_eq!(segmented.apply(docs[mid..].to_vec()), docs.len() - mid);
    assert_eq!(segmented.num_segments(), 2);
    assert_eq!(segmented.num_docs(), docs.len());

    let queries = workload(&sys, 40, "freshness-tiers");
    let mut option_sets = Vec::new();
    for use_annotations in [false, true] {
        for pruning in [PruningMode::Exhaustive, PruningMode::BlockMax] {
            option_sets.push(SearchOptions {
                use_annotations,
                pruning,
            });
        }
    }
    for phase in ["pre-merge", "post-merge"] {
        for opts in &option_sets {
            let expected: Vec<Vec<Hit>> = queries
                .iter()
                .map(|q| reference.searcher(*opts).search(q, 10))
                .collect();
            // Sequential tier.
            let got: Vec<Vec<Hit>> = queries
                .iter()
                .map(|q| segmented.snapshot().search(q, 10, *opts))
                .collect();
            assert_eq!(got, expected, "{phase} sequential opts={opts:?}");
            // Service-trait tier.
            assert_eq!(
                segmented.searcher(*opts).search_batch(&queries, 10),
                expected,
                "{phase} service opts={opts:?}"
            );
        }
        if phase == "pre-merge" {
            assert_eq!(segmented.merge(), docs.len() - split);
            assert_eq!(segmented.num_segments(), 0);
        }
    }
}

/// A merge running on another OS thread never perturbs a single result:
/// every query served mid-merge equals the rebuild reference (and the
/// post-merge answer).
#[test]
fn queries_serve_identically_while_a_merge_runs() {
    let sys = DeepWebSystem::build(&quick_config(6));
    let docs = system_docs(&sys);
    let split = docs.len() / 2;
    let reference = rebuild(&docs);
    let segmented = SegmentedIndex::new(rebuild(&docs[..split]));
    // Many small segments make the merge long enough to race against.
    for chunk in docs[split..].chunks(3) {
        segmented.apply(chunk.to_vec());
    }
    assert!(segmented.num_segments() >= 5);

    let queries = workload(&sys, 30, "freshness-midmerge");
    let opts = sys.options;
    let expected: Vec<Vec<Hit>> = queries
        .iter()
        .map(|q| reference.searcher(opts).search(q, 10))
        .collect();
    std::thread::scope(|s| {
        let seg = &segmented;
        let merger = s.spawn(move || seg.merge());
        // Hammer reads while the merge runs (and after it lands — both
        // generations must serve the same bytes).
        for round in 0..6 {
            for (q, want) in queries.iter().zip(&expected) {
                assert_eq!(
                    &segmented.snapshot().search(q, 10, opts),
                    want,
                    "round {round} q={q:?}"
                );
            }
        }
        assert_eq!(merger.join().expect("merge thread"), docs.len() - split);
    });
    assert_eq!(segmented.num_segments(), 0);
    for (q, want) in queries.iter().zip(&expected) {
        assert_eq!(
            &segmented.snapshot().search(q, 10, opts),
            want,
            "post-merge q={q:?}"
        );
    }
}

/// End-to-end freshness loop: grow a site's backend, refresh, and the new
/// content becomes searchable through the fresh tier without a rebuild.
#[test]
fn refresh_makes_grown_content_searchable() {
    let cfg: SystemConfig = quick_config(6);
    let mut sys = DeepWebSystem::build(&cfg);
    let grown_host = sys
        .outcome
        .reports
        .iter()
        .find(|r| r.pages_surfaced > 0)
        .expect("some site surfaced")
        .host
        .clone();
    let site_idx = sys
        .world
        .server
        .sites()
        .iter()
        .position(|s| s.host == grown_host)
        .expect("site exists");
    grow_site(&mut sys.world, site_idx, 30, 99);
    let out = sys.refresh(sys.world.server.sites().len());
    assert_eq!(out.changed, 1);
    assert!(out.new_docs > 0, "{out:?}");
    let base_len = sys.index.len();
    let batch_urls: Vec<Url> = sys.outcome.docs.iter().map(|d| d.url.clone()).collect();
    let fresh = sys.fresh_index();
    let snapshot = fresh.snapshot();
    assert_eq!(fresh.num_docs(), base_len + out.new_docs);
    // Every appended doc belongs to the grown host, is genuinely new (the
    // batch build never saw its URL), and at least one is real deep-web
    // content (a results or detail page, not a re-crawled surface page).
    let mut deep = 0;
    for seg in snapshot.segments() {
        for d in seg.docs() {
            assert_eq!(d.url.host, grown_host);
            assert!(
                !batch_urls.contains(&d.url),
                "delta re-indexed a known URL: {}",
                d.url
            );
            if matches!(d.kind, DocKind::Surfaced | DocKind::Discovered) {
                deep += 1;
            }
        }
    }
    assert!(deep > 0, "growth should surface deep-web pages");
}
