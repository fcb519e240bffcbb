//! Property tests for freshness-tier byte-identity (DESIGN.md §15).
//!
//! Over randomly generated webworlds and arbitrary base/delta splits, a
//! [`SegmentedIndex`] must rank byte-identically to a from-scratch rebuild —
//! plain and annotation-aware, exhaustive and block-max, before and after the
//! merge.

use deepweb::common::{ids::RecordId, ThreadPool, Url};
use deepweb::html::Document;
use deepweb::index::{
    Annotation, BatchDoc, DocKind, PruningMode, SearchIndex, SearchOptions, SearchService,
    SegmentedIndex,
};
use deepweb::webworld::{generate, Fetcher, WebConfig, World};
use proptest::prelude::*;

/// Render a world into an indexable doc batch: home/about/search pages per
/// site plus a few annotated detail pages — enough dictionary, facet and
/// doc-length variety to exercise every identity-sensitive code path
/// (overlay interning, global BM25 stats, annotation replay).
fn docs_for(w: &World) -> Vec<BatchDoc> {
    let mut docs = Vec::new();
    for site in w.server.sites() {
        for path in ["/", "/about", "/search"] {
            let url = Url::new(site.host.clone(), path);
            let Ok(resp) = w.server.fetch(&url) else {
                continue;
            };
            let page = Document::parse(&resp.html);
            docs.push(BatchDoc {
                url,
                title: page
                    .find("title")
                    .map(|t| t.text_content())
                    .unwrap_or_default(),
                text: page.text(),
                kind: DocKind::Surface,
                site: Some(site.id),
                annotations: Vec::new(),
            });
        }
        for i in 0..site.table.len().min(5) {
            let url = Url::parse(&format!("http://{}/item?id={i}", site.host)).unwrap();
            let Ok(resp) = w.server.fetch(&url) else {
                continue;
            };
            let page = Document::parse(&resp.html);
            // Annotate detail pages from their row tokens so delta segments
            // must replay facet-key and value interning exactly.
            let annotations = site
                .table
                .row_tokens(RecordId(i as u32))
                .iter()
                .take(2)
                .enumerate()
                .map(|(j, tok)| Annotation {
                    key: format!("field{j}"),
                    value: tok.clone(),
                })
                .collect();
            docs.push(BatchDoc {
                url,
                title: page
                    .find("title")
                    .map(|t| t.text_content())
                    .unwrap_or_default(),
                text: page.text(),
                kind: DocKind::Surfaced,
                site: Some(site.id),
                annotations,
            });
        }
    }
    docs
}

fn rebuild(docs: &[BatchDoc]) -> SearchIndex {
    let mut idx = SearchIndex::new();
    idx.add_batch(&ThreadPool::new(1), docs.to_vec());
    idx.enable_pruning();
    idx
}

/// Queries mixing indexed row tokens (hits), structural words, edge cases
/// and unknown terms.
fn queries_for(w: &World) -> Vec<String> {
    let mut qs: Vec<String> = vec![
        String::new(),
        "the of and".into(),
        "zzzzzz qqqqqq".into(),
        "search listings database".into(),
    ];
    for site in w.server.sites().iter().take(4) {
        let toks = site.table.row_tokens(RecordId(0));
        if let Some(t) = toks.first() {
            qs.push(t.clone());
        }
        if toks.len() >= 3 {
            qs.push(format!("{} {}", toks[1], toks[2]));
        }
    }
    qs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any world shape, split point and segment count: segmented serving
    /// == rebuild, pre- and post-merge.
    #[test]
    fn segment_merge_equals_full_rebuild(
        num_sites in 2usize..6,
        seed in 1u64..500,
        split_pct in 5usize..95,
        n_segments in 1usize..4,
        ann_flag in 0usize..2,
    ) {
        let use_annotations = ann_flag == 1;
        let w = generate(&WebConfig {
            num_sites,
            seed,
            popular_hosts: 2,
            table_hosts: 1,
            ..WebConfig::default()
        });
        let docs = docs_for(&w);
        prop_assume!(docs.len() >= 8);
        let split = (docs.len() * split_pct / 100).clamp(1, docs.len() - 1);
        let reference = rebuild(&docs);
        let segmented = SegmentedIndex::new(rebuild(&docs[..split]));
        // Spread the delta over n roughly-equal stacked segments.
        let delta = &docs[split..];
        let per = delta.len().div_ceil(n_segments);
        for chunk in delta.chunks(per.max(1)) {
            segmented.apply(chunk.to_vec());
        }
        prop_assert_eq!(segmented.num_docs(), docs.len());

        let opts = SearchOptions { use_annotations, ..Default::default() };
        let queries = queries_for(&w);
        // The reference is the exhaustive rebuild; the tier must match it in
        // both pruning modes (block-max prunes the base under the pending
        // generation's statistics) and at a k that keeps only the winner.
        for phase in ["pre-merge", "post-merge"] {
            for k in [1usize, 10] {
                for q in &queries {
                    let want = reference.searcher(opts).search(q, k);
                    for pruning in [PruningMode::Exhaustive, PruningMode::BlockMax] {
                        prop_assert!(
                            segmented.snapshot().search(q, k, SearchOptions { pruning, ..opts }) == want,
                            "{phase} {pruning:?} diverges on q={q:?} k={k}"
                        );
                    }
                }
            }
            if phase == "pre-merge" {
                prop_assert_eq!(segmented.merge(), docs.len() - split);
                prop_assert_eq!(segmented.num_segments(), 0);
            }
        }
    }
}
