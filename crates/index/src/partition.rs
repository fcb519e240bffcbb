//! Doc-range partitions — the bottom layer of the cluster serving tier
//! (DESIGN.md §13).
//!
//! A partition is a contiguous doc-id range `[lo, hi)` over one shared,
//! immutable [`SearchIndex`](crate::index::SearchIndex) — a pair of numbers,
//! not an object. Splitting by *document* rather than by term keeps every
//! per-doc score whole inside exactly one partition: the aggregator hands
//! each range to the one kernel, which folds contributions in query-term
//! order — the same floating-point sequence, over the same *global* BM25
//! statistics (N, df, avg doc length), as the sequential searcher.
//! Per-partition top-k is therefore **exact**, and the aggregator's merge of
//! exact top-k lists under the strict score-desc/doc-id-asc order reproduces
//! the global top-k byte-for-byte.

use crate::view::doc_bound;

/// Contiguous doc-id ranges covering `num_docs` documents in `parts` slices,
/// sized as evenly as possible (first `num_docs % parts` slices get the
/// extra doc). Pure and deterministic: the layout is a function of the two
/// counts alone, never of build order or hashing. Doc ids are `u32`, so a
/// count past `u32::MAX` saturates: the ranges stay monotone and
/// non-overlapping, and the docs past the last id are simply not covered.
pub fn partition_ranges(num_docs: usize, parts: usize) -> Vec<(u32, u32)> {
    let parts = parts.max(1);
    let base = num_docs / parts;
    let extra = num_docs % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut lo = 0usize;
    for p in 0..parts {
        let hi = lo + base + usize::from(p < extra);
        ranges.push((doc_bound(lo), doc_bound(hi)));
        lo = hi;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docstore::DocKind;
    use crate::index::SearchIndex;
    use crate::searcher::{merge_topk, search, top_k_range, Hit, QueryScratch, SearchOptions};
    use crate::view::IndexView;
    use deepweb_common::Url;

    #[test]
    fn ranges_cover_exactly_once() {
        for num_docs in [0usize, 1, 2, 7, 64, 65, 100] {
            for parts in [1usize, 2, 3, 4, 7, 13] {
                let ranges = partition_ranges(num_docs, parts);
                assert_eq!(ranges.len(), parts);
                let mut expect_lo = 0u32;
                for &(lo, hi) in &ranges {
                    assert_eq!(lo, expect_lo, "gap or overlap at {lo}");
                    assert!(hi >= lo);
                    expect_lo = hi;
                }
                assert_eq!(expect_lo as usize, num_docs, "ranges must cover all docs");
                let sizes: Vec<u32> = ranges.iter().map(|&(lo, hi)| hi - lo).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "ranges must be balanced: {sizes:?}");
            }
        }
    }

    #[test]
    fn zero_parts_clamps_to_one() {
        assert_eq!(partition_ranges(5, 0), vec![(0, 5)]);
    }

    /// Past `u32::MAX` docs the pairs saturate instead of wrapping: still
    /// monotone and non-overlapping, so the kernel is never handed a range
    /// that aliases low doc ids.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn ranges_past_u32_max_saturate_monotonically() {
        const MAX: usize = u32::MAX as usize;
        for num_docs in [MAX + 10, 3 * MAX] {
            for parts in [1usize, 3, 7] {
                let ranges = partition_ranges(num_docs, parts);
                assert_eq!(ranges.len(), parts);
                assert_eq!(ranges[0].0, 0);
                let mut prev_hi = 0u32;
                for &(lo, hi) in &ranges {
                    assert_eq!(lo, prev_hi, "gap or overlap: {ranges:?}");
                    assert!(lo <= hi, "inverted range: {ranges:?}");
                    prev_hi = hi;
                }
                assert_eq!(prev_hi, u32::MAX, "the last bound saturates");
            }
        }
    }

    #[test]
    fn partition_topk_union_contains_global_topk() {
        let mut idx = SearchIndex::new();
        let texts = [
            "honda civic mileage",
            "used ford focus",
            "honda accord review",
            "ford truck listing",
            "civic and focus compared",
            "cooking recipes",
            "honda focus hybrid rumour",
        ];
        for (i, text) in texts.iter().enumerate() {
            idx.add(
                Url::new("p.sim", format!("/d{i}")),
                String::new(),
                (*text).into(),
                DocKind::Surface,
                None,
                vec![],
            );
        }
        let opts = SearchOptions::default();
        let view = IndexView::sealed(&idx);
        let k = 3;
        for parts in [1usize, 2, 3, 7] {
            let ranges = partition_ranges(idx.len(), parts);
            for q in ["honda", "ford focus", "honda civic focus"] {
                let global = search(&idx, q, k, opts);
                let mut scratch = QueryScratch::new();
                scratch.analyze(q);
                scratch.resolve(&view);
                let sig = scratch.resolved_sig().to_vec();
                let lists: Vec<Vec<Hit>> = ranges
                    .iter()
                    .map(|&(lo, hi)| top_k_range(&view, &sig, k, opts, lo, hi, &mut scratch))
                    .collect();
                assert_eq!(merge_topk(&lists, k), global, "parts={parts} q={q:?}");
            }
        }
    }
}
